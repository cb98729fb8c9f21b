"""The two drivers: agreement, cost profiles and instrumentation."""
from __future__ import annotations

import inspect
import sys
import weakref
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from math import comb, factorial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from subtab import (
    PROBLEMS,
    SizeLimit,
    Solver,
    TipZ,
    UnknownName,
    blank,
    bu,
    bu_call_count,
    choose,
    digest_problem,
    flatten,
    get_problem,
    run_instrumented,
    subtree_count_problem,
    td,
    td_call_count,
)
import subtab.induction as induction
from subtab.induction import bu_spec

COUNT = subtree_count_problem().solver
DIGEST = digest_problem().solver


def test_drivers_agree_on_small_examples():
    assert td(COUNT, ()) == 1
    assert bu(COUNT, ()) == 1
    assert td(COUNT, ("a", "b", "c")) == 16
    assert bu(COUNT, ("a", "b", "c")) == 16


def test_drivers_agree_on_seeded_random_inputs():
    rng = Random(7)
    for trial in range(60):
        n = trial % 7
        xs = tuple(rng.randrange(100) for _ in range(n))
        assert td(DIGEST, xs) == bu(DIGEST, xs)


# td makes 69,281 g calls at n = 8; ten examples keep this to a few seconds
@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=8).map(tuple))
def test_drivers_agree_property(xs):
    assert td(DIGEST, xs) == bu_spec(DIGEST, xs) == bu(DIGEST, xs)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_bu_matches_its_tree_spec_at_n_12(name):
    problem = get_problem(name)
    numbers = tuple(Random(12).randrange(50) for _ in range(12))
    # min-removal sums its sublists, so its text input is bytes: ints
    # that slice and concatenate the way str does
    text = bytes(numbers) if problem.domain == "numbers" else "qwertyuiopas"
    for xs in (numbers, text):
        assert bu(problem.solver, xs) == bu_spec(problem.solver, xs)


# keys are slices joined with +: a source whose slices cannot be joined
# (a range) is read as a tuple, every other source keeps its type
@pytest.mark.parametrize(
    "xs, key_type",
    [(range(3), tuple), (range(9, 0, -2), tuple), (b"abcd", bytes), ("abcd", str),
     ((1, 2, 3), tuple), ([1, 2, 3], list), (array("b", [1, 2, 3]), array)],
    ids=["range", "range-step", "bytes", "str", "tuple", "list", "array"],
)
def test_sources_answer_as_their_tuples(xs, key_type):
    keys = flatten(choose(1, xs))
    assert [type(ys) for ys in keys] == [key_type] * len(xs)
    assert [tuple(ys) for ys in keys] == [(x,) for x in reversed(tuple(xs))]
    want = td(DIGEST, tuple(xs))
    for driver in (td, bu, bu_spec):
        assert driver(DIGEST, xs) == want


SOURCES = {
    "str": lambda n: "abcdefghijklmnop"[:n],
    "tuple": lambda n: tuple(range(n)),
    "list": lambda n: list(range(n)),
    "bytes": lambda n: bytes(range(n)),
    "array": lambda n: array("b", range(n)),
    "range": lambda n: range(n),
}


@pytest.mark.parametrize("make", SOURCES.values(), ids=SOURCES.keys())
def test_td_children_drop_each_position_in_choose_order(make):
    for n in range(1, 9):
        xs = make(n)
        ys = tuple(xs) if type(xs) is range else xs  # td reads a range as a tuple
        assert tuple(ys[:i] + ys[i + 1 :] for i in range(n)) == flatten(choose(n - 1, xs))


def test_td_reads_a_range_as_a_tuple_at_every_call():
    xs = range(3, 10)
    answers = []
    for driver, calls in ((td, td_call_count), (bu, bu_call_count)):
        keys = []

        def g(ys, children):
            keys.append(ys)
            return DIGEST.g(ys, children)

        answers.append(driver(Solver(e=DIGEST.e, g=g), xs))
        assert {type(ys) for ys in keys} == {tuple}
        assert keys[-1] == tuple(xs)  # the top call is the last
        assert len(keys) == calls(len(xs))
    assert answers[0] == answers[1] == bu_spec(DIGEST, xs)


def _descent_events(xs):
    """The e and g calls of a top-down recursion that stops at the empty
    sequence; each answer is the number of events logged so far."""
    events = []

    def solve(ys):
        if not ys:
            events.append(("e",))
        else:
            children = tuple(solve(ys[:i] + ys[i + 1 :]) for i in range(len(ys)))
            events.append(("g", ys, children))
        return len(events)

    solve(xs)
    return events


@pytest.mark.parametrize("make", SOURCES.values(), ids=SOURCES.keys())
def test_td_calls_e_and_g_as_a_descent_to_the_empty_sequence(make):
    for n in range(7):
        xs = make(n)
        events = []

        def e():
            events.append(("e",))
            return len(events)

        def g(ys, children):
            events.append(("g", ys, children))
            return len(events)

        answer = td(Solver(e=e, g=g), xs)
        want = _descent_events(tuple(xs) if type(xs) is range else xs)
        assert events == want
        assert answer == len(want)


def test_td_makes_no_frame_per_singleton():
    n = 6
    calls = Counter()

    def e():
        return 0

    def g(ys, children):
        return len(children)

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code if frame.f_code in (e.__code__, g.__code__) else "other"] += 1

    sys.setprofile(profile)
    try:
        td(Solver(e=e, g=g), tuple(range(n)))
    finally:
        sys.setprofile(None)
    assert calls[e.__code__] == factorial(n) and calls[g.__code__] == td_call_count(n)
    # one frame per visit to a sublist of size >= 2 and a few per run; a frame
    # per singleton would add factorial(n) = 720
    assert calls["other"] <= td_call_count(n) - factorial(n) + 8


@pytest.mark.parametrize("xs", [tuple(range(21)), range(2000)], ids=["21", "2000"])
def test_td_is_limited_to_20_elements(xs):
    calls = []
    solver = Solver(e=lambda: 0, g=lambda ys, children: calls.append(ys))
    with pytest.raises(SizeLimit, match=f"^td is limited to 20 elements, got {len(xs)}$"):
        td(solver, xs)
    assert calls == []


def test_bu_calls_g_like_its_tree_spec():
    def recording(calls):
        def g(ys, children):
            calls.append((ys, children))
            return ys
        return Solver(e=lambda: "", g=g)

    # answers are the keys themselves, so equal calls mean equal keys,
    # children tables and order
    for n in range(11):
        for xs in ("abcdefghij"[:n], tuple(range(n))):
            flat, tree = [], []
            bu(recording(flat), xs)
            bu_spec(recording(tree), xs)
            assert flat == tree
            assert [type(ys) for ys, _ in flat] == [type(xs)] * (2**n - 1)
            # bu answers each sublist once
            assert len({ys for ys, _ in flat}) == 2**n - 1


@pytest.mark.parametrize("make", SOURCES.values(), ids=SOURCES.keys())
def test_bu_keys_keep_the_source_type_and_match_its_tree_spec(make):
    def recording(calls):
        def g(ys, children):
            calls.append((ys, children))
            return len(calls)
        return Solver(e=lambda: 0, g=g)

    for n in range(9):
        xs = make(n)
        flat, tree = [], []
        bu(recording(flat), xs)
        bu_spec(recording(tree), xs)
        assert flat == tree and len(flat) == 2**n - 1
        key_type = tuple if type(xs) is range else type(xs)
        assert all(type(ys) is key_type for ys, _ in flat)


@pytest.mark.slow
@pytest.mark.parametrize("make", SOURCES.values(), ids=SOURCES.keys())
def test_drivers_keep_the_key_type_and_agree_at_16_and_8_elements(make):
    # digest answers alike for a key and the tuple of its elements, so
    # the class of each key g is given is checked apart from the answer
    for driver, n in ((bu, 16), (td, 8)):
        xs = make(n)
        key_types = set()

        def g(ys, children):
            key_types.add(type(ys))
            return DIGEST.g(ys, children)

        answer = driver(Solver(e=DIGEST.e, g=g), xs)
        assert key_types == {tuple if type(xs) is range else type(xs)}
        assert answer == driver(DIGEST, tuple(xs))
    assert answer == bu(DIGEST, xs)  # td's answer at n = 8 is bu's on the same source


class _ReachedLevelThree(Exception):
    pass


def test_bu_recursion_depth_is_bounded_by_the_level_not_by_n():
    def g(ys, children):
        if len(ys) == 3:
            raise _ReachedLevelThree
        return 0

    # a recursion down the left spine would go 150 deep; bu's cd goes
    # k + 1.  Level 2 of 150 elements is already C(150, 3) = 551,300 rows.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(_ReachedLevelThree):
            bu(Solver(e=lambda: 0, g=g), tuple(range(150)))
    finally:
        sys.setrecursionlimit(limit)


class _Answer:
    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("source", [tuple(range(12)), "abcdefghijkl"], ids=["tuple", "str"])
def test_bu_keeps_two_levels_of_answers_live(source):
    # while level k + 1 is answered, level k - 1 must be gone
    for n in range(1, len(source) + 1):
        live = weakref.WeakSet()
        excess = []

        def answer():
            live.add(result := _Answer())
            return result

        def g(ys, children):
            k = len(ys) - 1
            excess.append(len(live) - comb(n, k) - comb(n, k + 1))
            return answer()

        bu(Solver(e=answer, g=g), source[:n])
        assert len(excess) == 2**n - 1 and max(excess) <= 0


def test_drivers_pass_children_as_a_tuple_of_answers():
    # every answer is a fresh object, so `is` tells which g call made it
    for driver in (td, bu, bu_spec):
        for n in range(9):
            latest = {}
            solved = []

            def answer(ys):
                latest[ys] = object()
                return latest[ys]

            def g(ys, children):
                subs = flatten(choose(len(ys) - 1, ys))
                assert type(children) is tuple and len(children) == len(subs)
                # td recomputes sublists; the answer passed is the latest,
                # and in bu the only one: nothing is copied
                assert all(c is latest[s] for c, s in zip(children, subs))
                solved.append(ys)
                return answer(ys)

            driver(Solver(e=lambda: answer(()), g=g), tuple(range(n)))
            assert len(solved) == (td_call_count if driver is td else bu_call_count)(n)
            if driver is bu:
                assert len(set(solved)) == len(solved)


def test_bu_shares_one_tip_per_answer():
    kept = []

    def g(ys, children):
        kept.append((len(ys), children))
        return object()

    # every answer is a fresh object kept alive, so no object id is reused
    # and the children of all (k+1)-sublists hold one object per k-sublist
    for n in range(9):
        kept.clear()
        bu(Solver(e=object, g=g), tuple(range(n)))
        for k in range(n):
            tips = {id(c) for size, children in kept if size == k + 1 for c in children}
            assert len(tips) == comb(n, k)


def test_bu_shares_one_last_tip_per_run():
    kept = []
    answers = {}

    def g(ys, children):
        kept.append((ys, children))
        answers[ys] = object()
        return answers[ys]

    def e():
        answers[()] = object()
        return answers[()]

    # (k+1)-sublists sharing their first k positions share, as last child,
    # the one object answering that prefix
    for n in range(9):
        kept.clear()
        answers.clear()
        bu(Solver(e=e, g=g), tuple(range(n)))
        for k in range(n):
            lasts = set()
            for ys, children in kept:
                if len(ys) == k + 1:
                    assert children[-1] is answers[ys[:-1]]
                    lasts.add(id(children[-1]))
            assert len(lasts) == comb(n - 1, k)


def test_driver_agreement_catches_order_dependence():
    # a solver digesting children in order disagrees across drivers if
    # either driver permutes a children tuple
    def scrambled_bu(solver, xs):
        return bu(Solver(e=solver.e, g=lambda ys, children: solver.g(ys, children[::-1])), xs)

    xs = (1, 2, 3)
    assert scrambled_bu(DIGEST, xs) != td(DIGEST, xs)
    assert bu(DIGEST, xs) == td(DIGEST, xs)


def test_td_call_profile():
    result, stats = run_instrumented("td", COUNT, ("a", "b", "c", "d"))
    assert result == 65
    assert stats.g_calls == 41
    assert stats.e_calls == 24
    assert stats.peak_nesting == 1
    assert stats.wall_ns > 0
    by_size = {}
    for key, count in stats.g_key_counts.items():
        by_size.setdefault(len(key), set()).add(count)
    # every j-element sublist is recomputed (4 - j)! times
    assert by_size == {1: {6}, 2: {2}, 3: {1}, 4: {1}}


def test_td_instrumentation_accepts_list_input():
    listed, list_stats = run_instrumented("td", DIGEST, [1, 2, 3])
    tupled, tuple_stats = run_instrumented("td", DIGEST, (1, 2, 3))
    assert listed == tupled
    assert list_stats.g_key_counts == tuple_stats.g_key_counts


def test_bu_call_profile():
    result, stats = run_instrumented("bu", COUNT, ("a", "b", "c", "d"))
    assert result == 65
    assert stats.g_calls == 15
    assert stats.e_calls == 1
    assert stats.peak_nesting == 2
    assert not stats.g_key_counts


def test_call_counts_match_closed_forms():
    for n in range(7):
        xs = tuple(range(n))
        _, td_stats = run_instrumented("td", COUNT, xs)
        assert td_stats.g_calls == td_call_count(n)
        assert td_stats.e_calls == factorial(n)
        _, bu_stats = run_instrumented("bu", COUNT, xs)
        assert bu_stats.g_calls == bu_call_count(n)
        assert bu_stats.e_calls == 1


def test_bu_level_records():
    for n in range(11):
        calls = Counter()

        def g(ys, children):
            calls[len(ys)] += 1
            return 1 + sum(children)

        _, stats = run_instrumented("bu", Solver(e=lambda: 1, g=g), tuple(range(n)))
        assert [level.k for level in stats.levels] == list(range(n))
        assert [level.entries for level in stats.levels] == [comb(n, k + 1) for k in range(n)]
        assert [level.live for level in stats.levels] == [
            comb(n, k) + comb(n, k + 1) for k in range(n)
        ]
        assert [level.g_calls for level in stats.levels] == [calls[k + 1] for k in range(n)]
        assert sum(level.g_calls for level in stats.levels) == stats.g_calls == bu_call_count(n)
        for level in stats.levels:
            assert level.nesting == 1  # a children tuple of ints
            for ns in (level.keys_ns, level.cd_ns, level.g_ns):
                assert type(ns) is int and ns >= 0
    _, td_stats = run_instrumented("td", COUNT, tuple(range(4)))
    assert [(level.k, level.entries, level.g_calls) for level in td_stats.levels] == [
        (0, 4, 24), (1, 6, 12), (2, 4, 4), (3, 1, 1)
    ]


def test_td_level_records():
    # one record per sublist size, as for bu: each (k + 1)-sublist is
    # answered n!/(k + 1)! / C(n, k + 1) = (n - k - 1)! times
    for n in range(9):
        xs = tuple(range(n))
        _, stats = run_instrumented("td", COUNT, xs)
        keys = Counter(map(len, stats.g_key_counts))
        assert [level.k for level in stats.levels] == list(range(n))
        for level in stats.levels:
            assert level.entries == comb(n, level.k + 1) == keys[level.k + 1]
            assert level.g_calls == factorial(n) // factorial(level.k + 1)
            assert level.nesting == 1  # a children tuple of ints
            assert level.live is level.keys_ns is level.cd_ns is level.g_ns is None
        assert sum(level.g_calls for level in stats.levels) == stats.g_calls == td_call_count(n)
        _, bu_stats = run_instrumented("bu", COUNT, xs)
        assert [(r.k, r.entries) for r in stats.levels] == [
            (r.k, r.entries) for r in bu_stats.levels
        ]


def test_td_records_count_sublists_by_position_and_keys_by_value():
    _, stats = run_instrumented("td", COUNT, "aab")
    assert [level.entries for level in stats.levels] == [3, 3, 1]
    assert [level.g_calls for level in stats.levels] == [6, 3, 1]
    assert sorted(stats.g_key_counts.items()) == [
        (("a",), 4), (("a", "a"), 1), (("a", "a", "b"), 1), (("a", "b"), 2), (("b",), 2)
    ]


def test_bu_instrumentation_runs_nothing_per_sublist():
    def python_calls(run):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return calls

    n = 8
    xs = tuple(range(n))
    plain = python_calls(lambda: bu(COUNT, xs))
    instrumented = python_calls(lambda: run_instrumented("bu", COUNT, xs))
    # a wrapper around g would add one call per sublist, 2**n - 1 = 255
    assert 0 < instrumented - plain <= 4 * n


def test_peak_nesting_profiles():
    for n in range(6):
        xs = tuple(range(n))
        _, td_stats = run_instrumented("td", COUNT, xs)
        assert td_stats.peak_nesting == (1 if n else 0)
        _, bu_stats = run_instrumented("bu", COUNT, xs)
        assert bu_stats.peak_nesting == (2 if n else 1)


def test_peak_nesting_counts_answers_that_are_tables():
    tables = Solver(e=lambda: 0, g=lambda ys, children: TipZ(len(ys)))
    profiles = {"td": [0, 1, 2, 2, 2], "bu": [1, 2, 3, 3, 3]}
    for alg, expected in profiles.items():
        runs = [run_instrumented(alg, tables, tuple(range(n))) for n in range(5)]
        assert [stats.peak_nesting for _, stats in runs] == expected


def test_peak_nesting_walk_does_not_recurse_per_nesting_level():
    deep = 0
    for _ in range(300):
        deep = TipZ(deep)
    solver = Solver(e=lambda: deep, g=lambda ys, children: children[0])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        result, stats = run_instrumented("td", solver, (1,))
    finally:
        sys.setrecursionlimit(limit)
    assert result is deep
    assert stats.peak_nesting == 301  # the children tuple and 300 tables


def test_peak_nesting_takes_a_shared_table_by_its_nodes():
    # blank(40, 20) holds 1.4e11 payloads on some 400 nodes; bu counts one
    # table layer more than td, as in the profiles above
    solver = Solver(e=lambda: blank(40, 20), g=lambda ys, children: children[0])
    for alg, layers in (("td", 0), ("bu", 1)):
        _, stats = run_instrumented(alg, solver, (1,))
        assert stats.peak_nesting == layers + 2  # the children tuple and the table


def test_instrumentation_does_not_change_the_result():
    xs = tuple(range(5))
    plain = bu(DIGEST, xs)
    instrumented, _ = run_instrumented("bu", DIGEST, xs)
    assert plain == instrumented
    with pytest.raises(ValueError):
        run_instrumented("sideways", DIGEST, xs)
    with pytest.raises(UnknownName):
        run_instrumented("sideways", DIGEST, xs)


def test_run_instrumented_picks_its_driver_by_name(monkeypatch):
    # a tracer wraps induction.td; the wrapper must still be run as td
    original = induction.td
    monkeypatch.setattr(induction, "td", lambda solver, xs: original(solver, xs))
    _, stats = run_instrumented("td", DIGEST, (1, 2, 3))
    assert stats.g_calls == td_call_count(3)
    assert len(stats.g_key_counts) == 7
    assert [(level.k, level.g_calls) for level in stats.levels] == [(0, 6), (1, 3), (2, 1)]


def test_closed_form_values_frozen():
    assert [td_call_count(n) for n in range(10)] == [
        0, 1, 3, 10, 41, 206, 1237, 8660, 69281, 623530,
    ]
    assert [bu_call_count(n) for n in range(6)] == [0, 1, 3, 7, 15, 31]
    assert bu_call_count(62) == 2**62 - 1


def test_closed_form_guards():
    td_call_count(20)
    with pytest.raises(SizeLimit, match="^td_call_count is limited to 20 elements, got 21$"):
        td_call_count(21)
    with pytest.raises(SizeLimit, match="^bu_call_count is limited to 62 elements, got 63$"):
        bu_call_count(63)
    with pytest.raises(ValueError):
        td_call_count(-1)


def test_concurrent_runs_are_independent():
    xs = tuple(range(6))
    expected = bu(DIGEST, xs)
    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(lambda _: run_instrumented("bu", DIGEST, xs), range(8)))
    for result, stats in outcomes:
        assert result == expected
        assert stats.g_calls == bu_call_count(6)
        assert stats.e_calls == 1
