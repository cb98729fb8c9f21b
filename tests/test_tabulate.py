"""Sublist tables, level raising and the laws tying them together."""
from __future__ import annotations

import inspect
import random
import sys
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given

from conftest import bitmask_sublists, shaped_trees
from subtab import (
    Bin,
    InvalidLevel,
    ShapeError,
    TipS,
    TipZ,
    UNIT,
    blank,
    bu_call_count,
    cd_classic,
    check_functor_laws,
    check_naturality,
    check_rotation,
    check_spec_equation,
    choose,
    flatten,
    map_tree,
    retabulate,
    size,
    subtree_count,
    td_call_count,
    validate_shape,
    zip_with,
)

# hand-expanded from the shape rules, payload by payload
CHOOSE_1_ABC = Bin(Bin(TipS("c"), TipZ("b")), TipZ("a"))
CHOOSE_2_ABC = Bin(TipS("bc"), Bin(TipS("ac"), TipZ("ab")))
CHOOSE_2_ABCD = Bin(
    Bin(TipS("cd"), Bin(TipS("bd"), TipZ("bc"))),
    Bin(Bin(TipS("ad"), TipZ("ac")), TipZ("ab")),
)


def test_choose_frozen_examples():
    assert choose(0, "ab") == TipZ("")
    assert choose(1, "abc") == CHOOSE_1_ABC
    assert choose(2, "abc") == CHOOSE_2_ABC
    assert choose(2, "abcd") == CHOOSE_2_ABCD
    assert choose(3, "abc") == TipS("abc")


def test_choose_keeps_the_sequence_type():
    assert flatten(choose(2, (1, 2, 3))) == ((2, 3), (1, 3), (1, 2))
    assert flatten(choose(1, "ab")) == ("b", "a")


def test_choose_orders_head_omitting_sublists_first():
    assert flatten(choose(2, "abcd")) == ("cd", "bd", "bc", "ad", "ac", "ab")
    assert flatten(choose(1, "abc")) == ("c", "b", "a")


def test_choose_lists_the_combinations_in_reverse():
    # the keys without the head come first, so the order is the reverse of
    # combinations', the order in which bu builds its keys
    for n in range(9):
        numbers, letters = tuple(range(n)), "abcdefgh"[:n]
        for k in range(n + 1):
            assert flatten(choose(k, numbers)) == tuple(reversed(list(combinations(numbers, k))))
            joined = map("".join, reversed(list(combinations(letters, k))))
            assert flatten(choose(k, letters)) == tuple(joined)


def test_choose_is_complete_against_bitmask_enumeration():
    sources = ["abcdefgh"[:n] for n in range(9)] + ["aab", "aaaa"]
    for xs in sources:
        for k in range(len(xs) + 1):
            t = choose(k, xs)
            assert validate_shape(t, len(xs), k)
            assert size(t) == comb(len(xs), k)
            got = Counter(tuple(ys) for ys in flatten(t))
            assert got == Counter(bitmask_sublists(k, xs))


def test_choose_rejects_impossible_levels():
    with pytest.raises(InvalidLevel):
        choose(3, "ab")
    with pytest.raises(InvalidLevel):
        choose(-1, "ab")


def _recursive_choose(k, xs, chosen):
    """choose's former form, one call per element, as the oracle of its loop."""
    if k == 0:
        return TipZ(chosen)
    if k == len(xs):
        return TipS(chosen + xs)
    rest = xs[1:]
    return Bin(_recursive_choose(k, rest, chosen), _recursive_choose(k - 1, rest, chosen + xs[:1]))


def test_choose_builds_the_tables_of_its_recursive_form():
    for n in range(11):
        for xs in ("abcdefghij"[:n], tuple(range(n)), list(range(n))):
            for k in range(n + 1):
                assert choose(k, xs) == _recursive_choose(k, xs, xs[:0])


def test_choose_does_not_recurse_per_element():
    xs = "a" * 1999 + "b"
    for k in (1, len(xs) - 1):
        keys = flatten(choose(k, xs))
        assert len(keys) == len(xs) and {len(ys) for ys in keys} == {k}
        # the sublist omitting the head first, the one omitting "b" last
        assert "b" in keys[0] and "b" not in keys[-1]


def test_blank_is_the_unit_table_of_choose():
    for n in range(11):
        for k in range(n + 1):
            assert blank(n, k) == map_tree(lambda _: UNIT, choose(k, tuple(range(n))))


def test_blank_does_not_recurse_per_element():
    for n, k in [(5000, 1), (5000, 4999)]:
        assert validate_shape(blank(n, k), n, k)


def test_blank_shapes_and_sizes():
    assert blank(0, 0) == TipZ(UNIT)
    assert blank(1, 1) == TipS(UNIT)
    assert blank(2, 1) == Bin(TipS(UNIT), TipZ(UNIT))
    for n in range(13):
        for k in range(n + 1):
            t = blank(n, k)
            assert validate_shape(t, n, k)
            assert size(t) == comb(n, k)
    with pytest.raises(InvalidLevel):
        blank(2, 3)
    with pytest.raises(InvalidLevel):
        blank(-1, 0)


RETAB_3_1_ABC = Bin(
    TipS(Bin(TipS("c"), TipZ("b"))),
    Bin(TipS(Bin(TipS("c"), TipZ("a"))), TipZ(Bin(TipS("b"), TipZ("a")))),
)


def test_retabulate_frozen_example():
    assert retabulate(3, 1, CHOOSE_1_ABC) == RETAB_3_1_ABC


def test_retabulate_empty_sublist_cases():
    assert retabulate(1, 0, TipZ("x")) == TipS(TipZ("x"))
    assert retabulate(2, 0, TipZ("x")) == Bin(TipS(TipZ("x")), TipZ(TipZ("x")))
    assert retabulate(3, 0, TipZ("x")) == Bin(
        Bin(TipS(TipZ("x")), TipZ(TipZ("x"))), TipZ(TipZ("x"))
    )


def test_retabulate_matches_retabulating_the_keys():
    # raising the level-k table of sublists must give, under each
    # (k+1)-sublist, the table of that sublist's own immediate sublists
    for xs in ["abcdefg"[:n] for n in range(1, 8)]:
        n = len(xs)
        for k in range(n):
            got = retabulate(n, k, choose(k, xs))
            want = map_tree(lambda ys: choose(k, ys), choose(k + 1, xs))
            assert got == want


def test_retabulate_output_shape_and_payload_shapes():
    for n in range(1, 8):
        for k in range(n):
            out = retabulate(n, k, blank(n, k))
            assert validate_shape(out, n, k + 1)
            for inner in flatten(out):
                assert validate_shape(inner, k + 1, k)


def test_retabulate_rejects_bad_levels_and_shapes():
    with pytest.raises(InvalidLevel):
        retabulate(3, 3, blank(3, 3))
    with pytest.raises(InvalidLevel):
        retabulate(3, -1, blank(3, 0))
    with pytest.raises(ShapeError):
        retabulate(3, 1, TipZ("x"))
    with pytest.raises(ShapeError):
        retabulate(4, 2, blank(4, 1))


def test_retabulate_at_level_0_is_not_bounded_by_blank():
    # the level-0 result is an n-payload chain, so blank's size bound is not its own
    n = 100_001
    out = retabulate(n, 0, TipZ(0))
    assert validate_shape(out, n, 1)
    assert flatten(out) == (TipZ(0),) * n


@given(shaped_trees(max_n=7))
def test_retabulate_naturality(case):
    n, k, t = case
    assume(k < n)
    retabulate_law, _ = check_naturality(n, k, t, TipZ(0), lambda v: 5 * v - 2)
    assert retabulate_law


CD_1_ABC = Bin(TipS(("c", "b")), Bin(TipS(("c", "a")), TipZ(("b", "a"))))


def test_cd_classic_frozen_example():
    assert cd_classic(CHOOSE_1_ABC) == CD_1_ABC


def test_cd_classic_matches_flattened_retabulate():
    for xs in ["abcdefghij"[:n] for n in range(2, 11)]:  # frames nest up to five deep
        n = len(xs)
        for k in range(1, n):
            t = choose(k, xs)
            assert cd_classic(t) == map_tree(flatten, retabulate(n, k, t))


def test_cd_classic_rejects_bare_tips():
    with pytest.raises(ShapeError):
        cd_classic(TipZ("x"))
    with pytest.raises(ShapeError):
        cd_classic(TipS("x"))


def test_cd_classic_rejects_a_right_subtree_that_stays_a_branch():
    # a tip beside a right subtree that does not raise to a single tip
    with pytest.raises(ShapeError):
        cd_classic(Bin(TipS(1), Bin(Bin(TipS(2), TipZ(3)), TipZ(4))))


@pytest.mark.parametrize("t", [Bin(TipZ(0), TipZ(1)), Bin(TipZ(0), Bin(TipZ(1), TipS(2)))])
def test_cd_classic_rejects_trees_valid_at_no_level(t):
    with pytest.raises(ShapeError):
        cd_classic(t)


def _random_tree(rng, depth):
    """A tree at most depth nodes deep, a branch by chance: mostly malformed."""
    if depth > 1 and rng.random() < 0.6:
        return Bin(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    return rng.choice((TipZ, TipS))(rng.randrange(10))


def test_cd_classic_raises_exactly_where_no_level_validates():
    rng = random.Random(2503)
    for _ in range(2000):
        t = Bin(_random_tree(rng, 4), _random_tree(rng, 4))  # a branch of depth <= 5
        levels = [(n, k) for n in range(2, 9) for k in range(1, n) if validate_shape(t, n, k)]
        if not levels:
            with pytest.raises(ShapeError):
                cd_classic(t)
        else:
            [(n, k)] = levels
            assert cd_classic(t) == map_tree(flatten, retabulate(n, k, t))


def _depth_cases(n):
    """Calls on (n, 1), (n, n - 2) and (n, n - 1) tables and on an n-deep
    left chain, each with the size of the tree it returns, or the laws'
    verdicts."""
    low, high = choose(1, tuple(range(n))), choose(n - 1, tuple(range(n)))
    chain = TipS(0)  # a valid (n + 1, 1) table, as the deep chains in test_bintree
    for i in range(1, n + 1):
        chain = Bin(chain, TipZ(i))
    pair = lambda a, b: (a, b)
    return {
        "map_tree-k=1": (lambda: map_tree(str, low), n),
        "map_tree-k=n-1": (lambda: map_tree(str, high), n),
        "zip_with-k=1": (lambda: zip_with(pair, low, low), n),
        "zip_with-k=n-1": (lambda: zip_with(pair, high, high), n),
        "retabulate-k=1": (lambda: retabulate(n, 1, low), comb(n, 2)),
        "retabulate-k=n-1": (lambda: retabulate(n, n - 1, high), 1),
        "cd_classic-k=1": (lambda: cd_classic(low), comb(n, 2)),
        "cd_classic-k=n-1": (lambda: cd_classic(high), 1),
        "retabulate-k=0": (lambda: retabulate(n, 0, TipZ(0)), n),
        "retabulate-k=n-2": (lambda: retabulate(n, n - 2, blank(n, n - 2)), n),
        "cd_classic-k=n-2": (lambda: cd_classic(blank(n, n - 2)), n),
        "check_rotation-k=n-2": (lambda: (check_rotation(n, n - 2),), (True,)),
        "check_functor_laws": (lambda: check_functor_laws(low, len, list), (True, True)),
        "check_naturality": (lambda: check_naturality(n, 1, low, TipZ(0), str), (True, True)),
        "map_tree-chain": (lambda: map_tree(str, chain), n + 1),
        "zip_with-chain": (lambda: zip_with(pair, chain, chain), n + 1),
        "retabulate-chain": (lambda: retabulate(n + 1, 1, chain), comb(n + 1, 2)),
    }


@pytest.mark.parametrize("name", _depth_cases(1))
def test_tree_functions_do_not_recurse_per_tree_level(name):
    call, expected = _depth_cases(300)[name]
    # a recursion once per level of a 300-deep tree, or once per level
    # drop in raising a (300, 298) table, would overflow; no tree function
    # recurses, and the codec stays out, as it recurses up to MAX_DEPTH by
    # design
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        result = call()
    finally:
        sys.setrecursionlimit(limit)
    assert (result if type(result) is tuple else size(result)) == expected


def test_level_raising_equation_sweep():
    for n in range(1, 8):
        for k in range(n):
            assert check_spec_equation(k, "abcdefg"[:n])
    with pytest.raises(InvalidLevel):
        check_spec_equation(3, "abc")
    with pytest.raises(InvalidLevel):
        check_spec_equation(-1, "abc")


def test_level_raising_equation_holds_with_duplicates():
    assert check_spec_equation(1, "aba")
    assert check_spec_equation(2, (7, 7, 7, 7))


def test_rotation_sweep():
    for n in range(1, 9):
        for k in range(n):
            assert check_rotation(n, k)
    with pytest.raises(InvalidLevel):
        check_rotation(3, 3)


def test_law_checks_report_each_broken_law():
    t = choose(1, "abc")
    assert check_functor_laws(t, str.upper, lambda v: v) == (True, True)
    # a counter is no function of its argument: each law that applies it
    # on both sides must read False
    calls = iter(range(100))
    assert check_functor_laws(t, lambda v: next(calls), str.upper) == (True, False)
    assert check_naturality(3, 1, t, TipZ("x"), lambda v: next(calls)) == (False, False)
    with pytest.raises(ShapeError):
        check_naturality(3, 1, t, t, str.upper)


# each public call that takes a level or size, with that argument left open
LEVEL_ARGUMENTS = {
    "choose": lambda k: choose(k, "abc"),
    "blank-n": lambda n: blank(n, 0),
    "blank-k": lambda k: blank(3, k),
    "retabulate-n": lambda n: retabulate(n, 0, TipZ("x")),
    "retabulate-k": lambda k: retabulate(3, k, CHOOSE_1_ABC),
    "check_spec_equation": lambda k: check_spec_equation(k, "abc"),
    "check_rotation-n": lambda n: check_rotation(n, 0),
    "check_rotation-k": lambda k: check_rotation(3, k),
    "check_naturality-n": lambda n: check_naturality(n, 0, TipZ(1), TipZ(2), abs),
    "check_naturality-k": lambda k: check_naturality(3, k, CHOOSE_1_ABC, TipS("x"), str.upper),
    "td_call_count": td_call_count,
    "bu_call_count": bu_call_count,
    "subtree_count": subtree_count,
}


@pytest.mark.parametrize("call", LEVEL_ARGUMENTS.values(), ids=LEVEL_ARGUMENTS)
def test_level_arguments_are_checked_integers(call):
    for bad in (1.5, "3", None, -1):
        with pytest.raises(InvalidLevel):
            call(bad)
    assert call(True) == call(1)
