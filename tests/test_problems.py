"""The bundled problems, their oracles and their generators."""
from __future__ import annotations

import struct
from random import Random
from string import ascii_lowercase

import pytest
from hypothesis import given, settings, strategies as st

from subtab import (
    Bin,
    InvalidLevel,
    PROBLEMS,
    SizeLimit,
    TipS,
    TipZ,
    UnknownName,
    brute_force_removal_oracle,
    bu,
    digest_problem,
    get_problem,
    min_removal_problem,
    run_instrumented,
    subtree_count,
    subtree_count_problem,
    td,
)
from subtab.problems import DIGEST_SEED, mix64


def test_registry():
    assert set(PROBLEMS) == {
        "digest",
        "subtree-count",
        "min-removal-sum",
        "min-removal-max",
    }
    assert get_problem("digest").name == "digest"
    with pytest.raises(ValueError):
        get_problem("knapsack")
    with pytest.raises(UnknownName):
        get_problem("knapsack")


@pytest.mark.parametrize("name", [[], {}], ids=["list", "dict"])
def test_unhashable_names_are_unknown(name):
    problems = "'digest', 'subtree-count', 'min-removal-sum', 'min-removal-max'"
    with pytest.raises(UnknownName, match=f"^unknown problem .*; expected one of {problems}$"):
        get_problem(name)
    with pytest.raises(UnknownName, match="^unknown cost kind .*; expected one of 'sum', 'max'$"):
        min_removal_problem(name)
    with pytest.raises(UnknownName, match="^unknown cost kind .*; expected one of 'sum', 'max'$"):
        brute_force_removal_oracle(name, (1, 2))
    with pytest.raises(UnknownName, match="^unknown algorithm .*; expected one of 'td', 'bu'$"):
        run_instrumented(name, digest_problem().solver, (1, 2))


def test_names_too_long_to_print_are_unknown():
    with pytest.raises(UnknownName, match="^unknown problem a 16610-bit integer; "):
        get_problem(10**5000)
    with pytest.raises(UnknownName, match="^unknown algorithm a 16610-bit integer; "):
        run_instrumented(10**5000, digest_problem().solver, (1, 2))


def test_mix64_is_a_stable_64_bit_value():
    assert mix64(b"") == 0xB4B2797457A0A6E4
    assert mix64(b"6") == 0x4C00F1F72D183D1B
    assert 0 <= mix64(b"anything") < 2**64


def test_digest_base_and_determinism():
    p = digest_problem()
    assert td(p.solver, ()) == DIGEST_SEED
    assert td(p.solver, (1, 2)) == 0xCC25B69C84B268BC
    assert bu(p.solver, (1, 2)) == td(p.solver, (1, 2))
    assert p.oracle((3, 1, 2)) == td(p.solver, (3, 1, 2))


def test_digest_is_sensitive_to_child_order():
    g = digest_problem().solver.g
    children = Bin(TipS(11), TipZ(22))
    swapped = Bin(TipS(22), TipZ(11))
    assert g((5, 6), children) != g((5, 6), swapped)


def test_digest_is_sensitive_to_the_sequence():
    g = digest_problem().solver.g
    children = Bin(TipS(11), TipZ(22))
    assert g((5, 6), children) != g((6, 5), children)


def test_subtree_count_closed_form():
    assert [subtree_count(m) for m in range(7)] == [1, 2, 5, 16, 65, 326, 1957]
    assert subtree_count(20) > 0
    with pytest.raises(SizeLimit):
        subtree_count(21)
    with pytest.raises(ValueError):
        subtree_count(-1)


def test_subtree_count_solver_matches_oracle():
    p = subtree_count_problem()
    for n in range(7):
        xs = p.generator(n, seed=n)
        assert bu(p.solver, xs) == p.oracle(xs) == subtree_count(n)


def test_subtree_count_guards_long_inputs():
    p = subtree_count_problem()
    with pytest.raises(SizeLimit, match="^subtree-count is limited to 20 elements, got 21$"):
        p.solver.g(tuple(range(21)), TipZ(1))
    s = 1
    for m in range(1, 21):
        s = 1 + m * s
    assert subtree_count(20) == s
    with pytest.raises(SizeLimit, match="^subtree_count is limited to 20 elements, got 21$"):
        subtree_count(21)


def test_min_removal_hand_cases():
    # max: delete the largest first, paying 3, then 2, then 1
    assert bu(min_removal_problem("max").solver, (3, 1, 2)) == 6
    # sum: pay 6 for the full list, 3 after deleting 3, 1 after deleting 2
    assert bu(min_removal_problem("sum").solver, (3, 1, 2)) == 10
    for cost in ("sum", "max"):
        solver = min_removal_problem(cost).solver
        assert bu(solver, ()) == 0
        assert bu(solver, (5,)) == 5
    assert brute_force_removal_oracle("max", (3, 1, 2)) == 6
    assert brute_force_removal_oracle("sum", (3, 1, 2)) == 10
    assert brute_force_removal_oracle("sum", (2, 2)) == 6
    assert brute_force_removal_oracle("max", (2, 2)) == 4


def test_min_removal_matches_brute_force():
    rng = Random(11)
    for cost in ("sum", "max"):
        p = min_removal_problem(cost)
        for trial in range(40):
            n = trial % 6
            xs = tuple(rng.randrange(30) for _ in range(n))
            assert bu(p.solver, xs) == brute_force_removal_oracle(cost, xs)


@settings(max_examples=30)
@given(st.permutations([4, 1, 3, 9, 2]))
def test_min_removal_ignores_input_order(perm):
    for cost in ("sum", "max"):
        solver = min_removal_problem(cost).solver
        assert bu(solver, tuple(perm)) == bu(solver, (1, 2, 3, 4, 9))


def test_brute_force_limits_and_bad_cost():
    with pytest.raises(SizeLimit, match="^brute force is limited to 8 elements, got 9$"):
        brute_force_removal_oracle("sum", tuple(range(9)))
    with pytest.raises(ValueError):
        min_removal_problem("median")
    with pytest.raises(ValueError):
        brute_force_removal_oracle("median", (1, 2))
    expected = "^unknown cost kind 'median'; expected one of 'sum', 'max'$"
    with pytest.raises(UnknownName, match=expected):
        min_removal_problem("median")
    with pytest.raises(UnknownName, match=expected):
        brute_force_removal_oracle("median", (1, 2))


GENERATED_6_42 = {
    "digest": (57, 12, 140, 125, 114, 71),
    "subtree-count": ("u", "d", "a", "x", "i", "h"),
    "min-removal-sum": (40, 7, 1, 47, 17, 15),
    "min-removal-max": (40, 7, 1, 47, 17, 15),
}


# frozen values: a change to the random stream shows on every Python version
def test_generators_are_deterministic():
    for name in PROBLEMS:
        p = get_problem(name)
        assert p.generator(6, 42) == p.generator(6, 42) == GENERATED_6_42[name]
        assert p.generator(6, 43) != GENERATED_6_42[name]
    letters = get_problem("subtree-count").generator(5, 1)
    assert all(isinstance(x, str) and len(x) == 1 for x in letters)


# subtree-count generates letters, the others integers
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_generator_sizes_are_checked_levels(name):
    gen = get_problem(name).generator
    for size in [-1, 2.5, "3", None]:
        with pytest.raises(InvalidLevel):
            gen(size, 0)
    assert gen(True, 5) == gen(1, 5)
    assert gen(False, 5) == ()


def test_digest_hashes_the_repr_and_the_packed_children_as_one_message():
    g = digest_problem().solver.g
    rng = Random(14)
    for trial in range(200):
        m = rng.randrange(1, 10)
        letters = "".join(rng.choice(ascii_lowercase) for _ in range(m))
        ys = letters if trial % 2 else tuple(rng.randrange(256) for _ in range(m))
        kids = tuple(rng.randrange(2**64) for _ in range(m))
        # the right-spine table perfbench/reference.py hands g
        spine = TipZ(kids[-1])
        for kid in reversed(kids[:-1]):
            spine = Bin(TipS(kid), spine)
        want = mix64(repr(tuple(ys)).encode() + struct.pack(f"<{m}Q", *kids))
        assert g(ys, kids) == g(ys, spine) == want
