"""Shape discipline, payload operations and the ascii picture."""
from __future__ import annotations

from math import comb
from pathlib import Path

import pytest
from hypothesis import given

from conftest import all_unit_trees, fill_tree, shaped_trees, unit_skeletons
from subtab import (
    Bin,
    NotATip,
    ShapeMismatch,
    TipS,
    TipZ,
    UNIT,
    blank,
    choose,
    encode,
    flatten,
    is_tree,
    map_tree,
    render_ascii,
    retabulate,
    size,
    un_tip,
    validate_shape,
    zip_with,
)

GOLDEN = Path(__file__).parent / "golden"


def test_tip_shapes():
    assert validate_shape(TipZ("p"), 0, 0)
    assert validate_shape(TipZ("p"), 5, 0)
    assert not validate_shape(TipS("p"), 0, 0)
    for n in range(1, 6):
        assert validate_shape(TipS("p"), n, n)
        assert not validate_shape(TipZ("p"), n, n)


def test_nothing_validates_above_the_diagonal():
    candidates = [TipZ(UNIT), TipS(UNIT), Bin(TipS(UNIT), TipZ(UNIT))]
    candidates += [blank(n, k) for n in range(5) for k in range(n + 1)]
    for t in candidates:
        for n in range(4):
            for k in range(n + 1, n + 3):
                assert not validate_shape(t, n, k)


def test_branch_shape_is_positional():
    t = Bin(TipS("b"), TipZ("a"))
    assert validate_shape(t, 2, 1)
    assert not validate_shape(t, 2, 2)
    assert not validate_shape(t, 3, 1)
    assert not validate_shape(Bin(TipZ("b"), TipS("a")), 2, 1)


def test_negative_indices_never_validate():
    assert not validate_shape(TipZ("p"), -1, 0)
    assert not validate_shape(TipZ("p"), 2, -1)


def test_non_integer_indices_never_validate():
    for bad in [1.5, 1.0, "a", None]:
        assert validate_shape(TipZ("p"), bad, 0) is False
        assert validate_shape(TipZ("p"), 1, bad) is False
    assert validate_shape(TipZ("p"), True, False)
    assert validate_shape(Bin(TipS("b"), TipZ("a")), 2, True)


def test_size_counts_payloads():
    assert size(TipZ("p")) == 1
    assert size(Bin(TipS("b"), TipZ("a"))) == 2
    for n in range(9):
        for k in range(n + 1):
            assert size(blank(n, k)) == comb(n, k)


def test_map_tree_touches_every_payload_in_place():
    t = choose(2, "abcd")
    u = map_tree(str.upper, t)
    assert flatten(u) == ("CD", "BD", "BC", "AD", "AC", "AB")
    assert validate_shape(u, 4, 2)


@given(shaped_trees())
def test_functor_identity(case):
    _, _, t = case
    assert map_tree(lambda p: p, t) == t


@given(shaped_trees())
def test_functor_composition(case):
    _, _, t = case

    def f(v: int) -> int:
        return 2 * v + 1

    def g(v: int) -> int:
        return v * v

    assert map_tree(lambda v: f(g(v)), t) == map_tree(f, map_tree(g, t))


def test_zip_with_pairs_matching_positions():
    t = Bin(TipS("b"), TipZ("a"))
    zipped = zip_with(lambda a, b: (a, b), t, t)
    assert zipped == Bin(TipS(("b", "b")), TipZ(("a", "a")))


def test_zip_with_rejects_mismatched_skeletons():
    with pytest.raises(ShapeMismatch):
        zip_with(lambda a, b: a, TipZ(1), TipS(1))
    with pytest.raises(ShapeMismatch):
        zip_with(lambda a, b: a, Bin(TipS(1), TipZ(2)), TipZ(3))
    with pytest.raises(ShapeMismatch):
        zip_with(
            lambda a, b: a,
            Bin(TipS(1), TipZ(2)),
            Bin(TipZ(1), TipS(2)),
        )


@given(shaped_trees())
def test_zip_projections(case):
    _, _, t = case
    assert zip_with(lambda a, b: a, t, t) == t
    assert zip_with(lambda a, b: b, t, t) == t


def test_un_tip_reads_both_tip_kinds():
    assert un_tip(TipZ("e")) == "e"
    assert un_tip(TipS((1, 2))) == (1, 2)
    with pytest.raises(NotATip):
        un_tip(Bin(TipS(1), TipZ(2)))


@given(shaped_trees())
def test_un_tip_commutes_with_map(case):
    _, _, t = case
    if isinstance(t, Bin):
        return

    def f(v: int) -> int:
        return v - 11

    assert f(un_tip(t)) == un_tip(map_tree(f, t))


def test_flatten_is_left_to_right():
    t = Bin(Bin(TipS(1), TipZ(2)), TipZ(3))
    assert flatten(t) == (1, 2, 3)
    assert flatten(TipZ("x")) == ("x",)


def test_flatten_and_size_walk_a_deep_right_spine():
    t = TipZ(0)
    for i in range(1, 5001):
        t = Bin(TipS(i), t)
    assert flatten(t) == tuple(range(5000, -1, -1))
    assert size(t) == 5001


def test_is_tree():
    assert is_tree(TipZ(0)) and is_tree(TipS(0)) and is_tree(Bin(TipS(0), TipZ(0)))
    assert not is_tree("Z(0)") and not is_tree(None)


def test_unit_tree_of_each_shape_is_unique():
    # exhaustive over every unit tree with up to 6 payloads
    trees = all_unit_trees(6)
    for n in range(9):
        for k in range(n + 1):
            if comb(n, k) > 6:
                continue
            matching = [t for t in trees if validate_shape(t, n, k)]
            assert matching == [blank(n, k)]


@given(unit_skeletons)
def test_valid_unit_skeletons_are_blank(t):
    tips = size(t)
    for n in range(9):
        for k in range(n + 1):
            if comb(n, k) == tips and validate_shape(t, n, k):
                assert t == blank(n, k)


def test_fill_tree_round_trips_flatten():
    values = ["p0", "p1", "p2", "p3", "p4", "p5"]
    t = fill_tree(4, 2, values)
    assert flatten(t) == tuple(values)
    with pytest.raises(ValueError):
        fill_tree(2, 1, [1, 2, 3])


def test_ascii_golden_table():
    want = (GOLDEN / "choose_2_abcd.txt").read_text()
    assert render_ascii(choose(2, "abcd")) + "\n" == want


def test_ascii_tips_and_defaults():
    assert render_ascii(TipZ(UNIT)) == "*"
    assert render_ascii(TipS("free text")) == "free text"
    assert render_ascii(Bin(TipS(1), TipZ((2, 3)))) == ". 1\n  [2,3]"


def _picture(t):
    """The lines of render_ascii, joined up from the subtrees' own lines."""
    if not isinstance(t, Bin):
        p = t.payload
        return [p if isinstance(p, str) else encode(p)]
    left, right = _picture(t.left), _picture(t.right)
    return [". " + left[0]] + ["  " + line for line in left[1:] + right]


def test_ascii_matches_an_independent_picture():
    tables = [choose(k, "abcdefghijkl") for k in range(13)]
    tables.append(retabulate(7, 3, choose(3, "abcdefg")))
    for t in tables:
        assert render_ascii(t) == "\n".join(_picture(t))
