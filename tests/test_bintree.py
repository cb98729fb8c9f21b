"""Shape discipline, payload operations and the ascii picture."""
from __future__ import annotations

import copy
import functools
import pickle
import random
from array import array
from dataclasses import FrozenInstanceError
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, strategies as st

import subtab
from conftest import all_unit_trees, fill_tree, shaped_trees, unit_skeletons
from subtab import (
    PROBLEMS,
    Bin,
    InvalidLevel,
    ParseError,
    ShapeError,
    SizeLimit,
    TipS,
    TipZ,
    Tree,
    UNIT,
    UnknownName,
    blank,
    bu_call_count,
    cd_classic,
    check_functor_laws,
    check_naturality,
    check_rotation,
    check_spec_equation,
    choose,
    decode,
    encode,
    flatten,
    get_problem,
    is_tree,
    map_tree,
    render_ascii,
    retabulate,
    size,
    subtree_count,
    td_call_count,
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


def _walked_validate_shape(t, n, k):
    """validate_shape as a stack walk over the full expansion, for 0 <= k <= n:
    the oracle for the sharing-aware one."""
    pending = [(t, n, k)]
    while pending:
        t, n, k = pending.pop()
        if k == 0 or k == n:
            if not isinstance(t, TipS if k else TipZ):
                return False
        elif isinstance(t, Bin):
            pending.append((t.left, n - 1, k))
            pending.append((t.right, n - 1, k - 1))
        else:
            return False
    return True


def _random_tree(rng, depth, pool):
    """A random tree at most depth levels deep; with a pool, a subtree is
    now and then one made before, and every subtree made joins it."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.3:
        t = rng.choice([TipZ, TipS])(rng.randrange(3))
    else:
        t = Bin(_random_tree(rng, depth - 1, pool), _random_tree(rng, depth - 1, pool))
    if pool is not None:
        pool.append(t)
    return t


def _graft(rng, t, scion):
    """t with scion in place of one subtree, t itself included."""
    if isinstance(t, Bin) and rng.random() < 0.75:
        if rng.random() < 0.5:
            return Bin(_graft(rng, t.left, scion), t.right)
        return Bin(t.left, _graft(rng, t.right, scion))
    return scion


def test_validate_shape_agrees_with_a_walk_of_the_full_expansion():
    rng = random.Random(2026)
    blanks = [blank(n, m) for n in range(9) for m in range(n + 1)]
    non_trees = [5, None, SimpleNamespace(payload=7, left=TipS(1), right=TipZ(1))]
    cases = list(blanks)
    for _ in range(800):
        cases.append(_random_tree(rng, rng.randrange(8), None))
        cases.append(_random_tree(rng, rng.randrange(8), []))  # shared subtrees
        cases.append(_graft(rng, rng.choice(blanks), rng.choice(non_trees)))
        cases.append(_graft(rng, rng.choice(blanks), _random_tree(rng, 3, [])))
    for t in cases:
        for n in range(9):
            for k in range(n + 2):
                want = k <= n and _walked_validate_shape(t, n, k)
                assert validate_shape(t, n, k) is want, (t, n, k)


def test_shared_tables_take_time_by_their_nodes():
    # blank(60, 30) holds 1.2e17 payloads on 902 nodes; the other build
    # shares no node with it
    t, other = blank(60, 30), blank(60, 30)
    assert size(t) == comb(60, 30)
    assert validate_shape(t, 60, 30)
    assert not validate_shape(t, 60, 29) and not validate_shape(t, 61, 30)
    assert t == other and hash(t) == hash(other)
    small = blank(12, 6)
    unshared = map_tree(lambda p: p, small)
    assert unshared.left.right is not unshared.right.left
    assert small == unshared and hash(small) == hash(unshared)


def test_map_tree_touches_every_payload_in_place():
    t = choose(2, "abcd")
    u = map_tree(str.upper, t)
    assert flatten(u) == ("CD", "BD", "BC", "AD", "AC", "AB")
    assert validate_shape(u, 4, 2)


@given(shaped_trees())
def test_functor_identity(case):
    _, _, t = case
    identity, _ = check_functor_laws(t, lambda v: v, lambda v: v)
    assert identity


@given(shaped_trees())
def test_functor_composition(case):
    _, _, t = case
    _, composition = check_functor_laws(t, lambda v: 2 * v + 1, lambda v: v * v)
    assert composition


def test_zip_with_pairs_matching_positions():
    t = Bin(TipS("b"), TipZ("a"))
    zipped = zip_with(lambda a, b: (a, b), t, t)
    assert zipped == Bin(TipS(("b", "b")), TipZ(("a", "a")))


@pytest.mark.parametrize(
    "t, payloads",
    [(blank(10, 5), comb(10, 5)), (choose(4, "abcdefgh"), comb(8, 4))],
    ids=["blank", "choose"],
)
def test_map_tree_and_zip_with_call_f_once_per_payload_in_flatten_order(t, payloads):
    # blank shares equal subtrees, and each shared payload is still one call
    calls = []

    def record(*payloads):
        calls.append(payloads)
        return len(calls) - 1

    numbered = map_tree(record, t)
    assert calls == [(p,) for p in flatten(t)]
    assert flatten(numbered) == tuple(range(payloads))
    calls.clear()
    assert flatten(zip_with(record, t, numbered)) == flatten(numbered)
    assert calls == list(zip(flatten(t), flatten(numbered)))


def test_zip_with_rejects_mismatched_skeletons():
    with pytest.raises(ShapeError):
        zip_with(lambda a, b: a, TipZ(1), TipS(1))
    with pytest.raises(ShapeError):
        zip_with(lambda a, b: a, Bin(TipS(1), TipZ(2)), TipZ(3))
    with pytest.raises(ShapeError):
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
    with pytest.raises(ShapeError):
        un_tip(Bin(TipS(1), TipZ(2)))


@given(shaped_trees(max_n=7), st.sampled_from([TipZ, TipS]), st.integers(-1000, 1000))
def test_un_tip_commutes_with_map(case, tip, payload):
    n, k, t = case
    assume(k < n)
    _, un_tip_law = check_naturality(n, k, t, tip(payload), lambda v: v - 11)
    assert un_tip_law


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


def _chain(bottom, grows_left):
    """A 5000-deep chain up from bottom and its payloads; step i grows on
    the left when grows_left(i)."""
    t, payloads = bottom, [0]
    for i in range(1, 5001):
        if grows_left(i):
            t = Bin(t, TipZ(i))
            payloads.append(i)
        else:
            t = Bin(TipS(i), t)
            payloads.insert(0, i)
    return t, tuple(payloads)


DEEP_CHAINS = pytest.mark.parametrize(
    "bottom, grows_left, valid_at",
    [
        # a valid (n, 1) table is a left chain
        (TipS(0), lambda i: True, (5001, 1)),
        # at k = 1 the walk reaches the bottom before it finds the wrong tip
        (TipZ(0), lambda i: True, None),
        (TipS(0), lambda i: i % 2 == 1, None),
    ],
    ids=["left-chain", "left-chain-wrong-bottom", "alternating-chain"],
)


@DEEP_CHAINS
def test_deep_chains_flatten_size_and_validate(bottom, grows_left, valid_at):
    t, payloads = _chain(bottom, grows_left)
    assert flatten(t) == payloads
    assert size(t) == 5001
    for k in (1, 5000):
        assert validate_shape(t, 5001, k) is ((5001, k) == valid_at)


def _assert_compares_hashes_and_reprs(make, other):
    """Two builds of make() are equal, hash alike and repr alike; other
    differs from them only deep down."""
    t, u = make(), make()
    assert t is not u
    assert t == u and not t != u
    assert hash(t) == hash(u)
    assert repr(t) == repr(u)
    assert t != other and not t == other


@DEEP_CHAINS
def test_deep_chains_compare_hash_and_repr(bottom, grows_left, valid_at):
    other_bottom = TipZ(0) if isinstance(bottom, TipS) else TipS(0)
    _assert_compares_hashes_and_reprs(
        lambda: _chain(bottom, grows_left)[0], _chain(other_bottom, grows_left)[0]
    )


def test_deep_tables_and_payload_chains_compare_hash_and_repr():
    table = choose(1, "a" * 900)
    assert repr(table).count("Bin(") == 899
    _assert_compares_hashes_and_reprs(lambda: choose(1, "a" * 900), choose(1, "a" * 899 + "b"))

    def payload_chain(bottom):
        t = TipZ(bottom)
        for i in range(5000):
            t = (TipS if i % 2 else TipZ)(t)
        return t

    assert repr(payload_chain(1)).endswith("(payload=1" + ")" * 5001)
    _assert_compares_hashes_and_reprs(lambda: payload_chain(1), payload_chain(2))


def test_deep_tables_and_chains_pickle_and_deepcopy():
    payload_chain = TipZ(0)
    for i in range(5000):
        payload_chain = (TipS if i % 2 else TipZ)(payload_chain)
    trees = [choose(1, "a" * 900), _chain(TipS(0), lambda i: True)[0], payload_chain]
    for t in trees:
        pickles = [pickle.dumps(t, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [*map(pickle.loads, pickles), copy.copy(t), copy.deepcopy(t)]:
            assert type(clone) is type(t) and clone is not t
            assert clone == t


def test_pickle_and_deepcopy_keep_shared_subtrees_shared():
    # blank shares equal subtrees: 1.2e17 payloads on some 900 nodes
    t = blank(60, 30)
    assert t.left.right is t.right.left
    for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert clone is not t and clone.left.right is clone.right.left
    small = blank(12, 6)
    assert pickle.loads(pickle.dumps(small)) == small == copy.deepcopy(small)


LIBRARY_ERRORS = (InvalidLevel, ParseError, ShapeError, SizeLimit, UnknownName)


@functools.cache
def _large_trees() -> tuple[Tree, ...]:
    """The n = 2000 tables at k = 1 and k = n - 1, then the 5000-deep
    chains of the test_deep_chains_* tests."""
    chains = [_chain(bottom, grows_left)[0] for bottom, grows_left, _ in DEEP_CHAINS.mark.args[1]]
    return (choose(1, range(2000)), choose(1999, range(2000)), *chains)


# each tree function, on one tree; retabulate and cd_classic only raise
# the n = 2000 table at k = n - 1, as at k = 1 (and on the left chain, a
# valid (5001, 1) table) their results pass their bound of entries; the
# middle-k calls must raise SizeLimit before the work they bound starts
TREE_CALLS = {
    "flatten": flatten,
    "size": size,
    "map_tree": lambda t: map_tree(repr, t),
    "zip_with": lambda t: zip_with(lambda p, q: (p, q), t, t),
    "un_tip": un_tip,
    "validate_shape": lambda t: [validate_shape(t, n, k) for n in (2000, 5001) for k in (1, n - 1)],
    "encode": encode,
    "render_ascii": render_ascii,
    "==": lambda t: map_tree(lambda p: p, t) == t,
    "hash": hash,
    "repr": repr,
    "pickle": lambda t: pickle.loads(pickle.dumps(t)) == t,
    "deepcopy": lambda t: copy.deepcopy(t) == t,
    "check_functor_laws": lambda t: check_functor_laws(t, repr, lambda p: (p,)) == (True, True),
}
LARGE_CALLS = {
    "retabulate": lambda: retabulate(2000, 1999, _large_trees()[1]),
    "cd_classic": lambda: cd_classic(_large_trees()[1]),
    "retabulate-middle-k": lambda: retabulate(40, 20, blank(40, 20)),
    "cd_classic-middle-k": lambda: cd_classic(blank(40, 20)),
    "check_rotation-middle-k": lambda: check_rotation(300, 150),
    "blank-middle-k": lambda: blank(100_000, 50_000),
}
# each call that takes a level or size v, over a 3-element source xs
LEVEL_CALLS = {
    "choose": choose,
    "blank-n": lambda v, xs: blank(v, 0),
    "blank-k": lambda v, xs: blank(len(xs), v),
    "retabulate-n": lambda v, xs: retabulate(v, 1, choose(1, xs)),
    "retabulate-n-at-0": lambda v, xs: retabulate(v, 0, TipZ(xs)),
    "retabulate-k": lambda v, xs: retabulate(len(xs), v, choose(1, xs)),
    "check_rotation-n": lambda v, xs: check_rotation(v, 0),
    "check_rotation-k": lambda v, xs: check_rotation(len(xs), v),
    "check_spec_equation": check_spec_equation,
    "check_naturality-n": lambda v, xs: check_naturality(v, 1, choose(1, xs), TipS(xs), repr),
    "check_naturality-k": lambda v, xs: check_naturality(len(xs), v, choose(1, xs), TipS(xs), repr),
    "validate_shape-n": lambda v, xs: validate_shape(choose(1, xs), v, 1),
    "validate_shape-k": lambda v, xs: validate_shape(choose(1, xs), len(xs), v),
    "td_call_count": lambda v, xs: td_call_count(v),
    "bu_call_count": lambda v, xs: bu_call_count(v),
    "subtree_count": lambda v, xs: subtree_count(v),
    **{f"generator-{name}": lambda v, xs, name=name: get_problem(name).generator(v, 0)
       for name in PROBLEMS},
}
# no level, a bool, or above the top of every call that has one: 3
# elements, the counters' bounds of 20 and 62, every size bound, and a
# level with more digits than str() converts
ODD_LEVELS = (1.0, True, "1", None, -1, 4, 21, 63, 10**30, 10**5000)
SOURCES = (range(3), b"abc", array("i", [1, 2, 3]), "abc")


@pytest.mark.parametrize("name", [*TREE_CALLS, *LARGE_CALLS, *LEVEL_CALLS])
def test_public_calls_return_or_raise_a_library_error(name):
    if name in TREE_CALLS:
        calls = [functools.partial(TREE_CALLS[name], t) for t in _large_trees()]
    elif name in LARGE_CALLS:
        calls = [LARGE_CALLS[name]]
    else:
        calls = [functools.partial(LEVEL_CALLS[name], v, xs) for v in ODD_LEVELS for xs in SOURCES]
    must_hold = name in ("pickle", "deepcopy", "check_functor_laws")
    # no RecursionError, and no TypeError or ValueError of Python's own
    for call in calls:
        try:
            result = call()
        except LIBRARY_ERRORS:
            assert not must_hold
            continue
        assert result is True or not must_hold


NON_TREES = [5, None, "Z(1)", SimpleNamespace(payload=7)]
TREE_FUNCTIONS = {
    "flatten": flatten,
    "size": size,
    "map_tree": lambda x: map_tree(str, x),
    "zip_with": lambda x: zip_with(max, x, x),
    "un_tip": un_tip,
    "encode": encode,
    "render_ascii": render_ascii,
    "retabulate": lambda x: retabulate(2, 1, x),
    "cd_classic": cd_classic,
}


@pytest.mark.parametrize("non_tree", NON_TREES, ids=repr)
@pytest.mark.parametrize("name", sorted(TREE_FUNCTIONS))
def test_tree_functions_reject_non_trees_with_shape_error(name, non_tree):
    with pytest.raises(ShapeError):
        TREE_FUNCTIONS[name](non_tree)


@pytest.mark.parametrize("non_tree", NON_TREES, ids=repr)
def test_tree_predicates_answer_false_for_non_trees(non_tree):
    assert validate_shape(non_tree, 1, 0) is False
    assert validate_shape(non_tree, 2, 1) is False
    assert is_tree(non_tree) is False


def test_validate_shape_answers_false_for_levels_too_long_to_print():
    # validate_shape answers False for an out-of-range level of any length,
    # even one of more digits than str() converts
    huge = 10**5000
    assert validate_shape(TipZ(0), 1, huge) is False
    assert validate_shape(TipS(0), huge, huge + 1) is False
    assert validate_shape(TipZ(0), 1, -huge) is False


def test_levels_too_long_to_print_are_invalid_levels():
    huge = 10**5000
    for call in (lambda: choose(huge, "ab"), lambda: blank(2, huge)):
        with pytest.raises(InvalidLevel, match="^a 16610-bit integer is outside 0..2$"):
            call()
    with pytest.raises(InvalidLevel, match="^a negative 16610-bit integer is outside 0..2$"):
        choose(-huge, "ab")
    too_long = "^bu_call_count is limited to 62 elements, got a 16610-bit integer$"
    with pytest.raises(SizeLimit, match=too_long):
        bu_call_count(huge)


@pytest.mark.parametrize(
    "call, what, bound",
    [(lambda n: blank(n, 1), "blank", 100_000),
     (lambda n: check_rotation(n, 1), "check_rotation", 300),
     *[(lambda n, name=name: get_problem(name).generator(n, 0), "generator", 10**6)
       for name in PROBLEMS]],
    ids=["blank", "check_rotation", *PROBLEMS],
)
def test_size_arguments_are_bounded(call, what, bound):
    for n in (bound + 1, 10**30):
        with pytest.raises(SizeLimit, match=f"^{what} is limited to {bound} elements, got {n}$"):
            call(n)


def test_blank_and_retabulate_bound_their_work():
    # each raises before the work it bounds starts, work that would take hours
    limits = {
        lambda: blank(100_000, 50_000): "blank is limited to 2000000 nodes, got 2500000000",
        lambda: blank(100_000, 21): "blank is limited to 2000000 nodes, got 2099559",
        lambda: retabulate(40, 20, blank(40, 20)):
            f"retabulate is limited to 1100000 entries, got {comb(40, 21) * 21}",
        lambda: cd_classic(blank(40, 20)):
            f"cd_classic is limited to 1100000 entries, got {comb(40, 21) * 21}",
        lambda: check_rotation(300, 150):
            f"retabulate is limited to 1100000 entries, got {comb(300, 151) * 151}",
        lambda: retabulate(1_100_001, 0, TipZ(0)):
            "retabulate is limited to 1100000 entries, got 1100001",
        lambda: check_naturality(40, 20, blank(40, 20), TipZ(0), abs):
            f"retabulate is limited to 1100000 entries, got {comb(40, 21) * 21}",
        lambda: check_functor_laws(blank(40, 20), str, abs):
            f"check_functor_laws is limited to 1100000 entries, got {comb(40, 20)}",
    }
    for call, message in limits.items():
        with pytest.raises(SizeLimit, match=f"^{message}$"):
            call()
    # a shape check comes first, and costs the tree's distinct nodes
    with pytest.raises(ShapeError):
        retabulate(10**6, 5 * 10**5, TipZ(0))
    assert size(blank(100_000, 1)) == 100_000


def test_non_trees_below_the_root_are_shape_errors():
    fake_tip = SimpleNamespace(payload=7)
    for t in (Bin(5, TipZ(1)), Bin(Bin(TipS(1), None), TipZ(2)), Bin(fake_tip, TipZ(1))):
        for name in ("flatten", "size", "map_tree", "encode", "render_ascii"):
            with pytest.raises(ShapeError):
                TREE_FUNCTIONS[name](t)


def test_the_library_raises_five_value_error_classes():
    exported = {
        name
        for name, obj in vars(subtab).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    assert exported == {"InvalidLevel", "ParseError", "ShapeError", "SizeLimit", "UnknownName"}
    assert all(issubclass(getattr(subtab, name), ValueError) for name in exported)
    # each is defined once, in bintree, and re-exported where it was before
    assert all(getattr(subtab, name).__module__ == "subtab.bintree" for name in exported)
    assert subtab.tabulate.InvalidLevel is subtab.InvalidLevel


class _Leaf(subtab.bintree._Node):
    """A class derived directly from the node base, which is allowed."""

    __slots__ = ("payload",)
    __match_args__ = ("payload",)


def test_is_tree():
    assert is_tree(TipZ(0)) and is_tree(TipS(0)) and is_tree(Bin(TipS(0), TipZ(0)))
    assert not is_tree("Z(0)") and not is_tree(None)
    # only the three node classes are trees, as flatten, encode and zip_with agree
    for other in (subtab.bintree._Node(), _Leaf()):
        assert not is_tree(other)
        with pytest.raises(ShapeError):
            flatten(other)
        # a payload that is no tree is a scalar, not a nested table
        assert subtab.induction._nesting_depth((other,)) == 1
        assert subtab.induction._nesting_depth(TipZ(other)) == 1


NODES = [TipZ(1), TipS("s"), Bin(TipS((1, 2)), TipZ(UNIT))]


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_nodes_are_frozen_slotted_and_copy_and_pickle(node):
    for name in node.__match_args__:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)
    assert not hasattr(node, "__dict__") and not hasattr(node, "__weakref__")
    clones = [pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)]
    for clone in clones:
        assert type(clone) is type(node)
        assert clone == node and hash(clone) == hash(node)


def test_unit_stays_one_object():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(UNIT, protocol)) is UNIT
    assert copy.copy(UNIT) is UNIT and copy.deepcopy(UNIT) is UNIT
    assert decode("Z(*)").payload is UNIT


def test_node_classes_are_final():
    for cls in (TipZ, TipS, Bin):
        with pytest.raises(TypeError):
            type("Sub", (cls,), {"__slots__": ()})
    with pytest.raises(TypeError):
        class X(Bin):
            pass

    # generic aliases, pickle and match patterns do not subclass
    assert TipZ[int](3) == TipZ(3) and TipS[str]("s") == TipS("s")
    t = Bin(TipS(1), TipZ(2))
    assert pickle.loads(pickle.dumps(t)) == t
    match t:
        case Bin(TipS(y), TipZ(z)):
            assert (y, z) == (1, 2)
        case _:
            pytest.fail("Bin(TipS, TipZ) pattern did not match")


def test_nodes_compare_by_class_and_fields():
    assert TipZ(1) == TipZ(1) and TipZ(1) != TipZ(2)
    assert TipZ(1) != TipS(1)
    assert TipZ(1) != (1,)
    assert TipZ(1).__eq__(1) is NotImplemented
    assert Bin(TipS(1), TipZ(2)).__eq__((TipS(1), TipZ(2))) is NotImplemented
    assert not isinstance(TipS(1), TipZ) and not isinstance(TipZ(1), TipS)
    assert len({choose(2, "abcd"), choose(2, "abcd"), choose(2, "abce")}) == 2


def test_node_construction_repr_and_typing():
    assert repr(choose(2, "abcd")) == (
        "Bin(left=Bin(left=TipS(payload='cd'), right=Bin(left=TipS(payload='bd'), "
        "right=TipZ(payload='bc'))), right=Bin(left=Bin(left=TipS(payload='ad'), "
        "right=TipZ(payload='ac')), right=TipZ(payload='ab')))"
    )
    assert Bin(left=TipS(payload=1), right=TipZ(payload=2)) == Bin(TipS(1), TipZ(2))
    assert TipZ[int].__origin__ is TipZ
    assert Tree[int] == Tree[int]
    assert Bin.__match_args__ == ("left", "right")
    assert TipZ.__match_args__ == TipS.__match_args__ == ("payload",)


def test_subscripted_classes_construct_and_new_attributes_are_frozen():
    assert TipZ[int](3) == TipZ(3)
    assert Bin[str](TipS("b"), TipZ("a")) == Bin(TipS("b"), TipZ("a"))
    for node in NODES:
        with pytest.raises(FrozenInstanceError):
            node.extra = 0


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
