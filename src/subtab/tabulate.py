"""Tables over the sublist lattice and the level-raising transform.

Level k of the lattice over an n-element source is the family of its
k-element sublists, tabulated in a binomial-shaped tree.  `choose` builds
the table, `blank` its payload-free skeleton, and `retabulate` raises a
level-k table to level k+1 by grouping, for each (k+1)-sublist, the
entries at all of its immediate sublists.
"""
from __future__ import annotations

from itertools import repeat
from math import comb
from typing import Callable, Sequence, TypeVar

from .bintree import (
    Bin,
    InvalidLevel,  # re-exported: subtab.tabulate.InvalidLevel is subtab.InvalidLevel
    ShapeError,
    TipS,
    TipZ,
    Tree,
    UNIT,
    _digits,
    _guard,
    _level,
    flatten,
    map_tree,
    un_tip,
    validate_shape,
    zip_with,
)

E = TypeVar("E")
P = TypeVar("P")

Seq = Sequence


def choose(k: int, xs: Seq[E]) -> Tree[Seq[E]]:
    """Table of all k-element sublists of xs, keyed by position.

    The left subtree collects sublists omitting the head of xs, the right
    subtree those containing it.  Sublists keep the sequence type of xs
    (str in, str out; tuple in, tuple out), unless slices of xs cannot
    be joined with + (a range, say): then xs is read as a tuple.  Each
    key is built once: the elements chosen so far pass down as a prefix.
    """
    xs, chosen = _joinable(xs)
    n = len(xs)
    done, todo = [], [(_level(k, n), 0, chosen)]  # (k, i, chosen): choose(k, xs[i:]), chosen prefixed
    while todo:
        item = todo.pop()
        if item is None:  # both subtrees of a Bin are built
            right = done.pop()
            done[-1] = Bin(done[-1], right)
            continue
        k, i, chosen = item
        while 0 < k < n - i:  # down the left spine; each right subtree waits
            todo += (None, (k - 1, i + 1, chosen + xs[i : i + 1]))
            i += 1
        done.append(TipS(chosen + xs[i:]) if k else TipZ(chosen))
    return done[0]


def _joinable(xs: Seq[E]) -> tuple[Seq[E], Seq[E]]:
    """xs and its empty slice, whose type every key has, or tuple(xs) and ()
    if slices of xs cannot be joined with + (a range, say)."""
    empty = xs[:0]
    try:
        empty + empty
    except TypeError:
        return tuple(xs), ()
    return xs, empty


def blank(n: int, k: int) -> Tree[object]:
    """The unique unit-payload tree of shape (n, k), n <= 100,000, built bottom-up
    with equal subtrees shared: O(n * min(k, n - k) + n) nodes, no recursion."""
    return _blank(_guard(n, 100_000, "blank"), k)


def _blank(n: int, k: int) -> Tree[object]:
    """blank for an n already checked, with no size bound: retabulate's
    level-0 result is an n-payload chain, however long its source."""
    k = _level(k, n)
    zero, full = TipZ(UNIT), TipS(UNIT)
    lo, row = 0, [zero]  # row[i] is blank(m, lo + i), for the k' that (n, k) reaches
    for m in range(1, n + 1):
        row = [zero if j == 0 else full if j == m else Bin(row[j - lo], row[j - 1 - lo])
               for j in range(max(0, k - n + m), min(k, m) + 1)]
        lo = max(0, k - n + m)
    return row[0]


def retabulate(n: int, k: int, t: Tree[P]) -> Tree[Tree[P]]:
    """Raise a level-k table to level k+1: the specification of cd_classic.

    The result is valid at (n, k+1); each payload is itself a (k+1, k)
    table grouping the entries of t at all immediate sublists of one
    (k+1)-sublist, ordered with the sublist omitting the newest element
    first.  k runs over 0..n-1 and n up to 10^6; t is validated once up
    front, then raised in one post-order loop.
    """
    n = _guard(n, 1_000_000, "retabulate")
    k = _level(k, n - 1)
    if not validate_shape(t, n, k):
        raise ShapeError(f"tree does not validate at ({_digits(n)}, {k})")
    if not k:
        return map_tree(lambda _: t, _blank(n, 1))  # each payload is the (1, 0) table t
    done, todo = [], [t]
    while todo:
        t = todo.pop()
        if t.__class__ is tuple:  # t's left subtree is raised, and its right if a branch
            t, = t
            if t.right.__class__ is Bin:
                right = zip_with(lambda w, u: Bin(TipS(w), u), t.left, done.pop())
            else:  # a tip, so every payload gains the same one
                right = map_tree(lambda w: Bin(TipS(w), t.right), t.left)
            done[-1] = Bin(done[-1], right)
        elif t.left.__class__ is Bin:
            todo.append((t,))
            if t.right.__class__ is Bin:
                todo.append(t.right)
            todo.append(t.left)
        else:  # a (k+1, k) table is its own group
            done.append(TipS(t))
    return done[0]


def _cd(columns: list[list], level: Seq, m: int, j: int, lo: int, shift: int) -> None:
    """Level raising on flat lists: add to columns[shift:] the children of
    the (j+1)-sublists of the last m elements, after shift chosen earlier,
    whose level-j table, in flatten order, is level[lo:].  Each frame loops
    into its last subtree and recurses on the others, in which m - j is
    smaller, so calls nest at most min(j, m - j) deep whatever m is."""
    while j:
        for i in range(j + 1):  # the full tip of the last j + 1 elements
            columns[shift + i].append(level[lo + i])
        size = j + 1
        while size < m:  # then down the left spine, whose last subtree is looped into
            mid = lo + comb(size, j)
            columns[shift] += level[lo:mid]
            size += 1
            if size == m:
                break
            _cd(columns, level, size - 1, j - 1, mid, shift + 1)
        else:  # m == j + 1: the full tip is the whole table
            return
        m, j, lo, shift = m - 1, j - 1, mid, shift + 1
    columns[shift] += repeat(level[lo], m)  # a TipZ: one child, the prefix


def cd_classic(t: Tree[P]) -> Tree[tuple[P, ...]]:
    """Flat level raising, the one bu iterates: payloads are tuples, not tables.

    Matches map_tree(flatten, retabulate(n, k, t)), its specification,
    on any t valid at some (n, k) with 1 <= k < n, and raises ShapeError
    on any other t.  _cd fills one column per child position from
    flatten(t), and the zipped rows fill the (n, k+1) skeleton.
    """
    lefts = k = 0  # a valid t has n - k branches down its left spine, k down its right
    left = right = t
    while left.__class__ is Bin:
        lefts, left = lefts + 1, left.left
    while right.__class__ is Bin:
        k, right = k + 1, right.right
    if not (k >= 1 and validate_shape(t, lefts + k, k)):
        raise ShapeError("tree is valid at no (n, k) with 1 <= k < n")
    columns: list[list[P]] = [[] for _ in range(k + 1)]
    _cd(columns, flatten(t), lefts + k, k, 0, 0)
    rows = zip(*columns)
    return map_tree(lambda _: next(rows), _blank(lefts + k, k + 1))


def check_spec_equation(k: int, xs: Seq[E]) -> bool:
    """Does level raising agree with retabulating the keys themselves?

    Checks, for the given source xs, that raising the level-k table of
    sublists yields exactly the table that maps each (k+1)-sublist ys to
    the table (resp. tuple) of its own immediate sublists.  The tuple-form
    comparison via cd_classic applies only for k >= 1.
    """
    table = choose(k, xs)
    keys = choose(k + 1, xs)
    nested_ok = retabulate(len(xs), k, table) == map_tree(lambda ys: choose(k, ys), keys)
    flat_ok = k == 0 or cd_classic(table) == map_tree(lambda ys: flatten(choose(k, ys)), keys)
    return nested_ok and flat_ok


def check_functor_laws(t: Tree[P], f: Callable, g: Callable) -> tuple[bool, bool]:
    """Does map_tree keep identity and composition on t?  One bool per law."""
    return (
        map_tree(lambda v: v, t) == t,
        map_tree(lambda v: f(g(v)), t) == map_tree(f, map_tree(g, t)),
    )


def check_naturality(
    n: int, k: int, t: Tree[P], tip: Tree[P], f: Callable
) -> tuple[bool, bool]:
    """Do retabulate (t valid at (n, k), k below n) and un_tip (tip a tip)
    commute with mapping f over payloads?  One bool per law."""
    return (
        retabulate(n, k, map_tree(f, t))
        == map_tree(lambda inner: map_tree(f, inner), retabulate(n, k, t)),
        f(un_tip(tip)) == un_tip(map_tree(f, tip)),
    )


def check_rotation(n: int, k: int) -> bool:
    """Does raising the blank (n, k) table give blank (k+1, k) payloads
    arranged in the blank (n, k+1) skeleton?  n is at most 300."""
    n = _guard(n, 300, "check_rotation")
    raised = retabulate(n, k, blank(n, k))  # checks k
    return raised == map_tree(lambda _: blank(k + 1, k), blank(n, k + 1))
