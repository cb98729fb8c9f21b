"""Tables over the sublist lattice and the level-raising transform.

Level k of the lattice over an n-element source is the family of its
k-element sublists, tabulated in a binomial-shaped tree.  `choose` builds
the table, `blank` its payload-free skeleton, and `retabulate` raises a
level-k table to level k+1 by grouping, for each (k+1)-sublist, the
entries at all of its immediate sublists.
"""
from __future__ import annotations

from functools import cache
from itertools import repeat
from math import comb, inf
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
    _fold,
    _guard,
    _level,
    _shape,
    flatten,
    map_tree,
    size,
    un_tip,
    validate_shape,
    zip_with,
)

E = TypeVar("E")
P = TypeVar("P")

Seq = Sequence

# The entries retabulate and cd_classic may build and the law checks may map.
_MAX_ENTRIES = 1_100_000

# The most children a _cd subproblem may hand out and still be gathered by a plan.
_PLANNED = 256


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
    """The unique unit-payload tree of shape (n, k), n <= 100,000, built bottom-up with
    equal subtrees shared, no recursion: k * (n - k) <= 2,000,000 branches."""
    n = _guard(n, 100_000, "blank")
    k = _level(k, n)
    _guard(k * (n - k), 2_000_000, "blank", "nodes")
    return _blank(n, k)


def _blank(n: int, k: int) -> Tree[object]:
    """blank for an (n, k) already checked, with no size bound: retabulate's
    level-0 result is an n-payload chain, however long its source."""
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
    first.  k runs over 0..n-1; t is validated once up front, and the result,
    C(n, k+1) tables of k+1 entries, holds at most 1,100,000 entries in all.
    """
    n = _level(n, inf)
    k = _level(k, n - 1)
    if not validate_shape(t, n, k):
        raise ShapeError(f"tree does not validate at ({_digits(n)}, {k})")
    # valid at (n, k), t holds k * (n - k) distinct branches, so comb is cheap
    _guard(comb(n, k + 1) * (k + 1), _MAX_ENTRIES, "retabulate", "entries")
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


def _cd(columns: list[list], level: Seq, m: int, j: int, lo: int, shift: int,
        planned: int = _PLANNED) -> None:
    """Level raising on flat lists: add to columns[shift:] the children of
    the (j+1)-sublists of the last m elements, after shift chosen earlier,
    whose level-j table, in flatten order, is level[lo:].  After the full
    tip of the last j + 1 elements, one loop takes each first element's block
    and recurses on the (size, j - 1) table after it, in which m - j is smaller,
    but loops into the last block's, so calls nest at most min(j, m - j) deep
    whatever m is, and two frames more while a plan is first built.

    The regrouping depends on (m, j) alone, not on the payloads, so a
    subproblem handing out at most `planned` children, (j+1) * C(m, j+1),
    is gathered through _plan(m, j): the positions in level[lo:] that this
    recursion, run once with planning off, copies into each column."""
    while j:
        if (m - j) * (width := comb(m, j)) <= planned:  # (j + 1) * C(m, j + 1) children
            seg = level[lo : lo + width]
            for c, positions in enumerate(_plan(m, j), shift):
                columns[c] += map(seg.__getitem__, positions)
            return
        for i in range(j + 1):  # the full tip of the last j + 1 elements
            columns[shift + i].append(level[lo + i])
        if m == j + 1:  # the full tip is the whole table
            return
        for size in range(j + 1, m):  # one block per first element, up the left spine
            mid = lo + comb(size, j)
            columns[shift] += level[lo:mid]
            if size < m - 1:  # the last block's (size, j - 1) table is looped into
                _cd(columns, level, size, j - 1, mid, shift + 1, planned)
        m, j, lo, shift = m - 1, j - 1, mid, shift + 1
    columns[shift] += repeat(level[lo], m)  # a TipZ: one child, the prefix


@cache
def _plan(m: int, j: int) -> tuple[bytes, ...]:
    """_cd's regrouping of a level-j table over m elements, 1 <= j < m, as
    one bytes of positions per child column: _cd run on the positions
    range(C(m, j)) themselves.  _cd asks only where C(m, j) <= 256, so
    each position fits a byte, and at most 292 plans exist."""
    columns: list[list[int]] = [[] for _ in range(j + 1)]
    _cd(columns, range(comb(m, j)), m, j, 0, 0, 0)
    return tuple(map(bytes, columns))


def cd_classic(t: Tree[P]) -> Tree[tuple[P, ...]]:
    """Flat level raising, the one bu iterates: payloads are tuples, not tables.

    Matches map_tree(flatten, retabulate(n, k, t)), its specification, and
    its bound of 1,100,000 entries, on any t valid at some (n, k) with
    1 <= k < n, and raises ShapeError on any other t.  _cd fills one column
    per child position from flatten(t); the rows fill the (n, k+1) skeleton.
    """
    shape = _fold(t, lambda p: None, _shape)  # a pair (n, k) only for a branch
    if shape.__class__ is not tuple:
        raise ShapeError("tree is valid at no (n, k) with 1 <= k < n")
    n, k = shape
    _guard(comb(n, k + 1) * (k + 1), _MAX_ENTRIES, "cd_classic", "entries")
    columns: list[list[P]] = [[] for _ in range(k + 1)]
    _cd(columns, flatten(t), n, k, 0, 0)
    rows = zip(*columns)
    return map_tree(lambda _: next(rows), _blank(n, k + 1))


def check_spec_equation(k: int, xs: Seq[E]) -> bool:
    """Does level raising agree with retabulating the keys themselves?

    Checks, for the given source xs, that raising the level-k table of
    sublists yields exactly the table that maps each (k+1)-sublist ys to
    the table (resp. tuple) of its own immediate sublists.  The tuple-form
    comparison via cd_classic applies only for k >= 1; k runs over 0..len(xs) - 1.
    """
    k = _level(k, len(xs) - 1)
    table = choose(k, xs)
    keys = choose(k + 1, xs)
    nested_ok = retabulate(len(xs), k, table) == map_tree(lambda ys: choose(k, ys), keys)
    flat_ok = k == 0 or cd_classic(table) == map_tree(lambda ys: flatten(choose(k, ys)), keys)
    return nested_ok and flat_ok


def check_functor_laws(t: Tree[P], f: Callable, g: Callable) -> tuple[bool, bool]:
    """Does map_tree keep identity and composition on t?  One bool per law.
    t holds at most 1,100,000 entries, counted before any is mapped."""
    _guard(size(t), _MAX_ENTRIES, "check_functor_laws", "entries")
    return (
        map_tree(lambda v: v, t) == t,
        map_tree(lambda v: f(g(v)), t) == map_tree(f, map_tree(g, t)),
    )


def check_naturality(
    n: int, k: int, t: Tree[P], tip: Tree[P], f: Callable
) -> tuple[bool, bool]:
    """Do retabulate (t valid at (n, k), k below n) and un_tip (tip a tip)
    commute with mapping f over payloads?  One bool per law.  retabulate
    checks t and its bound before f is mapped over any payload."""
    raised = retabulate(n, k, t)
    return (
        retabulate(n, k, map_tree(f, t)) == map_tree(lambda inner: map_tree(f, inner), raised),
        f(un_tip(tip)) == un_tip(map_tree(f, tip)),
    )


def check_rotation(n: int, k: int) -> bool:
    """Does raising the blank (n, k) table give blank (k+1, k) payloads
    arranged in the blank (n, k+1) skeleton?  n <= 300, in retabulate's bound."""
    n = _guard(n, 300, "check_rotation")
    raised = retabulate(n, k, blank(n, k))  # checks k
    return raised == map_tree(lambda _: blank(k + 1, k), blank(n, k + 1))
