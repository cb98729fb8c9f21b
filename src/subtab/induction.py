"""Two interchangeable drivers for induction over immediate sublists.

A problem is posed as a Solver: `e` answers the empty sequence, `g`
combines a sequence ys with the tuple of answers for its immediate
sublists.  `td` recurses straight down, dropping each position of ys in
turn and recomputing shared sublists; `bu` sweeps the lattice level by
level, answering every sublist once.  Both give identical results for
any solver.  `bu_spec`, the tree form of `bu`, is its specification.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Generic, Sequence, TypeVar

from .bintree import (
    TipZ, Tree, UnknownName, _digits, _guard, flatten, is_tree, map_tree, un_tip, zip_with,
)
from .tabulate import _cd, _joinable, choose, retabulate

E = TypeVar("E")
S = TypeVar("S")
T = TypeVar("T")


@dataclass(frozen=True)
class Solver(Generic[E, S]):
    """What a problem must supply to be driven over the sublist lattice.

    e      () -> S, the answer for the empty sequence.
    g      (ys, children) -> S, where children is the tuple of answers
           for the immediate sublists of ys, in
           flatten(choose(len(ys) - 1, ys)) order.
    """

    e: Callable[[], S]
    g: Callable[[Sequence[E], tuple[S, ...]], S]


def td(solver: Solver[E, S], xs: Sequence[E]) -> S:
    """Top-down: recurse into every immediate sublist independently.

    The children of ys drop its positions in turn, first to last, which
    is flatten(choose(len(ys) - 1, ys)) order, and no table is built.  xs
    is read as choose reads it, a range as a tuple.  Recursion stops at
    singletons, whose one child is e(), and calls e and g in the order a
    descent to the empty sequence would.  Shared sublists are recomputed,
    so g calls grow superexponentially (td_call_count); past 20 elements
    td raises SizeLimit.
    """
    xs, _ = _joinable(xs)
    _guard(len(xs), 20, "td")
    e, g = solver.e, solver.g

    def solve(ys: Sequence[E]) -> S:
        m = len(ys)
        if m == 1:
            return g(ys, (e(),))
        children = []
        for i in range(m):
            children.append(solve(ys[:i] + ys[i + 1 :]))
        return g(ys, tuple(children))

    return solve(xs) if xs else e()


def bu(solver: Solver[E, S], xs: Sequence[E]) -> S:
    """Bottom-up: sweep the sublist lattice one level at a time.

    Level k is a flat list of the answers for all k-sublists, in
    flatten(choose(k, xs)) order.  bu iterates the flat level raising
    that cd_classic runs, tabulate._cd, which fills one column per child
    position.  Level k+1's keys, combinations(xs, k + 1) in reverse, are
    built in C before _cd runs: one map per first element joins a
    one-element slice of xs to level k's keys with +, so they keep xs's
    type (a range is read as a tuple).  g is mapped over the keys and
    the zipped columns, so g sees the same calls as under bu_spec.  Each
    sublist is answered once, no tree is built, and only two levels and
    one level's children are ever live.
    """
    xs, empty = _joinable(xs)
    n = len(xs)
    level, keys = [solver.e()], [empty]
    for k in range(n):
        columns: list[list[S]] = [[] for _ in range(k + 1)]  # first, to free the last ones
        # level k+1's keys starting at xs[n - 1], then xs[n - 2], ...: choose
        # lists the level-k keys of xs[i + 1:] first, so islice reads them
        keys = [*chain.from_iterable(
            map(xs[i : i + 1].__add__, islice(keys, math.comb(n - 1 - i, k)))
            for i in reversed(range(n)))]  # level k's keys are gone before _cd runs
        _cd(columns, level, n, k, 0, 0)
        level = list(map(solver.g, keys, zip(*columns)))
    return level[0]


def bu_spec(solver: Solver[E, S], xs: Sequence[E]) -> S:
    """The tree form of bu, which bu must match in answers and g calls.

    Level k is the tree choose(k, xs) with answers for payloads.  Raising
    it with retabulate regroups those answers under each (k+1)-sublist,
    and flattening each such table gives the children g expects, so each
    level is one zip.
    """
    n = len(xs)
    level: Tree = TipZ(solver.e())
    for k in range(n):
        level = zip_with(solver.g, choose(k + 1, xs), map_tree(flatten, retabulate(n, k, level)))
    return un_tip(level)


# Each driver with its table layers around a children tuple (a bu level).
_DRIVERS = {"td": (td, 0), "bu": (bu, 1)}


@dataclass
class CallStats:
    """Counters collected by run_instrumented.

    peak_nesting is the driver's table layers (td 0, bu 1) plus the
    nesting of the first children tuple g receives for each sublist
    size, as all of one size are built alike; on empty input, where g is
    never called, it is the layer count alone, whatever e() returns.
    g_key_counts maps tuple(ys), for each ys td passes to g, to its call
    count; bu answers each sublist once and leaves it empty.
    """

    g_calls: int = 0
    e_calls: int = 0
    peak_nesting: int = 0
    wall_ns: int = 0
    g_key_counts: Counter = field(default_factory=Counter)


def _nesting_depth(t: tuple | Tree) -> int:
    """1 for a flat table (a tuple or a tree), 2 for a table of tables, and
    so on; payloads that are themselves trees count as nested tables."""
    depth, level = 0, [t]
    while level:  # the tables one nesting level down, until none is left
        depth += 1
        level = [p for u in level for p in (u if type(u) is tuple else flatten(u)) if is_tree(p)]
    return depth


def run_instrumented(
    alg: str, solver: Solver[E, S], xs: Sequence[E]
) -> tuple[S, CallStats]:
    """Run td or bu with counting wrappers around the solver callbacks.

    The result is identical to the uninstrumented run.
    """
    driver, layers = _named(_DRIVERS, alg, "algorithm")

    stats = CallStats(peak_nesting=layers)
    walked_sizes: set[int] = set()
    # only td can reach a sublist twice
    keys = stats.g_key_counts if driver is td else None

    def counted_e() -> S:
        stats.e_calls += 1
        return solver.e()

    def counted_g(ys: Sequence[E], children: tuple[S, ...]) -> S:
        stats.g_calls += 1
        if keys is not None:
            keys[tuple(ys)] += 1
        if len(ys) not in walked_sizes:
            walked_sizes.add(len(ys))
            d = layers + _nesting_depth(children)
            stats.peak_nesting = max(stats.peak_nesting, d)
        return solver.g(ys, children)

    wrapped = Solver(e=counted_e, g=counted_g)
    start = time.perf_counter_ns()
    result = driver(wrapped, xs)
    stats.wall_ns = time.perf_counter_ns() - start
    return result, stats


def td_call_count(n: int) -> int:
    """g calls a top-down run on n elements makes: T(n) = 1 + n*T(n-1), T(0) = 0."""
    total = 0
    for m in range(1, _guard(n, 20, "td_call_count") + 1):
        total = 1 + m * total
    return total


def bu_call_count(n: int) -> int:
    """g calls a bottom-up run on n elements makes: one per nonempty sublist."""
    return (1 << _guard(n, 62, "bu_call_count")) - 1


def _named(table: dict[str, T], name: str, what: str) -> T:
    """table[name], or UnknownName listing table's names: every name lookup."""
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        expected = ", ".join(map(repr, table))
        shown = _digits(name) if isinstance(name, int) else repr(name)  # repr refuses a huge int
        raise UnknownName(f"unknown {what} {shown}; expected one of {expected}") from None
