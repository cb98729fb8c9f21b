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
import sys
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Generic, Iterator, Sequence, TypeVar

from .bintree import (
    Bin, SizeLimit, TipZ, Tree, UnknownName, _NODES, _digits, _fold, _guard, flatten, map_tree,
    un_tip, zip_with,
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
    is read as choose reads it, a range as a tuple.  An empty or one-element
    xs is answered at entry, so solve meets only sublists of two or more: a
    pair answers its two singletons in place, each with e() for its one child.
    So td recurses n - 1 deep, and e and g are called in the order a descent
    to the empty sequence would.  Shared sublists are recomputed, so g calls
    grow superexponentially (td_call_count); past 9 elements td raises SizeLimit.
    """
    xs, _ = _joinable(_bounded(xs, 9, "td"))
    e, g = solver.e, solver.g
    if len(xs) < 2:  # the empty source, or a singleton with e() for its one child
        return g(xs, (e(),)) if xs else e()

    def solve(ys: Sequence[E]) -> S:  # ys has two or more elements
        m = len(ys)
        if m == 2:  # its singleton children, ys[1:] then ys[:1], need no frames
            return g(ys, (g(ys[1:], (e(),)), g(ys[:1], (e(),))))
        children = []
        for i in range(m):
            children.append(solve(ys[:i] + ys[i + 1 :]))
        return g(ys, tuple(children))

    return solve(xs)


def bu(solver: Solver[E, S], xs: Sequence[E]) -> S:
    """Bottom-up: sweep the sublist lattice one level at a time.

    Level k is a flat list of the answers for all k-sublists, in
    flatten(choose(k, xs)) order.  bu iterates the flat level raising
    that cd_classic runs, tabulate._cd, which fills one column per child
    position and gathers small regroupings through cached position plans.
    Level k+1's keys, combinations(xs, k + 1) in reverse, are built in C
    before _cd runs: one map per first element joins a one-element slice
    of xs to level k's keys with +, so they keep xs's type (a range is
    read as a tuple).  g is mapped over the keys and the zipped columns,
    so g sees the same calls as under bu_spec.  Each sublist is answered
    once, no tree is built, and only two levels and one level's children
    are ever live.  20 elements take a second or two; past 20 bu raises SizeLimit.
    """
    *_, answer = _bu_levels(solver, xs)  # the level records, then the answer
    return answer


# What a driver did for the (k + 1)-sublists: C(n, k + 1) entries, answers live at the end
# (bu's levels k and k + 1), g calls, ns on keys, _cd and g, nesting of the first children.
# td keeps no level and times no stage, so its live, keys_ns, cd_ns and g_ns are None.
LevelRecord = namedtuple("LevelRecord", "k entries live g_calls keys_ns cd_ns g_ns nesting")


def _bu_levels(solver: Solver[E, S], xs: Sequence[E], depth=lambda row: 0) -> Iterator:
    """bu's sweep: a LevelRecord as each level is answered, then the answer
    for xs.  Nothing but g runs per sublist; a few clock reads run per level."""
    xs, empty = _joinable(_bounded(xs, 20, "bu"))
    n, clock = len(xs), time.perf_counter_ns
    level, keys = [solver.e()], [empty]
    for k in range(n):
        columns: list[list[S]] = [[] for _ in range(k + 1)]  # first, to free the last ones
        start = clock()
        # level k+1's keys starting at xs[n - 1], then xs[n - 2], ...: choose
        # lists the level-k keys of xs[i + 1:] first, so islice reads them
        keys = [*chain.from_iterable(
            map(xs[i : i + 1].__add__, islice(keys, math.comb(n - 1 - i, k)))
            for i in reversed(range(n)))]  # level k's keys are gone before _cd runs
        keyed = clock()
        _cd(columns, level, n, k, 0, 0)
        regrouped = clock()
        answers = list(map(solver.g, keys, zip(*columns)))
        solved = clock()
        yield LevelRecord(k, len(keys), len(level) + len(answers), len(answers), keyed - start,
                          regrouped - keyed, solved - regrouped, depth(next(zip(*columns))))
        level = answers
    yield level[0]


def _bounded(xs: Sequence[E], bound: int, what: str) -> Sequence[E]:
    """xs, or SizeLimit past bound elements before anything copies xs or calls e or g."""
    try:
        n = len(xs)
    except OverflowError:  # a length past sys.maxsize, as of range(10**20)
        n = f"more than {sys.maxsize}"
        raise SizeLimit(f"{what} is limited to {bound} elements, got {n}") from None
    _guard(n, bound, what)
    return xs


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


# Each driver's table layers around a children tuple (a bu level), by name.
_LAYERS = {"td": 0, "bu": 1}


@dataclass
class CallStats:
    """Counters collected by run_instrumented, which picks td or bu by name.

    Both drivers fill levels, one LevelRecord per sublist size; g_calls sums their
    g calls, and peak_nesting is the table layers (td 0, bu 1) plus their largest
    nesting, the layers alone on empty input, whatever e() returns.  td's wrapper
    around g also counts calls per tuple(ys) in g_key_counts: equal sublists share a key.
    """

    g_calls: int = 0
    e_calls: int = 0
    peak_nesting: int = 0
    wall_ns: int = 0
    g_key_counts: Counter = field(default_factory=Counter)
    levels: list[LevelRecord] = field(default_factory=list)


def _nesting_depth(t: tuple | Tree) -> int:
    """1 for a flat table (a tuple or a tree), 2 for a table of tables, and so
    on: payload trees count as nested tables, each distinct node once."""
    if type(t) is tuple:
        return 1 + max((_nesting_depth(p) for p in t if p.__class__ in _NODES), default=0)
    return _fold(t, lambda p: 0, lambda x, *depths: max(depths) if x.__class__ is Bin
                 else 1 + depths[0])


def run_instrumented(
    alg: str, solver: Solver[E, S], xs: Sequence[E]
) -> tuple[S, CallStats]:
    """Run td or bu, counting e calls, g calls and nesting as CallStats says;
    the result is identical to the uninstrumented run."""
    layers = _named(_LAYERS, alg, "algorithm")
    stats = CallStats()

    def counted_e() -> S:
        stats.e_calls += 1
        return solver.e()

    start = time.perf_counter_ns()
    if alg == "td":
        nestings: dict[int, int] = {}  # sublist size -> nesting of its first children

        def counted_g(ys: Sequence[E], children: tuple[S, ...]) -> S:
            stats.g_key_counts[tuple(ys)] += 1
            if len(ys) not in nestings:
                nestings[len(ys)] = _nesting_depth(children)
            return solver.g(ys, children)

        result = td(Solver(e=counted_e, g=counted_g), xs)
        calls = Counter()  # sublist size -> g calls, summed over the distinct keys
        for key, count in stats.g_key_counts.items():
            calls[len(key)] += count
        stats.levels = [LevelRecord(m - 1, math.comb(len(xs), m), None, calls[m], None, None, None,
                                    nesting) for m, nesting in sorted(nestings.items())]
    else:
        *stats.levels, result = _bu_levels(Solver(e=counted_e, g=solver.g), xs, _nesting_depth)
    stats.wall_ns = time.perf_counter_ns() - start
    stats.g_calls = sum(r.g_calls for r in stats.levels)
    stats.peak_nesting = layers + max((r.nesting for r in stats.levels), default=0)
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
