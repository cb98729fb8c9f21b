"""Shared tree builders, exhaustive enumerators and hypothesis strategies."""
from __future__ import annotations

from math import comb
from typing import Iterable, Sequence

from hypothesis import strategies as st

from subtab import Bin, TipS, TipZ, Tree, UNIT, blank, map_tree


def fill_tree(n: int, k: int, values: Iterable) -> Tree:
    """Tree of shape (n, k) with the given payloads in flatten order."""
    it = iter(values)
    t = map_tree(lambda _: next(it), blank(n, k))
    leftovers = list(it)
    if leftovers:
        raise ValueError(f"{len(leftovers)} surplus payloads for shape ({n}, {k})")
    return t


def all_unit_trees(max_tips: int) -> list[Tree]:
    """Every tree with unit payloads and at most max_tips tips."""
    by_tips: dict[int, list[Tree]] = {1: [TipZ(UNIT), TipS(UNIT)]}
    for m in range(2, max_tips + 1):
        by_tips[m] = [
            Bin(t, u)
            for split in range(1, m)
            for t in by_tips[split]
            for u in by_tips[m - split]
        ]
    return [t for trees in by_tips.values() for t in trees]


def bitmask_sublists(k: int, xs: Sequence) -> list[tuple]:
    """All k-element sublists by position bitmask, independent of choose."""
    n = len(xs)
    return [
        tuple(xs[i] for i in range(n) if mask >> i & 1)
        for mask in range(1 << n)
        if bin(mask).count("1") == k
    ]


def shapes(max_n: int = 8) -> st.SearchStrategy[tuple[int, int]]:
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n))
    )


@st.composite
def shaped_trees(draw, max_n: int = 8, payloads=st.integers(-1000, 1000)):
    """Draw (n, k, tree) with the tree valid at (n, k)."""
    n, k = draw(shapes(max_n))
    count = comb(n, k)
    values = draw(st.lists(payloads, min_size=count, max_size=count))
    return n, k, fill_tree(n, k, values)


unit_skeletons = st.recursive(
    st.sampled_from([TipZ(UNIT), TipS(UNIT)]),
    lambda kids: st.builds(Bin, kids, kids),
    max_leaves=40,
)

codec_payloads = st.recursive(
    st.one_of(
        st.just(UNIT),
        st.integers(-(10**9), 10**9),
        st.text(max_size=6),
        st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=8).map(tuple),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.builds(TipZ, inner),
        st.builds(TipS, inner),
        st.builds(Bin, st.builds(TipS, inner), st.builds(TipZ, inner)),
    ),
    max_leaves=6,
)
