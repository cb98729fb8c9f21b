"""Reference answers computed without `subtab.tabulate` or `subtab.induction`.

Each workload's answers are checked against these, so a driver or
level-raising change that regroups sublists wrongly shows as a failure
rather than as a speed-up.
"""
from __future__ import annotations

from typing import Callable, Sequence

import subtab_path  # noqa: F401
from subtab.bintree import Bin, TipS, TipZ


def min_removal_sum(xs: Sequence[int]) -> int:
    """Cheapest deletion order under the 'sum' cost, by a DP over position masks.

    best[mask] is the answer for the sublist at the positions set in mask:
    pay the sum of its elements, then continue from the cheapest sublist
    with one position removed.
    """
    n = len(xs)
    total = [0] * (1 << n)
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        total[mask] = total[mask ^ low] + xs[low.bit_length() - 1]
        best[mask] = total[mask] + min(
            best[mask ^ (1 << i)] for i in range(n) if mask >> i & 1
        )
    return best[(1 << n) - 1]


def immediate_sublist_table(answers: Sequence[object]):
    """The (m, m-1) table of answers for the m immediate sublists of a sequence.

    answers[i] belongs to the sublist that drops position i.  Such a table
    is always a right spine: Bin(TipS(a0), Bin(TipS(a1), ... TipZ(a[m-1]))).
    """
    table = TipZ(answers[-1])
    for answer in reversed(answers[:-1]):
        table = Bin(TipS(answer), table)
    return table


def memoised_top_down(
    e: Callable[[], object], g: Callable[[Sequence, object], object], xs: Sequence
) -> object:
    """Answer a solver on xs top-down, solving each position mask once.

    Children tables come from `immediate_sublist_table`, never from
    `choose`, so this checks the drivers' grouping of sublists
    independently of the library.
    """
    n = len(xs)
    memo: dict[int, object] = {0: e()}

    def solve(mask: int) -> object:
        if mask not in memo:
            positions = [i for i in range(n) if mask >> i & 1]
            children = immediate_sublist_table([solve(mask & ~(1 << i)) for i in positions])
            memo[mask] = g(tuple(xs[i] for i in positions), children)
        return memo[mask]

    return solve((1 << n) - 1)


def encode_nested(t) -> str:
    """Codec text of a table whose payloads are tables of int tuples."""
    if isinstance(t, Bin):
        return f"B({encode_nested(t.left)},{encode_nested(t.right)})"
    tag = "Z" if isinstance(t, TipZ) else "S"
    return f"{tag}({_encode_payload(t.payload)})"


def render_nested(t) -> str:
    """The `render_ascii` picture of the same tables, built line by line."""
    lines: list[str] = []

    def walk(node, first_prefix: str, prefix: str) -> None:
        if isinstance(node, Bin):
            walk(node.left, first_prefix + ". ", prefix + "  ")
            walk(node.right, prefix + "  ", prefix + "  ")
        else:
            lines.append(first_prefix + _encode_payload(node.payload))

    walk(t, "", "")
    return "\n".join(lines)


def _encode_payload(p) -> str:
    if isinstance(p, tuple):
        return "[" + ",".join(str(v) for v in p) + "]"
    return encode_nested(p)
