"""Ready-made solvers, each with an independent oracle and input generator."""
from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass
from hashlib import blake2b
from random import Random
from string import ascii_lowercase
from typing import Any, Callable, Sequence

from .bintree import Tree, _guard, flatten
from .induction import Solver, _named, td, td_call_count

Seq = Sequence


@dataclass(frozen=True)
class Problem:
    """A solver bundled with what is needed to test and benchmark it.

    oracle computes the expected solution by an independent route;
    generator(size, seed) produces a deterministic pseudo-random input
    of the given size.
    """

    name: str
    domain: str
    solver: Solver
    oracle: Callable[[Seq], Any]
    generator: Callable[[int, int], tuple]


def mix64(data: bytes) -> int:
    """64-bit digest of a byte string."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def _inputs(alphabet: Seq) -> Callable[[int, int], tuple]:
    """generator(size, seed): size <= 10**6 elements drawn from alphabet by Random(seed)."""
    def gen(size: int, seed: int) -> tuple:
        rng = Random(seed)
        return tuple(rng.choice(alphabet) for _ in range(_guard(size, 10**6, "generator")))

    return gen


DIGEST_SEED = 0x9E3779B97F4A7C15  # answer for the empty sequence
_PACK = functools.cache(lambda m: struct.Struct(f"<{m}Q").pack)  # m children as bytes


def _digest_g(ys: Seq, children: tuple[int, ...] | Tree[int]) -> int:
    """mix64 of one message: ys's repr followed by its packed children."""
    # perfbench/reference.py's memoised_top_down passes a right-spine table
    kids = children if type(children) is tuple else flatten(children)
    message = repr(tuple(ys)).encode() + _PACK(len(kids))(*kids)
    return int.from_bytes(blake2b(message, digest_size=8).digest(), "little")


def digest_problem() -> Problem:
    """Order-sensitive structural digest.

    The solution encodes the whole recursion tree, so the two drivers
    agree only if they feed g the same children in the same order.
    The oracle is the top-down driver itself: the property of interest is
    cross-driver agreement, not an external value.
    """
    solver = Solver(e=lambda: DIGEST_SEED, g=_digest_g)
    return Problem(
        name="digest",
        domain="arbitrary tokens with a stable repr",
        solver=solver,
        oracle=lambda xs: td(solver, xs),
        generator=_inputs(range(256)),
    )


def subtree_count(m: int) -> int:
    """Closed form for the subtree-count solver: td_call_count(m) g calls plus m! e calls."""
    m = _guard(m, 20, "subtree_count")
    return td_call_count(m) + math.factorial(m)


def _subtree_count_g(ys: Seq, children: tuple[int, ...]) -> int:
    _guard(len(ys), 20, "subtree-count")
    return 1 + sum(children)


def subtree_count_problem() -> Problem:
    """Count the nodes of the full recursion tree; depends only on length."""
    return Problem(
        name="subtree-count",
        domain="arbitrary tokens, at most 20 of them",
        solver=Solver(e=lambda: 1, g=_subtree_count_g),
        oracle=lambda xs: subtree_count(len(xs)),
        generator=_inputs(ascii_lowercase),
    )


_STEPS: dict[str, Callable[[Seq], Any]] = {"sum": sum, "max": max}


def min_removal_problem(cost: str) -> Problem:
    """Cheapest order to delete elements one at a time.

    Deleting from the current sequence ys costs cost(ys), charged before
    the element is removed; the empty sequence costs nothing.  cost is
    'sum' or 'max' over the current elements.
    """
    step = _named(_STEPS, cost, "cost kind")

    def g(ys: Seq, children: tuple) -> Any:
        return step(ys) + min(children)

    return Problem(
        name=f"min-removal-{cost}",
        domain="numbers",
        solver=Solver(e=lambda: 0, g=g),
        oracle=lambda xs: brute_force_removal_oracle(cost, xs),
        generator=_inputs(range(50)),
    )


def brute_force_removal_oracle(cost: str, xs: Seq) -> Any:
    """Exhaustive minimum over all len(xs)! removal orders.

    Deliberately ignorant of the lattice structure; usable up to 8
    elements, beyond which it raises SizeLimit.
    """
    step = _named(_STEPS, cost, "cost kind")
    n = _guard(len(xs), 8, "brute force")
    # Both costs ignore element order, so the elements left after t
    # removals can be taken as the suffix order[t:] of the removal order.
    return min(
        sum(step(order[t:]) for t in range(n))
        for order in itertools.permutations(xs)
    )


PROBLEMS: dict[str, Callable[[], Problem]] = {
    "digest": digest_problem,
    "subtree-count": subtree_count_problem,
    "min-removal-sum": lambda: min_removal_problem("sum"),
    "min-removal-max": lambda: min_removal_problem("max"),
}


def get_problem(name: str) -> Problem:
    return _named(PROBLEMS, name, "problem")()
