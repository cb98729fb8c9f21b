"""A fixed pure-Python loop that measures how fast the machine is right now.

On a shared machine the same operation can run 30% slower for a while,
and the slow spells come and go within a second.  The benchmark runs
this loop just before and just after every operation and scales the
operation's wall time by the loop's, so end-to-end times are stated at
one nominal machine speed.  The loop mixes what the library spends its
time on: calls, small-object allocation, attribute access, strings and
dicts.  It touches no `subtab` code and runs with the cyclic collector
paused, so no change to the library, its allocation pattern or its gc
settings can move it.
"""
from __future__ import annotations

import gc
import time

# Wall seconds of one loop at the nominal speed (a 2 vCPU VM running
# CPython 3.11).  Only ratios matter; this sets the scale of the results.
NOMINAL_S = 0.2


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left, self.right, self.value = left, right, value


def _build(depth: int, value: int) -> _Node:
    if depth == 0:
        return _Node(None, None, value)
    return _Node(_build(depth - 1, 2 * value), _build(depth - 1, 2 * value + 1), value)


def _leaves(node: _Node, out: list[str]) -> int:
    if node.left is None:
        out.append(str(node.value))
        return node.value
    return _leaves(node.left, out) + _leaves(node.right, out)


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _work() -> int:
    # The tree (131k nodes, about 7 MB) is sized like a bu-minsum level, so
    # the loop feels memory contention the way the library does.
    leaves: list[str] = []
    total = _leaves(_build(17, 1), leaves) + len(",".join(leaves))
    lengths = {}
    for i in range(40000):
        key = str(i * 7919)
        lengths[key] = len(key)
    for i in range(40000):
        total += lengths[str(i * 7919)]
    return total + _fib(22)


def seconds() -> float:
    """Wall time of one pass of the loop."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(calibration_s: float) -> float:
    """Multiply a wall time by this to express it at the nominal speed."""
    return NOMINAL_S / calibration_s
