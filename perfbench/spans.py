"""Spans at the library's layer boundaries, for the benchmark's traced run.

A Tracer wraps the functions each layer's caller looks up as a module
attribute (`subtab.induction.retabulate` is what `bu` calls, so wrapping
that name times every regrouping), plus the solver's g, and hooks
`gc.callbacks` so collector pauses become spans too.  Spans live in
flat arrays while the run lasts (no per-span objects, so recording
does not feed the collector it measures) and are written out at the end.

A span's self time is its duration minus its children's durations.
Every span name maps to exactly one metric in SELF_TIME_METRICS, so the
self times of one operation add up to that operation's traced duration.

Run as a script on a trace file to print its per-level, per-stage split:

    python3 perfbench/spans.py perfbench/out/trace-bu-minsum-seed1.jsonl.gz
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import gzip
import json
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from typing import Callable, Iterator

import subtab_path  # noqa: F401
from subtab import bintree, cli, induction

OP = "op"
GC_NAMES = ("python.gc0", "python.gc1", "python.gc2")

SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "tabulate.retabulate_s": ("induction.retabulate",),
    "tabulate.choose_s": ("induction.choose",),
    "bintree.zip_with_self_s": ("induction.zip_with",),
    "bintree.map_tree_self_s": ("induction.map_tree",),
    "problems.g_s": ("problems.g",),
    "induction.self_s": ("induction.td", "induction.bu", "cli.run_instrumented"),
    "cli.self_s": ("cli.main", "cli.get_problem"),
    "bintree.encode_s": ("bintree.encode",),
    "bintree.decode_s": ("bintree.decode",),
    "bintree.render_s": ("bintree.render_ascii",),
    "python.gc_s": GC_NAMES,
    "harness.self_s": (OP,),
}
CALL_METRICS: dict[str, tuple[str, ...]] = {
    "tabulate.retabulate_calls": ("induction.retabulate",),
    "tabulate.choose_calls": ("induction.choose",),
    "problems.g_calls": ("problems.g",),
    "python.gc_collections": GC_NAMES,
}
# The three stages of raising one bottom-up level.
STAGES = {"induction.choose": "keys", "induction.retabulate": "regroup", "induction.zip_with": "solve"}
COLUMNS = ("id", "op", "name", "parent", "level", "start_ns", "end_ns")


def _keys_level(args: tuple) -> int:
    """Size of the sublists keying the table passed second (zip_with, map_tree)."""
    t = args[1]
    while isinstance(t, bintree.Bin):
        t = t.left
    return len(t.payload) if isinstance(t.payload, (tuple, str)) else -1


# (module, attribute, level of the call from its positional arguments).
# The level is the size of the sublists the call answers or tabulates.
WRAPPED: tuple[tuple[object, str, Callable[[tuple], int] | None], ...] = (
    (induction, "td", lambda a: len(a[1])),
    (induction, "bu", lambda a: len(a[1])),
    (induction, "retabulate", lambda a: a[1] + 1),
    (induction, "choose", lambda a: a[0]),
    (induction, "zip_with", _keys_level),
    (induction, "map_tree", _keys_level),
    (cli, "main", None),
    (cli, "run_instrumented", None),
    (cli, "get_problem", None),
    (bintree, "encode", None),
    (bintree, "decode", None),
    (bintree, "render_ascii", None),
)


class Tracer:
    """Records spans for operations run inside `traced_op`.

    Span i has a name id, a parent span (-1 for an operation's root), a
    level (-1 where the call has none) and start/end perf_counter_ns.
    Operation j's spans are the contiguous range from op_first[j].
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_level = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_first: list[int] = []
        self._stack = [-1]
        self._gc_span = -1
        self._gc_ids = [self.name_id(n) for n in GC_NAMES]
        self._op_id = self.name_id(OP)
        self._patches = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        self._wrappers = [
            self._wrap_attr(module, attr, original, level_of)
            for (module, attr, level_of), (_, _, original) in zip(WRAPPED, self._patches)
        ]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        sid = len(self.start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_level.append(-1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, level_of: Callable[[tuple], int] | None = None) -> Callable:
        """fn with a span named name around every call.

        The bookkeeping is inlined: it runs hundreds of thousands of times
        per operation on td-digest, and whatever it costs outside the
        child's own [start, end] is charged to the parent's self time.
        """
        name_id = self.name_id(name)
        names, parents, levels = self.span_name, self.span_parent, self.span_level
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter_ns
        level_of = level_of or (lambda args: -1)

        def spanned(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            levels.append(level_of(args))
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return spanned

    def wrap_g(self, g: Callable) -> Callable:
        """A solver's g with a 'problems.g' span, levelled by len(ys)."""
        return self.wrap("problems.g", g, lambda a: len(a[0]))

    def _wrap_attr(self, module, attr: str, original: Callable, level_of) -> Callable:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if attr == "get_problem":
            # The CLI builds its solver from get_problem; hand it one whose g is spanned.
            def get_problem(problem_name: str):
                problem = original(problem_name)
                solver = induction.Solver(e=problem.solver.e, g=self.wrap_g(problem.solver.g))
                return dataclasses.replace(problem, solver=solver)

            return self.wrap(name, get_problem)
        return self.wrap(name, original, level_of)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self.begin(self._gc_ids[info["generation"]])
        else:
            self.finish(self._gc_span)

    @contextlib.contextmanager
    def traced_op(self) -> Iterator[None]:
        """Span one operation, with the library wrappers and gc hook installed."""
        for (module, attr, _), wrapper in zip(self._patches, self._wrappers):
            setattr(module, attr, wrapper)
        self.op_first.append(len(self.start))
        sid = self.begin(self._op_id)
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self.finish(sid)
            for module, attr, original in self._patches:
                setattr(module, attr, original)

    @property
    def ops(self) -> int:
        return len(self.op_first)

    def op_seconds(self) -> list[float]:
        """Traced duration of each operation."""
        return [(self.end[i] - self.start[i]) / 1e9 for i in self.op_first]

    def metrics(self) -> dict[str, float]:
        """Per-operation means of every self-time and call metric."""
        own = self_ns(self.start, self.end, self.span_parent)
        self_by_name: dict[str, int] = defaultdict(int)
        calls_by_name: dict[str, int] = defaultdict(int)
        for i, name_id in enumerate(self.span_name):
            self_by_name[self.names[name_id]] += own[i]
            calls_by_name[self.names[name_id]] += 1
        ops = max(self.ops, 1)
        out = {
            metric: sum(self_by_name[n] for n in names) / 1e9 / ops
            for metric, names in SELF_TIME_METRICS.items()
        }
        out.update(
            (metric, sum(calls_by_name[n] for n in names) / ops)
            for metric, names in CALL_METRICS.items()
        )
        return out

    def rows(self, op: int) -> Iterator[list[int]]:
        """The spans of one operation as COLUMNS rows, ids and times relative to its root."""
        first = self.op_first[op]
        last = self.op_first[op + 1] if op + 1 < self.ops else len(self.start)
        t0 = self.start[first]
        for i in range(first, last):
            parent = self.span_parent[i]
            yield [i - first, op, self.span_name[i], parent - first if parent >= 0 else -1,
                   self.span_level[i], self.start[i] - t0, self.end[i] - t0]


def self_ns(start, end, parent) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def level_split(rows: list[list[int]], names: list[str]) -> list[dict]:
    """Per level: wall ms in the keys, regroup and solve stages, and g calls.

    Stage times include their children (g and gc inside solve), so the
    three stages of a bottom-up run add up to the driver's time.
    """
    split: dict[int, dict] = defaultdict(
        lambda: {"keys_ms": 0.0, "regroup_ms": 0.0, "solve_ms": 0.0, "g_calls": 0}
    )
    for _, _, name_id, _, level, start, end in rows:
        name = names[name_id]
        if name in STAGES:
            split[level][STAGES[name] + "_ms"] += (end - start) / 1e6
        elif name == "problems.g":
            split[level]["g_calls"] += 1
    return [{"level": k, **split[k]} for k in sorted(split)]


class LevelMemory:
    """tracemalloc current and peak bytes at each level boundary of `bu`.

    Entering retabulate(n, k, level) marks the boundary where level k is
    complete; the peak is the highest since the previous boundary.  Use
    inside `installed()` with tracemalloc running.
    """

    def __init__(self) -> None:
        self.samples: list[dict] = []

    def mark(self, level: int | None) -> None:
        """Sample at a boundary; level None marks the end of the operation."""
        current, peak = tracemalloc.get_traced_memory()
        self.samples.append({"level": level, "current_bytes": current, "peak_bytes": peak})
        tracemalloc.reset_peak()

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        original = induction.retabulate

        def retabulate(n, k, t, **kwargs):
            self.mark(k)
            return original(n, k, t, **kwargs)

        induction.retabulate = retabulate
        try:
            yield
        finally:
            induction.retabulate = original


def write(path, meta: dict, tracer: Tracer, memory: LevelMemory) -> None:
    """JSON lines: one meta object, then the first traced operation's span
    rows, then one object per level memory sample."""
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write(json.dumps({"kind": "meta", **meta, "names": tracer.names, "columns": COLUMNS}) + "\n")
        for row in tracer.rows(0):
            f.write(json.dumps(row) + "\n")
        for sample in memory.samples:
            f.write(json.dumps({"kind": "mem", **sample}) + "\n")


def read(path) -> tuple[dict, list[list[int]], list[dict]]:
    meta, rows, mem = {}, [], []
    with gzip.open(path, "rt") as f:
        for line in f:
            record = json.loads(line)
            if isinstance(record, list):
                rows.append(record)
            elif record["kind"] == "meta":
                meta = record
            else:
                mem.append(record)
    return meta, rows, mem


def format_split(split: list[dict], mem: list[dict]) -> list[str]:
    lines = ["level  keys_ms  regroup_ms  solve_ms  g_calls"]
    lines += [
        f"{r['level']:>5}  {r['keys_ms']:>7.2f}  {r['regroup_ms']:>10.2f}  {r['solve_ms']:>8.2f}  {r['g_calls']:>7}"
        for r in split
    ]
    if mem:
        lines.append("level  current_mb  peak_mb  (tracemalloc at the boundary where level k is complete)")
        lines += [
            f"{'end' if m['level'] is None else m['level']:>5}  "
            f"{m['current_bytes'] / 1e6:>10.3f}  {m['peak_bytes'] / 1e6:>7.3f}"
            for m in mem
        ]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: spans.py TRACE_FILE", file=sys.stderr)
        return 2
    meta, rows, mem = read(argv[0])
    print("\n".join(format_split(level_split(rows, meta["names"]), mem)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
