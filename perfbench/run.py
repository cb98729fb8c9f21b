"""The subtab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): bu-minsum, td-digest, cli-solve-digest and
codec-roundtrip.  Inputs come from --seed alone; every output is checked
against a reference that uses neither `subtab.tabulate` nor
`subtab.induction`, and every driver run's g-call count against its
closed form.  The load is a closed loop: one process, no extra threads,
the next operation starts when the previous one has been checked.

--trace 0 reports the end-to-end metrics, with tracing off and the
collector in its default state:

  op_s           median seconds per operation, at the nominal machine
                 speed: each operation's wall time is scaled by
                 calibrate.speed_factor of the calibration loop run just
                 before and after it (the raw wall median is printed too)
  us_per_item    op_s per g call (per payload on codec-roundtrip), in us
  peak_alloc_mb  tracemalloc peak over one operation, in its own pass
  setup_s        median over fresh interpreters of importing subtab,
                 building the workload and running its first operation,
                 scaled by one calibration pass run right after it
  failed_ratio   failed / attempted operations; printed, and carried in
                 the result's "failed" and "attempted" fields

--trace 1 reports the per-layer metrics from spans (see spans.py),
alternating traced and untraced operations so trace.overhead_ratio
compares like with like, and writes the spans of the first traced
operation plus tracemalloc samples at each level boundary to
perfbench/out/trace-<workload>-seed<N>.jsonl.gz.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full result, with the run environment and every sample,
goes to perfbench/out/<workload>-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import subtab_path  # noqa: F401
import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MIN_OPS = 3


class Tally:
    """Operations attempted and why each failed one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, why: str) -> None:
        self.failures.append(why)

    def run(self, workload: workloads.Workload, op=None) -> tuple[float, object] | None:
        """Wall seconds and output of one checked operation, or None if it failed."""
        op = op or workload.op
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        why = workload.check(output)
        if why is not None:
            self.fail(why)
            return None
        return wall, output


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "gc_thresholds": gc.get_threshold(),
        "gc_enabled": gc.isenabled(),
        "seed": args.seed,
        "workload": args.workload,
        "command": [sys.executable, *sys.argv],
        "calibration_nominal_s": calibrate.NOMINAL_S,
    }


def setup_probes(args: argparse.Namespace, tally: Tally) -> list[dict]:
    """Run coldstart.py in fresh interpreters; one record per good probe."""
    probes = []
    for _ in range(SETUP_PROBES):
        tally.attempted += 1
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "coldstart.py"), args.workload, str(args.seed)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            tally.fail(f"set-up probe took over {PROBE_TIMEOUT_S} s")
            continue
        if done.returncode != 0:
            tally.fail(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-500:]}")
            continue
        record = json.loads(done.stdout.splitlines()[-1])
        if record["failure"] is not None:
            tally.fail(f"first operation: {record['failure']}")
            continue
        probes.append(record)
    return probes


def peak_alloc_bytes(workload: workloads.Workload, tally: Tally) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        tally.run(workload)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def calibrated_loop(
    seconds: float, tally: Tally, variants: list[tuple[workloads.Workload, object]]
) -> list[list[tuple[float, float]]]:
    """Run operations in turn, each variant once per round, until time is up.

    A calibration pass runs between consecutive operations.  Returns, per
    variant, (wall seconds, wall seconds at nominal speed) for each good
    operation; the factor for an operation comes from the mean of the
    calibration passes on either side of it.
    """
    samples: list[list[tuple[float, float]]] = [[] for _ in variants]
    before = calibrate.seconds()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(len(s) for s in samples) < MIN_OPS:
        if tally.attempted > 10 * MIN_OPS and len(tally.failures) * 2 > tally.attempted:
            break  # mostly failing: stop rather than loop on errors
        for out, (workload, op) in zip(samples, variants):
            gc.collect()
            result = tally.run(workload, op)
            after = calibrate.seconds()
            if result is not None:
                wall = result[0]
                out.append((wall, wall * calibrate.speed_factor((before + after) / 2)))
            before = after
    return samples


def end_to_end(args: argparse.Namespace, tally: Tally, report: dict) -> dict[str, float]:
    probes = setup_probes(args, tally)
    workload = workloads.build(args.workload, args.seed)
    peak = peak_alloc_bytes(workload, tally)
    [samples] = calibrated_loop(args.seconds, tally, [(workload, None)])
    if not samples or not probes:
        return {}
    op_s = statistics.median(s for _, s in samples)
    setup = [p["setup_wall_s"] * calibrate.speed_factor(p["calibration_s"]) for p in probes]
    report["samples"] = {"op": samples, "setup_probes": probes}
    report["detail"] = {
        "op_s": f"median of {len(samples)} ops; wall median "
                f"{statistics.median(w for w, _ in samples):.4f} s, "
                f"nominal range {min(s for _, s in samples):.4f}..{max(s for _, s in samples):.4f} s",
        "us_per_item": f"{workload.items} {workload.item_unit}s per op",
        "setup_s": f"median of {len(setup)} fresh interpreters; wall "
                   + ", ".join(f"{p['setup_wall_s']:.4f}" for p in probes) + " s",
    }
    return {
        "op_s": op_s,
        "us_per_item": op_s / workload.items * 1e6,
        "peak_alloc_mb": peak / 1e6,
        "setup_s": statistics.median(setup),
    }


def per_layer(args: argparse.Namespace, tally: Tally, report: dict) -> dict[str, float]:
    tracer = spans.Tracer()
    plain = workloads.build(args.workload, args.seed)
    traced = workloads.build(args.workload, args.seed, wrap_g=tracer.wrap_g)

    reference_s = []
    for _ in range(3):
        start = time.perf_counter()
        plain.reference()
        reference_s.append(time.perf_counter() - start)

    memory = spans.LevelMemory()
    gc.collect()
    tracemalloc.start()
    try:
        with memory.installed():
            first = tally.run(plain)
        memory.mark(None)
    finally:
        tracemalloc.stop()

    def traced_op():
        with tracer.traced_op():
            return traced.op()

    untraced, spanned = calibrated_loop(args.seconds, tally, [(plain, None), (traced, traced_op)])
    if not untraced or not spanned or tracer.ops == 0 or first is None:
        return {}

    metrics = tracer.metrics()
    op_mean = statistics.fmean(tracer.op_seconds())
    layers = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "harness.self_s")
    metrics["bintree.text_bytes"] = traced.text_bytes(first[1])
    metrics["reference.s"] = statistics.median(reference_s)
    metrics["trace.op_s"] = statistics.median(tracer.op_seconds())
    metrics["trace.overhead_ratio"] = (
        statistics.median(s for _, s in spanned) / statistics.median(s for _, s in untraced)
    )
    metrics["trace.accounted_ratio"] = layers / op_mean

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    spans.write(trace_path, {"workload": args.workload, "seed": args.seed, "env": report["env"]}, tracer, memory)
    split = spans.level_split(list(tracer.rows(0)), tracer.names)
    report["level_split"] = split
    report["level_memory"] = memory.samples
    report["trace_file"] = str(trace_path.relative_to(HERE.parent))
    report["detail"] = {
        "trace.op_s": f"{tracer.ops} traced ops beside {len(untraced)} untraced",
        "trace.accounted_ratio": "layer self times plus python.gc_s over mean traced op_s",
    }
    print("\n".join(spans.format_split(split, memory.samples)))
    return metrics


END_TO_END_UNITS = {"op_s": "s", "us_per_item": "us", "peak_alloc_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{name: "s" for name in spans.SELF_TIME_METRICS},
    **{name: "count" for name in spans.CALL_METRICS},
    "bintree.text_bytes": "bytes",
    "reference.s": "s",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one subtab benchmark workload.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    tally = Tally()
    report: dict = {"env": environment(args)}
    measure, units = (per_layer, PER_LAYER_UNITS) if args.trace else (end_to_end, END_TO_END_UNITS)
    values = measure(args, tally, report)
    if not values:
        print("perfbench: no operation succeeded: " + "; ".join(tally.failures[:5]), file=sys.stderr)
        return 1

    failed = len(tally.failures)
    report.update(
        correct=failed == 0,
        attempted=tally.attempted,
        failed=failed,
        failures=tally.failures,
        metrics={name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )

    print(f"env {json.dumps(report['env'])}")
    details = report.get("detail", {})
    for name, unit in units.items():
        extra = f"  ({details[name]})" if name in details else ""
        print(f"{args.workload:<18} {name:<26} {values[name]:>14.6g} {unit}{extra}")
    print(f"{args.workload:<18} {'failed_ratio':<26} {failed / tally.attempted:>14.6g} ratio"
          f"  ({failed} of {tally.attempted} operations)")
    for why in tally.failures[:5]:
        print(f"failure: {why}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
