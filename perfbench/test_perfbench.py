"""Tests of the benchmark itself: references, span arithmetic, determinism.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import subtab_path  # noqa: F401
import reference
import run
import spans
import workloads
from subtab import bu, get_problem, induction, td
from subtab.bintree import Bin, TipS, TipZ


@pytest.mark.parametrize("n", range(9))
def test_min_removal_reference_agrees_with_both_drivers(n):
    solver = get_problem("min-removal-sum").solver
    for seed in range(3):
        xs = tuple(random.Random(seed * 10 + n).randrange(50) for _ in range(n))
        assert reference.min_removal_sum(xs) == td(solver, xs) == bu(solver, xs)


@pytest.mark.parametrize("n", range(9))
def test_digest_reference_agrees_with_both_drivers(n):
    solver = get_problem("digest").solver
    for seed in range(3):
        xs = tuple(random.Random(seed * 10 + n).randrange(256) for _ in range(n))
        expected = reference.memoised_top_down(solver.e, solver.g, xs)
        assert expected == td(solver, xs) == bu(solver, xs)


def test_immediate_sublist_table_is_a_right_spine_in_drop_order():
    assert reference.immediate_sublist_table(["a"]) == TipZ("a")
    assert reference.immediate_sublist_table(["a", "b", "c"]) == Bin(
        TipS("a"), Bin(TipS("b"), TipZ("c"))
    )


def test_closed_form_call_counts():
    assert workloads.bu_call_count(15) == 2**15 - 1
    assert workloads.td_call_count(8) == 69_281
    assert workloads.bu_call_count(14) == 2**14 - 1


def test_self_time_on_hand_built_spans():
    # op [0, 100] holds a [10, 40] (which holds b [15, 25]) and c [50, 90]
    # (which holds a collector pause [60, 70]).
    start = [0, 10, 15, 50, 60]
    end = [100, 40, 25, 90, 70]
    parent = [-1, 0, 1, 0, 3]
    own = spans.self_ns(start, end, parent)
    assert own == [30, 20, 10, 30, 10]
    assert sum(own) == end[0] - start[0]


def test_level_split_on_hand_built_rows():
    names = ["op", "induction.choose", "induction.retabulate", "induction.zip_with", "problems.g"]
    rows = [
        [0, 0, 0, -1, -1, 0, 100_000_000],
        [1, 0, 2, 0, 1, 0, 1_000_000],
        [2, 0, 1, 0, 1, 1_000_000, 3_000_000],
        [3, 0, 3, 0, 1, 3_000_000, 6_000_000],
        [4, 0, 4, 3, 1, 4_000_000, 5_000_000],
    ]
    assert spans.level_split(rows, names) == [
        {"level": 1, "keys_ms": 2.0, "regroup_ms": 1.0, "solve_ms": 3.0, "g_calls": 1},
    ]


def test_traced_bu_accounts_for_its_operation(tmp_path):
    tracer = spans.Tracer()
    solver = get_problem("min-removal-sum").solver
    counted = workloads.CountedG(tracer.wrap_g(solver.g))
    xs = (3, 1, 4, 1, 5, 9)
    original = induction.retabulate
    with tracer.traced_op():
        answer = induction.bu(induction.Solver(e=solver.e, g=counted), xs)
    assert answer == reference.min_removal_sum(xs)
    metrics = tracer.metrics()
    assert metrics["problems.g_calls"] == counted.calls == 2**6 - 1
    assert metrics["tabulate.retabulate_calls"] == metrics["tabulate.choose_calls"] == 6
    self_total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert self_total == pytest.approx(tracer.op_seconds()[0], rel=1e-9)
    split = spans.level_split(list(tracer.rows(0)), tracer.names)
    assert [row["g_calls"] for row in split] == [6, 15, 20, 15, 6, 1]
    path = tmp_path / "trace.jsonl.gz"
    spans.write(path, {"workload": "test"}, tracer, spans.LevelMemory())
    meta, rows, mem = spans.read(path)
    assert spans.level_split(rows, meta["names"]) == split and mem == []
    assert induction.retabulate is original  # wrappers removed after the operation


def test_level_memory_samples_every_bu_level():
    memory = spans.LevelMemory()
    solver = get_problem("min-removal-sum").solver
    tracemalloc.start()
    try:
        with memory.installed():
            bu(solver, (2, 7, 1, 8, 2))
        memory.mark(None)
    finally:
        tracemalloc.stop()
    assert [s["level"] for s in memory.samples] == [0, 1, 2, 3, 4, None]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_answers(name):
    first, again, other = (workloads.build(name, s) for s in (7, 7, 8))
    assert first.inputs == again.inputs != other.inputs
    assert first.reference() == again.reference()


@pytest.mark.parametrize("name", ["td-digest", "codec-roundtrip"])
def test_operation_passes_its_check_and_a_wrong_output_fails(name):
    workload = workloads.build(name, 3)
    output = workload.op()
    assert workload.check(output) is None
    first, *rest = output
    assert workload.check((first + 1 if isinstance(first, int) else first + " ", *rest)) is not None


def test_wrong_call_count_fails_the_check():
    workload = workloads.build("td-digest", 3)
    answer, calls = workload.op()
    assert workload.check((answer, calls - 1)) is not None


HERE = Path(__file__).resolve().parent


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "td-digest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
