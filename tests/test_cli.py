"""Command-line behavior: outputs, determinism and exit codes."""
from __future__ import annotations

import json

import pytest

from subtab.cli import main

TABLE_TEXT = 'B(B(S("cd"),B(S("bd"),Z("bc"))),B(B(S("ad"),Z("ac")),Z("ab")))'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_reports_green_suites(capsys):
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["max_n"] == 4 and report["seed"] == 0
    assert [s["suite"] for s in report["suites"]] == [
        "level-raising-equation",
        "rotation",
        "functor-laws",
        "naturality",
        "driver-agreement",
    ]
    for suite in report["suites"]:
        assert suite["failed"] == 0
        assert suite["passed"] > 0


def test_verify_report_is_frozen(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6", "--seed", "3")
    assert code == 0
    assert json.loads(out) == {
        "max_n": 6,
        "seed": 3,
        "suites": [
            {"suite": "level-raising-equation", "passed": 21, "failed": 0},
            {"suite": "rotation", "passed": 21, "failed": 0},
            {"suite": "functor-laws", "passed": 200, "failed": 0},
            {"suite": "naturality", "passed": 200, "failed": 0},
            {"suite": "driver-agreement", "passed": 28, "failed": 0},
        ],
        "ok": True,
    }


def test_verify_seed_changes_nothing_but_is_recorded(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--seed", "9")
    assert code == 0
    assert json.loads(out)["seed"] == 9


# integer options take -?[0-9]+ only, like --input elements
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "99"],
        ["verify", "--n", "\uff13"],
        ["verify", "--n", "1_0"],
        ["bench", "--n", "+4", "--alg", "bu", "--problem", "digest"],
        ["verify", "--n", "3", "--seed", "\u0663"],
        ["render", "--input", "abcd", "--k", "\uff12"],
    ],
    ids=["n-99", "n-fullwidth", "n-underscore", "bench-n-plus", "seed-arabic-indic", "k-fullwidth"],
)
def test_verify_rejects_oversized_sweeps(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err
    # argparse names the type function unless it raises ArgumentTypeError
    assert "_ascii_int" not in err and "parse value" not in err


def test_bench_reports_the_call_profile(capsys):
    code, out, _ = run(capsys, "bench", "--n", "4", "--alg", "td", "--problem", "digest")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 4
    assert report["alg"] == "td"
    assert report["problem"] == "digest"
    assert report["g_calls"] == 41
    assert report["e_calls"] == 24
    assert report["peak_nesting"] == 1
    assert report["wall_ns"] > 0
    assert len(report["result_digest"]) == 16
    int(report["result_digest"], 16)


def test_bench_is_deterministic_apart_from_wall_time(capsys):
    _, first, _ = run(capsys, "bench", "--n", "5", "--alg", "bu", "--problem", "subtree-count")
    _, second, _ = run(capsys, "bench", "--n", "5", "--alg", "bu", "--problem", "subtree-count")
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_ns"), b.pop("wall_ns")
    assert a == b
    assert a["g_calls"] == 31


def test_bench_enforces_driver_size_limits(capsys):
    code, _, err = run(capsys, "bench", "--n", "10", "--alg", "td", "--problem", "digest")
    assert code == 3
    assert err == "error: td is limited to 9 elements, got 10\n"
    code, _, err = run(capsys, "bench", "--n", "21", "--alg", "bu", "--problem", "digest")
    assert code == 3
    assert err == "error: bu is limited to 20 elements, got 21\n"
    code, _, _ = run(capsys, "bench", "--n", "10", "--alg", "bu", "--problem", "digest")
    assert code == 0


def test_solve_prints_solution_then_stats(capsys):
    code, out, _ = run(
        capsys, "solve", "--problem", "min-removal-max", "--input", "3,1,2", "--alg", "td"
    )
    assert code == 0
    solution, stats_line = out.splitlines()
    assert solution == "6"
    stats = json.loads(stats_line)
    assert stats["n"] == 3
    assert stats["alg"] == "td"
    assert stats["g_calls"] == 10


def test_solve_accepts_empty_and_bare_string_inputs(capsys):
    code, out, _ = run(
        capsys, "solve", "--problem", "min-removal-sum", "--input", "", "--alg", "bu"
    )
    assert code == 0
    assert out.splitlines()[0] == "0"
    code, out, _ = run(
        capsys, "solve", "--problem", "min-removal-sum", "--input=-3,4", "--alg", "bu"
    )
    assert code == 0
    assert out.splitlines()[0] == "-2"
    code, out, _ = run(capsys, "solve", "--problem", "digest", "--input", "abc", "--alg", "bu")
    assert code == 0
    assert json.loads(out.splitlines()[1])["n"] == 3


def test_solve_reports_unparsable_elements(capsys):
    code, _, err = run(
        capsys, "solve", "--problem", "min-removal-sum", "--input", "3,x,2", "--alg", "bu"
    )
    assert code == 2
    assert "'x'" in err and "position 2" in err
    # a bare string has no commas to count
    code, _, err = run(
        capsys, "solve", "--problem", "min-removal-sum", "--input", "12a", "--alg", "bu"
    )
    assert code == 2
    assert "'a'" in err and "position 2" in err


@pytest.mark.parametrize(
    "text", ["\uff11,\uff12", "\uff11\uff12", "1,\u0662", "1_0,2", "+3,4", " 3,4"]
)
def test_solve_rejects_non_ascii_digits(capsys, text):
    code, out, err = run(
        capsys, "solve", "--problem", "min-removal-sum", "--input", text, "--alg", "bu"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse element") and "Traceback" not in err


def test_solve_enforces_driver_size_limits(capsys):
    code, _, _ = run(
        capsys, "solve", "--problem", "digest", "--input", "abcdefghij", "--alg", "td"
    )
    assert code == 3


def test_render_text_and_ascii(capsys):
    code, out, _ = run(capsys, "render", "--input", "abcd", "--k", "2")
    assert code == 0
    assert out == TABLE_TEXT + "\n"
    code, out, _ = run(capsys, "render", "--input", "abcd", "--k", "2", "--format", "ascii")
    assert code == 0
    assert out == ". . cd\n    . bd\n      bc\n  . . ad\n      ac\n    ab\n"


def test_render_rejects_impossible_levels(capsys):
    code, _, err = run(capsys, "render", "--input", "ab", "--k", "3")
    assert code == 2
    assert err.startswith("error:")
    code, _, _ = run(capsys, "render", "--input", "ab", "--k", "-1")
    assert code == 2


def test_render_enforces_its_size_limit(capsys):
    code, out, err = run(capsys, "render", "--input", "a" * 21, "--k", "1")
    assert code == 3 and out == ""
    assert err == "error: render is limited to 20 elements, got 21\n"
    code, out, _ = run(capsys, "render", "--input", "a" * 20, "--k", "1")
    assert code == 0 and out.count('"a"') == 20


def test_unknown_problem_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--n", "3", "--alg", "td", "--problem", "partition"])
    assert exit_info.value.code == 2
