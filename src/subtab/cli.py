"""Command line: verify the structural laws, benchmark and run the drivers,
and render sublist tables.

Exit codes: 0 success, 1 a verification suite failed, 2 usage or parse
error, 3 input exceeds a size limit.  All output is deterministic for a
given command line except the wall_ns field.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from random import Random
from string import ascii_lowercase
from typing import Callable, Sequence

from .bintree import (
    InvalidLevel, ParseError, SizeLimit, Tree, _guard, encode, map_tree, render_ascii,
)
from .induction import bu, run_instrumented, td
from .problems import PROBLEMS, get_problem, mix64
from .tabulate import (
    blank,
    check_functor_laws,
    check_naturality,
    check_rotation,
    check_spec_equation,
    choose,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3

_INT_TOKEN = re.compile("-?[0-9]+")


def _ascii_int(token: str) -> int:
    """int(token) for tokens of the form -?[0-9]+ only.

    int() alone also reads other scripts' digits, '_' separators, a '+'
    sign and surrounding whitespace.
    """
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidLevel, SizeLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT if isinstance(exc, SizeLimit) else EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtab",
        description="Sublist tables: verify laws, benchmark drivers, solve inputs.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    verify = sub.add_parser("verify", help="run the law suites and report JSON")
    verify.add_argument(
        "--n",
        type=_int_option(0, 10),
        required=True,
        help="largest source size to sweep (0..10)",
    )
    verify.add_argument("--seed", type=_int_option(), default=0, help="seed for random cases")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run one driver instrumented, report JSON")
    bench.add_argument("--n", type=_int_option(0), required=True)
    bench.add_argument("--alg", choices=("td", "bu"), required=True)
    bench.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    bench.set_defaults(func=_cmd_bench)

    solve = sub.add_parser("solve", help="solve one input and report stats")
    solve.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    solve.add_argument(
        "--input",
        required=True,
        help="comma-separated tokens, or a bare string taken per character",
    )
    solve.add_argument("--alg", choices=("td", "bu"), required=True)
    solve.set_defaults(func=_cmd_solve)

    render = sub.add_parser("render", help="print the table of k-sublists")
    render.add_argument("--input", required=True, help="source string, one element per character")
    render.add_argument("--k", type=_int_option(), required=True, help="sublist size to tabulate")
    render.add_argument("--format", choices=("text", "ascii"), default="text")
    render.set_defaults(func=_cmd_render)

    return parser


def _int_option(lo: int | None = None, hi: int | None = None) -> Callable[[str], int]:
    """_ascii_int for option values in lo..hi; argparse prints its errors as is."""
    def parse(text: str) -> int:
        try:
            value = _ascii_int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            top = "" if hi is None else f" and at most {hi}"
            raise argparse.ArgumentTypeError(f"must be at least {lo}{top}")
        return value

    return parse


# --- verify -----------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    rng = Random(args.seed)
    levels = [(n, k) for n in range(1, args.n + 1) for k in range(n)]
    spec = [check_spec_equation(k, ascii_lowercase[:n]) for n, k in levels]
    suites = [
        ("level-raising-equation", _tally(spec)),
        ("rotation", _tally([check_rotation(n, k) for n, k in levels])),
        ("functor-laws", _sweep_functor(args.n, rng)),
        ("naturality", _sweep_naturality(args.n, rng)),
        ("driver-agreement", _sweep_agreement(args.n, rng)),
    ]
    rows = [{"suite": name, "passed": passed, "failed": failed} for name, (passed, failed) in suites]
    ok = all(row["failed"] == 0 for row in rows)
    print(json.dumps({"max_n": args.n, "seed": args.seed, "suites": rows, "ok": ok}))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _tally(results: list[bool]) -> tuple[int, int]:
    return sum(results), len(results) - sum(results)


def _random_tree(rng: Random, n: int, k: int) -> Tree[int]:
    return map_tree(lambda _: rng.randrange(1_000_000), blank(n, k))


def _sweep_functor(max_n: int, rng: Random) -> tuple[int, int]:
    results: list[bool] = []
    for _ in range(100):
        n = rng.randint(0, max_n)
        t = _random_tree(rng, n, rng.randint(0, n))
        results += check_functor_laws(t, lambda v: 2 * v + 1, lambda v: v * v - 3)
    return _tally(results)


def _sweep_naturality(max_n: int, rng: Random) -> tuple[int, int]:
    results: list[bool] = []
    for _ in range(100):
        n = rng.randint(1, max(max_n, 1))
        k = rng.randint(0, n - 1)
        t, tip = _random_tree(rng, n, k), _random_tree(rng, n, n)
        results += check_naturality(n, k, t, tip, lambda v: 3 * v + 7)
    return _tally(results)


def _sweep_agreement(max_n: int, rng: Random) -> tuple[int, int]:
    problem = get_problem("digest")
    results = []
    for n in range(0, min(max_n, 8) + 1):
        for _ in range(4):
            xs = tuple(rng.randrange(256) for _ in range(n))
            results.append(td(problem.solver, xs) == bu(problem.solver, xs))
    return _tally(results)


# --- bench / solve ----------------------------------------------------------


def _stats_report(problem: str, alg: str, xs: Sequence, result: object, stats) -> dict:
    return {
        "n": len(xs),
        "alg": alg,
        "problem": problem,
        "g_calls": stats.g_calls,
        "e_calls": stats.e_calls,
        "peak_nesting": stats.peak_nesting,
        "wall_ns": stats.wall_ns,
        "result_digest": format(mix64(repr(result).encode()), "016x"),
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    problem = get_problem(args.problem)
    xs = problem.generator(args.n, 0)
    result, stats = run_instrumented(args.alg, problem.solver, xs)
    print(json.dumps(_stats_report(args.problem, args.alg, xs, result, stats)))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = get_problem(args.problem)
    xs = _parse_elements(args.input, _ascii_int if problem.domain == "numbers" else str)
    result, stats = run_instrumented(args.alg, problem.solver, xs)
    print(result)
    print(json.dumps(_stats_report(args.problem, args.alg, xs, result, stats)))
    return EXIT_OK


def _parse_elements(text: str, parse_element: Callable[[str], object]) -> tuple:
    """The elements of text, split at commas or, with none, per character."""
    sep = "," if "," in text else ""
    tokens = text.split(sep) if sep else list(text)
    out = []
    offset = 0
    for token in tokens:
        try:
            out.append(parse_element(token))
        except ValueError:
            raise ParseError(f"cannot parse element {token!r}", offset) from None
        offset += len(token) + len(sep)
    return tuple(out)


# --- render -----------------------------------------------------------------


def _cmd_render(args: argparse.Namespace) -> int:
    _guard(len(args.input), 20, "render")  # a middle k prints C(n, k) entries: 184,756 at 20
    table = choose(args.k, args.input)
    print(render_ascii(table) if args.format == "ascii" else encode(table))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
