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

from .bintree import ParseError, SizeLimit, Tree, encode, map_tree, render_ascii, un_tip
from .induction import bu, run_instrumented, td
from .problems import PROBLEMS, get_problem, mix64
from .tabulate import (
    InvalidLevel,
    blank,
    check_rotation,
    check_spec_equation,
    choose,
    retabulate,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3

_ALG_MAX_N = {"td": 9, "bu": 20}
# choose recurses once per element and a middle k prints C(n, k) entries,
# so render stops where bu does
_RENDER_MAX_N = _ALG_MAX_N["bu"]

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
        type=_bounded_int(0, 10),
        required=True,
        help="largest source size to sweep (0..10)",
    )
    verify.add_argument("--seed", type=_int_option, default=0, help="seed for random cases")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run one driver instrumented, report JSON")
    bench.add_argument("--n", type=_bounded_int(0, None), required=True)
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
    render.add_argument("--k", type=_int_option, required=True, help="sublist size to tabulate")
    render.add_argument("--format", choices=("text", "ascii"), default="text")
    render.set_defaults(func=_cmd_render)

    return parser


def _int_option(text: str) -> int:
    """_ascii_int for option values; argparse prints this error as is."""
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bounded_int(lo: int, hi: int | None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = _int_option(text)
        if value < lo or (hi is not None and value > hi):
            top = "" if hi is None else f" and at most {hi}"
            raise argparse.ArgumentTypeError(f"must be at least {lo}{top}")
        return value

    return parse


# --- verify -----------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    rng = Random(args.seed)
    suites = [
        ("level-raising-equation", _sweep_level_raising(args.n)),
        ("rotation", _sweep_rotation(args.n)),
        ("functor-laws", _sweep_functor(args.n, rng)),
        ("naturality", _sweep_naturality(args.n, rng)),
        ("driver-agreement", _sweep_agreement(args.n, rng)),
    ]
    ok = True
    rows = []
    for name, (passed, failed) in suites:
        rows.append({"suite": name, "passed": passed, "failed": failed})
        ok = ok and failed == 0
    print(json.dumps({"max_n": args.n, "seed": args.seed, "suites": rows, "ok": ok}))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _tally(results: list[bool]) -> tuple[int, int]:
    return sum(results), len(results) - sum(results)


def _sweep_level_raising(max_n: int) -> tuple[int, int]:
    results = [
        check_spec_equation(k, ascii_lowercase[:n])
        for n in range(1, max_n + 1)
        for k in range(n)
    ]
    return _tally(results)


def _sweep_rotation(max_n: int) -> tuple[int, int]:
    results = [
        check_rotation(n, k) for n in range(1, max_n + 1) for k in range(n)
    ]
    return _tally(results)


def _random_tree(rng: Random, n: int, k: int) -> Tree[int]:
    return map_tree(lambda _: rng.randrange(1_000_000), blank(n, k))


def _sweep_functor(max_n: int, rng: Random) -> tuple[int, int]:
    def f(v: int) -> int:
        return 2 * v + 1

    def g(v: int) -> int:
        return v * v - 3

    results = []
    for _ in range(100):
        n = rng.randint(0, max_n)
        k = rng.randint(0, n)
        t = _random_tree(rng, n, k)
        results.append(map_tree(lambda v: v, t) == t)
        results.append(
            map_tree(lambda v: f(g(v)), t) == map_tree(f, map_tree(g, t))
        )
    return _tally(results)


def _sweep_naturality(max_n: int, rng: Random) -> tuple[int, int]:
    def f(v: int) -> int:
        return 3 * v + 7

    results = []
    for _ in range(100):
        n = rng.randint(1, max(max_n, 1))
        k = rng.randint(0, n - 1)
        t = _random_tree(rng, n, k)
        results.append(
            retabulate(n, k, map_tree(f, t))
            == map_tree(lambda inner: map_tree(f, inner), retabulate(n, k, t))
        )
        tip = _random_tree(rng, n, n)
        results.append(f(un_tip(tip)) == un_tip(map_tree(f, tip)))
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


def _check_driver_size(alg: str, n: int) -> None:
    bound = _ALG_MAX_N[alg]
    if n > bound:
        raise SizeLimit(f"{alg} is limited to {bound} elements, got {n}")


def _result_digest(result: object) -> str:
    return format(mix64(repr(result).encode()), "016x")


def _stats_report(
    problem: str, alg: str, xs: Sequence, result: object, stats
) -> dict:
    return {
        "n": len(xs),
        "alg": alg,
        "problem": problem,
        "g_calls": stats.g_calls,
        "e_calls": stats.e_calls,
        "peak_nesting": stats.peak_nesting,
        "wall_ns": stats.wall_ns,
        "result_digest": _result_digest(result),
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    _check_driver_size(args.alg, args.n)
    problem = get_problem(args.problem)
    xs = problem.generator(args.n, 0)
    result, stats = run_instrumented(args.alg, problem.solver, xs)
    print(json.dumps(_stats_report(args.problem, args.alg, xs, result, stats)))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = get_problem(args.problem)
    xs = _parse_elements(args.input, _ascii_int if problem.domain == "numbers" else str)
    _check_driver_size(args.alg, len(xs))
    result, stats = run_instrumented(args.alg, problem.solver, xs)
    print(result)
    print(json.dumps(_stats_report(args.problem, args.alg, xs, result, stats)))
    return EXIT_OK


def _parse_elements(
    text: str, parse_element: Callable[[str], object]
) -> tuple:
    if text == "":
        return ()
    tokens = text.split(",") if "," in text else list(text)
    out = []
    offset = 0
    for token in tokens:
        try:
            out.append(parse_element(token))
        except ValueError:
            raise ParseError(f"cannot parse element {token!r}", offset) from None
        offset += len(token) + 1
    return tuple(out)


# --- render -----------------------------------------------------------------


def _cmd_render(args: argparse.Namespace) -> int:
    n = len(args.input)
    if n > _RENDER_MAX_N:
        raise SizeLimit(f"render is limited to {_RENDER_MAX_N} elements, got {n}")
    table = choose(args.k, args.input)
    if args.format == "ascii":
        print(render_ascii(table))
    else:
        print(encode(table))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
