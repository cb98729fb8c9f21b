"""The benchmark's workloads: inputs from a seed, one operation, its check.

Operations look library functions up as module attributes at call time
(`induction.bu`, `cli.main`, `bintree.encode`), so the tracer in
`spans.py` can wrap exactly the names the library's own callers use.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import subtab_path  # noqa: F401
import reference
from subtab import bintree, cli, induction, problems, tabulate


def bu_call_count(n: int) -> int:
    """g calls of a bottom-up run: one per nonempty sublist, 2^n - 1."""
    return (1 << n) - 1


def td_call_count(n: int) -> int:
    """g calls of a top-down run: T(m) = 1 + m * T(m - 1), T(0) = 0."""
    total = 0
    for m in range(1, n + 1):
        total = 1 + m * total
    return total


@dataclass
class Workload:
    """One input family at a fixed size, built from a seed.

    inputs is what the seed generated.  op() runs one operation and
    returns its output; check(output) returns None when the output is
    right, else why it is wrong.  items is the number of units one
    operation handles (g calls, or payloads for the codec), the base of
    us_per_item.  reference() is the harness's own
    answer, timed for the reference.s metric; check computes it on first
    use, so building a workload runs only library set-up.  text_bytes
    gives the length of the codec text in an output.
    """

    name: str
    inputs: object
    items: int
    item_unit: str
    op: Callable[[], object]
    check: Callable[[object], str | None]
    reference: Callable[[], object]
    text_bytes: Callable[[object], int] = lambda output: 0


class CountedG:
    """A solver's g that counts its calls, so every operation's count is checked."""

    def __init__(self, g: Callable):
        self.g = g
        self.calls = 0

    def __call__(self, ys, children):
        self.calls += 1
        return self.g(ys, children)


def _driver_workload(
    name: str,
    driver: str,
    problem: str,
    xs: tuple,
    expected_calls: int,
    reference_fn: Callable[[], object],
    wrap_g: Callable[[Callable], Callable],
) -> Workload:
    solver = problems.get_problem(problem).solver
    counted = CountedG(wrap_g(solver.g))
    counted_solver = induction.Solver(e=solver.e, g=counted)
    expected = functools.cache(reference_fn)

    def op() -> object:
        counted.calls = 0
        return getattr(induction, driver)(counted_solver, xs), counted.calls

    def check(output) -> str | None:
        result, calls = output
        if result != expected():
            return f"answer {result!r} != reference {expected()!r}"
        if calls != expected_calls:
            return f"{calls} g calls, closed form says {expected_calls}"
        return None

    return Workload(name, xs, expected_calls, "g call", op, check, reference_fn)


def _bu_minsum(seed: int, wrap_g) -> Workload:
    rng = random.Random(seed)
    xs = tuple(rng.randrange(50) for _ in range(15))
    return _driver_workload(
        "bu-minsum", "bu", "min-removal-sum", xs, bu_call_count(15),
        lambda: reference.min_removal_sum(xs), wrap_g,
    )


def _digest_reference(xs: tuple) -> Callable[[], object]:
    solver = problems.get_problem("digest").solver
    return lambda: reference.memoised_top_down(solver.e, solver.g, xs)


def _td_digest(seed: int, wrap_g) -> Workload:
    rng = random.Random(seed)
    xs = tuple(rng.randrange(256) for _ in range(8))
    return _driver_workload(
        "td-digest", "td", "digest", xs, td_call_count(8), _digest_reference(xs), wrap_g,
    )


def _cli_solve_digest(seed: int, wrap_g) -> Workload:
    # The CLI builds its own solver; the tracer reaches its g through cli.get_problem.
    rng = random.Random(seed)
    tokens = tuple(str(rng.randrange(256)) for _ in range(14))
    argv = ["solve", "--problem", "digest", "--input", ",".join(tokens), "--alg", "bu"]
    calls = bu_call_count(len(tokens))
    reference_fn = _digest_reference(tokens)
    expected = functools.cache(reference_fn)

    def op() -> object:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(output) -> str | None:
        code, text = output
        lines = text.splitlines()
        if code != 0 or len(lines) != 2:
            return f"exit code {code}, output {text[:200]!r}"
        if lines[0] != str(expected()):
            return f"answer {lines[0]} != reference {expected()}"
        stats = json.loads(lines[1])
        if stats["g_calls"] != calls:
            return f"{stats['g_calls']} g calls, closed form says {calls}"
        return None

    return Workload("cli-solve-digest", argv, calls, "g call", op, check, reference_fn)


def _codec_roundtrip(seed: int, wrap_g) -> Workload:
    # Level 6 of a 13-element source raised once: 1716 payloads, each a
    # (7, 6) table of 6-tuples.  A seeded permutation keeps the text size fixed.
    xs = tuple(random.Random(seed).sample(range(13), 13))
    table = tabulate.retabulate(13, 6, tabulate.choose(6, xs))
    payloads = sum(bintree.size(inner) for inner in bintree.flatten(table))

    def reference_fn():
        return reference.encode_nested(table), reference.render_nested(table)

    expected = functools.cache(reference_fn)

    def op() -> object:
        encoded = bintree.encode(table)
        return encoded, bintree.decode(encoded), bintree.render_ascii(table)

    def check(output) -> str | None:
        encoded, decoded, rendered = output
        text, picture = expected()
        if encoded != text:
            return "encode differs from the reference text"
        if decoded != table:
            return "decode(encode(t)) != t"
        if rendered != picture:
            return "render_ascii differs from the reference picture"
        return None

    return Workload(
        "codec-roundtrip", xs, payloads, "payload", op, check, reference_fn,
        lambda output: len(output[0]),
    )


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "bu-minsum": _bu_minsum,
    "td-digest": _td_digest,
    "cli-solve-digest": _cli_solve_digest,
    "codec-roundtrip": _codec_roundtrip,
}


def build(name: str, seed: int, wrap_g: Callable[[Callable], Callable] = lambda g: g) -> Workload:
    """The named workload on the input that seed generates.

    wrap_g wraps the problem's g inside the solver handed to the driver;
    the traced run passes the tracer's span wrapper.
    """
    return WORKLOADS[name](seed, wrap_g)
