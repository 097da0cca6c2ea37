"""Command-line front end: inspect determinism structure, compile, verify.

Exit codes are part of the contract:
  0 success
  2 unreadable or unparsable input, an option value out of range, or an
    output file that cannot be written
  3 no determinism structure (no flow, no gflow, or supplied sets invalid)
  4 verification failure, shape/cap mismatch, or simplification failed
  5 special-CX designation search exhausted
"""

from __future__ import annotations

import argparse
import math
import sys

from .circuits import Circuit, emit_text, parse_text
from .determinism import find_flow, find_gflow, validate_gflow
from .graphs import OpenGraph, parse_graph_with_sets
from .pipeline import CompileError, compile_pattern
from .rewrite import SimplificationTrace, trace_text
from .verify import compare_circuits

__all__ = ["main"]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _bounded(kind, ok, want: str):
    """An option type: ``kind`` read from the text, refused at parse time (exit 2) unless ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_AT_LEAST_ONE = _bounded(int, lambda v: v >= 1, "at least 1")
_NON_NEGATIVE = _bounded(_bounded(float, lambda v: v >= 0, "non-negative"), math.isfinite, "finite")


def _load_graph(path: str) -> tuple[OpenGraph, dict[int, frozenset[int]] | None]:
    return parse_graph_with_sets(_read(path))


def _format_layers(layers: tuple[tuple[int, ...], ...]) -> str:
    return " ".join("{" + ",".join(map(str, layer)) + "}" for layer in layers)


def cmd_flow(args: argparse.Namespace) -> int:
    try:
        graph, sets = _load_graph(args.graph)
    except (OSError, ValueError) as exc:
        return _fail(2, str(exc))

    found = False
    for name, find in (("flow", find_flow), ("gflow", find_gflow)):
        structure = find(graph)
        print(f"{name}: {'no' if structure is None else 'yes'}")
        if structure is None:
            continue
        found = True
        for i, members in sorted(structure.correcting_sets.items()):
            # a flow names f(i), the one member of its set
            shown = ",".join(map(str, sorted(members)))
            print(f"  f({i}) = {shown}" if name == "flow" else f"  g({i}) = {{{shown}}}")
        print(f"  layers: {_format_layers(structure.layers)}")

    if sets is not None:
        checked = validate_gflow(graph, sets)
        if isinstance(checked, list):
            print(f"supplied correcting sets: invalid ({checked[0]})")
        else:
            print("supplied correcting sets: valid")

    return 0 if found else 3


def _write_outputs(
    args: argparse.Namespace,
    extended: Circuit | None,
    trace: SimplificationTrace | None,
    partial: bool = False,
) -> str | None:
    """--emit-extended and --trace; an exhausted search's partial trace
    goes to stderr when no --trace is given.  Returns why a file could not
    be written, or None."""
    try:
        if args.emit_extended and extended is not None:
            _write(args.emit_extended, emit_text(extended))
        if args.trace and trace is not None:
            _write(args.trace, trace_text(trace))
        elif partial:
            sys.stderr.write(trace_text(trace))
    except OSError as exc:
        return f"cannot write {exc.filename}: {exc.strerror}"
    return None


def cmd_compile(args: argparse.Namespace) -> int:
    try:
        graph, sets = _load_graph(args.graph)
    except (OSError, ValueError) as exc:
        return _fail(2, str(exc))

    try:
        done = compile_pattern(
            graph, sets, budget=args.search_budget, verify=not args.no_verify,
            tol=args.tol, max_wires=args.max_wires, seed=args.seed,
        )
    except CompileError as exc:
        unwritten = _write_outputs(args, exc.extended, exc.trace, partial=exc.code == 5)
        code = _fail(exc.code, str(exc))
        return code if unwritten is None else _fail(2, unwritten)
    unwritten = _write_outputs(args, done.extended, done.trace)
    if unwritten is not None:
        return _fail(2, unwritten)
    sys.stdout.write(emit_text(done.compact))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        a = parse_text(_read(args.circuit_a))
        b = parse_text(_read(args.circuit_b))
    except (OSError, ValueError) as exc:
        return _fail(2, str(exc))
    try:
        dev = compare_circuits(a, b, args.max_wires)
    except ValueError as exc:  # too wide, a collapsed column, or shapes that differ
        return _fail(4, str(exc))
    print(f"max deviation: {dev:.3e}")
    return 0 if dev <= args.tol else 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oneway",
        description="Compile measurement patterns on graph states into circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="report flow/gflow structure of a graph file")
    p_flow.add_argument("graph")
    p_flow.set_defaults(func=cmd_flow)

    p_compile = sub.add_parser("compile", help="compile a graph file to a compact circuit")
    p_compile.add_argument("graph")
    p_compile.add_argument("--trace", metavar="PATH", help="write the rewrite trace here")
    p_compile.add_argument(
        "--emit-extended", metavar="PATH", help="write the extended circuit here"
    )
    p_compile.add_argument("--no-verify", action="store_true", help="skip the oracle check")
    p_compile.add_argument("--tol", type=_NON_NEGATIVE, default=1e-9)
    p_compile.add_argument("--max-wires", type=_AT_LEAST_ONE, default=14)
    p_compile.add_argument(
        "--seed", type=_bounded(int, lambda v: v >= 0, "non-negative"), default=0,
        help="seed for outcome spot checks",
    )
    p_compile.add_argument(
        "--search-budget",
        type=_AT_LEAST_ONE,
        default=None,
        help="cap on special-CX designation attempts (default: all, at most 10000)",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_verify = sub.add_parser(
        "verify",
        help="compare two circuit files up to global phase",
        description=(
            "Compare two circuit files up to global phase, lining up input columns by"
            " ascending input-wire id in each file. compile lines them up through the"
            " trace's jgate chains instead, so verify fails on a compile's own output"
            " whenever those chains reorder the inputs."
        ),
    )
    p_verify.add_argument("circuit_a")
    p_verify.add_argument("circuit_b")
    p_verify.add_argument("--tol", type=_NON_NEGATIVE, default=1e-9)
    p_verify.add_argument("--max-wires", type=_AT_LEAST_ONE, default=14)
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)
