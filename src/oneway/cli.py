"""Command-line front end: inspect determinism structure, compile, verify.

Exit codes are part of the contract:
  0 success
  2 unreadable or unparsable input
  3 no determinism structure (no flow, no gflow, or supplied sets invalid)
  4 verification failure or shape/cap mismatch
  5 special-CX designation search exhausted
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .circuits import emit_text, parse_text, slice_circuit
from .determinism import CorrectionStructure, find_flow, find_gflow, pick_structure, validate_gflow
from .extend import build_extended
from .graphs import OpenGraph, parse_graph_with_sets
from .rewrite import (
    FlowSimplifyError,
    GflowSearchExhausted,
    SimplificationTrace,
    simplify_flow,
    simplify_gflow,
    trace_text,
)
from .simulate import (
    ProjectionError,
    WireCapError,
    basis_column_order,
    circuit_isometry,
    max_deviation,
    run_pattern,
)

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


def _load_graph(path: str) -> tuple[OpenGraph, dict[int, frozenset[int]] | None]:
    return parse_graph_with_sets(_read(path))


def _format_layers(layers: tuple[frozenset[int], ...]) -> str:
    return " ".join("{" + ",".join(str(v) for v in sorted(layer)) + "}" for layer in layers)


def cmd_flow(args: argparse.Namespace) -> int:
    try:
        graph, sets = _load_graph(args.graph)
    except (OSError, ValueError) as exc:
        return _fail(2, str(exc))

    found = False
    flow = find_flow(graph)
    if flow is None:
        print("flow: no")
    else:
        found = True
        print("flow: yes")
        for i in sorted(flow.correcting_sets):
            (j,) = flow.correcting_sets[i]
            print(f"  f({i}) = {j}")
        print(f"  layers: {_format_layers(flow.layers)}")

    gflow = find_gflow(graph)
    if gflow is None:
        print("gflow: no")
    else:
        found = True
        print("gflow: yes")
        for i in sorted(gflow.correcting_sets):
            members = ",".join(str(v) for v in sorted(gflow.correcting_sets[i]))
            print(f"  g({i}) = {{{members}}}")
        print(f"  layers: {_format_layers(gflow.layers)}")

    if sets is not None:
        checked = validate_gflow(graph, sets)
        if isinstance(checked, list):
            print(f"supplied correcting sets: invalid ({checked[0]})")
        else:
            print("supplied correcting sets: valid")

    return 0 if found else 3


def _input_chain(trace: SimplificationTrace, wires: list[int]) -> list[int]:
    """Follow jgate relabelings so columns of both isometries line up."""
    moves = {
        step.wire_removed: step.produced[0].wires[0]
        for step in trace.steps
        if step.rule == "jgate"
    }
    resolved = []
    for w in wires:
        while w in moves:
            w = moves[w]
        resolved.append(w)
    return resolved


def _spot_check(
    graph: OpenGraph,
    structure: CorrectionStructure,
    aligned_compact: np.ndarray,
    seed: int,
    cap: int,
) -> float:
    """Random outcome strings against the measurement-pattern semantics."""
    rng = np.random.default_rng(seed)
    order = sorted(graph.measured)
    dim = 2 ** len(graph.inputs)
    worst = 0.0
    for _ in range(2):
        outcomes = {i: int(rng.integers(2)) for i in order}
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        got = run_pattern(graph, structure, state, outcomes, cap=cap).amplitudes
        worst = max(worst, max_deviation(got, aligned_compact @ state))
    return worst


def cmd_compile(args: argparse.Namespace) -> int:
    try:
        graph, sets = _load_graph(args.graph)
    except (OSError, ValueError) as exc:
        return _fail(2, str(exc))

    structure = pick_structure(graph, sets)
    if isinstance(structure, str):
        return _fail(3, structure)

    extended = build_extended(graph, structure)
    if args.emit_extended:
        _write(args.emit_extended, emit_text(extended))
    view = slice_circuit(extended, structure)

    try:
        if structure.kind == "flow":
            compact, trace = simplify_flow(extended, view)
        else:
            compact, trace = simplify_gflow(
                extended, view, structure, budget=args.search_budget
            )
    except GflowSearchExhausted as exc:
        if args.trace:
            _write(args.trace, trace_text(exc.partial))
        else:
            sys.stderr.write(trace_text(exc.partial))
        return _fail(5, str(exc))
    except FlowSimplifyError as exc:
        return _fail(4, f"simplification failed: {exc}")

    if args.trace:
        _write(args.trace, trace_text(trace))

    if not args.no_verify:
        if max(len(extended.wires), len(compact.wires)) > args.max_wires:
            return _fail(
                4, f"cannot verify: circuit exceeds --max-wires {args.max_wires}"
            )
        a = circuit_isometry(extended, cap=args.max_wires)
        b = circuit_isometry(compact, cap=args.max_wires)
        chained = _input_chain(trace, list(a.input_wires))
        aligned = b.matrix[:, basis_column_order(b.input_wires, chained)]
        dev = max_deviation(a.matrix, aligned)
        if dev > args.tol:
            return _fail(4, f"verification failed: deviation {dev:.3e} > {args.tol:.1e}")
        spot = _spot_check(graph, structure, aligned, args.seed, args.max_wires)
        if spot > args.tol:
            return _fail(4, f"outcome spot check failed: deviation {spot:.3e}")

    sys.stdout.write(emit_text(compact))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        a = parse_text(_read(args.circuit_a))
        b = parse_text(_read(args.circuit_b))
    except (OSError, ValueError) as exc:
        return _fail(2, str(exc))
    try:
        ia = circuit_isometry(a, cap=args.max_wires)
        ib = circuit_isometry(b, cap=args.max_wires)
    except (WireCapError, ProjectionError) as exc:
        return _fail(4, str(exc))
    if ia.matrix.shape != ib.matrix.shape:
        return _fail(
            4,
            f"shape mismatch: {ia.matrix.shape} vs {ib.matrix.shape}"
            f" (inputs {len(ia.input_wires)} vs {len(ib.input_wires)},"
            f" outputs {len(ia.output_wires)} vs {len(ib.output_wires)})",
        )
    dev = max_deviation(ia.matrix, ib.matrix)
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
    p_compile.add_argument("--tol", type=float, default=1e-9)
    p_compile.add_argument("--max-wires", type=int, default=14)
    p_compile.add_argument("--seed", type=int, default=0, help="seed for outcome spot checks")
    p_compile.add_argument(
        "--search-budget",
        type=int,
        default=None,
        help="cap on special-CX designation attempts (default: all, at most 10000)",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_verify = sub.add_parser("verify", help="compare two circuit files up to global phase")
    p_verify.add_argument("circuit_a")
    p_verify.add_argument("circuit_b")
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--max-wires", type=int, default=14)
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)
