"""`oneway compile`, one public call at a time, with optional spans.

``compile_text`` makes the calls ``oneway.cli.cmd_compile`` makes, in the
same order and with the same defaults, and returns what the command would
have printed, written as the trace and exited with.  Each call goes through a
tracer: ``NO_TRACE`` calls straight through, a ``Tracer`` records a span.
``Tracer.patched`` additionally wraps the names `oneway.rewrite` looks up
at call time (``oneway.rewrite.apply_*``, ``oneway.rewrite.digest`` and
``oneway.simulate.circuit_isometry``), so the work nested inside simplify is
timed and counted too.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

import oneway.rewrite
import oneway.simulate
from oneway.circuits import emit_text, slice_circuit
from oneway.determinism import find_flow, find_gflow, validate_gflow
from oneway.extend import build_extended
from oneway.graphs import parse_graph_with_sets
from oneway.rewrite import (
    FlowSimplifyError,
    GflowSearchExhausted,
    simplify_flow,
    simplify_gflow,
    trace_text,
)
from oneway.simulate import basis_column_order, circuit_isometry, max_deviation, run_pattern

TOL = 1e-9  # `oneway compile` defaults
MAX_WIRES = 14

RULES = ("cz-commute", "cz-to-cx", "cx-commute", "jgate", "peephole-cancel")
NESTED_REWRITE = (
    "apply_cz_commute",
    "apply_cz_to_cx",
    "apply_cx_commute",
    "apply_jgate",
    "apply_peephole",
)


class _NoTrace:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def graph(self, gid):
        yield


NO_TRACE = _NoTrace()


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, graph id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.rule_calls = 0
        self.rule_applied = 0
        self._stack: list[int] = []
        self._gid = None

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self._gid]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def graph(self, gid):
        """Root span of one compile; every span inside it carries ``gid``."""
        self._gid = gid
        span = ["bench.compile", time.perf_counter(), 0.0, -1, gid]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._gid = None

    @contextlib.contextmanager
    def patched(self):
        """Wrap the names simplify looks up at call time; restore them on exit."""
        targets = [(oneway.rewrite, n) for n in NESTED_REWRITE + ("digest",)]
        targets.append((oneway.simulate, "circuit_isometry"))
        originals = [(module, name, getattr(module, name)) for module, name in targets]
        for module, name, fn in originals:
            layer = module.__name__.rsplit(".", 1)[1]
            setattr(module, name, self._wrap(f"{layer}.{name}", fn))
        try:
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    def _wrap(self, name, fn):
        if not name.startswith("rewrite.apply_"):
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        def rule(*args, **kwargs):
            self.rule_calls += 1
            result = self.call(name, fn, *args, **kwargs)
            self.rule_applied += 1
            return result

        return rule


@dataclass
class Outcome:
    """What `oneway compile --trace PATH` would leave behind, and what the
    benchmark counts; no circuit objects, so a pass's heap stays small."""

    code: int
    stdout: str = ""
    trace: str | None = None  # text of the trace file, None when not written
    error: str = ""
    extend_gates: int = 0
    compact_gates: int = 0
    rules: tuple[str, ...] = ()  # of the returned trace's steps
    attempts: int = 0
    dense_bytes: int = 0
    deviation: float = 0.0


def input_chain(trace, wires: list[int]) -> list[int]:
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


def _spot_check(t, graph, structure, aligned: np.ndarray, seed: int) -> float:
    """Random outcome strings against the measurement-pattern semantics."""
    rng = np.random.default_rng(seed)
    order = sorted(graph.measured)
    dim = 2 ** len(graph.inputs)
    worst = 0.0
    for _ in range(2):
        outcomes = {i: int(rng.integers(2)) for i in order}
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        got = t.call("simulate.run_pattern", run_pattern, graph, structure, state, outcomes)
        worst = max(
            worst,
            t.call("simulate.max_deviation", max_deviation, got.amplitudes, aligned @ state),
        )
    return worst


def compile_text(text: str, *, verify: bool, seed: int, t=NO_TRACE) -> Outcome:
    """`oneway compile GRAPH --trace PATH [--no-verify] --seed SEED`."""
    try:
        graph, sets = t.call("graphs.parse_graph_with_sets", parse_graph_with_sets, text)
    except ValueError as exc:
        return Outcome(2, error=str(exc))

    if sets is not None:
        structure = t.call("determinism.validate_gflow", validate_gflow, graph, sets)
        if isinstance(structure, list):
            return Outcome(3, error="supplied correcting sets invalid: " + "; ".join(structure))
    else:
        structure = t.call("determinism.find_flow", find_flow, graph)
        if structure is None:
            structure = t.call("determinism.find_gflow", find_gflow, graph)
        if structure is None:
            return Outcome(3, error="graph admits neither flow nor gflow")

    extended = t.call("extend.build_extended", build_extended, graph, structure)
    view = t.call("circuits.slice_circuit", slice_circuit, extended, structure)
    try:
        if structure.kind == "flow":
            compact, trace = t.call("rewrite.simplify_flow", simplify_flow, extended, view)
        else:
            compact, trace = t.call(
                "rewrite.simplify_gflow", simplify_gflow, extended, view, structure, budget=None
            )
    except GflowSearchExhausted as exc:
        partial = t.call("rewrite.trace_text", trace_text, exc.partial)
        return Outcome(5, trace=partial, error=str(exc), extend_gates=len(extended.gates),
                       attempts=exc.attempts)
    except FlowSimplifyError as exc:
        return Outcome(4, error=f"simplification failed: {exc}", extend_gates=len(extended.gates))

    done = Outcome(0, extend_gates=len(extended.gates),
                   rules=tuple(step.rule for step in trace.steps))
    done.trace = t.call("rewrite.trace_text", trace_text, trace)
    if verify:
        if max(len(extended.wires), len(compact.wires)) > MAX_WIRES:
            done.code, done.error = 4, f"cannot verify: circuit exceeds --max-wires {MAX_WIRES}"
            return done
        a = t.call("simulate.circuit_isometry", circuit_isometry, extended, cap=MAX_WIRES)
        b = t.call("simulate.circuit_isometry", circuit_isometry, compact, cap=MAX_WIRES)
        chained = input_chain(trace, list(a.input_wires))
        order = t.call("simulate.basis_column_order", basis_column_order, b.input_wires, chained)
        aligned = b.matrix[:, order]
        dev = t.call("simulate.max_deviation", max_deviation, a.matrix, aligned)
        done.dense_bytes = 16 << (len(extended.wires) + len(a.input_wires))
        done.deviation = dev
        if dev > TOL:
            done.code, done.error = 4, f"verification failed: deviation {dev:.3e} > {TOL:.1e}"
            return done
        spot = t.call("bench.spot", _spot_check, t, graph, structure, aligned, seed)
        done.deviation = max(dev, spot)
        if spot > TOL:
            done.code, done.error = 4, f"outcome spot check failed: deviation {spot:.3e}"
            return done

    done.stdout = t.call("circuits.emit_text", emit_text, compact)
    done.compact_gates = len(compact.gates)
    return done
