"""The one compile sequence: structure, extended circuit, compact circuit,
then the proof that `oneway compile` reports on, which ``verify`` makes."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuits import Circuit
from .determinism import CorrectionStructure, find_flow, find_gflow, validate_gflow
from .extend import build_extended
from .graphs import OpenGraph
from .rewrite import FlowSimplifyError, GflowSearchExhausted, SimplificationTrace, simplify_flow, simplify_gflow
from .verify import check_compile

__all__ = ["Compiled", "CompileError", "compile_pattern"]


@dataclass(frozen=True)
class Compiled:
    structure: CorrectionStructure
    extended: Circuit
    compact: Circuit
    trace: SimplificationTrace
    deviation: float | None  # worst oracle or spot-check deviation; None unverified


class CompileError(Exception):
    """A failed compile: ``code`` is the exit status of `oneway compile` (3, 4
    or 5); ``extended`` and ``trace`` are what was built before it failed (the
    partial trace of an exhausted search), None where that stage was not reached.
    """

    def __init__(self, code: int, message: str, extended: Circuit | None = None,
                 trace: SimplificationTrace | None = None):
        super().__init__(message)
        self.code = code
        self.extended = extended
        self.trace = trace


def compile_pattern(
    graph: OpenGraph, sets: dict[int, frozenset[int]] | None = None, *, budget: int | None = None,
    verify: bool = True, tol: float = 1e-9, max_wires: int = 14, seed: int = 0,
) -> Compiled:
    """Compile under the supplied ``sets`` once validated, else a flow, else a gflow.

    The structure's ``kind``, read off its sets, picks the simplifier: sets
    that are all single vertices (a flow, found or supplied) compile in closed
    form by ``simplify_flow``, any other sets by the ``simplify_gflow`` search.
    Both take the structure's ``order``, which is also the one the extended
    circuit and the spot check's pattern measure in.

    ``budget`` caps the designation attempts; ``tol``, ``max_wires`` and ``seed``
    set the verification.  An out-of-range ``budget``, ``tol``, ``max_wires`` or
    ``seed`` raises ``ValueError``, worded as the CLI refuses it; every failure
    to compile raises ``CompileError``.  ``graph`` needs no check: an OpenGraph
    is well-formed once built.
    """
    if budget is not None and not budget >= 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if not tol >= 0:  # also refuses NaN
        raise ValueError(f"tol must be non-negative, got {tol}")
    if tol == math.inf:
        raise ValueError(f"tol must be finite, got {tol}")
    if not max_wires >= 1:
        raise ValueError(f"max_wires must be at least 1, got {max_wires}")
    if not seed >= 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if sets is not None:
        structure = validate_gflow(graph, sets)
        if isinstance(structure, list):
            raise CompileError(3, "supplied correcting sets invalid: " + "; ".join(structure))
    else:
        structure = find_flow(graph) or find_gflow(graph)
        if structure is None:
            raise CompileError(3, "graph admits neither flow nor gflow")

    extended = build_extended(graph, structure)
    try:
        if structure.kind == "flow":
            compact, trace = simplify_flow(extended, structure.order)
        else:
            compact, trace = simplify_gflow(extended, structure.order, structure, budget=budget)
    except GflowSearchExhausted as exc:
        raise CompileError(5, str(exc), extended, exc.partial) from exc
    except FlowSimplifyError as exc:
        raise CompileError(4, f"simplification failed: {exc}", extended) from exc

    if not verify:
        return Compiled(structure, extended, compact, trace, None)
    deviation, why = check_compile(structure, extended, compact, trace.steps, tol, max_wires, seed)
    if why is not None:
        raise CompileError(4, why, extended, trace)
    return Compiled(structure, extended, compact, trace, deviation)
