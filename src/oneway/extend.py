"""Build the extended circuit of a measurement pattern.

One wire per vertex, a CZ per edge, then a round per layer of the
correction structure: a J gate per measured vertex followed by its coherent
corrections.  A structure is a gflow of its graph once built, so its rounds
need no check here.  Each correcting-set
member j contributes one block, CX onto j then CZs onto j's other neighbors;
the Z on the measured wire itself is dropped, since it cancels against the
measurement's own outcome dependence.

Only ``simplify_flow`` reads this layout back, to take the flow off the
circuit.  ``simplify_gflow`` builds the circuit again from its structure
and refuses any circuit that differs from it.
"""

from __future__ import annotations

from .circuits import Circuit, Gate, Wire
from .determinism import CorrectionStructure, _require_graph
from .graphs import OpenGraph

__all__ = ["build_extended", "correction_block"]


def correction_block(graph: OpenGraph, i: int, j: int) -> list[Gate]:
    """Coherent translation of stabilizer j controlled by measured wire i."""
    gates = [Gate("CX", (i, j))]
    for k in sorted(graph.neighbors[j] - {i}):
        gates.append(Gate("CZ", (i, k)))
    return gates


def build_extended(graph: OpenGraph, structure: CorrectionStructure) -> Circuit:
    """The extended circuit of ``structure`` on ``graph``, one round per layer.

    A structure made for another graph raises ValueError; nothing else is
    checked, since the structure checked itself when it was made.
    """
    _require_graph(graph, structure)
    wires = tuple(
        Wire(v, "input" if v in graph.inputs else "plus", "output" if v in graph.outputs else "measured")
        for v in graph.vertices
    )
    gates: list[Gate] = [Gate("CZ", edge) for edge in sorted(graph.edges)]
    for layer in structure.layers:
        for i in layer:
            gates.append(Gate("J", (i,), graph.angles[i]))
        for i in layer:
            for j in sorted(structure.correcting_sets[i]):
                gates.extend(correction_block(graph, i, j))
    return Circuit(wires, tuple(gates))
