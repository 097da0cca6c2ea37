"""Dense statevector oracle.

Everything here is brute force on purpose: circuits become explicit
isometries by evolving all input basis states at once, and measurement
patterns are simulated outcome by outcome with adapted angles.  Wire order
is big-endian throughout: the first wire in a listing is the most
significant bit of the state index.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, j_matrix
from .determinism import CorrectionStructure
from .graphs import OpenGraph, odd_neighborhood

__all__ = [
    "StateVector",
    "Isometry",
    "WireCapError",
    "ProjectionError",
    "basis_column_order",
    "circuit_isometry",
    "max_deviation",
    "run_pattern",
    "measured_wire_reduced_states",
]

_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


class WireCapError(ValueError):
    """Circuit too wide for dense simulation."""


class ProjectionError(ValueError):
    """A projection left (numerically) nothing behind."""


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray  # length 2**len(wires)
    wires: tuple[int, ...]


@dataclass(frozen=True)
class Isometry:
    matrix: np.ndarray  # 2**len(outputs) x 2**len(inputs)
    input_wires: tuple[int, ...]
    output_wires: tuple[int, ...]


def _apply_gate(psi: np.ndarray, gate: Gate, axis_of: dict[int, int]) -> np.ndarray:
    """Apply one gate to a (2,)*n (+ optional batch axis) tensor."""
    if gate.kind == "J":
        assert gate.angle is not None
        a = axis_of[gate.wires[0]]
        psi = np.tensordot(j_matrix(gate.angle), psi, axes=(1, a))
        return np.moveaxis(psi, 0, a)
    if gate.kind == "CZ":
        a, b = (axis_of[w] for w in gate.wires)
        sl: list[object] = [slice(None)] * psi.ndim
        sl[a] = 1
        sl[b] = 1
        psi = psi.copy()
        psi[tuple(sl)] *= -1.0
        return psi
    a, b = axis_of[gate.control], axis_of[gate.target]
    sl = [slice(None)] * psi.ndim
    sl[a] = 1
    psi = psi.copy()
    target_axis = b - 1 if b > a else b
    psi[tuple(sl)] = np.flip(psi[tuple(sl)], axis=target_axis)
    return psi


def _evolved_tensor(circuit: Circuit, cap: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """State after all gates, shape (2,)*n + (2**k,), one column per input word."""
    n = len(circuit.wires)
    if n > cap:
        raise WireCapError(f"{n} wires exceeds the simulation cap {cap}")
    axis_of = {w.id: k for k, w in enumerate(circuit.wires)}
    input_wires = tuple(w.id for w in circuit.wires if w.init == "input")
    batch = 2 ** len(input_wires)

    cur = np.ones((1, batch), dtype=complex)
    for w in circuit.wires:
        if w.init == "plus":
            vec = np.tile(_PLUS[:, None], (1, batch))
        else:
            k = input_wires.index(w.id)
            bits = (np.arange(batch) >> (len(input_wires) - 1 - k)) & 1
            vec = np.zeros((2, batch), dtype=complex)
            vec[bits, np.arange(batch)] = 1.0
        cur = (cur[:, None, :] * vec[None, :, :]).reshape(-1, batch)
    psi = cur.reshape((2,) * n + (batch,))

    for gate in circuit.gates:
        psi = _apply_gate(psi, gate, axis_of)
    return psi, input_wires


def circuit_isometry(circuit: Circuit, cap: int = 14) -> Isometry:
    """Evolve every input basis state, then read measured wires out in <+|.

    The coherent-correction convention leaves each measured wire
    disentangled in |+>, so the <+| projection loses no amplitude; columns
    are renormalized anyway and a tiny norm is reported as an error.
    """
    psi, input_wires = _evolved_tensor(circuit, cap)
    axis_of = {w.id: k for k, w in enumerate(circuit.wires)}
    output_wires = tuple(w.id for w in circuit.wires if w.terminal == "output")

    measured_axes = sorted(
        (axis_of[w.id] for w in circuit.wires if w.terminal == "measured"),
        reverse=True,
    )
    for a in measured_axes:
        psi = np.tensordot(_PLUS, psi, axes=(0, a))
    matrix = psi.reshape(2 ** len(output_wires), 2 ** len(input_wires))

    norms = np.linalg.norm(matrix, axis=0)
    if np.any(norms < 1e-9):
        raise ProjectionError(
            f"measured-wire projection collapsed a column (min norm {norms.min():.3g})"
        )
    return Isometry(matrix / norms, input_wires, output_wires)


def measured_wire_reduced_states(circuit: Circuit, cap: int = 14) -> dict[int, np.ndarray]:
    """Reduced density matrix of each measured wire just before readout.

    Input wires are averaged over the uniform mixture of basis states, which
    is enough to certify that corrections disentangle the measured wires: a
    deterministic circuit leaves each of them exactly in |+><+|.
    """
    psi, input_wires = _evolved_tensor(circuit, cap)
    axis_of = {w.id: k for k, w in enumerate(circuit.wires)}
    batch = 2 ** len(input_wires)
    out: dict[int, np.ndarray] = {}
    for w in circuit.wires:
        if w.terminal != "measured":
            continue
        moved = np.moveaxis(psi, axis_of[w.id], 0).reshape(2, -1)
        out[w.id] = (moved @ moved.conj().T) / batch
    return out


def basis_column_order(
    natural_wires: tuple[int, ...] | list[int], logical_wires: list[int]
) -> np.ndarray:
    """Column indices that reorder an isometry to a chosen input-wire order.

    Columns are indexed by big-endian basis states over the isometry's own
    (natural) input wires.  ``matrix[:, basis_column_order(nat, log)]`` has
    column j carrying the assignment whose bit k belongs to log[k], which is
    how relabeled circuits are lined up against their ancestors.
    """
    if sorted(natural_wires) != sorted(logical_wires):
        raise ValueError(f"wire sets differ: {natural_wires} vs {logical_wires}")
    n = len(logical_wires)
    pos = {w: k for k, w in enumerate(natural_wires)}
    order = np.zeros(1 << n, dtype=np.intp)
    for j in range(1 << n):
        idx = 0
        for k, w in enumerate(logical_wires):
            idx |= ((j >> (n - 1 - k)) & 1) << (n - 1 - pos[w])
        order[j] = idx
    return order


def _as_matrix(obj: Isometry | StateVector | np.ndarray) -> np.ndarray:
    if isinstance(obj, Isometry):
        return obj.matrix
    if isinstance(obj, StateVector):
        return obj.amplitudes
    return obj


def max_deviation(
    a: Isometry | StateVector | np.ndarray,
    b: Isometry | StateVector | np.ndarray,
) -> float:
    """Max entrywise deviation after aligning global phase on a's biggest entry."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    idx = np.unravel_index(np.argmax(np.abs(ma)), ma.shape)
    if abs(mb[idx]) == 0.0:
        return float(np.max(np.abs(ma)))
    phase = (ma[idx] / mb[idx]) / abs(ma[idx] / mb[idx])
    return float(np.max(np.abs(ma - phase * mb)))


def run_pattern(
    graph: OpenGraph,
    structure: CorrectionStructure,
    input_state: np.ndarray,
    outcomes: dict[int, int],
    cap: int = 14,
) -> StateVector:
    """Simulate the raw pattern: entangle, measure with forced outcomes, correct.

    A forced outcome of 1 on vertex i triggers the correcting-set operator:
    X hits on g(i), Z hits on its odd neighborhood.  Hits on not-yet-measured
    vertices fold into adapted angles (-1)^r theta + t pi; hits on outputs
    are applied at the end as X^r Z^t.
    """
    n = len(graph.vertices)
    if n > cap:
        raise WireCapError(f"{n} vertices exceeds the simulation cap {cap}")
    if set(outcomes) != set(graph.measured):
        raise ValueError("need exactly one forced outcome per measured vertex")

    inputs = sorted(graph.inputs)
    input_state = np.asarray(input_state, dtype=complex).reshape(-1)
    if input_state.shape != (2 ** len(inputs),):
        raise ValueError("input state dimension does not match the input set")

    psi = input_state.reshape((2,) * len(inputs)) if inputs else np.ones((), dtype=complex)
    present = list(inputs)
    for v in sorted(set(graph.vertices) - set(inputs)):
        pos = bisect_left(present, v)
        psi = np.moveaxis(np.multiply.outer(psi, _PLUS), -1, pos)
        present.insert(pos, v)

    def axes() -> dict[int, int]:
        return {v: k for k, v in enumerate(present)}

    for edge in sorted(graph.edges):
        psi = _apply_gate(psi, Gate("CZ", edge), axes())

    odd_of = {i: odd_neighborhood(graph, g) for i, g in structure.correcting_sets.items()}
    x_hits = {v: 0 for v in graph.vertices}
    z_hits = {v: 0 for v in graph.vertices}

    for layer in structure.layers:
        for i in sorted(layer):
            theta = graph.angles[i].to_radians()
            adapted = (-1.0) ** (x_hits[i] % 2) * theta + (z_hits[i] % 2) * math.pi
            bra = j_matrix(adapted)[outcomes[i], :]
            a = axes()[i]
            psi = np.tensordot(bra, psi, axes=(0, a))
            present.pop(a)
            norm = float(np.linalg.norm(psi))
            if norm < 1e-9:
                raise ProjectionError(f"outcome {outcomes[i]} on vertex {i} has zero amplitude")
            psi = psi / norm
            if outcomes[i]:
                for v in structure.correcting_sets[i]:
                    x_hits[v] += 1
                for v in odd_of[i] - {i}:
                    z_hits[v] += 1

    x_mat = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z_mat = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    for v in sorted(graph.outputs):
        if x_hits[v] % 2 == 0 and z_hits[v] % 2 == 0:
            continue
        u = np.linalg.matrix_power(x_mat, x_hits[v] % 2) @ np.linalg.matrix_power(
            z_mat, z_hits[v] % 2
        )
        a = axes()[v]
        psi = np.moveaxis(np.tensordot(u, psi, axes=(1, a)), 0, a)

    return StateVector(psi.reshape(-1), tuple(sorted(graph.outputs)))
