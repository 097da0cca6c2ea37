"""Dense statevector oracle on flat views.

The simulator owns one contiguous state array per run.  Wire order is
big-endian throughout: the first wire in a listing is the most significant
bit of the state index, so the wire at position ``a`` of ``n`` is the middle
axis of ``psi.reshape(2**a, 2, -1)``.  A J gate is one ``matmul`` on that
view.  A circuit projects its measured wires onto <+| last wire first, each
by the sum of its two halves and one scale, so every isometry rounds the
same from run to run; measuring a vertex of a pattern is one ``matmul``
with a 2-vector bra.

CZ and CX take one of two paths, chosen once per run by the size of the
state (no gate changes it, and a pattern makes all its CZs before it
measures):

- up to ``_TABLE_MAX`` (2**10) amplitudes, one numpy call on a cached,
  read-only, full-length table: a CZ multiplies by a +-1 sign vector, a CX
  gathers through a source-index vector.  Both are exact.  Every flow-atlas
  state is this small, and there a numpy call costs more than its work;
- above it, the strided kernels: a CZ negates the ``(1, 1)`` block of its
  two axes in place, a CX reverses the target half of its control-1 block
  in place.  The tables are built by these same kernels.

Tables cover every (size, position pair) up to the bound, so all of them
together hold at most 1,212,352 bytes of CZ signs and as many of int64 CX
sources (``8 * sum(k * (k - 1) * 2**k for k <= 10)`` each).  The bound is
measured: cycling through every position pair on a 2-core Xeon, a table
call is 2-4x faster than a strided one up to 2**10, the margin narrows as
the tables outgrow the L2 cache, the gather loses from 2**14 and the sign
multiply from 2**15, and each table costs about three strided calls to
build.

Circuits become explicit isometries by evolving all input basis states at
once (a trailing batch axis); measurement patterns are simulated outcome by
outcome with adapted angles.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .angles import Angle
from .circuits import Circuit, j_matrix
from .determinism import CorrectionStructure, _require_graph
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
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)


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


@functools.lru_cache(maxsize=1024)
def _j(angle: Angle) -> np.ndarray:
    """``j_matrix(angle)``, built once per angle and shared, so read-only."""
    m = j_matrix(angle)
    m.flags.writeable = False
    return m


def _start_state(amplitudes: np.ndarray, is_input: list[bool], batch: int) -> np.ndarray:
    """Flat product state: ``amplitudes`` on the input wires, |+> on the rest.

    ``amplitudes`` holds 2**k * batch entries, big-endian over the k input
    wires and then the batch index; with no input wire its one entry is
    spread over every |+> by one fill.  The result is a fresh array, so the
    kernels may change it in place.
    """
    scale = _SQRT_HALF ** is_input.count(False)
    if True not in is_input:
        return np.full(1 << len(is_input), amplitudes.reshape(-1)[0] * scale, dtype=complex)
    shape = [2 if inp else 1 for inp in is_input] + [batch]
    psi = np.empty((2,) * len(is_input) + (batch,), dtype=complex)
    np.multiply(amplitudes.reshape(shape), scale, out=psi)
    return psi.reshape(-1)


_TABLE_MAX = 1 << 10  # states up to this many amplitudes take the table kernels


def _negate_cz_block(psi: np.ndarray, a: int, b: int) -> None:
    """CZ on the wires at positions a < b: negate their (1, 1) block in place."""
    block = psi.reshape(1 << a, 2, 1 << (b - a - 1), 2, -1)[:, 1, :, 1, :]
    np.negative(block, out=block)


def _reverse_cx_block(psi: np.ndarray, c: int, t: int) -> np.ndarray:
    """CX, control at position c, target at t: reverse the target axis of the
    control-1 block in place; returns ``psi``."""
    if c < t:
        block = psi.reshape(1 << c, 2, 1 << (t - c - 1), 2, -1)[:, 1]
        block[...] = block[:, :, ::-1]
    else:
        block = psi.reshape(1 << t, 2, 1 << (c - t - 1), 2, -1)[:, :, :, 1]
        block[...] = block[:, ::-1]
    return psi


# Unbounded caches over a finite domain: sizes up to _TABLE_MAX and their position pairs.
@functools.lru_cache(maxsize=None)
def _cz_signs(size: int, a: int, b: int) -> np.ndarray:
    """+-1 vector of a CZ at positions a < b on ``size`` amplitudes; shared, so read-only."""
    signs = np.ones(size, dtype=complex)
    _negate_cz_block(signs, a, b)
    signs.flags.writeable = False
    return signs


@functools.lru_cache(maxsize=None)
def _cx_sources(size: int, c: int, t: int) -> np.ndarray:
    """Source index of every amplitude after a CX(c -> t); shared, so read-only."""
    sources = np.arange(size)
    _reverse_cx_block(sources, c, t)
    sources.flags.writeable = False
    return sources


def _kernels(size: int):
    """The CZ and CX kernels for states of ``size`` amplitudes, picked once per run.

    ``cz(psi, a, b)`` (positions a < b) changes ``psi`` in place;
    ``cx(psi, c, t)`` returns the new state, a gather or ``psi`` itself.
    """
    if size > _TABLE_MAX:
        return _negate_cz_block, _reverse_cx_block

    def cz(psi: np.ndarray, a: int, b: int) -> None:
        psi *= _cz_signs(size, a, b)

    def cx(psi: np.ndarray, c: int, t: int) -> np.ndarray:
        return psi[_cx_sources(size, c, t)]

    return cz, cx


def circuit_isometry(circuit: Circuit, cap: int = 14) -> Isometry:
    """Evolve every input basis state, then read measured wires out in <+|.

    The coherent-correction convention leaves each measured wire
    disentangled in |+>, so the <+| projection loses no amplitude; columns
    are renormalized anyway and a tiny norm is reported as an error.
    """
    wires = circuit.wires
    n = len(wires)
    if n > cap:
        raise WireCapError(f"{n} wires exceeds the simulation cap {cap}")
    axis_of = {w.id: k for k, w in enumerate(wires)}
    is_input = [w.init == "input" for w in wires]
    input_wires = tuple(w.id for w in wires if w.init == "input")
    output_wires = tuple(w.id for w in wires if w.terminal == "output")
    batch = 1 << len(input_wires)

    psi = _start_state(np.eye(batch, dtype=complex), is_input, batch)
    cz, cx = _kernels(psi.size)
    for gate in circuit.gates:
        kind, on = gate.kind, gate.wires
        if kind == "J":
            psi = np.matmul(_j(gate.angle), psi.reshape(1 << axis_of[on[0]], 2, -1)).reshape(-1)
        elif kind == "CZ":
            cz(psi, axis_of[on[0]], axis_of[on[1]])
        else:
            psi = cx(psi, axis_of[on[0]], axis_of[on[1]])

    # Last wire first, so the positions still to project stay put.
    for a in reversed(range(n)):
        if wires[a].terminal == "measured":
            view = psi.reshape(1 << a, 2, -1)
            psi = view[:, 0] + view[:, 1]
            psi *= _SQRT_HALF
    matrix = psi.reshape(1 << len(output_wires), batch)

    # np.linalg.norm(matrix, axis=0), computed as it does, without its dispatch
    norms = np.sqrt(np.add.reduce((matrix.conj() * matrix).real, axis=0))
    least = norms[norms.argmin()]  # norms.min(), without its Python wrapper
    if least < 1e-9:
        raise ProjectionError(f"measured-wire projection collapsed a column (min norm {least:.3g})")
    matrix /= norms
    return Isometry(matrix, input_wires, output_wires)


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
    if len(pos) < n:
        repeated = next(w for k, w in enumerate(natural_wires) if w in natural_wires[:k])
        raise ValueError(f"repeated wire {repeated}")
    # natural index of every basis state, one axis per natural wire, read with
    # the axes in logical order
    return np.arange(1 << n).reshape((2,) * n).transpose([pos[w] for w in logical_wires]).reshape(-1)


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
    """Max entrywise deviation after aligning global phase on a's biggest entry.

    Never NaN, so a check ``dev > tol`` fails closed: when ``a`` is all zero
    the deviation is b's largest magnitude, since no phase does better, and
    a NaN or infinite entry in either, or any other non-finite result, reads
    as ``math.inf``.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    # the largest magnitudes, read through argmax, which is cheaper than max
    mags, b_mags = np.abs(ma), np.abs(mb)
    k = mags.argmax()
    top_mag, b_top_mag = mags.flat[k], b_mags.flat[b_mags.argmax()]
    if not (math.isfinite(top_mag) and math.isfinite(b_top_mag)):
        return math.inf
    if top_mag == 0.0:
        return float(b_top_mag)
    top, other = ma.flat[k], mb.flat[k]
    if other == 0.0:
        return float(top_mag)
    ratio = top / other
    dev = np.abs(ma - (ratio / abs(ratio)) * mb)
    worst = float(dev.flat[dev.argmax()])
    return worst if math.isfinite(worst) else math.inf


def run_pattern(
    graph: OpenGraph,
    structure: CorrectionStructure,
    input_state: np.ndarray,
    outcomes: dict[int, int],
    cap: int = 14,
) -> StateVector:
    """Simulate the raw pattern: entangle, measure with forced outcomes, correct.

    ``outcomes`` forces 0 or 1 on each measured vertex; anything else is
    refused, and so is a structure made for another graph.  The structure
    checked itself when it was made, so its order is run as it stands.
    A forced outcome of 1 on vertex i triggers the correcting-set operator:
    X hits on g(i), Z hits on its odd neighborhood.  Hits on not-yet-measured
    vertices fold into adapted angles (-1)^r theta + t pi; hits on outputs
    are applied at the end as X^r Z^t.
    """
    n = len(graph.vertices)
    if n > cap:
        raise WireCapError(f"{n} vertices exceeds the simulation cap {cap}")
    if outcomes.keys() != graph.measured:
        raise ValueError("need exactly one forced outcome per measured vertex")
    for v, r in sorted(outcomes.items()):
        if r not in (0, 1):
            raise ValueError(f"forced outcome {r!r} on vertex {v} is neither 0 nor 1")
    _require_graph(graph, structure)

    input_state = np.asarray(input_state, dtype=complex).reshape(-1)
    if input_state.shape != (2 ** len(graph.inputs),):
        raise ValueError("input state dimension does not match the input set")

    present = sorted(graph.vertices)
    psi = _start_state(input_state, [v in graph.inputs for v in present], 1)
    cz, _ = _kernels(psi.size)
    pos = {v: k for k, v in enumerate(present)}
    for u, v in graph.edges:  # the CZs commute, and each is exact, so in any order
        cz(psi, pos[u], pos[v])

    x_hits = dict.fromkeys(graph.vertices, 0)
    z_hits = dict.fromkeys(graph.vertices, 0)

    # Row r of j_matrix(adapted), (<0| + (-1)^r e^{i adapted} <1|) / sqrt 2,
    # divided by the state's norm: each vertex renormalizes the state the
    # last one left, and the last renormalization comes after the loop.
    bra = np.empty(2, dtype=complex)
    norm = 1.0
    for i in structure.order:
        theta = graph.angles[i].to_radians()
        adapted = (-1.0) ** (x_hits[i] % 2) * theta + (z_hits[i] % 2) * math.pi
        phase = cmath.exp(1j * adapted) * _SQRT_HALF
        bra[0] = _SQRT_HALF / norm
        bra[1] = (-phase if outcomes[i] else phase) / norm
        a = bisect_left(present, i)
        psi = bra @ psi.reshape(1 << a, 2, -1)
        present.pop(a)
        norm = math.sqrt(np.vdot(psi, psi).real)
        if norm < 1e-9:
            raise ProjectionError(f"outcome {outcomes[i]} on vertex {i} has zero amplitude")
        if outcomes[i]:
            for v in structure.correcting_sets[i]:
                x_hits[v] += 1
            for v in odd_neighborhood(graph, structure.correcting_sets[i]) - {i}:
                z_hits[v] += 1
    psi = psi.reshape(-1)
    psi /= norm

    # X^x Z^z on each output hit an odd number of times: Z negates its 1
    # half, then X swaps its halves.
    outputs = tuple(sorted(graph.outputs))
    for v in outputs:
        z, x = z_hits[v] % 2, x_hits[v] % 2
        if z or x:
            view = psi.reshape(1 << bisect_left(present, v), 2, -1)
            if z:
                half = view[:, 1]
                np.negative(half, out=half)
            if x:
                view[...] = view[:, ::-1]

    return StateVector(psi, outputs)
