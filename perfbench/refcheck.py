"""Independent check of emitted circuits against the raw measurement pattern.

Plain numpy; nothing here imports the package under test.  The reference is
the outcome-0 branch of the pattern: prepare the graph state, project every
measured vertex v onto (<0| + e^{i a_v} <1|)/sqrt(2), apply no correction.
For a deterministic pattern that branch equals the pattern's isometry up to
overall norm, so an emitted circuit is correct when its isometry matches the
branch up to global phase and norm.

Vertices join the state lazily, when the vertex or one of its neighbours is
about to be measured, and leave it once measured, so the cost is 2^(live
qubits) rather than 2^(vertices): the 2 x 64 cluster strip needs four.
"""

from __future__ import annotations

import re

import numpy as np

TOL = 1e-8
_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_JGATE = re.compile(r"^jgate .* produced=J\([^)]*\) (\d+) removed-wire=(\d+)$")


class Mismatch(AssertionError):
    """An emitted circuit does not implement its pattern."""


def _basis(bit_of: int, width: int) -> np.ndarray:
    """(2, 2**width) basis-state factor of the input carrying bit ``bit_of``."""
    cols = np.arange(1 << width)
    vec = np.zeros((2, 1 << width), dtype=complex)
    vec[(cols >> (width - 1 - bit_of)) & 1, cols] = 1.0
    return vec


class _State:
    """Tensor over live qubits (axis order = ``live``) times a batch axis."""

    def __init__(self, batch: int):
        self.live: list[int] = []
        self.psi = np.ones((batch,), dtype=complex)

    def join(self, v: int, factor: np.ndarray) -> None:
        shape = (2,) + (1,) * len(self.live) + (factor.shape[1],)
        self.psi = factor.reshape(shape) * self.psi[None]
        self.live.insert(0, v)

    def cz(self, a: int, b: int) -> None:
        index: list[object] = [slice(None)] * self.psi.ndim
        index[self.live.index(a)] = 1
        index[self.live.index(b)] = 1
        self.psi[tuple(index)] *= -1.0

    def apply(self, v: int, u: np.ndarray) -> None:
        axis = self.live.index(v)
        self.psi = np.moveaxis(np.tensordot(u, self.psi, axes=(1, axis)), 0, axis)

    def cx(self, control: int, target: int) -> None:
        index: list[object] = [slice(None)] * self.psi.ndim
        index[self.live.index(control)] = 1
        t = self.live.index(target)
        sub = self.psi[tuple(index)]
        self.psi[tuple(index)] = np.flip(sub, axis=t - 1 if t > self.live.index(control) else t)

    def project(self, v: int, bra: np.ndarray) -> None:
        self.psi = np.tensordot(bra, self.psi, axes=(0, self.live.index(v)))
        self.live.remove(v)
        norm = np.linalg.norm(self.psi)
        if norm == 0.0:
            raise Mismatch(f"outcome-0 branch vanishes at vertex {v}")
        self.psi /= norm

    def matrix(self, order: list[int]) -> np.ndarray:
        """(2**len(order), batch), rows big-endian over ``order``."""
        axes = [self.live.index(v) for v in order] + [len(self.live)]
        return np.transpose(self.psi, axes).reshape(1 << len(order), -1)


def pattern_branch(spec) -> np.ndarray:
    """Outcome-0 branch, rows over sorted outputs, columns over sorted inputs."""
    nbrs = {v: set() for v in spec.vertices}
    for a, b in spec.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    inputs = list(spec.inputs)
    state = _State(1 << len(inputs))
    pending = set(spec.edges)

    def join(v: int) -> None:
        if v in state.live:
            return
        if v in spec.inputs:
            state.join(v, _basis(inputs.index(v), len(inputs)))
        else:
            state.join(v, _PLUS[:, None])

    def unjoined(v: int) -> list[int]:
        """v and the neighbours it still needs a CZ with, not yet in the state."""
        need = [v] + [w for w in nbrs[v] if (min(v, w), max(v, w)) in pending]
        return [w for w in need if w not in state.live]

    def entangle(v: int) -> None:
        for w in sorted(nbrs[v]):
            edge = (min(v, w), max(v, w))
            if edge in pending:
                join(v)
                join(w)
                pending.discard(edge)
                state.cz(*edge)

    todo = sorted(set(spec.vertices) - set(spec.outputs))
    while todo:
        # Measure next the vertex that pulls the fewest new qubits in.
        v = min(todo, key=lambda u: (len(unjoined(u)), u))
        todo.remove(v)
        join(v)
        entangle(v)
        state.project(v, np.array([1.0, np.exp(1j * spec.angles[v])]) / np.sqrt(2.0))
    for v in spec.outputs:
        join(v)
        entangle(v)
    return state.matrix(list(spec.outputs))


def parse_circuit(text: str):
    """Wire declarations and gates of the circuit text format."""
    wires, gates = [], []
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "wire":
            wires.append((int(fields[1]), fields[2], fields[3]))
        elif fields[0].startswith("J("):
            expr = fields[0][2:-1]
            if expr.endswith("pi"):
                p, q = expr[:-2].split("/")
                theta = np.pi * int(p) / int(q)
            else:
                theta = float(expr)
            gates.append(("J", (int(fields[1]),), theta))
        elif fields[0] in ("CZ", "CX"):
            gates.append((fields[0], (int(fields[1]), int(fields[2])), None))
        else:
            raise Mismatch(f"unrecognised circuit line {line!r}")
    return wires, gates


def relabelings(trace: str) -> dict[int, int]:
    """removed wire -> wire that inherited it, from the trace's jgate lines."""
    moves = {}
    for line in trace.splitlines():
        m = _JGATE.match(line)
        if m:
            moves[int(m.group(2))] = int(m.group(1))
    return moves


def circuit_matrix(text: str, inputs: list[int]) -> np.ndarray:
    """Isometry of an all-output circuit; column bit k drives wire inputs[k]."""
    wires, gates = parse_circuit(text)
    if any(terminal != "output" for _, _, terminal in wires):
        raise Mismatch("emitted circuit still has a measured wire")
    if sorted(w for w, init, _ in wires if init == "input") != sorted(inputs):
        raise Mismatch(f"input wires do not match the relabelled inputs {inputs}")
    state = _State(1 << len(inputs))
    for w, init, _ in sorted(wires, reverse=True):
        state.join(w, _basis(inputs.index(w), len(inputs)) if init == "input" else _PLUS[:, None])
    for kind, on, theta in gates:
        if kind == "J":
            phase = np.exp(1j * theta)
            state.apply(on[0], np.array([[1.0, phase], [1.0, -phase]]) / np.sqrt(2.0))
        elif kind == "CZ":
            state.cz(*on)
        else:
            state.cx(*on)
    return state.matrix(sorted(w for w, _, _ in wires))


def deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise distance after normalising both and aligning global phase."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    k = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if b[k] == 0:
        return float(np.max(np.abs(a)))
    phase = a[k] / b[k]
    return float(np.max(np.abs(a - phase / abs(phase) * b)))


def check(spec, circuit_text: str, trace: str) -> float:
    """Raise Mismatch unless the emitted circuit implements ``spec``."""
    moves = relabelings(trace)
    inputs = []
    for v in spec.inputs:
        while v in moves:
            v = moves[v]
        inputs.append(v)
    wires = sorted(int(line.split()[1]) for line in circuit_text.splitlines() if line.startswith("wire "))
    if wires != sorted(spec.outputs):
        raise Mismatch(f"{spec.gid}: circuit wires {wires} are not the outputs {list(spec.outputs)}")
    dev = deviation(pattern_branch(spec), circuit_matrix(circuit_text, inputs))
    if dev > TOL:
        raise Mismatch(f"{spec.gid}: emitted circuit deviates from its pattern by {dev:.3e}")
    return dev
