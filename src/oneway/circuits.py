"""Circuit representation over the three-gate set {J(theta), CZ, CX}.

Wires mirror graph vertices and carry their preparation (input state or |+>)
and fate (output or measured).  Gates are kept in program order, left to
right.  The time-sliced view holds the two facts the simplify entry points
read off an extended circuit: the layer order of its measured wires and
their graph neighbours.  The extended circuit's layout itself (entangling
CZs, then per round J gates and their corrections) is the extend module's
to define.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .angles import Angle
from .determinism import CorrectionStructure

__all__ = [
    "Gate",
    "Wire",
    "Circuit",
    "TimeSlicedView",
    "j_matrix",
    "slice_circuit",
    "emit_text",
    "parse_text",
    "digest",
]


@dataclass(frozen=True)
class Gate:
    kind: str  # "J" | "CZ" | "CX"
    wires: tuple[int, ...]
    angle: Angle | None = None

    def __post_init__(self) -> None:
        if self.kind == "J":
            if len(self.wires) != 1 or self.angle is None:
                raise ValueError("J gate needs one wire and an angle")
        elif self.kind == "CZ":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError("CZ needs two distinct wires")
            if self.angle is not None:
                raise ValueError("CZ carries no angle")
            object.__setattr__(self, "wires", tuple(sorted(self.wires)))
        elif self.kind == "CX":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError("CX needs distinct control and target")
            if self.angle is not None:
                raise ValueError("CX carries no angle")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    # Not a field: __hash__ keeps the hash here on first use, because hashing
    # the angle hashes a Fraction, which is slow.
    _hash = None

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.kind, self.wires, self.angle)))
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields: a string's hash differs between processes.
        return (Gate, (self.kind, self.wires, self.angle))

    @property
    def control(self) -> int:
        assert self.kind == "CX"
        return self.wires[0]

    @property
    def target(self) -> int:
        assert self.kind == "CX"
        return self.wires[1]

    def text(self) -> str:
        if self.kind == "J":
            assert self.angle is not None
            return f"J({self.angle.text()}) {self.wires[0]}"
        return f"{self.kind} {self.wires[0]} {self.wires[1]}"


@dataclass(frozen=True)
class Wire:
    id: int
    init: str  # "input" | "plus"
    terminal: str  # "output" | "measured"

    def __post_init__(self) -> None:
        if self.init not in ("input", "plus"):
            raise ValueError(f"bad wire init {self.init!r}")
        if self.terminal not in ("output", "measured"):
            raise ValueError(f"bad wire terminal {self.terminal!r}")


@dataclass(frozen=True)
class Circuit:
    wires: tuple[Wire, ...]
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(sorted(self.wires, key=lambda w: w.id)))
        object.__setattr__(self, "gates", tuple(self.gates))
        ids = {w.id for w in self.wires}
        if len(ids) != len(self.wires):
            raise ValueError("duplicate wire ids")
        for g in self.gates:
            if not ids.issuperset(g.wires):
                raise ValueError(f"gate {g.text()} uses undeclared wire")

    def wire(self, wire_id: int) -> Wire:
        for w in self.wires:
            if w.id == wire_id:
                return w
        raise KeyError(wire_id)

    def gates_on(self, wire_id: int) -> list[int]:
        """Positions of the gates on a wire, in program order."""
        return [k for k, g in enumerate(self.gates) if wire_id in g.wires]


def j_matrix(angle: Angle | float) -> np.ndarray:
    """(1/sqrt(2)) [[1, e^{i theta}], [1, -e^{i theta}]]; j_matrix(0) is Hadamard."""
    theta = angle.to_radians() if isinstance(angle, Angle) else float(angle)
    phase = np.exp(1j * theta)
    return np.array([[1.0, phase], [1.0, -phase]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class TimeSlicedView:
    """What the two simplify entry points read beside an extended circuit.

    ``order`` lists the measured wires layer by layer, ascending within a
    layer; ``neighbors`` maps each measured wire to its graph neighbours.
    ``simplify_flow`` reads only ``order``, which must be the order of the
    circuit's J gates; the gflow engine reads both.  Both follow from the
    structure and the graph, so a single ``simplify(extended, structure)``
    entry (ROADMAP item 3) deletes this view together with ``slice_circuit``.
    """

    order: tuple[int, ...]
    neighbors: dict[int, frozenset[int]]


def slice_circuit(circuit: Circuit, structure: CorrectionStructure) -> TimeSlicedView:
    """Read the layer order and the graph neighbours off an extended circuit.

    The circuit must follow the extend module's layout, whose leading CZs
    are exactly the graph edges.
    """
    order = tuple(i for layer in structure.layers for i in sorted(layer))
    neighbors: dict[int, set[int]] = {i: set() for i in order}
    for g in itertools.takewhile(lambda g: g.kind == "CZ", circuit.gates):
        a, b = g.wires
        if a in neighbors:
            neighbors[a].add(b)
        if b in neighbors:
            neighbors[b].add(a)
    return TimeSlicedView(order, {i: frozenset(n) for i, n in neighbors.items()})


def emit_text(circuit: Circuit) -> str:
    lines = [f"wire {w.id} {w.init} {w.terminal}" for w in circuit.wires]
    lines.extend(g.text() for g in circuit.gates)
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Circuit:
    wires: list[Wire] = []
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "wire":
                _, wid, init, terminal = fields
                wires.append(Wire(int(wid), init, terminal))
            elif fields[0].startswith("J(") and fields[0].endswith(")"):
                if len(fields) != 2:
                    raise ValueError("J line needs exactly one wire")
                expr, wid = fields[0][2:-1], fields[1]
                gates.append(Gate("J", (int(wid),), Angle.parse(expr)))
            elif fields[0] in ("CZ", "CX"):
                kind, a, b = fields
                gates.append(Gate(kind, (int(a), int(b))))
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Circuit(tuple(wires), tuple(gates))


def digest(circuit: Circuit) -> str:
    return hashlib.sha256(emit_text(circuit).encode()).hexdigest()[:16]
