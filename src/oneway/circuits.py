"""Circuit representation over the three-gate set {J(theta), CZ, CX}.

Wires mirror graph vertices and carry their preparation (input state or |+>)
and fate (output or measured).  Gates are kept in program order, left to
right.  Gates and wires are validated tuples: each checks its fields when it
is built (a pickled one too, when it loads), and ``==`` is type-strict, so a
gate equals no plain tuple and no wire.  A circuit checks that its gates use
only its declared wires, again when it loads from a pickle.  The time-sliced
view holds the layer order of the measured wires, read off the correction
structure alone.
This module knows nothing of the extended circuit's layout (entangling CZs,
then per round J gates and their corrections): the extend module writes it,
and only the rewrite module reads it back.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
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


class _StrictTuple(tuple):
    """A tuple base whose ``==`` holds only between values of one type.

    A subclass never equals a plain tuple or a value of another subclass
    with the same fields, and ``!=`` is its negation.  (A foreign tuple
    subclass on the left of ``==`` compares by its own rules.)  Hashing stays
    ``tuple.__hash__``, in C.  ``_make`` (and so ``_replace``) goes through
    the constructor, so a derived value is validated again.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        if type(other) is not type(self) and isinstance(other, tuple):
            return False
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Gate(_StrictTuple, namedtuple("Gate", "kind wires angle")):
    """A gate: ``kind`` is "J", "CZ" or "CX"; ``angle`` is set for J alone.

    A CZ's wires are stored ascending; a CX's are (control, target).
    """

    __slots__ = ()

    def __new__(cls, kind: str, wires: tuple[int, ...], angle: Angle | None = None):
        if kind == "J":
            if len(wires) != 1 or angle is None:
                raise ValueError("J gate needs one wire and an angle")
        elif kind == "CZ":
            if len(wires) != 2 or wires[0] == wires[1]:
                raise ValueError("CZ needs two distinct wires")
            if angle is not None:
                raise ValueError("CZ carries no angle")
            a, b = wires
            wires = (a, b) if a < b else (b, a)
        elif kind == "CX":
            if len(wires) != 2 or wires[0] == wires[1]:
                raise ValueError("CX needs distinct control and target")
            if angle is not None:
                raise ValueError("CX carries no angle")
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        return tuple.__new__(cls, (kind, wires, angle))

    @property
    def control(self) -> int:
        assert self.kind == "CX"
        return self.wires[0]

    @property
    def target(self) -> int:
        assert self.kind == "CX"
        return self.wires[1]

    def text(self) -> str:
        kind, wires, angle = self
        if kind == "J":
            return f"J({angle.text()}) {wires[0]}"
        return f"{kind} {wires[0]} {wires[1]}"


class Wire(_StrictTuple, namedtuple("Wire", "id init terminal")):
    """A wire: ``init`` is "input" or "plus", ``terminal`` "output" or "measured"."""

    __slots__ = ()

    def __new__(cls, id: int, init: str, terminal: str):
        if init not in ("input", "plus"):
            raise ValueError(f"bad wire init {init!r}")
        if terminal not in ("output", "measured"):
            raise ValueError(f"bad wire terminal {terminal!r}")
        return tuple.__new__(cls, (id, init, terminal))


@dataclass(frozen=True)
class Circuit:
    wires: tuple[Wire, ...]
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(sorted(self.wires)))
        object.__setattr__(self, "gates", tuple(self.gates))
        ids = {w.id for w in self.wires}
        if len(ids) != len(self.wires):  # the sorted wires put a repeated id next to itself
            dup = next(a.id for a, b in zip(self.wires, self.wires[1:]) if a.id == b.id)
            raise ValueError(f"duplicate wire id {dup}")
        for g in self.gates:
            if not ids.issuperset(g.wires):
                raise ValueError(f"gate {g.text()} uses undeclared wire")

    # Not a field: emit_text keeps the circuit's text here, formatted once,
    # outside ==, hash and repr; __reduce__ rebuilds without it.
    _text = None

    def __reduce__(self):
        # Rebuild through the constructor, so a loaded circuit is checked again.
        return (Circuit, (self.wires, self.gates))

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
    """The layer order the two simplify entry points read beside an
    extended circuit.

    ``order`` lists the measured wires layer by layer, ascending within a
    layer; ``simplify_flow`` requires it to be the order of the circuit's J
    gates.  It follows from the structure alone, so a single
    ``simplify(extended, structure)`` entry (ROADMAP item 1) deletes this view
    together with ``slice_circuit``.
    """

    order: tuple[int, ...]


def slice_circuit(circuit: Circuit, structure: CorrectionStructure) -> TimeSlicedView:
    """The layer order of ``structure``'s measured wires.

    It reads nothing of ``circuit``, which stays a parameter only for the
    callers that pass it; ROADMAP item 1 deletes this function.
    """
    return TimeSlicedView(tuple(i for layer in structure.layers for i in sorted(layer)))


def emit_text(circuit: Circuit) -> str:
    """The circuit's text, formatted on the first call and kept on the circuit."""
    if circuit._text is None:
        lines = [f"wire {w.id} {w.init} {w.terminal}" for w in circuit.wires]
        lines.extend(map(Gate.text, circuit.gates))
        object.__setattr__(circuit, "_text", "\n".join(lines) + "\n")
    return circuit._text


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
                if len(fields) != 4:
                    raise ValueError("wire line needs an id, an init and a terminal")
                _, wid, init, terminal = fields
                wires.append(Wire(int(wid), init, terminal))
            elif fields[0].startswith("J(") and fields[0].endswith(")"):
                if len(fields) != 2:
                    raise ValueError("J line needs exactly one wire")
                expr, wid = fields[0][2:-1], fields[1]
                gates.append(Gate("J", (int(wid),), Angle.parse(expr)))
            elif fields[0] in ("CZ", "CX"):
                if len(fields) != 3:
                    raise ValueError(f"{fields[0]} line needs exactly two wires")
                kind, a, b = fields
                gates.append(Gate(kind, (int(a), int(b))))
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return Circuit(tuple(wires), tuple(gates))


def digest(circuit: Circuit) -> str:
    return hashlib.sha256(emit_text(circuit).encode()).hexdigest()[:16]
