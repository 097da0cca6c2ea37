import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneway import (
    Angle,
    Circuit,
    Gate,
    Wire,
    digest,
    emit_text,
    j_matrix,
    parse_text,
)
from _oracle import H, j_of


def test_gate_shape_rules():
    assert Gate("CZ", (5, 2)).wires == (2, 5)  # CZ is symmetric, stored sorted
    cx = Gate("CX", (5, 2))
    assert (cx.control, cx.target) == (5, 2)  # CX order is meaningful
    with pytest.raises(ValueError):
        Gate("CZ", (1, 1))
    with pytest.raises(ValueError):
        Gate("CX", (1,))
    with pytest.raises(ValueError):
        Gate("J", (1,))  # missing angle
    with pytest.raises(ValueError):
        Gate("CZ", (1, 2), angle=Angle.exact(1, 4))
    with pytest.raises(ValueError):
        Gate("H", (1,))


def test_gate_text():
    assert Gate("J", (3,), Angle.exact(1, 4)).text() == "J(1/4pi) 3"
    assert Gate("CZ", (2, 1)).text() == "CZ 1 2"
    assert Gate("CX", (2, 1)).text() == "CX 2 1"


def test_wire_field_validation():
    with pytest.raises(ValueError):
        Wire(1, "zero", "output")
    with pytest.raises(ValueError):
        Wire(1, "plus", "traced-out")


def test_circuit_sorts_wires_and_checks_ids():
    c = Circuit(
        wires=(Wire(2, "plus", "output"), Wire(1, "input", "measured")),
        gates=(Gate("CZ", (1, 2)),),
    )
    assert [w.id for w in c.wires] == [1, 2]
    assert c.wire(2).init == "plus"
    with pytest.raises(KeyError):
        c.wire(3)
    with pytest.raises(ValueError, match="^duplicate wire id 1$"):
        Circuit((Wire(1, "plus", "output"), Wire(1, "plus", "output")), ())
    with pytest.raises(ValueError, match="^duplicate wire id 3$"):
        Circuit((Wire(3, "plus", "output"), Wire(2, "plus", "output"), Wire(3, "input", "measured")), ())
    with pytest.raises(ValueError, match="undeclared wire"):
        Circuit((Wire(1, "plus", "output"),), (Gate("CZ", (1, 2)),))


def test_gates_on():
    c = Circuit(
        wires=(Wire(1, "input", "measured"), Wire(2, "plus", "output")),
        gates=(Gate("CZ", (1, 2)), Gate("J", (1,), Angle.exact(0)), Gate("CX", (1, 2))),
    )
    assert c.gates_on(1) == [0, 1, 2]
    assert c.gates_on(2) == [0, 2]


def test_j_matrix_against_oracle():
    assert np.allclose(j_matrix(Angle.exact(0)), H, atol=1e-15)
    for theta in (0.0, 0.7, np.pi / 4, 2.0):
        assert np.allclose(j_matrix(theta), j_of(theta), atol=1e-15)
    # columns stay orthonormal for any angle
    m = j_matrix(1.234)
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-15)


wire_ids = st.lists(st.integers(1, 6), min_size=2, max_size=5, unique=True)


@st.composite
def circuits(draw):
    ids = draw(wire_ids)
    wires = tuple(
        Wire(
            i,
            draw(st.sampled_from(["input", "plus"])),
            draw(st.sampled_from(["output", "measured"])),
        )
        for i in ids
    )
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["J", "CZ", "CX"]))
        if kind == "J":
            gates.append(
                Gate("J", (draw(st.sampled_from(ids)),), Angle.exact(draw(st.integers(0, 7)), 4))
            )
        else:
            pair = draw(st.permutations(ids))[:2]
            gates.append(Gate(kind, tuple(pair)))
    return Circuit(wires, tuple(gates))


@given(circuits())
def test_text_round_trip(circuit):
    assert parse_text(emit_text(circuit)) == circuit


@given(circuits())
def test_digest_tracks_content(circuit):
    d = digest(circuit)
    assert len(d) == 16
    assert digest(parse_text(emit_text(circuit))) == d


@given(circuits())
def test_gates_on_matches_a_scan_of_the_gate_list(circuit):
    declared = {w.id for w in circuit.wires}
    for w in declared:
        assert circuit.gates_on(w) == [k for k, g in enumerate(circuit.gates) if w in g.wires]
    for unknown in set(range(8)) - declared:
        assert circuit.gates_on(unknown) == []


@given(circuits())
def test_wire_index_leaves_equality_hash_and_repr_alone(circuit):
    twin = Circuit(tuple(reversed(circuit.wires)), list(circuit.gates))
    assert twin == circuit
    assert hash(twin) == hash(circuit)
    assert repr(twin) == repr(circuit)
    assert repr(circuit) == f"Circuit(wires={circuit.wires!r}, gates={circuit.gates!r})"


@given(circuits())
def test_gates_on_returns_a_list_the_caller_owns(circuit):
    for w in circuit.wires:
        first = circuit.gates_on(w.id)
        expected = list(first)
        first.append(len(circuit.gates))
        first.reverse()
        assert circuit.gates_on(w.id) == expected


def test_parse_reports_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_text("wire one plus output\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_text("wire 1 plus output\nRZ 1 2\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_text("wire 1 plus output\nwire 2 plus output\nJ(1/4pi) 1 2\n")


def test_parse_skips_comments():
    c = parse_text("# header\nwire 1 input output\n\nJ(1/2pi) 1  # inline\n")
    assert len(c.gates) == 1


def test_a_pickled_gate_drops_its_cached_hash():
    # a string's hash differs between processes, so no cached hash may travel
    gate = Gate("J", (3,), Angle.exact(1, 4))
    hash(gate)
    assert "_hash" in vars(gate.angle)
    copy = pickle.loads(pickle.dumps(gate))
    assert copy == gate and repr(copy) == repr(gate)
    assert not hasattr(copy, "__dict__")  # a gate keeps no per-instance state
    assert "_hash" not in vars(copy.angle)
    assert hash(copy) == hash(gate)


def test_a_circuit_is_formatted_once(monkeypatch):
    circuit = Circuit(
        (Wire(1, "input", "measured"), Wire(2, "plus", "output")),
        (Gate("CZ", (1, 2)), Gate("J", (1,), Angle.exact(1, 4)), Gate("CX", (1, 2))),
    )
    calls = []
    text = Gate.text
    monkeypatch.setattr(Gate, "text", lambda gate: calls.append(gate) or text(gate))
    first = emit_text(circuit)
    assert len(calls) == 3
    assert emit_text(circuit) is first and digest(circuit) == digest(circuit)
    assert len(calls) == 3
    assert first == "wire 1 input measured\nwire 2 plus output\nCZ 1 2\nJ(1/4pi) 1\nCX 1 2\n"


@given(circuits())
def test_the_cached_text_leaves_equality_hash_and_repr_alone(circuit):
    twin = Circuit(circuit.wires, circuit.gates)
    emit_text(circuit)
    assert "_text" in vars(circuit) and "_text" not in vars(twin)
    assert twin == circuit
    assert hash(twin) == hash(circuit)
    assert repr(twin) == repr(circuit)


@given(circuits())
def test_the_cached_text_does_not_travel_through_pickle(circuit):
    text = emit_text(circuit)
    copy = pickle.loads(pickle.dumps(circuit))
    assert copy == circuit
    assert "_text" not in vars(copy)
    assert emit_text(copy) == text


@given(circuits())
def test_digest_is_the_sha256_prefix_of_the_text(circuit):
    fresh = Circuit(circuit.wires, circuit.gates)
    d = digest(fresh)  # formats the circuit, then reads the kept text
    assert d == hashlib.sha256(emit_text(fresh).encode()).hexdigest()[:16]
    assert digest(circuit) == d
