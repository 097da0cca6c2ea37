"""Statevector oracle, cross-checked against test-local kron matrices."""

import itertools

import numpy as np
import pytest

from oneway import (
    Angle,
    Circuit,
    CorrectionStructure,
    Gate,
    ProjectionError,
    Wire,
    WireCapError,
    basis_column_order,
    build_extended,
    circuit_isometry,
    find_flow,
    max_deviation,
    measured_wire_reduced_states,
    run_pattern,
    validate_gflow,
)
from _oracle import PLUS, cx_on, cz_on, j_of, j_on, plus_embedding


def two_output_wires():
    return (Wire(1, "input", "output"), Wire(2, "input", "output"))


def test_isometry_matches_lifted_gates():
    order = (1, 2)
    for gates, expected in [
        ((Gate("CZ", (1, 2)),), cz_on(1, 2, order)),
        ((Gate("CX", (1, 2)),), cx_on(1, 2, order)),
        ((Gate("CX", (2, 1)),), cx_on(2, 1, order)),
        ((Gate("J", (1,), Angle.exact(1, 4)),), j_on(np.pi / 4, 1, order)),
    ]:
        iso = circuit_isometry(Circuit(two_output_wires(), gates))
        assert iso.matrix == pytest.approx(expected, abs=1e-12)


def test_isometry_composes_in_program_order():
    gates = (Gate("CZ", (1, 2)), Gate("CX", (1, 2)), Gate("J", (2,), Angle.exact(1, 2)))
    iso = circuit_isometry(Circuit(two_output_wires(), gates))
    order = (1, 2)
    expected = j_on(np.pi / 2, 2, order) @ cx_on(1, 2, order) @ cz_on(1, 2, order)
    assert iso.matrix == pytest.approx(expected, abs=1e-12)


def test_isometry_projects_plus_and_measured():
    # wire 1 teleports its state onto the fresh wire 2
    theta = 0.7
    circuit = Circuit(
        wires=(Wire(1, "input", "measured"), Wire(2, "plus", "output")),
        gates=(Gate("CZ", (1, 2)), Gate("J", (1,), Angle.radians(theta)), Gate("CX", (1, 2))),
    )
    iso = circuit_isometry(circuit)
    assert iso.input_wires == (1,)
    assert iso.output_wires == (2,)
    order = (1, 2)
    program = cx_on(1, 2, order) @ j_on(theta, 1, order) @ cz_on(1, 2, order)
    bra_plus_1 = plus_embedding(1, order).conj().T
    assert iso.matrix == pytest.approx(bra_plus_1 @ program @ plus_embedding(2, order), abs=1e-12)
    assert iso.matrix == pytest.approx(j_of(theta), abs=1e-12)


def test_isometry_errors():
    with pytest.raises(WireCapError):
        circuit_isometry(
            Circuit(tuple(Wire(i, "plus", "output") for i in (1, 2, 3)), ()), cap=2
        )
    # J sends |1> to a state orthogonal to <+|, collapsing that input column
    dead = Circuit(
        wires=(Wire(1, "input", "measured"),),
        gates=(Gate("J", (1,), Angle.exact(0)),),
    )
    with pytest.raises(ProjectionError):
        circuit_isometry(dead)


def test_reduced_states_witness_determinism(example1):
    graph, sets = example1
    structure = validate_gflow(graph, sets)
    ext = build_extended(graph, structure)
    plus_proj = np.outer(PLUS, PLUS.conj())
    for wire, rho in measured_wire_reduced_states(ext).items():
        assert rho == pytest.approx(plus_proj, abs=1e-12), wire


def test_basis_column_order_small_cases():
    assert list(basis_column_order((1, 2), [1, 2])) == [0, 1, 2, 3]
    assert list(basis_column_order((1, 2), [2, 1])) == [0, 2, 1, 3]
    with pytest.raises(ValueError, match="wire sets differ"):
        basis_column_order((1, 2), [1, 3])


def test_basis_column_order_is_a_permutation():
    wires = (3, 1, 4, 2)
    for logical in itertools.permutations(wires):
        order = basis_column_order(wires, list(logical))
        assert sorted(order) == list(range(16))


def test_max_deviation_phase_alignment():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_deviation(m, np.exp(1j * 1.23) * m) == pytest.approx(0.0, abs=1e-12)
    bumped = m.copy()
    bumped[2, 2] += 0.1
    assert max_deviation(m, bumped) > 0.05
    with pytest.raises(ValueError, match="shape mismatch"):
        max_deviation(m, m[:2])


def test_run_pattern_is_outcome_independent(path3):
    structure = find_flow(path3)
    rng = np.random.default_rng(3)
    state = rng.normal(size=2) + 1j * rng.normal(size=2)
    state /= np.linalg.norm(state)
    results = [
        run_pattern(path3, structure, state, {1: a, 2: b}).amplitudes
        for a, b in itertools.product((0, 1), repeat=2)
    ]
    for got in results[1:]:
        assert max_deviation(results[0], got) <= 1e-9


def test_run_pattern_agrees_with_extended_isometry(path3):
    structure = find_flow(path3)
    ext = build_extended(path3, structure)
    iso = circuit_isometry(ext)
    rng = np.random.default_rng(4)
    state = rng.normal(size=2) + 1j * rng.normal(size=2)
    state /= np.linalg.norm(state)
    got = run_pattern(path3, structure, state, {1: 0, 2: 0}).amplitudes
    assert max_deviation(got, iso.matrix @ state) <= 1e-9


def test_run_pattern_flags_broken_sets():
    from conftest import load_fixture

    graph, sets = load_fixture("broken")
    structure = CorrectionStructure("gflow", sets, (frozenset({1}), frozenset({3})))
    state = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    base = run_pattern(graph, structure, state, {1: 0, 3: 0}).amplitudes
    flipped = run_pattern(graph, structure, state, {1: 1, 3: 0}).amplitudes
    assert max_deviation(base, flipped) > 1e-3


def test_run_pattern_input_validation(path3):
    structure = find_flow(path3)
    with pytest.raises(ValueError, match="forced outcome"):
        run_pattern(path3, structure, np.array([1.0, 0.0]), {1: 0})
    with pytest.raises(ValueError, match="dimension"):
        run_pattern(path3, structure, np.ones(4), {1: 0, 2: 0})
    with pytest.raises(WireCapError):
        run_pattern(path3, structure, np.array([1.0, 0.0]), {1: 0, 2: 0}, cap=2)
