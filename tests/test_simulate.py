"""Statevector oracle, cross-checked against test-local kron matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oneway import (
    Angle,
    Circuit,
    Gate,
    OpenGraph,
    ProjectionError,
    StateVector,
    Wire,
    WireCapError,
    basis_column_order,
    build_extended,
    circuit_isometry,
    find_flow,
    find_gflow,
    j_matrix,
    max_deviation,
    measured_wire_reduced_states,
    parse_graph,
    run_pattern,
    validate_gflow,
)
from oneway.simulate import _j
from conftest import load_fixture, unchecked_structure
from _oracle import PLUS, cx_on, cz_on, j_of, j_on, plus_embedding
from test_determinism import all_small_open_graphs


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


def column_order_by_bits(natural_wires, logical_wires):
    """``basis_column_order`` written bit by bit, kept as its reference."""
    n = len(logical_wires)
    pos = {w: k for k, w in enumerate(natural_wires)}
    order = np.zeros(1 << n, dtype=np.intp)
    for j in range(1 << n):
        idx = 0
        for k, w in enumerate(logical_wires):
            idx |= ((j >> (n - 1 - k)) & 1) << (n - 1 - pos[w])
        order[j] = idx
    return order


@given(st.lists(st.integers(0, 20), max_size=7, unique=True), st.randoms(use_true_random=False))
def test_basis_column_order_equals_a_bit_by_bit_reordering(natural, rnd):
    logical = list(natural)
    rnd.shuffle(logical)
    got = basis_column_order(tuple(natural), logical)
    assert got.tolist() == column_order_by_bits(natural, logical).tolist()


def test_basis_column_order_of_no_wires():
    assert basis_column_order((), []).tolist() == [0]


def test_max_deviation_phase_alignment():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_deviation(m, np.exp(1j * 1.23) * m) == pytest.approx(0.0, abs=1e-12)
    bumped = m.copy()
    bumped[2, 2] += 0.1
    assert max_deviation(m, bumped) > 0.05
    with pytest.raises(ValueError, match="shape mismatch"):
        max_deviation(m, m[:2])
    # state vectors are read by their amplitudes; aligned on the larger
    # entry, 0.8i, the other entries differ by 2 * 0.6
    state = StateVector(np.array([0.6, 0.8j]), (1,))
    assert max_deviation(state, StateVector(1j * state.amplitudes, (1,))) == pytest.approx(0.0, abs=1e-15)
    assert max_deviation(state, StateVector(np.array([0.6, -0.8j]), (1,))) == pytest.approx(1.2)


def test_run_pattern_refuses_an_outcome_of_zero_amplitude():
    # vertex 1 touches nothing, so it is measured as it is given: |-> has no
    # overlap with the J(0) outcome 0, <+|
    graph = OpenGraph(vertices=(1, 2), edges=(), inputs=(1,), outputs=(2,), angles={1: Angle.exact(0)})
    # g(1) = {2} misses vertex 1's odd neighbourhood, so no constructor accepts it
    structure = unchecked_structure(graph, {1: frozenset({2})}, (frozenset({1}),))
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    with pytest.raises(ProjectionError, match="^outcome 0 on vertex 1 has zero amplitude$"):
        run_pattern(graph, structure, minus, {1: 0})
    assert run_pattern(graph, structure, minus, {1: 1}).wires == (2,)


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
    graph, sets = load_fixture("broken")
    structure = unchecked_structure(graph, sets, (frozenset({1}), frozenset({3})))
    state = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    base = run_pattern(graph, structure, state, {1: 0, 3: 0}).amplitudes
    flipped = run_pattern(graph, structure, state, {1: 1, 3: 0}).amplitudes
    assert max_deviation(base, flipped) > 1e-3


def test_run_pattern_input_validation(path3):
    structure = find_flow(path3)
    with pytest.raises(ValueError, match="forced outcome"):
        run_pattern(path3, structure, np.array([1.0, 0.0]), {1: 0})
    # the outcome is a bit: 2 or -1 is refused, not run as outcome 1
    for bad in (2, -1):
        with pytest.raises(ValueError, match=rf"^forced outcome {bad} on vertex 2 is neither 0 nor 1$"):
            run_pattern(path3, structure, np.array([1.0, 0.0]), {1: 0, 2: bad})
    with pytest.raises(ValueError, match="dimension"):
        run_pattern(path3, structure, np.ones(4), {1: 0, 2: 0})
    with pytest.raises(WireCapError):
        run_pattern(path3, structure, np.array([1.0, 0.0]), {1: 0, 2: 0}, cap=2)
    # a structure of another graph is refused, though it measures the same vertices
    other = OpenGraph(path3.vertices, path3.edges, path3.inputs, path3.outputs, {1: Angle.exact(0), 2: Angle.exact(0)})
    with pytest.raises(ValueError, match=r"^structure invalid for graph: it was made for another graph$"):
        run_pattern(path3, find_flow(other), np.array([1.0, 0.0]), {1: 0, 2: 0})


@st.composite
def dense_circuits(draw):
    """1 to 5 wires in any mix of input/plus and output/measured; J, CZ and
    CX on any wires, so controls land on either side of their targets."""
    n = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n, unique=True))
    wires = tuple(
        Wire(i, draw(st.sampled_from(["input", "plus"])), draw(st.sampled_from(["output", "measured"])))
        for i in ids
    )
    angles = st.one_of(
        st.builds(Angle.exact, st.integers(0, 7), st.just(4)),
        st.builds(Angle.radians, st.floats(-4.0, 4.0)),
    )
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["J", "CZ", "CX"] if n > 1 else ["J"]))
        if kind == "J":
            gates.append(Gate("J", (draw(st.sampled_from(ids)),), draw(angles)))
        else:
            gates.append(Gate(kind, tuple(draw(st.permutations(ids))[:2])))
    return Circuit(wires, tuple(gates))


def lifted_isometry(circuit):
    """The circuit's unnormalized isometry from test-local kron matrices."""
    order = tuple(w.id for w in circuit.wires)
    program = np.eye(2 ** len(order), dtype=complex)
    for g in circuit.gates:
        if g.kind == "J":
            program = j_on(g.angle.to_radians(), g.wires[0], order) @ program
        elif g.kind == "CZ":
            program = cz_on(*g.wires, order) @ program
        else:
            program = cx_on(g.control, g.target, order) @ program
    register = order
    for w in circuit.wires:
        if w.init == "plus":
            program = program @ plus_embedding(w.id, register)
            register = tuple(v for v in register if v != w.id)
    register = order
    for w in circuit.wires:
        if w.terminal == "measured":
            program = plus_embedding(w.id, register).conj().T @ program
            register = tuple(v for v in register if v != w.id)
    return program


@given(dense_circuits())
def test_isometry_equals_the_lifted_product(circuit):
    raw = lifted_isometry(circuit)
    norms = np.linalg.norm(raw, axis=0)
    if norms.min() < 1e-12:
        with pytest.raises(ProjectionError):
            circuit_isometry(circuit)
        return
    assume(norms.min() > 1e-2)  # renormalizing a tiny column magnifies rounding
    iso = circuit_isometry(circuit)
    assert iso.input_wires == tuple(w.id for w in circuit.wires if w.init == "input")
    assert iso.output_wires == tuple(w.id for w in circuit.wires if w.terminal == "output")
    assert np.max(np.abs(iso.matrix - raw / norms)) <= 1e-12


def test_run_pattern_agrees_with_the_extended_isometry_on_the_atlas():
    rng = np.random.default_rng(5)
    checked = 0
    for graph in all_small_open_graphs(5):
        structure = find_flow(graph) or find_gflow(graph)
        if structure is None:
            continue
        iso = circuit_isometry(build_extended(graph, structure))
        for _ in range(2):
            outcomes = {i: int(rng.integers(2)) for i in sorted(graph.measured)}
            got = run_pattern(graph, structure, np.array([1.0]), outcomes).amplitudes
            assert max_deviation(got, iso.matrix[:, 0]) <= 1e-9, (graph.edges, outcomes)
        checked += 1
    assert checked > 300


def test_run_pattern_keeps_the_amplitude_of_an_empty_input():
    graph = parse_graph("vertices: 1 2 3\nedges: 1-2 2-3\ninputs:\noutputs: 3\nangles: 1=1/4pi 2=1/8pi\n")
    structure = find_flow(graph)
    for outcomes in ({1: 0, 2: 0}, {1: 1, 2: 0}, {1: 1, 2: 1}):
        one = run_pattern(graph, structure, np.array([1.0]), outcomes).amplitudes
        phased = run_pattern(graph, structure, np.array([1j]), outcomes).amplitudes
        assert phased == pytest.approx(1j * one, rel=0, abs=1e-15)


def test_simulation_leaves_its_arguments_alone(path3, example1):
    # every vertex an input: the start state is the input state itself, then CZ'd
    graph = parse_graph("vertices: 1 2\nedges: 1-2\ninputs: 1 2\noutputs: 1 2\nangles:\n")
    state = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    kept = state.copy()
    got = run_pattern(graph, find_flow(graph), state, {}).amplitudes
    assert np.array_equal(state, kept)
    assert got == pytest.approx(kept * [1, 1, 1, -1], abs=1e-15)

    state = np.array([0.6, 0.8j], dtype=complex)
    kept = state.copy()
    run_pattern(path3, find_flow(path3), state, {1: 1, 2: 1})
    assert np.array_equal(state, kept)

    graph, sets = example1
    ext = build_extended(graph, validate_gflow(graph, sets))
    first, second = circuit_isometry(ext), circuit_isometry(ext)
    assert np.array_equal(first.matrix, second.matrix)
    assert not np.shares_memory(first.matrix, second.matrix)


def test_cached_j_matrices_are_read_only():
    angle = Angle.exact(3, 8)
    cached = _j(angle)
    assert cached is _j(Angle.exact(3, 8))
    assert np.array_equal(cached, j_matrix(angle))
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0
    assert j_matrix(angle).flags.writeable  # j_matrix itself still hands out fresh arrays
