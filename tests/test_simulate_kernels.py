"""Table kernels and trimmed oracle calls against test-local copies of the strided ones.

The copies below are the simulator as it was before small states took their
CZ and CX from cached tables: they are the reference, so they stay as written.
"""

import cmath
import itertools
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oneway.simulate as simulate
from oneway import Angle, Circuit, CompileError, Gate, ProjectionError, Wire, circuit_isometry
from oneway import compile_pattern, find_flow, find_gflow, j_matrix, max_deviation, odd_neighborhood, run_pattern
from oneway.simulate import _TABLE_MAX, _cx_sources, _cz_signs, _kernels
from conftest import cluster_strip
from test_determinism import all_small_open_graphs
from test_simulate import lifted_isometry

SQRT_HALF = 1.0 / math.sqrt(2.0)


def strided_cz(psi, a, b):
    block = psi.reshape(1 << a, 2, 1 << (b - a - 1), 2, -1)[:, 1, :, 1, :]
    np.negative(block, out=block)


def strided_cx(psi, c, t):
    if c < t:
        block = psi.reshape(1 << c, 2, 1 << (t - c - 1), 2, -1)[:, 1]
        block[...] = block[:, :, ::-1]
    else:
        block = psi.reshape(1 << t, 2, 1 << (c - t - 1), 2, -1)[:, :, :, 1]
        block[...] = block[:, ::-1]


def start_state(amplitudes, is_input, batch):
    shape = [2 if inp else 1 for inp in is_input] + [batch]
    scale = SQRT_HALF ** is_input.count(False)
    psi = np.empty((2,) * len(is_input) + (batch,), dtype=complex)
    np.multiply(amplitudes.reshape(shape), scale, out=psi)
    return psi.reshape(-1)


def strided_isometry(circuit):
    """circuit_isometry as the strided kernels computed it: the matrix, renormalized."""
    axis_of = {w.id: k for k, w in enumerate(circuit.wires)}
    is_input = [w.init == "input" for w in circuit.wires]
    batch = 1 << is_input.count(True)
    psi = start_state(np.eye(batch, dtype=complex), is_input, batch)
    for gate in circuit.gates:
        if gate.kind == "J":
            view = psi.reshape(1 << axis_of[gate.wires[0]], 2, -1)
            psi = np.matmul(j_matrix(gate.angle), view).reshape(-1)
        elif gate.kind == "CZ":
            strided_cz(psi, axis_of[gate.wires[0]], axis_of[gate.wires[1]])
        else:
            strided_cx(psi, axis_of[gate.wires[0]], axis_of[gate.wires[1]])
    for a in reversed(range(len(circuit.wires))):
        if circuit.wires[a].terminal == "measured":
            view = psi.reshape(1 << a, 2, -1)
            psi = view[:, 0] + view[:, 1]
            psi *= SQRT_HALF
    outputs = sum(w.terminal == "output" for w in circuit.wires)
    matrix = psi.reshape(2**outputs, batch)
    return matrix / np.linalg.norm(matrix, axis=0)


def strided_run_pattern(graph, structure, input_state, outcomes):
    """run_pattern's amplitudes as the strided kernels and two-term sums computed them."""
    present = sorted(graph.vertices)
    psi = start_state(np.asarray(input_state, dtype=complex), [v in graph.inputs for v in present], 1)
    pos = {v: k for k, v in enumerate(present)}
    for u, v in sorted(graph.edges):
        strided_cz(psi, pos[u], pos[v])
    x_hits = {v: 0 for v in graph.vertices}
    z_hits = {v: 0 for v in graph.vertices}
    for layer in structure.layers:
        for i in sorted(layer):
            theta = graph.angles[i].to_radians()
            adapted = (-1.0) ** (x_hits[i] % 2) * theta + (z_hits[i] % 2) * math.pi
            phase = cmath.exp(1j * adapted) * SQRT_HALF
            a = bisect_left(present, i)
            view = psi.reshape(1 << a, 2, -1)
            psi = view[:, 1] * (-phase if outcomes[i] else phase)
            psi += view[:, 0] * SQRT_HALF
            present.pop(a)
            psi /= math.sqrt(np.vdot(psi, psi).real)
            psi = psi.reshape(-1)
            if outcomes[i]:
                for v in structure.correcting_sets[i]:
                    x_hits[v] += 1
                for v in odd_neighborhood(graph, structure.correcting_sets[i]) - {i}:
                    z_hits[v] += 1
    for v in sorted(graph.outputs):
        view = psi.reshape(1 << bisect_left(present, v), 2, -1)
        if z_hits[v] % 2:
            np.negative(view[:, 1], out=view[:, 1])
        if x_hits[v] % 2:
            view[...] = view[:, ::-1]
    return psi


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_kernels_equal_the_strided_ones_on_both_sides_of_the_bound(seed, batch_bits):
    rng = np.random.default_rng(seed)
    for k in range(1, 13):  # 2**1 .. 2**12 amplitudes: tables up to 2**10, strided above
        state = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        state[rng.integers(1 << k)] = 0.0
        cz, cx = _kernels(state.size)
        for wires in sorted({k, max(1, k - batch_bits)}):  # without and with a trailing batch
            for a, b in itertools.combinations(range(wires), 2):
                got, want = state.copy(), state.copy()
                cz(got, a, b)
                strided_cz(want, a, b)
                assert np.array_equal(got, want), (k, wires, a, b)
            for c, t in itertools.permutations(range(wires), 2):
                want = state.copy()
                strided_cx(want, c, t)
                assert np.array_equal(cx(state.copy(), c, t), want), (k, wires, c, t)


def test_cached_tables_are_shared_and_read_only():
    signs, sources = _cz_signs(64, 1, 4), _cx_sources(64, 4, 1)
    assert signs is _cz_signs(64, 1, 4)
    assert sources is _cx_sources(64, 4, 1)
    for table in (signs, sources):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    psi = np.arange(64, dtype=complex)
    cz, cx = _kernels(psi.size)
    assert np.array_equal(cx(psi, 4, 1), psi[sources])
    kept = psi.copy()
    cz(psi, 1, 4)
    assert np.array_equal(psi, kept * signs)  # in place, in the caller's array


def test_worst_case_table_bytes_stay_under_the_documented_figure_above_which_no_table_is_built():
    # every size up to the bound, every position pair: counted, never allocated
    top = _TABLE_MAX.bit_length() - 1
    assert _TABLE_MAX == 1 << top
    cz = sum(math.comb(k, 2) * (1 << k) * np.dtype(complex).itemsize for k in range(1, top + 1))
    cx = sum(math.perm(k, 2) * (1 << k) * np.dtype(np.intp).itemsize for k in range(1, top + 1))
    assert "1,212,352 bytes" in simulate.__doc__
    assert cz <= 1_212_352
    assert cx <= 1_212_352
    # a state above the bound takes the strided kernels and builds no table
    _cz_signs.cache_clear()
    _cx_sources.cache_clear()
    big = np.ones(2 * _TABLE_MAX, dtype=complex)
    cz, cx = _kernels(big.size)
    cz(big, 0, 1)
    assert cx(big, 1, 0) is big
    assert _cz_signs.cache_info().currsize == _cx_sources.cache_info().currsize == 0


def atlas_and_strips():
    """Every <=5-vertex atlas graph with a flow or gflow, then the four 2 x n strips
    of the flow atlas, the graphs there with two inputs."""
    for graph in all_small_open_graphs(5):
        structure = find_flow(graph) or find_gflow(graph)
        if structure is not None:
            yield graph, structure
    for n in (1, 2, 3, 4):
        graph = cluster_strip(n)
        yield graph, find_flow(graph)


def test_isometries_and_patterns_equal_the_strided_oracle_on_the_atlas():
    rng = np.random.default_rng(11)
    graphs = compact = branches = with_inputs = 0
    for graph, structure in atlas_and_strips():
        graphs += 1
        try:
            compiled = compile_pattern(graph, verify=False)
            circuits = (compiled.extended, compiled.compact)
            compact += 1
        except CompileError as exc:  # an exhausted gflow search: the extended circuit only
            circuits = (exc.extended,)
        for circuit in circuits:
            assert np.array_equal(circuit_isometry(circuit).matrix, strided_isometry(circuit))
        dim = 2 ** len(graph.inputs)
        with_inputs += dim == 4
        for _ in range(3):
            outcomes = {i: int(rng.integers(2)) for i in sorted(graph.measured)}
            branches += any(outcomes.values())
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state /= np.linalg.norm(state)
            got = run_pattern(graph, structure, state, outcomes).amplitudes
            want = strided_run_pattern(graph, structure, state, outcomes)
            assert np.max(np.abs(got - want)) <= 1e-15, (graph.edges, outcomes)
    assert (graphs, compact, with_inputs) == (403, 396, 4)  # 7 gflow searches exhaust
    assert branches > 600  # of 1209 outcome strings, at least one outcome-1 branch each


def unravelled_max_deviation(ma, mb):
    idx = np.unravel_index(np.argmax(np.abs(ma)), ma.shape)
    if abs(mb[idx]) == 0.0:
        return float(np.max(np.abs(ma)))
    phase = (ma[idx] / mb[idx]) / abs(ma[idx] / mb[idx])
    return float(np.max(np.abs(ma - phase * mb)))


def test_max_deviation_equals_the_unravelled_form():
    rng = np.random.default_rng(13)
    for shape in ((8,), (4, 4), (16, 2)):
        ma = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mb = np.exp(0.4j) * ma + 1e-3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        zeroed = mb.copy()
        zeroed.flat[np.abs(ma).argmax()] = 0.0
        for other in (mb, zeroed, np.asfortranarray(mb)):
            assert max_deviation(ma, other) == unravelled_max_deviation(ma, other)
        assert max_deviation(np.asfortranarray(ma), mb) == unravelled_max_deviation(ma, mb)


def interleaved_circuit(rng, n, inputs):
    """n wires, ``inputs`` of them inputs, measured at every other position
    from the last one back, so no two reduced axes are adjacent; 2n random
    J, CZ and CX gates, the J angles exact or float."""
    ids = sorted(rng.choice(np.arange(1, 40), size=n, replace=False).tolist())
    is_input = set(rng.choice(n, size=inputs, replace=False).tolist())
    wires = tuple(
        Wire(w, "input" if k in is_input else "plus", "measured" if (n - 1 - k) % 2 == 0 else "output")
        for k, w in enumerate(ids)
    )
    gates = []
    for _ in range(2 * n):
        kind = rng.choice(["J", "CZ", "CX"] if n > 1 else ["J"])
        if kind == "J":
            angle = Angle.exact(int(rng.integers(8)), 8) if rng.integers(2) else Angle.radians(rng.uniform(-4, 4))
            gates.append(Gate("J", (ids[rng.integers(n)],), angle))
        else:
            a, b = rng.choice(ids, size=2, replace=False).tolist()
            gates.append(Gate(str(kind), (a, b)))
    return Circuit(wires, tuple(gates))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_isometry_equals_the_lifted_product_with_measured_wires_apart(seed):
    rng = np.random.default_rng(seed)
    shapes = ((1, 0), (1, 1), (3, 0), (4, 2), (5, 3), (7, 3), (8, 3))  # wires, inputs
    sizes = [1 << (n + k) for n, k in shapes]
    assert min(sizes) <= _TABLE_MAX < max(sizes)  # tables below, strided kernels above
    for n, k in shapes:
        circuit = interleaved_circuit(rng, n, k)
        raw = lifted_isometry(circuit)
        norms = np.linalg.norm(raw, axis=0)
        if norms.min() < 1e-12:
            with pytest.raises(ProjectionError):
                circuit_isometry(circuit)
            continue
        if norms.min() < 1e-2:  # renormalizing a tiny column magnifies rounding
            continue
        iso = circuit_isometry(circuit)
        assert iso.input_wires == tuple(w.id for w in circuit.wires if w.init == "input")
        assert iso.output_wires == tuple(w.id for w in circuit.wires if w.terminal == "output")
        assert np.max(np.abs(iso.matrix - raw / norms)) <= 1e-12, circuit


def test_an_empty_circuit_and_circuits_without_a_measured_wire():
    empty = circuit_isometry(Circuit((), ()))
    assert empty.matrix.tolist() == [[1]]
    assert empty.input_wires == empty.output_wires == ()

    plus = circuit_isometry(Circuit((Wire(4, "plus", "output"), Wire(9, "plus", "output")), ()))
    assert plus.matrix == pytest.approx(np.full((4, 1), 0.5), abs=1e-15)
    assert plus.output_wires == (4, 9)

    gates = (Gate("CZ", (1, 2)), Gate("J", (2,), Angle.exact(3, 4)), Gate("CX", (2, 3)))
    for inits in (("input", "plus", "input"), ("plus", "plus", "plus")):
        circuit = Circuit(tuple(Wire(w, init, "output") for w, init in zip((1, 2, 3), inits)), gates)
        raw = lifted_isometry(circuit)
        got = circuit_isometry(circuit).matrix
        assert np.max(np.abs(got - raw / np.linalg.norm(raw, axis=0))) <= 1e-15


def output_hit_parities(graph, structure, outcomes):
    """(X parity, Z parity) each output takes from the outcome-1 vertices'
    correcting sets, counted here from the sets themselves."""
    parities = {v: [0, 0] for v in graph.outputs}
    for i, r in outcomes.items():
        if r:
            g = structure.correcting_sets[i]
            for v in g & graph.outputs:
                parities[v][0] ^= 1
            for v in (odd_neighborhood(graph, g) - {i}) & graph.outputs:
                parities[v][1] ^= 1
    return [tuple(p) for p in parities.values()]


def test_run_pattern_corrects_exactly_the_outputs_with_an_odd_hit():
    rng = np.random.default_rng(17)
    graphs = list(all_small_open_graphs(4)) + [cluster_strip(2)]
    seen = set()
    for graph in graphs:
        structure = find_flow(graph) or find_gflow(graph)
        if structure is None:
            continue
        iso = circuit_isometry(compile_pattern(graph, verify=False).extended)
        measured = sorted(graph.measured)
        dim = 2 ** len(graph.inputs)
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        for bits in itertools.product((0, 1), repeat=len(measured)):
            outcomes = dict(zip(measured, bits))
            seen.update(output_hit_parities(graph, structure, outcomes))
            got = run_pattern(graph, structure, state, outcomes).amplitudes
            want = strided_run_pattern(graph, structure, state, outcomes)
            assert np.max(np.abs(got - want)) <= 1e-15, (graph.edges, outcomes)
            assert max_deviation(got, iso.matrix @ state) <= 1e-12, (graph.edges, outcomes)
    # outputs with no hit, an X alone, a Z alone and both
    assert seen == {(0, 0), (1, 0), (0, 1), (1, 1)}
