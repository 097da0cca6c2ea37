"""End-to-end checks, one per shipped guarantee.

Each test is self-contained and states its own tolerance; the compile
registry at module level feeds the final monotonicity sweep, so tests that
compile circuits run before it by file order.
"""

import hashlib
import itertools
import time
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from oneway import (
    Angle,
    GflowSearchExhausted,
    OpenGraph,
    SimplificationTrace,
    build_extended,
    circuit_isometry,
    compile_pattern,
    emit_text,
    find_flow,
    find_gflow,
    max_deviation,
    run_pattern,
    simplify_gflow,
    trace_text,
    validate_gflow,
)
from oneway.cli import main as cli_main
from _oracle import cx_on, cz_on, j_of, plus_embedding
from conftest import cluster_strip, load_fixture, unchecked_structure

COMPILE_TRACES: list[SimplificationTrace] = []


def compile_with_flow(graph: OpenGraph):
    done = compile_pattern(graph)
    assert done.structure.kind == "flow"
    COMPILE_TRACES.append(done.trace)
    assert len(done.compact.wires) == len(graph.outputs), (graph.edges, graph.outputs)
    return done.compact, done.trace, done.deviation


def compile_with_gflow(graph: OpenGraph, sets):
    done = compile_pattern(graph, sets)
    assert done.structure.kind == "gflow"
    COMPILE_TRACES.append(done.trace)
    return done.compact, done.trace, done.deviation


def test_single_edge_pattern_compiles_to_j():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for theta in rng.uniform(-np.pi, np.pi, size=8):
        graph = OpenGraph(
            (1, 2), frozenset({(1, 2)}), frozenset({1}), frozenset({2}),
            {1: Angle.radians(float(theta))},
        )
        compact = compile_pattern(graph, verify=False).compact
        assert len(compact.wires) == 1
        assert [g.kind for g in compact.gates] == ["J"]
        assert max_deviation(circuit_isometry(compact).matrix, j_of(float(theta))) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_rewrite_identities_hold_as_matrices():
    order = (1, 2, 3)
    for i, j, k in itertools.permutations(order):
        lhs = cz_on(i, k, order) @ cx_on(i, j, order) @ cz_on(j, k, order)
        rhs = cz_on(j, k, order) @ cx_on(i, j, order)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

        lhs = cx_on(i, k, order) @ cx_on(i, j, order) @ cx_on(j, k, order)
        rhs = cx_on(j, k, order) @ cx_on(i, j, order)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

        emb = plus_embedding(j, order)
        lhs = cz_on(i, k, order) @ cz_on(j, k, order) @ emb
        rhs = cx_on(i, j, order) @ cz_on(j, k, order) @ emb
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def atlas_flow_graphs():
    """Connected graphs to 7 vertices: every output subset to 5, one witness above."""
    for atlas in nx.graph_atlas_g():
        n = atlas.number_of_nodes()
        if n < 2 or n > 7 or not nx.is_connected(atlas):
            continue
        rel = nx.relabel_nodes(atlas, {v: v + 1 for v in atlas.nodes})
        vertices = tuple(sorted(rel.nodes))
        edges = frozenset(tuple(sorted(e)) for e in rel.edges)
        exhaustive = n <= 5
        witnessed = False
        for r in range(1, n):
            if witnessed:
                break
            for outs in itertools.combinations(vertices, r):
                angles = {
                    v: Angle.exact(2 * k + 1, 8)
                    for k, v in enumerate(v for v in vertices if v not in outs)
                }
                graph = OpenGraph(vertices, edges, frozenset(), frozenset(outs), angles)
                if find_flow(graph) is None:
                    continue
                yield graph
                if not exhaustive:
                    witnessed = True
                    break


def test_flow_pipeline_strips_every_measured_wire():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    texts = hashlib.sha256()
    graphs = itertools.chain(atlas_flow_graphs(), map(cluster_strip, (1, 2, 3, 4)))
    for graph in graphs:
        compact, trace, dev = compile_with_flow(graph)
        texts.update((emit_text(compact) + trace_text(trace)).encode())
        worst = max(worst, dev)
        count += 1
    assert count == 1358
    assert worst <= 1e-9
    # every compact circuit and trace, byte for byte
    assert texts.hexdigest() == "7b4033ed009585ca7cd4f960c505f5ad4af7108dfa4db11f99bf0cdcd7f236ac"
    assert time.perf_counter() - start < 60.0


def atlas_gflow_only_graphs():
    """Connected graphs of 2 to 5 vertices, every output subset, gflow but no flow."""
    for atlas in nx.graph_atlas_g():
        n = atlas.number_of_nodes()
        if n > 5:
            break
        if n < 2 or not nx.is_connected(atlas):
            continue
        rel = nx.relabel_nodes(atlas, {v: v + 1 for v in atlas.nodes})
        vertices = tuple(sorted(rel.nodes))
        edges = frozenset(tuple(sorted(e)) for e in rel.edges)
        for r in range(n + 1):
            for outs in itertools.combinations(vertices, r):
                angles = {
                    v: Angle.exact(2 * k + 1, 8)
                    for k, v in enumerate(v for v in vertices if v not in outs)
                }
                graph = OpenGraph(vertices, edges, frozenset(), frozenset(outs), angles)
                if find_flow(graph) is None and find_gflow(graph) is not None:
                    yield graph


def test_gflow_only_atlas_coverage_is_pinned():
    # the designation search and the plan search on every small gflow-only
    # graph: how many compile, and every circuit, trace and failure message
    count = compiled = 0
    texts = hashlib.sha256()
    for graph in atlas_gflow_only_graphs():
        structure = find_gflow(graph)
        ext = build_extended(graph, structure)
        try:
            compact, trace = simplify_gflow(ext, structure.order, structure)
        except GflowSearchExhausted as exc:
            texts.update((str(exc) + trace_text(exc.partial)).encode())
        else:
            assert len(compact.wires) == len(graph.outputs)
            COMPILE_TRACES.append(trace)
            texts.update((emit_text(compact) + trace_text(trace)).encode())
            compiled += 1
        count += 1
    assert count == 10
    assert compiled >= 3
    assert texts.hexdigest() == "df95f3a6402e308219c0282adc1fd0e392e9fbabd90dd02a3c7f48a42d9d10c2"


def test_example1_compiles_to_three_wires(example1):
    graph, sets = example1
    compact, trace, dev = compile_with_gflow(graph, sets)
    assert len(compact.wires) == 3
    assert dev <= 1e-9
    counts = Counter(step.rule for step in trace.steps)
    assert counts["cz-to-cx"] >= 1
    assert counts["cz-commute"] >= 1
    assert counts["cx-commute"] >= 1
    assert counts["jgate"] == 2

    rng = np.random.default_rng(17)
    for _ in range(8):
        t1, t3 = rng.uniform(-np.pi, np.pi, size=2)
        bent = OpenGraph(
            graph.vertices, graph.edges, graph.inputs, graph.outputs,
            {1: Angle.radians(float(t1)), 3: Angle.radians(float(t3))},
        )
        _, _, dev = compile_with_gflow(bent, sets)
        assert dev <= 1e-9


def test_example2_compiles_to_three_wires(example2):
    graph, sets = example2
    assert find_flow(graph) is None  # this one genuinely needs gflow
    compact, trace, dev = compile_with_gflow(graph, sets)
    assert len(compact.wires) == 3
    assert dev <= 1e-9
    assert sum(step.rule == "jgate" for step in trace.steps) == 3

    rng = np.random.default_rng(19)
    for _ in range(8):
        t1, t3, t5 = rng.uniform(-np.pi, np.pi, size=3)
        bent = OpenGraph(
            graph.vertices, graph.edges, graph.inputs, graph.outputs,
            {1: Angle.radians(float(t1)), 3: Angle.radians(float(t3)), 5: Angle.radians(float(t5))},
        )
        _, _, dev = compile_with_gflow(bent, sets)
        assert dev <= 1e-9


def test_patterns_are_outcome_independent():
    rng = np.random.default_rng(23)
    for name in ("path3", "example1", "example2", "strip2x3", "budget"):
        graph, sets = load_fixture(name)
        done = compile_pattern(graph, sets, verify=False)
        structure = done.structure
        iso = circuit_isometry(done.extended)
        state = rng.normal(size=2 ** len(graph.inputs)) + 1j * rng.normal(size=2 ** len(graph.inputs))
        state /= np.linalg.norm(state)
        expected = iso.matrix @ state
        for bits in itertools.product((0, 1), repeat=len(graph.measured)):
            outcomes = dict(zip(sorted(graph.measured), bits))
            got = run_pattern(graph, structure, state, outcomes)
            assert max_deviation(got.amplitudes, expected) <= 1e-9, (name, outcomes)


def test_broken_correcting_sets_are_flagged():
    graph, sets = load_fixture("broken")
    assert isinstance(validate_gflow(graph, sets), list)
    # forcing the structure through anyway must expose outcome dependence
    structure = unchecked_structure(graph, sets, (frozenset({1}), frozenset({3})))
    state = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    states = [
        run_pattern(graph, structure, state, dict(zip((1, 3), bits))).amplitudes
        for bits in itertools.product((0, 1), repeat=2)
    ]
    spread = max(max_deviation(a, b) for a, b in itertools.combinations(states, 2))
    assert spread > 1e-3


def test_no_recorded_step_grows_the_circuit():
    assert COMPILE_TRACES, "compile tests must run before this sweep"
    for trace in COMPILE_TRACES:
        for step in trace.steps:
            assert len(step.produced) <= len(step.consumed), step.text()


def test_budget_exhaustion_is_a_clean_failure(fixtures_dir, tmp_path, capsys):
    trace_path = tmp_path / "partial.trace"
    code = cli_main(
        [
            "compile",
            str(fixtures_dir / "budget.graph"),
            "--search-budget",
            "1",
            "--trace",
            str(trace_path),
        ]
    )
    out, err = capsys.readouterr()
    assert code == 5
    assert out == ""  # no circuit may be emitted on failure
    assert "exhausted after 1 attempts" in err
    assert trace_path.read_text().strip()
