"""compile_pattern: the one compile sequence, its result and its failures."""

from collections import Counter

import pytest

import oneway.determinism
import oneway.pipeline
from oneway import (
    Angle, CompileError, FlowSimplifyError, OpenGraph, StateVector, build_extended, compile_pattern, emit_text,
    find_flow, parse_graph, trace_text,
)
from conftest import load_fixture
from test_determinism import all_small_open_graphs

TRIANGLE = parse_graph(
    "vertices: 1 2 3\nedges: 1-2 1-3 2-3\ninputs:\noutputs: 1\nangles: 2=1/4pi 3=1/4pi\n"
)

# Each input teleports onto the output of the other row, so the compact
# circuit's input wires come out swapped relative to the extended circuit's.
CROSSED = parse_graph(
    "vertices: 1 2 3 4\nedges: 1-4 2-3\ninputs: 1 2\noutputs: 3 4\nangles: 1=1/4pi 2=1/2pi\n"
)


def test_no_structure_is_code_3():
    with pytest.raises(CompileError, match="neither flow nor gflow") as info:
        compile_pattern(TRIANGLE)
    assert info.value.code == 3
    assert info.value.extended is None and info.value.trace is None

    graph, sets = load_fixture("broken")
    with pytest.raises(CompileError, match="supplied correcting sets invalid:") as info:
        compile_pattern(graph, sets)
    assert info.value.code == 3


def test_one_compile_checks_its_structure_once(monkeypatch):
    calls = Counter()
    for name in ("_set_problems", "_layering"):
        def counted(*args, _real=getattr(oneway.determinism, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oneway.determinism, name, counted)
    # supplied sets and a found flow, compiled and verified, and a found gflow
    # whose designation search exhausts after the structure was built
    for name, supplied in (("example1", True), ("path3", False), ("example2", False)):
        graph, sets = load_fixture(name)
        calls.clear()
        try:
            compile_pattern(graph, sets if supplied else None)
        except CompileError as exc:
            assert (name, exc.code) == ("example2", 5)
        assert calls == {"_set_problems": 1, "_layering": 1}, name


def test_too_wide_to_verify_is_code_4():
    graph, _ = load_fixture("path3")
    with pytest.raises(CompileError, match="cannot verify: circuit exceeds --max-wires 2") as info:
        compile_pattern(graph, max_wires=2)
    assert info.value.code == 4
    assert len(info.value.extended.wires) == 3
    assert len(info.value.trace.steps) == 3


def test_a_failed_flow_simplification_is_code_4(monkeypatch):
    def refuse(circuit, order):
        raise FlowSimplifyError("off the layout")

    monkeypatch.setattr(oneway.pipeline, "simplify_flow", refuse)
    graph, _ = load_fixture("path3")
    with pytest.raises(CompileError, match="^simplification failed: off the layout$") as info:
        compile_pattern(graph)
    assert info.value.code == 4
    assert len(info.value.extended.wires) == 3 and info.value.trace is None


def test_a_failed_outcome_spot_check_is_code_4(monkeypatch):
    run_pattern = oneway.pipeline.run_pattern

    def flipped(*args, **kwargs):  # path3's one output, in the state orthogonal to the pattern's
        state = run_pattern(*args, **kwargs)
        return StateVector(state.amplitudes[::-1] * [1, -1], state.wires)

    monkeypatch.setattr(oneway.pipeline, "run_pattern", flipped)
    graph, _ = load_fixture("path3")
    with pytest.raises(CompileError, match=r"^outcome spot check failed: deviation \d\.\d{3}e[+-]\d\d$") as info:
        compile_pattern(graph)
    assert info.value.code == 4
    assert len(info.value.trace.steps) == 3


def test_exhausted_search_is_code_5_with_the_partial_trace():
    graph, sets = load_fixture("budget")
    with pytest.raises(CompileError, match="exhausted after 1 attempts") as info:
        compile_pattern(graph, sets, budget=1)
    assert info.value.code == 5
    assert len(info.value.extended.wires) == 5
    assert info.value.trace.steps


@pytest.mark.parametrize("name", ["path3", "example1", "example2", "budget", "strip2x3"])
def test_unverified_compile_is_the_same_circuit(name):
    graph, sets = load_fixture(name)
    checked = compile_pattern(graph, sets)
    unchecked = compile_pattern(graph, sets, verify=False)
    assert checked.deviation <= 1e-9
    assert unchecked.deviation is None
    assert emit_text(unchecked.compact) == emit_text(checked.compact)
    assert trace_text(unchecked.trace) == trace_text(checked.trace)


def test_relabelled_inputs_are_lined_up_before_comparing():
    done = compile_pattern(CROSSED)
    assert done.structure.kind == "flow"
    assert len(done.compact.wires) == 2
    assert done.deviation <= 1e-9


def test_a_pattern_without_measurements_compiles_to_its_extended_circuit():
    graph = parse_graph("vertices: 1 2 3\nedges: 1-2 2-3\ninputs: 1\noutputs: 1 2 3\nangles:\n")
    done = compile_pattern(graph)
    assert done.structure.layers == ()
    assert done.compact == done.extended == build_extended(graph, done.structure)
    assert [g.text() for g in done.compact.gates] == ["CZ 1 2", "CZ 2 3"]
    assert done.trace.steps == ()
    assert done.trace.initial_digest == done.trace.final_digest
    assert done.deviation <= 1e-9


@pytest.mark.parametrize("kwargs, message", [
    ({"budget": 0}, "budget must be at least 1, got 0"),
    ({"budget": -3}, "budget must be at least 1, got -3"),
    ({"max_wires": 0}, "max_wires must be at least 1, got 0"),
    ({"tol": -1.0}, "tol must be non-negative, got -1.0"),
    ({"tol": float("nan")}, "tol must be non-negative, got nan"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"tol": float("inf")}, "tol must be finite, got inf"),
])
def test_out_of_range_arguments_are_refused_up_front(kwargs, message):
    graph, sets = load_fixture("budget")
    with pytest.raises(ValueError, match=message):
        compile_pattern(graph, sets, **kwargs)


J = Angle.exact(1, 4)


@pytest.mark.parametrize("graph, message", [
    (((1, 2), {(1, 2)}, (), {2}, {}), r"^missing angles for measured vertices \[1\]$"),
    (((1, 2), {(1, 2), (2, 3)}, (), {2}, {1: J}), "^edge 2-3 uses unknown vertex$"),
    (((1, 2), {(1, 2)}, (), {2, 5}, {1: J}), "^outputs must be vertices$"),
])
def test_a_graph_that_validate_rejects_is_refused_up_front(graph, message):
    # ``graph`` holds OpenGraph's fields.  Unchecked, each graph would reach the
    # structure search and fail there with a KeyError; it cannot even be built.
    with pytest.raises(ValueError, match=message):
        compile_pattern(OpenGraph(*graph))


def path(n: int) -> OpenGraph:
    """The n-vertex path 1-2-...-n, first vertex in, last vertex out."""
    vertices = tuple(range(1, n + 1))
    angles = {v: Angle.exact(2 * v - 1, 8) for v in vertices[:-1]}
    edges = frozenset((v, v + 1) for v in vertices[:-1])
    return OpenGraph(vertices, edges, frozenset({1}), frozenset({n}), angles)


@pytest.fixture()
def no_search_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a flow reached simplify_gflow")

    monkeypatch.setattr(oneway.pipeline, "simplify_gflow", refuse)


def assert_supplied_flow_compiles_as_found(graph: OpenGraph, verify: bool = True) -> None:
    found = compile_pattern(graph, verify=verify)
    supplied = compile_pattern(graph, find_flow(graph).correcting_sets, verify=verify)
    assert supplied.structure.kind == found.structure.kind == "flow"
    assert (emit_text(supplied.compact) + trace_text(supplied.trace)
            == emit_text(found.compact) + trace_text(found.trace))
    assert supplied.deviation == found.deviation


@pytest.mark.parametrize("name", ["path3", "strip2x3"])
def test_a_supplied_flow_compiles_in_closed_form(name, no_search_engine):
    graph, sets = load_fixture(name)
    assert sets is None
    assert_supplied_flow_compiles_as_found(graph)


def test_every_supplied_atlas_flow_compiles_in_closed_form(no_search_engine):
    count = 0
    for graph in all_small_open_graphs():
        if find_flow(graph) is not None:
            assert_supplied_flow_compiles_as_found(graph)
            count += 1
    assert count == 389


def test_a_long_supplied_flow_compiles_in_closed_form(no_search_engine):
    # long enough that the search engine, which keeps a whole circuit per
    # tail step, would take seconds and hundreds of MiB
    graph = path(1000)
    assert find_flow(graph).correcting_sets == {i: frozenset({i + 1}) for i in range(1, 1000)}
    assert_supplied_flow_compiles_as_found(graph, verify=False)
