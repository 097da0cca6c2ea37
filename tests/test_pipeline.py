"""compile_pattern: the one compile sequence, its result and its failures."""

import pytest

from oneway import CompileError, build_extended, compile_pattern, emit_text, parse_graph, trace_text
from conftest import load_fixture

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


def test_too_wide_to_verify_is_code_4():
    graph, _ = load_fixture("path3")
    with pytest.raises(CompileError, match="cannot verify: circuit exceeds --max-wires 2") as info:
        compile_pattern(graph, max_wires=2)
    assert info.value.code == 4
    assert len(info.value.extended.wires) == 3
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
])
def test_out_of_range_arguments_are_refused_up_front(kwargs, message):
    graph, sets = load_fixture("budget")
    with pytest.raises(ValueError, match=message):
        compile_pattern(graph, sets, **kwargs)
