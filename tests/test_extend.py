"""Extended-circuit construction.

The frozen gate list for the path fixture below was derived by hand from the
construction rules: edge CZs first, then per round a J gate per measured
vertex followed by one block per correcting-set member (CX onto the member,
CZs onto the member's other neighbors).  The layout checks hold for every
extended circuit, since build_extended is the only code that makes one: the
rewrite engine reads the layer order and the graph neighbours off it.
"""

import itertools

import pytest

from oneway import (
    Angle,
    Gate,
    OpenGraph,
    TimeSlicedView,
    build_extended,
    correction_block,
    find_flow,
    find_gflow,
    slice_circuit,
    validate_gflow,
)
from conftest import load_fixture
from test_determinism import all_small_open_graphs, measured_in_order


def test_correction_block_shape(path3):
    assert correction_block(path3, 1, 2) == [Gate("CX", (1, 2)), Gate("CZ", (1, 3))]
    assert correction_block(path3, 2, 3) == [Gate("CX", (2, 3))]


def test_extended_path3_frozen(path3):
    structure = find_flow(path3)
    ext = build_extended(path3, structure)
    assert [w.id for w in ext.wires] == [1, 2, 3]
    assert ext.wire(1).init == "input" and ext.wire(1).terminal == "measured"
    assert ext.wire(3).init == "plus" and ext.wire(3).terminal == "output"
    assert [g.text() for g in ext.gates] == [
        "CZ 1 2",
        "CZ 2 3",
        "J(1/4pi) 1",
        "CX 1 2",
        "CZ 1 3",
        "J(1/2pi) 2",
        "CX 2 3",
    ]


def test_extended_gflow_has_one_block_per_set_member(example1):
    graph, sets = example1
    structure = validate_gflow(graph, sets)
    ext = build_extended(graph, structure)
    for i, gset in sets.items():
        controlled = [g for g in ext.gates if g.kind == "CX" and g.control == i]
        assert {g.target for g in controlled} == set(gset)


def fixture_structures():
    """Every fixture with a valid structure: its supplied sets, else its flow."""
    for name in ("path3", "example1", "example2", "budget", "strip2x3"):
        graph, sets = load_fixture(name)
        yield graph, validate_gflow(graph, sets) if sets is not None else find_flow(graph)


def assert_extended_layout(graph, structure):
    ext = build_extended(graph, structure)
    gates = ext.gates
    edges = sorted(graph.edges)
    assert gates[: len(edges)] == tuple(Gate("CZ", e) for e in edges)
    pos = len(edges)
    for layer in structure.layers:
        js = sorted(layer)
        assert gates[pos : pos + len(js)] == tuple(Gate("J", (i,), graph.angles[i]) for i in js)
        pos += len(js)
        while pos < len(gates) and gates[pos].kind != "J":
            g = gates[pos]
            if g.kind == "CX":
                assert g.control in layer, g.text()
            else:
                assert set(g.wires) & layer, g.text()
            pos += 1
    assert pos == len(gates)
    for w in ext.wires:
        controlled = sum(g.kind == "CX" and g.control == w.id for g in gates)
        assert controlled == len(structure.correcting_sets.get(w.id, ()))


def test_extended_layout_on_the_fixtures():
    for graph, structure in fixture_structures():
        assert_extended_layout(graph, structure)


def test_extended_layout_on_the_atlas():
    checked = 0
    for graph in all_small_open_graphs():
        for structure in (find_flow(graph), find_gflow(graph)):
            if structure is not None:
                assert_extended_layout(graph, structure)
                checked += 1
    assert checked > 500


def test_view_holds_the_layer_order():
    for graph, structure in fixture_structures():
        view = slice_circuit(build_extended(graph, structure), structure)
        assert view.order == tuple(i for layer in structure.layers for i in sorted(layer))

    graph, _ = load_fixture("path3")
    structure = find_flow(graph)
    view = slice_circuit(build_extended(graph, structure), structure)
    assert view == TimeSlicedView((1, 2))


def test_build_rejects_mismatched_structure(example1):
    graph, _ = example1
    other = OpenGraph(
        vertices=(1, 2),
        edges=((1, 2),),
        inputs=(1,),
        outputs=(2,),
        angles={1: Angle.exact(1, 4)},
    )
    structure = find_flow(other)
    with pytest.raises(ValueError, match=r"^structure invalid for graph: it was made for another graph$"):
        build_extended(graph, structure)
    # an equal graph built apart is the same graph
    twin = OpenGraph(other.vertices, other.edges, other.inputs, other.outputs, dict(other.angles))
    assert build_extended(twin, structure) == build_extended(other, structure)


def atlas_structures():
    """Every connected graph of 2 to 5 vertices, every output subset short of
    all vertices and every input subset, with its flow and its gflow where
    each exists."""
    for graph in all_small_open_graphs():
        for r in range(len(graph.vertices) + 1):
            for ins in itertools.combinations(graph.vertices, r):
                opened = OpenGraph(graph.vertices, graph.edges, frozenset(ins), graph.outputs, graph.angles)
                for structure in (find_flow(opened), find_gflow(opened)):
                    if structure is not None:
                        yield opened, structure


def test_build_accepts_every_atlas_structure_in_its_derived_order():
    structures = 0
    for graph, structure in atlas_structures():
        assert measured_in_order(graph, structure)
        build_extended(graph, structure)
        structures += 1
    assert structures == 11572
