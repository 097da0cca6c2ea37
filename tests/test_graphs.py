import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneway import (
    Angle,
    OpenGraph,
    build_extended,
    emit_graph,
    find_flow,
    odd_neighborhood,
    parse_graph,
    parse_graph_with_sets,
)


def square(**overrides):
    base = dict(
        vertices=(1, 2, 3, 4),
        edges=((1, 2), (2, 3), (3, 4), (1, 4)),
        inputs=(1,),
        outputs=(3, 4),
        angles={1: Angle.exact(1, 4), 2: Angle.exact(1, 2)},
    )
    base.update(overrides)
    return OpenGraph(**base)


def test_construction_normalizes():
    g = OpenGraph(
        vertices=(3, 1, 2, 2),
        edges=((2, 1), (3, 2)),
        inputs=(1,),
        outputs=(3,),
        angles={1: Angle.exact(0), 2: Angle.exact(0)},
    )
    assert g.vertices == (1, 2, 3)
    assert (1, 2) in g.edges and (2, 1) not in g.edges


def test_neighbors_and_measured():
    g = square()
    assert g.neighbors[1] == frozenset({2, 4})
    assert g.neighbors[3] == frozenset({2, 4})
    assert g.measured == frozenset({1, 2})


@pytest.mark.parametrize("outputs", [(), (3,), (3, 4), (1, 2, 3, 4)])
def test_measured_is_computed_once(outputs):
    g = square(outputs=outputs, angles={v: Angle.exact(0) for v in (1, 2, 3, 4) if v not in outputs})
    first = g.measured
    assert first == frozenset(g.vertices) - g.outputs
    assert g.measured is first


def test_validate_reports_each_problem():
    square()  # well-formed, so it builds
    with pytest.raises(ValueError, match="^self-loop on 2"):
        square(edges=((1, 2), (2, 2)))
    with pytest.raises(ValueError, match="unknown vertex"):
        square(edges=((1, 9),))
    with pytest.raises(ValueError, match="missing angles"):
        square(angles={})
    with pytest.raises(ValueError, match="unmeasured"):
        square(angles={1: Angle.exact(0), 2: Angle.exact(0), 3: Angle.exact(0)})


J = Angle.exact(1, 4)


@pytest.mark.parametrize("fields, message", [
    (((1, 2), {(1, 2)}, (), {2}, {}), r"^missing angles for measured vertices \[1\]$"),
    (((1, 2), {(1, 2), (2, 3)}, (), {2}, {1: J}), "^edge 2-3 uses unknown vertex$"),
    (((1, 2), {(1, 2)}, {7}, {2}, {1: J}), "^inputs must be vertices$"),
    (((1, 2), {(1, 2)}, (), {2, 5}, {1: J}), "^outputs must be vertices$"),
    (((1, 2), {(1, 2), (1, 1)}, (), {2}, {1: J}), "^self-loop on 1$"),
    (((-1, 2), {(-1, 2)}, (), {2}, {-1: J}), "^vertex ids must be non-negative integers$"),
    (((1, 2), {(1, 2)}, (), {2}, {1: J, 2: J}), r"^angles given for unmeasured vertices \[2\]$"),
    (((1, 2), {(2, 2)}, (), {2, 5}, {}),
     r"^self-loop on 2; outputs must be vertices; missing angles for measured vertices \[1\]$"),
])
def test_an_invalid_graph_cannot_be_built(fields, message):
    # unchecked, such a graph reaches the structure search, the extended circuit
    # or the pattern simulation and fails there with a KeyError or a numpy error
    with pytest.raises(ValueError, match=message):
        OpenGraph(*fields)


def test_a_graph_keeps_its_own_angles_and_hashes_by_value():
    a = {1: J, 2: J}
    g = OpenGraph((1, 2, 3), {(1, 2), (2, 3)}, {1}, {3}, a)
    del a[2]  # the caller's dict; the graph keeps its own copy
    assert g.angles == {1: J, 2: J}
    assert [gate.text() for gate in build_extended(g, find_flow(g)).gates if gate.kind == "J"] == [
        "J(1/4pi) 1", "J(1/4pi) 2",
    ]
    with pytest.raises(TypeError):
        g.angles[2] = Angle.exact(0)
    twin = OpenGraph((3, 2, 1), {(2, 1), (3, 2)}, {1}, {3}, {2: J, 1: J})
    assert twin == g and hash(twin) == hash(g)
    assert len({g, twin, square()}) == 2


def test_odd_neighborhood_small_cases():
    g = square()
    assert odd_neighborhood(g, {1}) == frozenset({2, 4})
    # 2 and 4 are both adjacent to 1 and to 3, so the overlaps cancel
    assert odd_neighborhood(g, {1, 3}) == frozenset()
    assert odd_neighborhood(g, {1, 2}) == frozenset({1, 2, 3, 4})
    with pytest.raises(ValueError):
        odd_neighborhood(g, {99})


@given(st.sets(st.integers(1, 4)), st.sets(st.integers(1, 4)))
def test_odd_neighborhood_is_linear(s, t):
    g = square()
    lhs = odd_neighborhood(g, s ^ t)
    rhs = odd_neighborhood(g, s) ^ odd_neighborhood(g, t)
    assert lhs == rhs


def test_parse_emit_round_trip():
    text = emit_graph(square())
    again = parse_graph(text)
    assert again == square()


def test_parse_round_trips_correcting_sets():
    g = square()
    sets = {1: frozenset({2}), 2: frozenset({3})}
    text = emit_graph(g, sets)
    g2, sets2 = parse_graph_with_sets(text)
    assert g2 == g
    assert sets2 == sets


def test_parse_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_graph("vertices: 1 2\nnot a line\n")
    with pytest.raises(ValueError, match="duplicate key"):
        parse_graph("vertices: 1\nvertices: 1\n")
    with pytest.raises(ValueError, match="missing key"):
        parse_graph("vertices: 1 2\nedges: 1-2\ninputs: 1\n")
    with pytest.raises(ValueError, match="bad edge"):
        parse_graph("vertices: 1 2\nedges: 12\ninputs: 1\noutputs: 2\n")
    ok = "vertices: 1 2\nedges: 1-2\ninputs: 1\noutputs: 2\nangles: 1=1/4pi\n"
    with pytest.raises(ValueError, match="^line 5: angles: bad angle assignment '1:1/4pi'$"):
        parse_graph(ok.replace("1=1/4pi", "1:1/4pi"))
    with pytest.raises(ValueError, match="^line 6: correcting_sets: bad correcting set '1=2'$"):
        parse_graph_with_sets(ok + "correcting_sets: 1=2\n")
    # a token that is not a number names its key and line
    for good, bad, where in [
        ("vertices: 1 2", "vertices: 1 a", "line 1: vertices: "),
        ("edges: 1-2", "edges: 1-b", "line 2: edges: "),
        ("angles: 1=1/4pi", "angles: x=1/4pi", "line 5: angles: "),
        ("angles: 1=1/4pi", "angles: 1=1/4pi\ncorrecting_sets: 1={x}", "line 6: correcting_sets: "),
    ]:
        with pytest.raises(ValueError, match=f"^{where}invalid literal for int"):
            parse_graph(ok.replace(good, bad))
    # a misspelt key is refused, not skipped
    with pytest.raises(ValueError, match="^line 6: unknown key 'correcting_set'$"):
        parse_graph_with_sets(ok + "correcting_set: 1={2}\n")


@pytest.mark.parametrize("good, bad, message", [
    ("angles: 1=1/4pi", "angles: 1=1/4pi 1=1/2pi", "^line 5: angles: duplicate vertex 1$"),
    ("angles: 1=1/4pi", "angles: 1=1/4pi\ncorrecting_sets: 1={2} 1={}",
     "^line 6: correcting_sets: duplicate vertex 1$"),
    ("vertices: 1 2", "vertices: 1 2 2 3", "^line 1: vertices: duplicate vertex 2$"),
    ("edges: 1-2", "edges: 1-2 1-2", "^line 2: edges: duplicate edge 1-2$"),
    ("edges: 1-2", "edges: 1-2 2-1", "^line 2: edges: duplicate edge 2-1$"),
    ("inputs: 1", "inputs: 1 1", "^line 3: inputs: duplicate vertex 1$"),
    ("outputs: 2", "outputs: 2 2", "^line 4: outputs: duplicate vertex 2$"),
    ("angles: 1=1/4pi", "angles: 1=1/4pi\ncorrecting_sets: 1={2,2}",
     "^line 6: correcting_sets: duplicate vertex 2 in correcting set '1=\\{2,2\\}'$"),
])
def test_parse_refuses_a_vertex_repeated_within_one_value(good, bad, message):
    # a repeat must not silently override the earlier assignment
    ok = "vertices: 1 2\nedges: 1-2\ninputs: 1\noutputs: 2\nangles: 1=1/4pi\n"
    parse_graph_with_sets(ok.replace(good, good + "\ncorrecting_sets: 1={2}"))
    with pytest.raises(ValueError, match=message):
        parse_graph_with_sets(ok.replace(good, bad))


def test_parse_rejects_invalid_graphs():
    bad = "vertices: 1 2\nedges: 1-2\ninputs: 1\noutputs: 2\n"  # angle for 1 missing
    with pytest.raises(ValueError, match="missing angles"):
        parse_graph(bad)
    for vertices, inputs, outputs, message in [
        ("1 2 -3", "1", "2 -3", "^vertex ids must be non-negative integers$"),
        ("1 2", "1 7", "2", "^inputs must be vertices$"),
        ("1 2", "1", "2 7", "^outputs must be vertices$"),
    ]:
        text = f"vertices: {vertices}\nedges: 1-2\ninputs: {inputs}\noutputs: {outputs}\nangles: 1=1/4pi\n"
        with pytest.raises(ValueError, match=message):
            parse_graph(text)


def test_comments_and_blank_lines_ignored():
    text = "# a square\nvertices: 1 2\nedges: 1-2\n\ninputs: 1  # left\noutputs: 2\nangles: 1=1/4pi\n"
    g = parse_graph(text)
    assert g.vertices == (1, 2)
