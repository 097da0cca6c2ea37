import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneway import (
    Angle,
    OpenGraph,
    emit_graph,
    odd_neighborhood,
    parse_graph,
    parse_graph_with_sets,
    validate,
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


def test_validate_reports_each_problem():
    ok = square()
    assert validate(ok) == []
    assert "self-loop on 2" in validate(square(edges=((1, 2), (2, 2))))[0]
    assert any("unknown vertex" in p for p in validate(square(edges=((1, 9),))))
    assert any("missing angles" in p for p in validate(square(angles={})))
    assert any(
        "unmeasured" in p
        for p in validate(
            square(angles={1: Angle.exact(0), 2: Angle.exact(0), 3: Angle.exact(0)})
        )
    )


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
    # a token that is not a number names its key and line
    ok = "vertices: 1 2\nedges: 1-2\ninputs: 1\noutputs: 2\nangles: 1=1/4pi\n"
    for good, bad, where in [
        ("vertices: 1 2", "vertices: 1 a", "line 1: vertices: "),
        ("edges: 1-2", "edges: 1-b", "line 2: edges: "),
        ("angles: 1=1/4pi", "angles: x=1/4pi", "line 5: angles: "),
        ("angles: 1=1/4pi", "angles: 1=1/4pi\ncorrecting_sets: 1={x}", "line 6: correcting_sets: "),
    ]:
        with pytest.raises(ValueError, match=f"^{where}invalid literal for int"):
            parse_graph(ok.replace(good, bad))


def test_parse_rejects_invalid_graphs():
    bad = "vertices: 1 2\nedges: 1-2\ninputs: 1\noutputs: 2\n"  # angle for 1 missing
    with pytest.raises(ValueError, match="missing angles"):
        parse_graph(bad)


def test_comments_and_blank_lines_ignored():
    text = "# a square\nvertices: 1 2\nedges: 1-2\n\ninputs: 1  # left\noutputs: 2\nangles: 1=1/4pi\n"
    g = parse_graph(text)
    assert g.vertices == (1, 2)
