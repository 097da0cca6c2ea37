import pathlib

import pytest

from oneway import Angle, CorrectionStructure, OpenGraph, parse_graph_with_sets

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def load_fixture(name: str):
    """Parse fixtures/<name>.graph into (OpenGraph, sets-or-None)."""
    return parse_graph_with_sets((FIXTURES / f"{name}.graph").read_text())


def unchecked_structure(graph: OpenGraph, sets: dict, layers: tuple) -> CorrectionStructure:
    """A CorrectionStructure that skips its constructor's check, so a test can
    run a pattern that is not deterministic and show that it fails."""
    structure = object.__new__(CorrectionStructure)
    for name, value in (("graph", graph), ("correcting_sets", sets), ("layers", layers)):
        object.__setattr__(structure, name, value)
    return structure


def cluster_strip(n: int) -> OpenGraph:
    """2 x n cluster strip: rows 1..n and n+1..2n, left column in, right column out."""
    edges = {(i, i + n) for i in range(1, n + 1)}
    for i in range(1, n):
        edges.add((i, i + 1))
        edges.add((i + n, i + n + 1))
    vertices = tuple(range(1, 2 * n + 1))
    outputs = frozenset({n, 2 * n})
    angles = {
        v: Angle.exact(2 * k + 1, 8)
        for k, v in enumerate(v for v in vertices if v not in outputs)
    }
    return OpenGraph(vertices, frozenset(edges), frozenset({1, n + 1}), outputs, angles)


@pytest.fixture(scope="session")
def example1():
    return load_fixture("example1")


@pytest.fixture(scope="session")
def example2():
    return load_fixture("example2")


@pytest.fixture(scope="session")
def path3():
    graph, _ = load_fixture("path3")
    return graph


@pytest.fixture(scope="session")
def strip2x3():
    graph, _ = load_fixture("strip2x3")
    return graph
