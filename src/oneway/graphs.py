"""Open graphs: a simple graph plus input/output designations and angles.

Vertices are small non-negative integers.  Edges are stored as sorted pairs.
Every non-output vertex carries a measurement angle; outputs never do.
Construction only normalises; call validate() for a report, or use
parse_graph, which rejects broken files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .angles import Angle

__all__ = [
    "OpenGraph",
    "validate",
    "odd_neighborhood",
    "parse_graph",
    "parse_graph_with_sets",
    "emit_graph",
]


@dataclass(frozen=True)
class OpenGraph:
    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    inputs: frozenset[int]
    outputs: frozenset[int]
    angles: dict[int, Angle] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        object.__setattr__(
            self,
            "edges",
            frozenset((min(a, b), max(a, b)) for a, b in self.edges),
        )
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))

    @cached_property
    def neighbors(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @property
    def measured(self) -> frozenset[int]:
        return frozenset(self.vertices) - self.outputs


def validate(graph: OpenGraph) -> list[str]:
    """Invariant report; empty list means the graph is well-formed."""
    problems: list[str] = []
    vs = set(graph.vertices)
    if any(v < 0 for v in vs):
        problems.append("vertex ids must be non-negative integers")
    for a, b in sorted(graph.edges):
        if a == b:
            problems.append(f"self-loop on {a}")
        elif a not in vs or b not in vs:
            problems.append(f"edge {a}-{b} uses unknown vertex")
    if not graph.inputs <= vs:
        problems.append("inputs must be vertices")
    if not graph.outputs <= vs:
        problems.append("outputs must be vertices")
    measured = vs - graph.outputs
    missing = measured - set(graph.angles)
    if missing:
        problems.append(f"missing angles for measured vertices {sorted(missing)}")
    extra = set(graph.angles) - measured
    if extra:
        problems.append(f"angles given for unmeasured vertices {sorted(extra)}")
    return problems


def odd_neighborhood(graph: OpenGraph, subset: frozenset[int] | set[int]) -> frozenset[int]:
    """Vertices adjacent to an odd number of members of ``subset``.

    Linear over symmetric difference: Odd(S ^ T) == Odd(S) ^ Odd(T); equals
    the Z-support of the product of the members' stabilizers.
    """
    counts: dict[int, int] = {}
    for s in subset:
        if s not in graph.neighbors:
            raise ValueError(f"vertex {s} not in graph")
        for n in graph.neighbors[s]:
            counts[n] = counts.get(n, 0) + 1
    return frozenset(v for v, c in counts.items() if c % 2 == 1)


def parse_graph(text: str) -> OpenGraph:
    """Read the key/value graph format, rejecting invalid graphs.

    Keys: vertices, edges (``a-b`` pairs), inputs, outputs,
    angles (``v=expr`` pairs), correcting_sets (``v={a,b}`` pairs, optional;
    use parse_graph_with_sets to receive them).  ``#`` starts a comment.
    """
    graph, _ = parse_graph_with_sets(text)
    return graph


def parse_graph_with_sets(text: str) -> tuple[OpenGraph, dict[int, frozenset[int]] | None]:
    fields: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = lineno, value.strip()

    for required in ("vertices", "edges", "inputs", "outputs"):
        if required not in fields:
            raise ValueError(f"missing key {required!r}")

    def read(key: str, parse_token) -> list:
        """Parse each token of ``key``'s value; an error names the key and its line."""
        if key not in fields:
            return []
        lineno, value = fields[key]
        try:
            return [parse_token(tok) for tok in value.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None

    def edge(tok: str) -> tuple[int, int]:
        a, sep, b = tok.partition("-")
        if not sep:
            raise ValueError(f"bad edge {tok!r}")
        return int(a), int(b)

    def angle(tok: str) -> tuple[int, Angle]:
        v, sep, expr = tok.partition("=")
        if not sep:
            raise ValueError(f"bad angle assignment {tok!r}")
        return int(v), Angle.parse(expr)

    def correcting_set(tok: str) -> tuple[int, frozenset[int]]:
        v, sep, body = tok.partition("=")
        if not sep or not (body.startswith("{") and body.endswith("}")):
            raise ValueError(f"bad correcting set {tok!r}")
        return int(v), frozenset(int(x) for x in body[1:-1].split(",") if x)

    vertices = tuple(read("vertices", int))
    edges = set(read("edges", edge))
    inputs = frozenset(read("inputs", int))
    outputs = frozenset(read("outputs", int))
    angles = dict(read("angles", angle))
    sets = dict(read("correcting_sets", correcting_set)) if "correcting_sets" in fields else None

    graph = OpenGraph(vertices, frozenset(edges), inputs, outputs, angles)
    problems = validate(graph)
    if problems:
        raise ValueError("; ".join(problems))
    return graph, sets


def emit_graph(graph: OpenGraph, sets: dict[int, frozenset[int]] | None = None) -> str:
    lines = [
        "vertices: " + " ".join(str(v) for v in graph.vertices),
        "edges: " + " ".join(f"{a}-{b}" for a, b in sorted(graph.edges)),
        "inputs: " + " ".join(str(v) for v in sorted(graph.inputs)),
        "outputs: " + " ".join(str(v) for v in sorted(graph.outputs)),
    ]
    if graph.angles:
        lines.append(
            "angles: "
            + " ".join(f"{v}={graph.angles[v].text()}" for v in sorted(graph.angles))
        )
    if sets is not None:
        lines.append(
            "correcting_sets: "
            + " ".join(
                "{}={{{}}}".format(v, ",".join(str(m) for m in sorted(sets[v])))
                for v in sorted(sets)
            )
        )
    return "\n".join(lines) + "\n"
