"""Open graphs: a simple graph plus input/output designations and angles.

Vertices are small non-negative integers.  Edges are stored as sorted pairs.
Every non-output vertex carries a measurement angle; outputs never do.
Construction normalises, then refuses a graph that breaks any of these
rules with ValueError, so every OpenGraph that exists is well-formed.  It
keeps a read-only copy of the angles, so the caller's dict cannot undo that.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

from .angles import Angle

__all__ = [
    "OpenGraph",
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
    angles: Mapping[int, Angle] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        object.__setattr__(
            self,
            "edges",
            frozenset((min(a, b), max(a, b)) for a, b in self.edges),
        )
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        object.__setattr__(self, "angles", MappingProxyType(dict(self.angles)))
        problems: list[str] = []
        vs = set(self.vertices)
        if any(v < 0 for v in vs):
            problems.append("vertex ids must be non-negative integers")
        for a, b in sorted(self.edges):
            if a == b:
                problems.append(f"self-loop on {a}")
            elif a not in vs or b not in vs:
                problems.append(f"edge {a}-{b} uses unknown vertex")
        if not self.inputs <= vs:
            problems.append("inputs must be vertices")
        if not self.outputs <= vs:
            problems.append("outputs must be vertices")
        missing = self.measured - set(self.angles)
        if missing:
            problems.append(f"missing angles for measured vertices {sorted(missing)}")
        extra = set(self.angles) - self.measured
        if extra:
            problems.append(f"angles given for unmeasured vertices {sorted(extra)}")
        if problems:
            raise ValueError("; ".join(problems))

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges, self.inputs, self.outputs, frozenset(self.angles.items())))

    def __reduce__(self):
        # Rebuild through the constructor, so a loaded graph is checked
        # again and the cached neighbors and measured do not travel.
        return (OpenGraph, (self.vertices, self.edges, self.inputs, self.outputs, dict(self.angles)))

    @cached_property
    def neighbors(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def measured(self) -> frozenset[int]:
        return frozenset(self.vertices) - self.outputs


def odd_neighborhood(graph: OpenGraph, subset: frozenset[int] | set[int]) -> frozenset[int]:
    """Vertices adjacent to an odd number of members of ``subset``.

    Linear over symmetric difference: Odd(S ^ T) == Odd(S) ^ Odd(T); equals
    the Z-support of the product of the members' stabilizers.
    """
    if len(subset) == 1:  # Odd({s}) == N(s); an unknown s falls through to the error
        (s,) = subset
        if s in graph.neighbors:
            return graph.neighbors[s]
    counts: dict[int, int] = {}
    for s in subset:
        if s not in graph.neighbors:
            raise ValueError(f"vertex {s} not in graph")
        for n in graph.neighbors[s]:
            counts[n] = counts.get(n, 0) + 1
    return frozenset(v for v, c in counts.items() if c % 2 == 1)


def parse_graph(text: str) -> OpenGraph:
    """Read the key/value graph format; an invalid graph is refused as OpenGraph refuses it.

    Keys: vertices, edges (``a-b`` pairs), inputs, outputs,
    angles (``v=expr`` pairs), correcting_sets (``v={a,b}`` pairs, optional;
    use parse_graph_with_sets to receive them); any other key is refused.
    ``#`` starts a comment.
    """
    graph, _ = parse_graph_with_sets(text)
    return graph


_KEYS = ("vertices", "edges", "inputs", "outputs", "angles", "correcting_sets")


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
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
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

    def distinct(key: str, parse_token, named=lambda x: f"vertex {x}", ident=None) -> list:
        """``key``'s parsed tokens; the first whose ``ident`` (by default the
        token itself) repeats an earlier one's is refused, ``named`` as the
        error names it."""
        out = read(key, parse_token)
        idents = out if ident is None else list(map(ident, out))
        if len(set(idents)) < len(idents):  # then find the first repeat
            earlier: set = set()
            for x, k in zip(out, idents):
                if k in earlier:
                    raise ValueError(f"line {fields[key][0]}: {key}: duplicate {named(x)}")
                earlier.add(k)
        return out

    def assigned(key: str, parse_token) -> dict:
        """``key``'s ``v=...`` tokens by vertex; a vertex given twice is refused."""
        return dict(distinct(key, parse_token, lambda a: f"vertex {a[0]}", itemgetter(0)))

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
        members: set[int] = set()
        for m in map(int, filter(None, body[1:-1].split(","))):
            if m in members:
                raise ValueError(f"duplicate vertex {m} in correcting set {tok!r}")
            members.add(m)
        return int(v), frozenset(members)

    vertices = tuple(distinct("vertices", int))
    # an edge is listed once, in either orientation
    edges = distinct("edges", edge, lambda e: f"edge {e[0]}-{e[1]}", frozenset)
    inputs = frozenset(distinct("inputs", int))
    outputs = frozenset(distinct("outputs", int))
    angles = assigned("angles", angle)
    sets = assigned("correcting_sets", correcting_set) if "correcting_sets" in fields else None

    return OpenGraph(vertices, frozenset(edges), inputs, outputs, angles), sets


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
