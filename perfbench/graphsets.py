"""Inputs of the benchmark workloads, generated without the package under test.

Every graph is an open graph in the package's text format, produced here
from networkx's graph atlas or a closed-form lattice.  Which atlas graphs
admit a flow or a gflow is decided by this module's own search (the
Mhalla-Perdrix layer-by-layer algorithms, written over bitmasks), so a defect
in ``oneway.determinism`` shows as a failed compile instead of silently
shrinking the workload.
"""

from __future__ import annotations

import itertools
import math
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@dataclass(frozen=True)
class Spec:
    """One open graph: the text handed to the compiler plus what the reference needs."""

    gid: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    angles: dict[int, float]  # radians, one per measured vertex
    text: str
    must_compile: bool


def _exact_angles(vertices, outputs) -> dict[int, Fraction]:
    """Angles (2k+1)/8 pi over the measured vertices in ascending order."""
    measured = [v for v in vertices if v not in outputs]
    return {v: Fraction(2 * k + 1, 8) % 2 for k, v in enumerate(measured)}


def _spec(gid, vertices, edges, inputs, outputs, must_compile=True) -> Spec:
    vertices = tuple(sorted(vertices))
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    inputs, outputs = tuple(sorted(inputs)), tuple(sorted(outputs))
    exact = _exact_angles(vertices, outputs)
    text = (
        f"vertices: {' '.join(map(str, vertices))}\n"
        f"edges: {' '.join(f'{a}-{b}' for a, b in edges)}\n"
        f"inputs: {' '.join(map(str, inputs))}\n"
        f"outputs: {' '.join(map(str, outputs))}\n"
        f"angles: {' '.join(f'{v}={q.numerator}/{q.denominator}pi' for v, q in exact.items())}\n"
    )
    radians = {v: float(q) * math.pi for v, q in exact.items()}
    return Spec(gid, vertices, edges, inputs, outputs, radians, text, must_compile)


# --- determinism structure, decided independently --------------------------


def _masks(vertices, edges) -> dict[int, int]:
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    nbr = {v: 0 for v in vertices}
    for a, b in edges:
        nbr[a] |= bit[b]
        nbr[b] |= bit[a]
    return nbr


def has_flow(vertices, edges, inputs, outputs) -> bool:
    """Causal flow exists (maximally-delayed backward search)."""
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    nbr = _masks(vertices, edges)
    done = sum(bit[v] for v in outputs)
    correctors = set(outputs) - set(inputs)
    full = (1 << len(vertices)) - 1
    while done != full:
        solved, used = 0, set()
        for c in correctors:
            rest = nbr[c] & ~done
            if rest and rest & (rest - 1) == 0:
                solved |= rest
                used.add(c)
        if not solved:
            return False
        done |= solved
        newly = {v for v in vertices if bit[v] & solved}
        correctors = (correctors - used) | (newly - set(inputs))
    return True


def has_gflow(vertices, edges, inputs, outputs) -> bool:
    """Generalised flow exists (backward search, brute force over subsets)."""
    bit = {v: 1 << k for k, v in enumerate(vertices)}
    nbr = _masks(vertices, edges)
    done = sum(bit[v] for v in outputs)
    full = (1 << len(vertices)) - 1
    while done != full:
        pool = [v for v in vertices if bit[v] & done and v not in inputs]
        odds = set()
        for r in range(1, len(pool) + 1):
            for subset in itertools.combinations(pool, r):
                odd = 0
                for s in subset:
                    odd ^= nbr[s]
                odds.add(odd & ~done)
        solved = 0
        for v in vertices:
            if not bit[v] & done and bit[v] in odds:
                solved |= bit[v]
        if not solved:
            return False
        done |= solved
    return True


# --- graph families ----------------------------------------------------------


def _atlas(max_vertices: int):
    """Connected atlas graphs with 2..max_vertices vertices, labelled from 1."""
    for index, g in enumerate(nx.graph_atlas_g()):
        n = g.number_of_nodes()
        if n < 2 or n > max_vertices or not nx.is_connected(g):
            continue
        vertices = tuple(v + 1 for v in sorted(g.nodes))
        edges = tuple(sorted((min(a, b) + 1, max(a, b) + 1) for a, b in g.edges))
        yield index, vertices, edges


def cluster_strip(n: int) -> Spec:
    """2 x n strip: rows 1..n and n+1..2n, left column in, right column out."""
    edges = [(i, i + n) for i in range(1, n + 1)]
    for i in range(1, n):
        edges += [(i, i + 1), (i + n, i + n + 1)]
    return _spec(f"strip-{n}", range(1, 2 * n + 1), edges, {1, n + 1}, {n, 2 * n})


def lattice(rows: int, cols: int) -> Spec:
    """rows x cols cluster lattice, first column inputs, last column outputs."""
    vid = {(r, c): r * cols + c + 1 for r in range(rows) for c in range(cols)}
    edges = [(vid[r, c], vid[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(vid[r, c], vid[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
    inputs = {vid[r, 0] for r in range(rows)}
    outputs = {vid[r, cols - 1] for r in range(rows)}
    return _spec(f"lattice-{rows}x{cols}", vid.values(), edges, inputs, outputs)


def flow_atlas() -> list[Spec]:
    """Every flow-admitting connected open graph (no inputs) to 5 vertices over
    all output subsets, the first flow-admitting output subset of each 6- and
    7-vertex graph, and the 2 x n strips for n = 1..4."""
    specs = []
    for index, vertices, edges in _atlas(7):
        exhaustive = len(vertices) <= 5
        for r in range(1, len(vertices)):
            found = False
            for outs in itertools.combinations(vertices, r):
                if has_flow(vertices, edges, (), outs):
                    gid = f"atlas{index}-o{''.join(map(str, outs))}"
                    specs.append(_spec(gid, vertices, edges, (), outs))
                    found = True
                    if not exhaustive:
                        break
            if found and not exhaustive:
                break
    specs += [cluster_strip(n) for n in (1, 2, 3, 4)]
    return specs


def gflow_only(sizes: range) -> list[Spec]:
    """Connected open graphs (no inputs) with a vertex count in ``sizes``, over
    all output subsets, that admit a gflow but no flow.  Compiling may fail."""
    specs = []
    for index, vertices, edges in _atlas(max(sizes)):
        if len(vertices) not in sizes:
            continue
        for r in range(1, len(vertices)):
            for outs in itertools.combinations(vertices, r):
                if has_flow(vertices, edges, (), outs):
                    continue
                if has_gflow(vertices, edges, (), outs):
                    gid = f"atlas{index}-o{''.join(map(str, outs))}"
                    specs.append(_spec(gid, vertices, edges, (), outs, must_compile=False))
    return specs


def fixture(name: str) -> Spec:
    """A bundled fixture, parsed by this module so the reference stays independent."""
    text = (FIXTURES / f"{name}.graph").read_text()
    fields = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split(":", 1)
            fields[key.strip()] = value.split()
    angles = {}
    for token in fields.get("angles", []):
        v, expr = token.split("=")
        if expr.endswith("pi"):
            p, q = expr[:-2].split("/")
            angles[int(v)] = float(Fraction(int(p), int(q))) * math.pi
        else:
            angles[int(v)] = float(expr)
    return Spec(
        f"fixture-{name}",
        tuple(sorted(int(v) for v in fields["vertices"])),
        tuple(sorted(tuple(sorted(map(int, e.split("-")))) for e in fields["edges"])),
        tuple(sorted(int(v) for v in fields["inputs"])),
        tuple(sorted(int(v) for v in fields["outputs"])),
        angles,
        text,
        must_compile=True,
    )


# The gflow fixtures that compile from their supplied correcting sets.
GFLOW_FIXTURES = ("example1", "example2", "budget")
SIX_VERTEX_DRAW = 8


# Compiled as `oneway compile --no-verify`: the dense 14-wire cap cannot reach them.
UNVERIFIED = {"strip-scaling"}


def generate(name: str, seed: int) -> list[Spec]:
    """The workload's graphs in the seeded order they are compiled in."""
    rng = random.Random(seed)
    if name == "flow-atlas":
        specs = flow_atlas()
    elif name == "strip-scaling":
        specs = [cluster_strip(n) for n in (8, 16, 32, 64)]
    elif name in ("gflow-core", "gflow-search"):
        specs = gflow_only(range(2, 6)) + [fixture(f) for f in GFLOW_FIXTURES]
        if name == "gflow-search":
            specs += rng.sample(gflow_only(range(6, 7)), SIX_VERTEX_DRAW)
    elif name == "wide-verify":
        specs = [lattice(r, c) for r, c in ((7, 2), (6, 2), (5, 2), (4, 3), (3, 4), (2, 7))]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(specs)
    return specs
