"""Flow and generalised-flow search on open graphs.

A correction structure assigns each measured vertex i a correcting set g(i)
with i in Odd(g(i)) but not in g(i), no input in g(i), and every other
member of g(i) and of Odd(g(i)) measured strictly later (or an output): a
gflow.  ``CorrectionStructure`` checks this once, when it is made, and
derives its layers from longest paths in the induced precedence DAG, so
they are as coarse as the structure allows.  Flow is the special case
g(i) = {f(i)}: a single member, which i in Odd(g(i)) makes a neighbor.  That
case defines a structure's ``kind``, read off its sets whether a search
found them or a graph file supplied them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from heapq import heappop, heappush
from types import MappingProxyType

from .graphs import OpenGraph, odd_neighborhood

__all__ = [
    "CorrectionStructure",
    "find_flow",
    "find_gflow",
    "validate_gflow",
]


@dataclass(frozen=True)
class CorrectionStructure:
    """Correcting sets that form a gflow of ``graph``, and the layers they induce.

    The constructor keeps a read-only copy of the sets, each a frozenset,
    and derives ``layers``.  Sets that do not form a gflow raise one
    ValueError that joins every problem by "; ", in the words
    ``validate_gflow`` returns them.
    """

    graph: OpenGraph
    correcting_sets: Mapping[int, frozenset[int]]
    layers: tuple[frozenset[int], ...] = field(init=False)

    def __post_init__(self) -> None:
        sets = {i: frozenset(g) if isinstance(g, (set, frozenset)) else g for i, g in self.correcting_sets.items()}
        problems = _set_problems(self.graph, sets)
        layers = None if problems else _layering(self.graph, sets)
        if layers is None:
            raise ValueError("; ".join(problems or ["correcting sets induce a cyclic measurement order"]))
        object.__setattr__(self, "correcting_sets", MappingProxyType(sets))
        object.__setattr__(self, "layers", layers)

    def __hash__(self) -> int:
        # by value, as OpenGraph hashes; the layers follow from the sets
        return hash((self.graph, frozenset(self.correcting_sets.items())))

    def __reduce__(self):
        # Rebuild through the constructor, so a loaded structure is checked again.
        return (CorrectionStructure, (self.graph, dict(self.correcting_sets)))

    @property
    def kind(self) -> str:
        """Flow when every correcting set is a single vertex, g(i) = {f(i)}; else gflow."""
        return "flow" if all(len(gset) == 1 for gset in self.correcting_sets.values()) else "gflow"


def _layering(graph: OpenGraph, sets: dict[int, frozenset[int]]) -> tuple[frozenset[int], ...] | None:
    """Longest-path layering of the precedence DAG; None if it has a cycle.

    i must precede every measured vertex in (g(i) | Odd(g(i))) \\ {i}.
    """
    measured = graph.measured
    succ: dict[int, set[int]] = {}
    for i, gset in sets.items():  # the sets cover exactly the measured vertices
        later = set(odd_neighborhood(graph, gset))  # the one set built per vertex
        later |= gset
        later &= measured
        later.discard(i)
        succ[i] = later

    # Sinks first: a vertex is released once all its successors are, its
    # depth then final, and raises each predecessor's to at least one more.
    # A vertex never released lies on, or leads into, a cycle.
    pred: dict[int, list[int]] = {v: [] for v in succ}
    for v, later in succ.items():
        for w in later:
            pred[w].append(v)
    waiting = {v: len(later) for v, later in succ.items()}
    ready = [v for v, n in waiting.items() if not n]
    depth = dict.fromkeys(succ, 0)
    released = 0
    while ready:
        w = ready.pop()
        released += 1
        d = depth[w] + 1
        for v in pred[w]:
            if depth[v] < d:
                depth[v] = d
            waiting[v] -= 1
            if not waiting[v]:
                ready.append(v)
    if released != len(succ):
        return None

    if not measured:
        return ()
    top = max(depth.values())
    layers = [set() for _ in range(top + 1)]
    for v, d in depth.items():
        layers[top - d].add(v)  # deepest suffix measured last
    return tuple(frozenset(layer) for layer in layers)


def _require_graph(graph: OpenGraph, structure: CorrectionStructure) -> None:
    """ValueError unless ``structure`` was made for ``graph``."""
    if structure.graph != graph:
        raise ValueError("structure invalid for graph: it was made for another graph")


def find_flow(graph: OpenGraph) -> CorrectionStructure | None:
    """Greedy maximally-delayed search for a causal flow.

    Works backwards from the outputs in rounds: a vertex i can be corrected
    through a neighbor j when j is not an input, j is not yet claimed, and i
    is the one neighbor of j still pending (every other is safely late).
    Each round takes such correctors lowest first, as a sorted scan of every
    vertex settled before the round would, and so returns that scan's flow.
    It scans only the frontier's ready vertices, which a count of each
    vertex's pending neighbors names: a vertex that becomes ready mid-round
    joins the round if that scan would still reach it (it lies above the
    corrector just taken and was settled before the round), else the next.
    Each vertex is scanned at most once, so the search costs O(m + n log n),
    after de Beaudrap (quant-ph/0611284).
    """
    nbrs, inputs = graph.neighbors, graph.inputs
    pending = set(graph.measured)
    waiting = {v: len(nbrs[v] & pending) for v in graph.vertices}  # pending neighbors
    ready = [j for j in graph.outputs if waiting[j] == 1 and j not in inputs]
    f: dict[int, int] = {}

    while pending:
        heap, ready, fresh = sorted(ready), [], set()  # fresh: settled this round
        progress = False
        while heap:
            j = heappop(heap)
            if waiting[j] != 1:  # a lower corrector took its pending neighbor
                continue
            (i,) = nbrs[j] & pending
            f[i] = j
            pending.discard(i)
            fresh.add(i)
            progress = True
            for v in nbrs[i]:
                waiting[v] -= 1
                if waiting[v] == 1 and v not in pending and v not in inputs:
                    if v > j and v not in fresh:
                        heappush(heap, v)
                    else:
                        ready.append(v)
            if waiting[i] == 1 and i not in inputs:
                ready.append(i)
        if not progress:
            return None

    return CorrectionStructure(graph, {i: frozenset({j}) for i, j in f.items()})


def _set_problems(graph: OpenGraph, sets: dict[int, frozenset[int]]) -> list[str]:
    """What is wrong with each correcting set on its own; empty when nothing is."""
    problems: list[str] = []
    measured = graph.measured
    vs = set(graph.vertices)
    if set(sets) != set(measured):
        # ints ascending, then any other key by its repr, since those may not sort with ints
        got = sorted(sets, key=lambda k: (not isinstance(k, int), k if isinstance(k, int) else repr(k)))
        problems.append(
            f"correcting sets must cover exactly the measured vertices "
            f"{sorted(measured)}, got {got}"
        )
        return problems
    for i, gset in sorted(sets.items()):
        if not isinstance(gset, frozenset):  # the constructor made every set one
            problems.append(f"g({i}) is a {type(gset).__name__}, not a set")
            continue
        if not gset:
            problems.append(f"g({i}) is empty")
            continue
        if not gset <= vs:
            problems.append(f"g({i}) contains unknown vertices")
            continue
        if gset & graph.inputs:
            problems.append(f"g({i}) touches input vertices {sorted(gset & graph.inputs)}")
        if i in gset:
            problems.append(f"g({i}) contains its own vertex")
        if i not in odd_neighborhood(graph, gset):
            problems.append(f"vertex {i} is not in the odd neighborhood of g({i})")
    return problems


def validate_gflow(
    graph: OpenGraph, sets: Mapping[int, frozenset[int]]
) -> CorrectionStructure | list[str]:
    """Check user-supplied correcting sets; structure on success, problems on failure."""
    try:
        return CorrectionStructure(graph, sets)
    except ValueError as exc:
        return str(exc).split("; ")  # no problem's own text holds "; "


def find_gflow(graph: OpenGraph) -> CorrectionStructure | None:
    """Backward Gaussian-elimination search for a gflow.

    At each sweep the open set is everything already safe (outputs plus
    later-corrected vertices); for each remaining i we solve, over GF(2),
    for S inside the open non-input region with Odd(S) hitting the closed
    region exactly in {i}.  Bitmask linear algebra keeps this cheap.
    """
    measured = set(graph.measured)
    done: set[int] = set(graph.outputs)
    pending = set(measured)
    sets: dict[int, frozenset[int]] = {}

    while pending:
        candidates = sorted(done - graph.inputs)
        solved_any = False
        for i in sorted(pending):
            gset = _solve_correcting_set(graph, i, candidates, pending)
            if gset is not None:
                sets[i] = gset
                solved_any = True
        if not solved_any:
            return None
        for i in list(pending):
            if i in sets:
                pending.discard(i)
                done.add(i)

    return CorrectionStructure(graph, sets)


def _solve_correcting_set(
    graph: OpenGraph, i: int, candidates: list[int], pending: set[int]
) -> frozenset[int] | None:
    """Solve Odd(S) & closed == {i} for S a subset of ``candidates``.

    ``pending`` (including i) plus i's own row form the closed region the odd
    neighborhood must avoid, except that it must contain i itself.

    Only the non-zero part of that system is built: a column for each
    candidate with a pending neighbour, ascending, and a row for i and for
    each pending vertex those candidates touch.  A zero column never becomes
    a pivot, so its free variable stays 0, and a zero row other than i's is
    never touched.  The rows come in the order they are met; that does not
    matter, since the pivot columns are those independent of the columns
    before them and the solution whose free variables are 0 is unique.  So
    the solution is the whole system's.
    """
    kept = [cand for cand in candidates if not graph.neighbors[cand].isdisjoint(pending)]
    row_of = {i: 0}
    matrix = [0]  # matrix[r] is a bitmask over the kept candidates
    for c, cand in enumerate(kept):
        for n in graph.neighbors[cand]:
            if n in pending:
                if n not in row_of:
                    row_of[n] = len(matrix)
                    matrix.append(0)
                matrix[row_of[n]] |= 1 << c
    nrows, ncols = len(matrix), len(kept)
    rhs = [1] + [0] * (nrows - 1)  # i's row asks for odd parity

    # Gaussian elimination, ascending column order so free variables default
    # to zero and solutions stay small.
    pivot_row_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        sel = None
        for rr in range(r, nrows):
            if matrix[rr] >> c & 1:
                sel = rr
                break
        if sel is None:
            continue
        matrix[r], matrix[sel] = matrix[sel], matrix[r]
        rhs[r], rhs[sel] = rhs[sel], rhs[r]
        for rr in range(nrows):
            if rr != r and matrix[rr] >> c & 1:
                matrix[rr] ^= matrix[r]
                rhs[rr] ^= rhs[r]
        pivot_row_of_col[c] = r
        r += 1

    for rr in range(nrows):
        if matrix[rr] == 0 and rhs[rr]:
            return None

    # the system is consistent, so this solution meets i's row of parity 1
    # and has a member
    gset = frozenset(kept[c] for c, rr in pivot_row_of_col.items() if rhs[rr])
    assert i in odd_neighborhood(graph, gset)
    return gset
