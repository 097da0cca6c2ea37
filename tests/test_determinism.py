"""Correction-structure search, checked against a brute-force enumerator.

The enumerator below re-derives flow existence from the definition alone:
try every assignment of a correcting neighbor to every measured vertex and
look for an acyclic precedence relation.  It shares no code with the search
under test, so agreement over all small graphs is meaningful evidence.
"""

import dataclasses
import itertools
import pickle
import re

import networkx as nx
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oneway.determinism
from oneway import (
    Angle,
    CompileError,
    CorrectionStructure,
    OpenGraph,
    build_extended,
    compile_pattern,
    find_flow,
    find_gflow,
    odd_neighborhood,
    run_pattern,
    validate_gflow,
)
from conftest import cluster_strip, load_fixture


def brute_force_has_flow(graph: OpenGraph) -> bool:
    measured = sorted(graph.measured)
    if not measured:
        return True
    pools = []
    for i in measured:
        pool = [j for j in sorted(graph.neighbors[i]) if j not in graph.inputs]
        if not pool:
            return False
        pools.append(pool)
    for choice in itertools.product(*pools):
        if len(set(choice)) != len(choice):
            continue  # two vertices cannot share a corrector
        f = dict(zip(measured, choice))
        dag = nx.DiGraph()
        dag.add_nodes_from(measured)
        for i, j in f.items():
            later = ({j} | set(graph.neighbors[j])) - {i}
            for k in later & set(measured):
                dag.add_edge(i, k)
        if nx.is_directed_acyclic_graph(dag):
            return True
    return False


def all_small_open_graphs(max_vertices=5):
    for atlas in nx.graph_atlas_g():
        n = atlas.number_of_nodes()
        if n < 2 or n > max_vertices or not nx.is_connected(atlas):
            continue
        relabeled = nx.relabel_nodes(atlas, {v: v + 1 for v in atlas.nodes})
        vertices = tuple(sorted(relabeled.nodes))
        edges = tuple(tuple(sorted(e)) for e in relabeled.edges)
        for r in range(1, n):
            for outs in itertools.combinations(vertices, r):
                angles = {
                    v: Angle.exact(2 * k + 1, 8)
                    for k, v in enumerate(v for v in vertices if v not in outs)
                }
                yield OpenGraph(vertices, frozenset(edges), frozenset(), frozenset(outs), angles)


def atlas_with_inputs():
    """Every connected graph of 2 to 5 vertices, every output subset short of
    all vertices and every non-empty input subset."""
    for graph in all_small_open_graphs():
        for r in range(1, len(graph.vertices) + 1):
            for ins in itertools.combinations(graph.vertices, r):
                yield OpenGraph(graph.vertices, graph.edges, frozenset(ins), graph.outputs, graph.angles)


def test_find_flow_agrees_with_brute_force_everywhere():
    checked = 0
    for graph in all_small_open_graphs():
        expected = brute_force_has_flow(graph)
        got = find_flow(graph) is not None
        assert got == expected, (graph.edges, sorted(graph.outputs))
        checked += 1
    assert checked > 500


def test_flow_on_path():
    g = OpenGraph(
        vertices=(1, 2, 3),
        edges=((1, 2), (2, 3)),
        inputs=(1,),
        outputs=(3,),
        angles={1: Angle.exact(1, 4), 2: Angle.exact(1, 2)},
    )
    s = find_flow(g)
    assert s is not None and s.kind == "flow"
    assert s.correcting_sets == {1: frozenset({2}), 2: frozenset({3})}
    assert s.layers == ((1,), (2,)) and s.order == (1, 2)
    assert {v: d for d, layer in enumerate(s.layers) for v in layer}[2] == 1


def triangle():
    return OpenGraph(
        vertices=(1, 2, 3),
        edges=((1, 2), (2, 3), (1, 3)),
        inputs=(),
        outputs=(1,),
        angles={2: Angle.exact(1, 4), 3: Angle.exact(1, 2)},
    )


def test_triangle_with_one_output_has_no_structure_at_all():
    # every corrector assignment forces 2 before 3 and 3 before 2
    assert find_flow(triangle()) is None
    assert find_gflow(triangle()) is None


def test_fixture_correcting_sets_validate(example1, example2):
    for graph, sets in (example1, example2):
        structure = validate_gflow(graph, sets)
        assert not isinstance(structure, list), structure
        assert structure.kind == "gflow"
        assert structure.correcting_sets == sets


def test_kind_is_read_off_the_correcting_sets(path3, example1, example2):
    assert [f.name for f in dataclasses.fields(CorrectionStructure)] == ["graph", "correcting_sets", "layers"]
    assert find_flow(path3).kind == "flow"
    for graph, sets in (example1, example2, load_fixture("budget")):
        assert validate_gflow(graph, sets).kind == "gflow"
    # the same single-vertex sets, supplied rather than found
    supplied = validate_gflow(path3, {1: frozenset({2}), 2: frozenset({3})})
    assert supplied == find_flow(path3)
    assert supplied.kind == "flow"
    # with nothing measured every set is trivially a single vertex
    bare = OpenGraph((1, 2), frozenset({(1, 2)}), frozenset({1}), frozenset({1, 2}), {})
    assert find_flow(bare) == validate_gflow(bare, {}) == CorrectionStructure(bare, {})
    assert CorrectionStructure(bare, {}).kind == "flow" and CorrectionStructure(bare, {}).layers == ()


def test_example2_needs_gflow(example2):
    graph, _ = example2
    assert find_flow(graph) is None
    found = find_gflow(graph)
    assert found is not None


def test_validate_gflow_rejects_cyclic_order(example1):
    graph, _ = example1
    problems = validate_gflow(graph, {1: frozenset({2}), 3: frozenset({4})})
    assert problems == ["correcting sets induce a cyclic measurement order"]


# Each case's sets on example1 (inputs 1 and 3, both measured; outputs 2, 4
# and 5), and the problems validate_gflow words for them.
REFUSED = {
    "not covering the measured vertices": (
        {1: {2}},
        ["correcting sets must cover exactly the measured vertices [1, 3], got [1]"],
    ),
    "an empty set": ({1: set(), 3: {4, 5}}, ["g(1) is empty"]),
    "an unknown member": ({1: {99}, 3: {4, 5}}, ["g(1) contains unknown vertices"]),
    "an input member": (
        {1: {3}, 3: {4, 5}},
        ["g(1) touches input vertices [3]", "vertex 1 is not in the odd neighborhood of g(1)"],
    ),
    "its own vertex": (
        {1: {1, 2}, 3: {4, 5}},
        ["g(1) touches input vertices [1]", "g(1) contains its own vertex"],
    ),
    "i outside Odd(g(i))": ({1: {2, 5}, 3: {4, 5}}, ["vertex 1 is not in the odd neighborhood of g(1)"]),
    "a cyclic order": ({1: {2}, 3: {4}}, ["correcting sets induce a cyclic measurement order"]),
    "list-valued members": ({1: [2], 3: [4, 5]}, ["g(1) is a list, not a set", "g(3) is a list, not a set"]),
}


def test_a_key_that_does_not_sort_with_ints_is_reported(example1):
    graph, _ = example1
    assert validate_gflow(graph, {1: {2}, "a": {3}}) == [
        "correcting sets must cover exactly the measured vertices [1, 3], got [1, 'a']"
    ]


def test_a_problem_whose_text_holds_the_separator_stays_one_problem(example1):
    graph, _ = example1
    problem = "correcting sets must cover exactly the measured vertices [1, 3], got [1, 'x; y']"
    assert validate_gflow(graph, {1: {2}, "x; y": {3}}) == [problem]
    with pytest.raises(ValueError, match="^" + re.escape(problem) + "$"):
        CorrectionStructure(graph, {1: {2}, "x; y": {3}})


def test_equal_structures_hash_equal_and_key_a_dict(example1):
    graph, sets = example1
    structure = validate_gflow(graph, sets)
    twin = CorrectionStructure(graph, {i: set(gset) for i, gset in sets.items()})
    assert twin == structure and hash(twin) == hash(structure)
    assert hash(pickle.loads(pickle.dumps(structure))) == hash(structure)
    other = CorrectionStructure(graph, {**sets, 3: frozenset({2, 5})})
    assert other != structure
    keyed = {structure: "supplied", other: "other"}
    assert keyed[twin] == "supplied" and len(keyed) == 2


def test_validate_gflow_failure_modes(example1):
    graph, _ = example1
    for case, (sets, problems) in REFUSED.items():
        assert validate_gflow(graph, sets) == problems, case
        # the constructor refuses the sets in the same words, and so does a compile
        with pytest.raises(ValueError, match="^" + re.escape("; ".join(problems)) + "$"):
            CorrectionStructure(graph, sets)
        with pytest.raises(CompileError, match=re.escape("supplied correcting sets invalid: " + "; ".join(problems))):
            compile_pattern(graph, sets)


def test_a_structure_keeps_its_own_copy_and_loads_through_the_constructor(example1):
    graph, good = example1
    sets = {i: set(gset) for i, gset in good.items()}
    structure = CorrectionStructure(graph, sets)
    extended = build_extended(graph, structure)
    sets[1].add(99)
    del sets[3]
    assert structure.correcting_sets == good
    assert all(type(gset) is frozenset for gset in structure.correcting_sets.values())
    with pytest.raises(TypeError):
        structure.correcting_sets[1] = frozenset({1})
    assert build_extended(graph, structure) == extended

    payload = pickle.dumps(structure, protocol=4)
    loaded = pickle.loads(payload)
    assert loaded == structure
    assert loaded.layers == structure.layers == ((1,), (3,)) and loaded.order == structure.order == (1, 3)
    g3 = b"K\x03(K\x04K\x05\x91"  # g(3) = {4, 5}, tampered to {2}
    assert payload.count(g3) == 1
    with pytest.raises(ValueError, match="^correcting sets induce a cyclic measurement order$"):
        pickle.loads(payload.replace(g3, b"K\x03(K\x02K\x02\x91"))


def measured_in_order(graph, structure):
    """The gflow definition's order condition, read directly off the layers:
    i lies before every measured vertex of g(i) and of Odd(g(i)) but i."""
    depth = {v: d for d, layer in enumerate(structure.layers) for v in layer}
    for i, gset in structure.correcting_sets.items():
        odd = {v for v in graph.vertices if len(graph.neighbors[v] & gset) % 2}
        if any(depth[k] <= depth[i] for k in (gset | odd) - {i} if k in depth):
            return False
    return True


def is_gflow(graph, sets):
    """The gflow definition, stated directly: one set of vertices per
    measured vertex i, holding no input and not i, with i in its odd
    neighbourhood, and some order that measures i before every other
    measured member of g(i) and of Odd(g(i))."""
    if set(sets) != graph.measured:
        return False
    order = nx.DiGraph()
    order.add_nodes_from(graph.measured)
    for i, gset in sets.items():
        if not isinstance(gset, (set, frozenset)) or not gset <= set(graph.vertices):
            return False
        odd = {v for v in graph.vertices if len(graph.neighbors[v] & gset) % 2}
        if i in gset or gset & graph.inputs or i not in odd:
            return False
        order.add_edges_from((i, k) for k in (gset | odd) - {i} if k in graph.measured)
    return nx.is_directed_acyclic_graph(order)


@seed(27)
@settings(deadline=None, max_examples=200)
@given(st.integers(2, 6), st.floats(0.2, 0.8), st.randoms(use_true_random=False))
def test_validate_gflow_accepts_exactly_the_gflows(n, density, rng):
    vertices = tuple(range(1, n + 1))
    edges = [pair for pair in itertools.combinations(vertices, 2) if rng.random() < density]
    outs = rng.sample(vertices, rng.randint(1, n - 1))
    ins = rng.sample(vertices, rng.randint(0, 2))
    angles = {v: Angle.exact(1, 4) for v in vertices if v not in outs}
    graph = OpenGraph(vertices, frozenset(edges), frozenset(ins), frozenset(outs), angles)
    measured = sorted(graph.measured)
    candidates = [
        {i: frozenset(rng.sample(vertices, rng.randint(0, 2))) for i in measured} for _ in range(6)
    ]
    # sets that pass every condition but the order, which alone then decides
    local = {
        i: [
            frozenset(c)
            for r in range(1, n)
            for c in itertools.combinations(sorted(set(vertices) - graph.inputs - {i}), r)
            if i in odd_neighborhood(graph, frozenset(c))
        ]
        for i in measured
    }
    if all(local.values()):
        candidates += [{i: rng.choice(local[i]) for i in measured} for _ in range(3)]
    found = find_gflow(graph)
    if found is not None:
        candidates.append(found.correcting_sets)
        if measured:  # one member toggled in one set: a near miss, or another gflow
            i = rng.choice(measured)
            candidates.append({**found.correcting_sets, i: found.correcting_sets[i] ^ {rng.choice(vertices)}})
    for sets in candidates:
        result = validate_gflow(graph, sets)
        assert isinstance(result, CorrectionStructure) == is_gflow(graph, sets), (graph, sets, result)
        if isinstance(result, list):
            continue
        assert sorted(v for layer in result.layers for v in layer) == measured
        assert measured_in_order(graph, result)
        build_extended(graph, result)
        outcomes = {i: rng.randint(0, 1) for i in measured}
        run_pattern(graph, result, [1.0] + [0.0] * (2 ** len(graph.inputs) - 1), outcomes)


def test_layers_respect_the_definition():
    for graph in itertools.islice(all_small_open_graphs(), 0, None, 7):
        structure = find_gflow(graph)
        if structure is None:
            continue
        assert frozenset(v for layer in structure.layers for v in layer) == graph.measured
        depth = {v: d for d, layer in enumerate(structure.layers) for v in layer}
        for i, gset in structure.correcting_sets.items():
            later = (gset | odd_neighborhood(graph, gset)) - {i}
            for v in later & graph.measured:
                assert depth[v] > depth[i]


def test_layering_a_long_chain_does_not_recurse():
    n = 3000
    graph = OpenGraph(
        tuple(range(1, n + 1)),
        frozenset((i, i + 1) for i in range(1, n)),
        frozenset({1}),
        frozenset({n}),
        {i: Angle.exact(1, 4) for i in range(1, n)},
    )
    structure = validate_gflow(graph, {i: frozenset({i + 1}) for i in range(1, n)})
    assert structure.layers == tuple((i,) for i in range(1, n))


def test_flow_implies_gflow():
    flows = gflows = 0
    for graph in all_small_open_graphs(max_vertices=5):
        if find_flow(graph) is not None:
            flows += 1
            assert find_gflow(graph) is not None
        if find_gflow(graph) is not None:
            gflows += 1
    assert 0 < flows < gflows  # gflow is strictly more permissive


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_found_gflow_always_validates(data):
    n = data.draw(st.integers(3, 6))
    vertices = tuple(range(1, n + 1))
    pairs = list(itertools.combinations(vertices, 2))
    edges = data.draw(st.sets(st.sampled_from(pairs), min_size=n - 1, max_size=len(pairs)))
    outs = data.draw(st.sets(st.sampled_from(vertices), min_size=1, max_size=n - 1))
    angles = {v: Angle.exact(1, 4) for v in vertices if v not in outs}
    graph = OpenGraph(vertices, frozenset(edges), frozenset(), frozenset(outs), angles)
    structure = find_gflow(graph)
    if structure is None:
        return
    checked = validate_gflow(graph, structure.correcting_sets)
    assert not isinstance(checked, list), checked
    assert checked.layers == structure.layers


# The correcting-set solver as it was before each solve was cut down to its
# non-zero part: every candidate is a column and every pending vertex a row.
def full_system_correcting_set(graph, i, candidates, pending):
    if not candidates:
        return None
    rows = sorted(pending)
    row_index = {v: k for k, v in enumerate(rows)}
    matrix = [0] * len(rows)
    for c, cand in enumerate(candidates):
        for n in graph.neighbors[cand]:
            r = row_index.get(n)
            if r is not None:
                matrix[r] |= 1 << c
    rhs = [1 if v == i else 0 for v in rows]
    pivot_row_of_col = {}
    r = 0
    for c in range(len(candidates)):
        sel = next((rr for rr in range(r, len(rows)) if matrix[rr] >> c & 1), None)
        if sel is None:
            continue
        matrix[r], matrix[sel] = matrix[sel], matrix[r]
        rhs[r], rhs[sel] = rhs[sel], rhs[r]
        for rr in range(len(rows)):
            if rr != r and matrix[rr] >> c & 1:
                matrix[rr] ^= matrix[r]
                rhs[rr] ^= rhs[r]
        pivot_row_of_col[c] = r
        r += 1
    if any(matrix[rr] == 0 and rhs[rr] for rr in range(len(rows))):
        return None
    gset = frozenset(candidates[c] for c, rr in pivot_row_of_col.items() if rhs[rr])
    return gset or None


def full_system_gflow(graph):
    """``find_gflow``'s sweeps over ``full_system_correcting_set``."""
    done, pending, sets = set(graph.outputs), set(graph.measured), {}
    while pending:
        candidates = sorted(done - graph.inputs)
        solved = {}
        for i in sorted(pending):
            gset = full_system_correcting_set(graph, i, candidates, pending)
            if gset is not None:
                solved[i] = gset
        if not solved:
            return None
        sets.update(solved)
        pending -= set(solved)
        done |= set(solved)
    return CorrectionStructure(graph, sets)


def test_find_gflow_equals_the_full_system_solver_on_the_atlas():
    checked = found = 0
    for graph in all_small_open_graphs(max_vertices=6):
        structure = find_gflow(graph)
        assert structure == full_system_gflow(graph), (sorted(graph.edges), sorted(graph.outputs))
        checked += 1
        found += structure is not None
    assert checked > 5000 and 0 < found < checked


@seed(20_000)
@settings(deadline=None, max_examples=200)
@given(st.integers(3, 12), st.floats(0.2, 0.8), st.randoms(use_true_random=False))
def test_find_gflow_equals_the_full_system_solver_on_random_open_graphs(n, density, rng):
    vertices = tuple(range(1, n + 1))
    edges = [pair for pair in itertools.combinations(vertices, 2) if rng.random() < density]
    outs = rng.sample(vertices, rng.randint(1, n - 1))
    ins = rng.sample(vertices, rng.randint(0, 2))
    angles = {v: Angle.exact(1, 4) for v in vertices if v not in outs}
    graph = OpenGraph(vertices, frozenset(edges), frozenset(ins), frozenset(outs), angles)
    assert find_gflow(graph) == full_system_gflow(graph)


# find_flow as it was before it kept a count of pending neighbours: each round
# sorts every safely late, unclaimed non-input vertex and scans them all.
def full_scan_flow(graph):
    """The structure it finds, or None, and the number of correctors scanned."""
    done, claimed, f, scanned = set(graph.outputs), set(), {}, 0
    pending = set(graph.measured)
    while pending:
        progress = False
        scan = sorted(done - graph.inputs - claimed)
        scanned += len(scan)
        for j in scan:
            candidates = [i for i in graph.neighbors[j] if i in pending and graph.neighbors[j] - {i} <= done]
            if len(candidates) != 1:
                continue
            i = candidates[0]
            f[i] = j
            claimed.add(j)
            done.add(i)
            pending.discard(i)
            progress = True
        if not progress:
            return None, scanned
    return CorrectionStructure(graph, {i: frozenset({j}) for i, j in f.items()}), scanned


def assert_same_flow(graph):
    """find_flow's result is the full scan's, sets and layers; returns it."""
    found, (expected, _) = find_flow(graph), full_scan_flow(graph)
    assert found == expected, (sorted(graph.edges), sorted(graph.inputs), sorted(graph.outputs))
    assert found is None or found.layers == expected.layers
    return found


def test_find_flow_equals_the_full_scan_on_the_atlas():
    results = [assert_same_flow(graph) for graph in all_small_open_graphs(max_vertices=6)]
    found = sum(r is not None for r in results)
    assert len(results) > 7000 and 0 < found < len(results)


def test_find_flow_equals_the_full_scan_on_the_atlas_with_inputs():
    assert sum(assert_same_flow(graph) is not None for graph in atlas_with_inputs()) == 5377


@seed(28)
@settings(deadline=None, max_examples=300)
@given(st.integers(2, 16), st.floats(0.05, 0.6), st.randoms(use_true_random=False))
def test_find_flow_equals_the_full_scan_on_random_open_graphs(n, density, rng):
    vertices = tuple(range(1, n + 1))
    edges = [pair for pair in itertools.combinations(vertices, 2) if rng.random() < density]
    outs = rng.sample(vertices, rng.randint(1, n - 1))
    ins = rng.sample(vertices, rng.randint(1, min(n, 4)))
    angles = {v: Angle.exact(1, 4) for v in vertices if v not in outs}
    assert_same_flow(OpenGraph(vertices, frozenset(edges), frozenset(ins), frozenset(outs), angles))


def triangle_strip(n: int) -> OpenGraph:
    """A path 1..n, input 1 and output n, with an output n + k over each edge
    k-(k + 1).  Each such output stays safely late and unclaimed from the
    start, so a full scan sorts more of them every round."""
    over = {(k, n + k) for k in range(1, n)} | {(k + 1, n + k) for k in range(1, n)}
    outputs = frozenset({n, *range(n + 1, 2 * n)})
    angles = {v: Angle.exact(1, 4) for v in range(1, n)}
    return OpenGraph(range(1, 2 * n), frozenset({(k, k + 1) for k in range(1, n)} | over), {1}, outputs, angles)


@pytest.mark.parametrize("family", [cluster_strip, triangle_strip])
def test_find_flow_scans_each_vertex_at_most_once(monkeypatch, family):
    """A deterministic work count, not a timing: every corrector find_flow
    scans leaves its heap once, so the count grows linearly with the graph.
    On the triangle strips the full scan's count grows quadratically."""
    popped = []
    heappop = oneway.determinism.heappop
    monkeypatch.setattr(oneway.determinism, "heappop", lambda heap: popped.append(1) or heappop(heap))
    for n in (64, 128, 256, 512, 1024):
        graph = family(n)
        popped.clear()
        assert find_flow(graph) is not None
        assert len(popped) <= len(graph.vertices)
    if family is triangle_strip:  # where the count tells the two searches apart
        assert full_scan_flow(triangle_strip(1024))[1] > 200 * full_scan_flow(triangle_strip(64))[1]
