"""Rewrite rules, checked against their matrix identities first.

Every rule is an equality of gate words; the tests here pin those equalities
down as raw numpy facts (tolerance 1e-12) before exercising the site
machinery, so a regression in the rules cannot hide behind the oracle that
the drivers themselves use.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
import functools
import hashlib
import itertools
import re
import tokenize

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oneway.pipeline
import oneway.rewrite
import oneway.simulate
from oneway import (
    Angle,
    Circuit,
    CompileError,
    CorrectionStructure,
    FlowSimplifyError,
    Gate,
    GflowSearchExhausted,
    OpenGraph,
    RewriteError,
    RewriteStep,
    Wire,
    apply_cx_commute,
    apply_cz_commute,
    apply_cz_to_cx,
    apply_jgate,
    apply_peephole,
    build_extended,
    circuit_isometry,
    compile_pattern,
    digest,
    emit_text,
    find_flow,
    find_gflow,
    max_deviation,
    parse_text,
    replay,
    simplify_flow,
    simplify_gflow,
    trace_text,
    validate_gflow,
)
from oneway.rewrite import (
    _Node,
    _blocker,
    _conflicts,
    _direct_candidates,
    _cz_to_cx_shape,
    _eliminate_corrections,
    _fire_candidates,
    _gather,
    _helper_indices,
    _hop_candidates,
    _middles,
    _mint_candidates,
    _next_conflict,
    _partner_moves,
    _peephole_shape,
    _triangle_shape,
)
from oneway.simulate import basis_column_order
from oneway.verify import follow_jgates
from _oracle import cx_on, cz_on, j_of, j_on, plus_embedding
from conftest import cluster_strip, load_fixture
from test_acceptance import atlas_gflow_only_graphs
from test_determinism import all_small_open_graphs, atlas_with_inputs

TRIPLES = list(itertools.permutations((1, 2, 3)))


def role_commutes(a: Gate, b: Gate) -> bool:
    """Whether the conflict index lets gates a and b pass each other."""
    return not _conflicts(Circuit(plain_wires(*set(a.wires) | set(b.wires)), (a, b)), 0, 2)


def node_of(circuit: Circuit) -> _Node:
    """The engine's root node for ``circuit``."""
    return _Node(circuit.wires, circuit.gates)


def circuit_of(node: _Node) -> Circuit:
    """The circuit an engine node stands for."""
    return Circuit(node.wires, node.gates)


def test_cz_commute_is_a_matrix_identity():
    # circuit [CZ jk, CX ij, CZ ik] acts as [CX ij, CZ jk]
    for i, j, k in TRIPLES:
        order = (1, 2, 3)
        lhs = cz_on(i, k, order) @ cx_on(i, j, order) @ cz_on(j, k, order)
        rhs = cz_on(j, k, order) @ cx_on(i, j, order)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_cx_triangle_is_a_matrix_identity():
    # circuit [CX jk, CX ij, CX ik] acts as [CX ij, CX jk]
    for i, j, k in TRIPLES:
        order = (1, 2, 3)
        lhs = cx_on(i, k, order) @ cx_on(i, j, order) @ cx_on(j, k, order)
        rhs = cx_on(j, k, order) @ cx_on(i, j, order)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_cz_pair_to_cx_holds_on_plus():
    # circuit [CZ jk, CZ ik] acts as [CZ jk, CX ij] when wire j starts in |+>
    for i, j, k in TRIPLES:
        order = (1, 2, 3)
        emb = plus_embedding(j, order)
        lhs = cz_on(i, k, order) @ cz_on(j, k, order) @ emb
        rhs = cx_on(i, j, order) @ cz_on(j, k, order) @ emb
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_teleport_collapses_to_j():
    # <+|_i CX(i->j) J(theta)_i CZ(i,j) acting on psi_i (+)_j equals J(theta)
    for i, j in ((1, 2), (2, 1)):
        order = (1, 2)
        bra = plus_embedding(i, order).conj().T
        for theta in (0.0, np.pi / 4, -np.pi / 3, 1.234):
            got = bra @ cx_on(i, j, order) @ j_on(theta, i, order) @ cz_on(i, j, order)
            got = got @ plus_embedding(j, order)
            assert np.max(np.abs(got - j_of(theta))) <= 1e-12


@given(st.data())
def test_commutes_is_sound(data):
    order = (1, 2, 3)

    def gate(tag: str) -> Gate:
        kind = data.draw(st.sampled_from(["J", "CZ", "CX"]), label=f"kind {tag}")
        if kind == "J":
            return Gate("J", (data.draw(st.sampled_from(order), label=f"wire {tag}"),), Angle.exact(1, 4))
        pair = data.draw(st.permutations(order), label=f"pair {tag}")
        return Gate(kind, tuple(pair[:2]))

    a, b = gate("a"), gate("b")
    if role_commutes(a, b):
        def lift(g: Gate) -> np.ndarray:
            if g.kind == "J":
                return j_on(np.pi / 4, g.wires[0], order)
            on = cz_on if g.kind == "CZ" else cx_on
            return on(g.wires[0], g.wires[1], order)

        ma, mb = lift(a), lift(b)
        assert np.max(np.abs(ma @ mb - mb @ ma)) <= 1e-12


def syntactic_commutes(a: Gate, b: Gate) -> bool:
    """The commutation test written case by case, kept as the role rule's reference."""
    if not set(a.wires) & set(b.wires):
        return True
    if a.kind == "J" or b.kind == "J":
        return False
    if a.kind == "CZ" and b.kind == "CZ":
        return True
    if a.kind == "CZ":
        return b.wires[1] not in a.wires
    if b.kind == "CZ":
        return a.wires[1] not in b.wires
    return a.wires[1] != b.wires[0] and b.wires[1] != a.wires[0]


def test_role_rule_equals_the_syntactic_commutation_test():
    order = (1, 2, 3)
    gates = [Gate("J", (w,), Angle.exact(1, 4)) for w in order]
    gates += [Gate(kind, pair) for kind in ("CZ", "CX") for pair in itertools.permutations(order, 2)]
    pairs = list(itertools.product(gates, repeat=2))
    assert len(pairs) == 225
    assert [role_commutes(a, b) for a, b in pairs] == [syntactic_commutes(a, b) for a, b in pairs]


def spelled(terminals: str, *gates: str) -> Circuit:
    """A circuit on |+> wires, each measured ("m") or output ("o"), from gate
    lines such as "CZ 1 3" or "J 2" (a J of angle pi/4)."""
    lines = [f"wire {k} plus {'measured' if t == 'm' else 'output'}" for k, t in enumerate(terminals, 1)]
    lines += [f"J(1/4pi) {g[2:]}" if g.startswith("J") else g for g in gates]
    return parse_text("\n".join(lines))


def started_as_inputs(circuit: Circuit, *ids: int) -> Circuit:
    """``circuit`` with the wires ``ids`` started as inputs instead of |+>."""
    wires = tuple(Wire(w.id, "input", w.terminal) if w.id in ids else w for w in circuit.wires)
    return Circuit(wires, circuit.gates)


def plain_wires(*ids: int) -> tuple[Wire, ...]:
    return tuple(Wire(i, "input", "output") for i in ids)


def gates_on_wires(n: int):
    """A J, CZ or CX gate on wires 1..n."""
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(tuple)
    return st.one_of(
        pair.map(lambda p: Gate("CZ", p)),
        pair.map(lambda p: Gate("CX", p)),
        st.integers(1, n).map(lambda w: Gate("J", (w,), Angle.exact(1, 4))),
    )


def assert_same_action(before: Circuit, after: Circuit) -> None:
    dev = max_deviation(circuit_isometry(before), circuit_isometry(after))
    assert dev <= 1e-12


def test_cz_commute_three_site():
    circ = Circuit(plain_wires(1, 2, 3), (Gate("CZ", (2, 3)), Gate("CX", (1, 2)), Gate("CZ", (1, 3))))
    out, step = apply_cz_commute(circ, (0, 1, 2))
    assert [g.text() for g in step.produced] == ["CX 1 2", "CZ 2 3"]
    assert_same_action(circ, out)

    # the consumed CZ first instead: produced order follows the survivors
    circ = Circuit(plain_wires(1, 2, 3), (Gate("CZ", (1, 3)), Gate("CX", (1, 2)), Gate("CZ", (2, 3))))
    out, step = apply_cz_commute(circ, (0, 1, 2))
    assert [g.text() for g in step.produced] == ["CZ 2 3", "CX 1 2"]
    assert_same_action(circ, out)


def test_cz_commute_gathers_across_commuting_gates():
    gates = (Gate("CZ", (2, 3)), Gate("CZ", (1, 4)), Gate("CX", (1, 2)), Gate("CZ", (1, 3)))
    circ = Circuit(plain_wires(1, 2, 3, 4), gates)
    out, step = apply_cz_commute(circ, (0, 2, 3))
    assert step.consumed == (0, 2, 3)
    assert_same_action(circ, out)


def test_cz_commute_rejections():
    circ = Circuit(plain_wires(1, 2, 3), (Gate("CZ", (2, 3)), Gate("J", (2,), Angle.exact(0)), Gate("CX", (1, 2)), Gate("CZ", (1, 3))))
    with pytest.raises(RewriteError, match="blocks gathering"):
        apply_cz_commute(circ, (0, 2, 3))
    circ = Circuit(plain_wires(1, 2, 3), (Gate("CZ", (1, 2)), Gate("CX", (1, 2)), Gate("CZ", (1, 3))))
    with pytest.raises(RewriteError, match="does not fit"):
        apply_cz_commute(circ, (0, 1, 2))
    circ = Circuit(plain_wires(1, 2, 3), (Gate("CX", (1, 2)), Gate("CZ", (2, 3))))
    with pytest.raises(RewriteError, match="three gates"):
        apply_cz_commute(circ, (0, 1))
    with pytest.raises(RewriteError, match="strictly ascending"):
        apply_cz_commute(circ, (1, 0))


def cz_to_cx_wires() -> tuple[Wire, ...]:
    return (Wire(1, "input", "output"), Wire(2, "plus", "output"), Wire(3, "input", "output"))


def test_cz_to_cx_forward():
    circ = Circuit(cz_to_cx_wires(), (Gate("CZ", (2, 3)), Gate("CZ", (1, 3))))
    out, step = apply_cz_to_cx(circ, (0, 1), fresh=2)
    assert [g.text() for g in step.produced] == ["CZ 2 3", "CX 1 2"]
    assert_same_action(circ, out)

    # only this direction: the CX is never traded back for a CZ
    circ = Circuit(cz_to_cx_wires(), (Gate("CZ", (2, 3)), Gate("CX", (1, 2))))
    with pytest.raises(RewriteError, match="site must be a CZ pair"):
        apply_cz_to_cx(circ, (0, 1), fresh=2)
    circ = Circuit(cz_to_cx_wires(), (Gate("CZ", (2, 3)), Gate("CZ", (1, 3)), Gate("CZ", (1, 2))))
    with pytest.raises(RewriteError, match="^site must have two gates$"):
        apply_cz_to_cx(circ, (0, 1, 2), fresh=2)


def test_cz_to_cx_fresh_wire_selection():
    wires = (Wire(1, "plus", "output"), Wire(2, "plus", "output"), Wire(3, "input", "output"))
    circ = Circuit(wires, (Gate("CZ", (1, 3)), Gate("CZ", (2, 3))))
    out, step = apply_cz_to_cx(circ, (0, 1), fresh=2)
    assert [g.text() for g in step.produced] == ["CZ 2 3", "CX 1 2"]
    assert_same_action(circ, out)
    out, step = apply_cz_to_cx(circ, (0, 1), fresh=1)
    assert [g.text() for g in step.produced] == ["CZ 1 3", "CX 2 1"]
    assert_same_action(circ, out)


def test_cz_to_cx_requires_freshness():
    circ = Circuit(
        cz_to_cx_wires(),
        (Gate("J", (2,), Angle.exact(0)), Gate("CZ", (2, 3)), Gate("CZ", (1, 3))),
    )
    with pytest.raises(RewriteError, match="not fresh"):
        apply_cz_to_cx(circ, (1, 2), fresh=2)
    # the pair fits with wire 1 as the fresh one, but wire 1 starts as an input
    with pytest.raises(RewriteError, match=r"^wire 1 is not \|\+>-initialized$"):
        apply_cz_to_cx(circ, (1, 2), fresh=1)


def test_cz_to_cx_names_the_first_gate_that_touches_the_fresh_wire():
    wires = (Wire(1, "input", "output"), Wire(2, "plus", "output"), Wire(3, "input", "output"))
    circ = Circuit(
        wires,
        (
            Gate("CZ", (1, 3)),  # shares no wire with the fresh wire 2
            Gate("CX", (1, 2)),
            Gate("J", (2,), Angle.exact(0)),
            Gate("CZ", (2, 3)),
            Gate("CZ", (1, 3)),
        ),
    )
    with pytest.raises(RewriteError, match=r"^wire 2 is not fresh: touched by CX 1 2 at 1$"):
        apply_cz_to_cx(circ, (3, 4), fresh=2)


def test_cx_commute_cancels_the_chord():
    circ = Circuit(plain_wires(1, 2, 3), (Gate("CX", (2, 3)), Gate("CX", (1, 2)), Gate("CX", (1, 3))))
    out, step = apply_cx_commute(circ, (0, 1, 2))
    assert [g.text() for g in step.produced] == ["CX 1 2", "CX 2 3"]
    assert_same_action(circ, out)


def test_cx_commute_rejections():
    refused = re.escape("site does not fit [CX jk; CX ij; CX ik]")
    cyclic = Circuit(plain_wires(1, 2, 3), (Gate("CX", (1, 2)), Gate("CX", (2, 3)), Gate("CX", (3, 1))))
    with pytest.raises(RewriteError, match=refused):
        apply_cx_commute(cyclic, (0, 1, 2))
    mixed = Circuit(plain_wires(1, 2, 3), (Gate("CX", (1, 2)), Gate("CZ", (2, 3)), Gate("CX", (1, 3))))
    with pytest.raises(RewriteError, match=refused):
        apply_cx_commute(mixed, (0, 1, 2))
    narrow = Circuit(plain_wires(1, 2), (Gate("CX", (1, 2)), Gate("CX", (2, 1)), Gate("CX", (1, 2))))
    with pytest.raises(RewriteError, match=refused):
        apply_cx_commute(narrow, (0, 1, 2))


def cz_commute_shape(gates):
    """The commutation's shape match for G a CZ, written case by case, kept
    as the triangle match's reference."""
    if len(gates) != 3:
        raise RewriteError("site must have three gates")
    cxs = [g for g in gates if g.kind == "CX"]
    czs = [g for g in gates if g.kind == "CZ"]
    if len(cxs) != 1 or len(czs) != 2:
        raise RewriteError("need one CX and two CZ gates")
    cx = cxs[0]
    i, j = cx.wires
    partner = [g for g in czs if j in g.wires and i not in g.wires]
    eaten = [g for g in czs if i in g.wires and j not in g.wires]
    if len(partner) != 1 or len(eaten) != 1:
        raise RewriteError("CZ pair does not fit the commutation pattern")
    (k,) = set(partner[0].wires) - {j}
    if set(eaten[0].wires) != {i, k}:
        raise RewriteError("CZ pair does not share the third wire")
    return (partner[0], cx) if gates.index(cx) < gates.index(partner[0]) else (cx, partner[0])


def cx_word(gate_list, wires):
    """GF(2) action of a CX-only sequence, as images of basis bit vectors."""
    index = {w: k for k, w in enumerate(wires)}
    state = [1 << k for k in range(len(wires))]
    for g in gate_list:
        state[index[g.target]] ^= state[index[g.control]]
    return tuple(state)


def cx_commute_shape(gates):
    """The commutation's shape match for G a CX, written as a search for a
    two-gate CX word of the same GF(2) action, kept as the triangle match's
    reference."""
    if len(gates) != 3:
        raise RewriteError("site must have three gates")
    if any(g.kind != "CX" for g in gates):
        raise RewriteError("all site gates must be CX")
    wires = sorted({w for g in gates for w in g.wires})
    if len(wires) != 3:
        raise RewriteError("site must span exactly three wires")
    want = cx_word(gates, wires)
    for drop in range(3):
        a, b = gates[:drop] + gates[drop + 1:]
        if not (a.target == b.control or b.target == a.control):
            continue
        for candidate in ((a, b), (b, a)):
            if cx_word(list(candidate), wires) == want:
                return candidate
    raise RewriteError("CX triple does not reduce to a two-gate word")


def test_triangle_shape_equals_both_shape_matches_it_replaces():
    # every triple of J, CZ and CX gates on six wire labels, which covers
    # every pattern of equal wires among three two-wire gates
    def produced(shape, *args):
        try:
            return shape(*args)
        except RewriteError:
            return None

    labels = range(1, 7)
    gates = [Gate("J", (w,), Angle.exact(1, 4)) for w in labels]
    gates += [Gate("CZ", pair) for pair in itertools.combinations(labels, 2)]
    gates += [Gate("CX", pair) for pair in itertools.permutations(labels, 2)]
    fits = Counter()
    for triple in itertools.product(gates, repeat=3):
        for kind, reference in (("CZ", cz_commute_shape), ("CX", cx_commute_shape)):
            got = produced(_triangle_shape, triple, kind)
            assert got == produced(reference, triple), (kind, triple)
            fits[kind] += got is not None
    # each kind fits 6 * 5 * 4 triangles, in each of the 3! orders
    assert fits == {"CZ": 720, "CX": 720}
    for short in (gates[:2], gates[:4]):
        with pytest.raises(RewriteError, match="three gates"):
            _triangle_shape(tuple(short), "CZ")


def test_peephole_cancels_across_commuting_gates():
    circ = Circuit(plain_wires(1, 2, 3), (Gate("CZ", (1, 2)), Gate("CZ", (1, 3)), Gate("CZ", (1, 2))))
    out, step = apply_peephole(circ, (0, 2))
    assert step.produced == ()
    assert out.gates == (Gate("CZ", (1, 3)),)
    assert_same_action(circ, out)


def test_peephole_rejections():
    blocked = Circuit(plain_wires(1, 2), (Gate("CZ", (1, 2)), Gate("J", (1,), Angle.exact(0)), Gate("CZ", (1, 2))))
    with pytest.raises(RewriteError, match="blocks gathering"):
        apply_peephole(blocked, (0, 2))
    unequal = Circuit(plain_wires(1, 2, 3), (Gate("CZ", (1, 2)), Gate("CZ", (1, 3))))
    with pytest.raises(RewriteError, match="equal CZ or CX pair"):
        apply_peephole(unequal, (0, 1))
    jpair = Circuit(plain_wires(1,), (Gate("J", (1,), Angle.exact(0)), Gate("J", (1,), Angle.exact(0))))
    with pytest.raises(RewriteError, match="equal CZ or CX pair"):
        apply_peephole(jpair, (0, 1))
    triple = Circuit(plain_wires(1, 2), (Gate("CZ", (1, 2)),) * 3)
    with pytest.raises(RewriteError, match="^site must have two gates$"):
        apply_peephole(triple, (0, 1, 2))
    with pytest.raises(RewriteError, match=r"^site \(0, 5\) out of range$"):
        apply_peephole(triple, (0, 5))


def test_gather_names_the_first_blocking_gate():
    circ = Circuit(
        plain_wires(1, 2, 3, 4),
        (
            Gate("CZ", (1, 2)),
            Gate("CZ", (3, 4)),  # shares no wire with the pair
            Gate("J", (1,), Angle.exact(1, 4)),
            Gate("CX", (3, 2)),
            Gate("CZ", (1, 2)),
        ),
    )
    with pytest.raises(
        RewriteError, match=r"^gate J\(1/4pi\) 1 at 2 blocks gathering CZ 1 2 from 0$"
    ):
        apply_peephole(circ, (0, 4))


def test_cz_commute_names_the_gate_that_blocks_gathering():
    # the J on wire 2 sits between the partner CZ 2 3 and the CX 1 2
    gates = (
        Gate("CZ", (2, 3)), Gate("J", (2,), Angle.exact(1, 4)), Gate("CX", (1, 2)), Gate("CZ", (1, 3)),
    )
    circ = Circuit(plain_wires(1, 2, 3), gates)
    assert _blocker(circ, (0, 2, 3)) == (0, 1)
    with pytest.raises(RewriteError, match=r"^gate J\(1/4pi\) 2 at 1 blocks gathering CZ 2 3 from 0$"):
        apply_cz_commute(circ, (0, 2, 3))
    unblocked = Circuit(plain_wires(1, 2, 3), gates[:1] + gates[2:])
    assert _blocker(unblocked, (0, 1, 2)) is None


def crossed_walk_blocker(circuit: Circuit, site: tuple[int, ...]) -> tuple[int, int] | None:
    """The gather check as a walk over every gate each site gate crosses, in
    program order, against the syntactic test: ``_blocker``'s reference."""
    in_site, gates = set(site), circuit.gates
    for p in site[:-1]:
        spans = set()
        for w in gates[p].wires:
            on = circuit.gates_on(w)
            spans.update(on[bisect_right(on, p):bisect_left(on, site[-1])])
        for q in sorted(spans):
            if q not in in_site and not syntactic_commutes(gates[p], gates[q]):
                return p, q
    return None


@st.composite
def gather_sites(draw) -> tuple[Circuit, tuple[int, ...]]:
    n = draw(st.integers(2, 5))
    gates = draw(st.lists(gates_on_wires(n), min_size=2, max_size=14))
    site = draw(st.lists(st.integers(0, len(gates) - 1), min_size=2, max_size=3, unique=True))
    return Circuit(plain_wires(*range(1, n + 1)), tuple(gates)), tuple(sorted(site))


# the site's CX 1 2 lies on wire 2 between the CZ 2 3 and the site's end
@example((spelled("ooo", "CZ 2 3", "CX 1 2", "CZ 1 3"), (0, 1, 2)))
# a J commutes with nothing: past the site's CZ 1 2, the CX 2 1 blocks it
@example((spelled("oo", "J 1", "CZ 1 2", "CX 2 1", "J 1"), (0, 1, 3)))
@settings(max_examples=300)
@given(gather_sites())
def test_blocker_equals_the_crossed_gate_walk(case):
    circuit, site = case
    want = crossed_walk_blocker(circuit, site)
    assert _blocker(circuit, site) == want
    node = node_of(circuit)
    assert _blocker(node, site) == want


def scanned_next_conflict(circuit: Circuit, p: int, stop: int, skip) -> int:
    """The first gate after p and before stop, not in ``skip``, that gate p
    does not commute with, by a scan in program order against the syntactic
    test, else stop: ``_next_conflict``'s reference."""
    for q in range(p + 1, stop):
        if q not in skip and not syntactic_commutes(circuit.gates[p], circuit.gates[q]):
            return q
    return stop


@st.composite
def conflict_queries(draw) -> tuple[Circuit, int, int, tuple[int, ...]]:
    n = draw(st.integers(2, 5))
    gates = draw(st.lists(gates_on_wires(n), min_size=1, max_size=14))
    p = draw(st.integers(0, len(gates) - 1))
    stop = draw(st.integers(0, len(gates)))  # stop <= p is an empty window
    skip = draw(st.lists(st.integers(0, len(gates) - 1), max_size=4, unique=True))
    return Circuit(plain_wires(*range(1, n + 1)), tuple(gates)), p, stop, tuple(skip)


# an empty window returns stop, before p as at p
@example((spelled("oo", "CZ 1 2", "J 1", "CX 2 1"), 2, 0, ()))
@example((spelled("oo", "CZ 1 2", "J 1", "CX 2 1"), 1, 1, ()))
# the first conflict is skipped, the second one answers
@example((spelled("oo", "CZ 1 2", "J 1", "CX 2 1"), 0, 3, (1,)))
@settings(max_examples=300)
@given(conflict_queries())
def test_next_conflict_equals_a_program_order_scan(case):
    circuit, p, stop, skip = case
    want = scanned_next_conflict(circuit, p, stop, skip)
    assert _next_conflict(circuit, p, stop, skip) == want
    assert _next_conflict(node_of(circuit), p, stop, set(skip)) == want


@st.composite
def matched_sites(draw) -> tuple[Circuit, tuple[int, ...]]:
    """Three site gates among a few others, on |+> wires: a site for each
    rule's shape match, freshness and gather checks."""
    n = draw(st.integers(3, 4))
    gates = draw(st.lists(gates_on_wires(n), min_size=3, max_size=7))
    site = draw(st.lists(st.integers(0, len(gates) - 1), min_size=3, max_size=3, unique=True))
    wires = tuple(Wire(k, "plus", "output") for k in range(1, n + 1))
    return Circuit(wires, tuple(gates)), tuple(sorted(site))


def produced_or_error(rule, circuit, site, **kw):
    """The gates ``rule`` produces at ``site``, or its RewriteError text."""
    try:
        _, step = rule(circuit, site, **kw)
    except RewriteError as exc:
        return str(exc)
    # a rule applied to an engine node returns its edit and its step's fields
    return step[2] if type(circuit) is _Node else step.produced


# a CZ/CX commutation that matches, and one whose CZ pair misses the third wire
@example((spelled("ooo", "CZ 2 3", "CX 1 2", "CZ 1 3"), (0, 1, 2)))
@example((spelled("ooo", "CZ 2 3", "CX 1 2", "CZ 1 2"), (0, 1, 2)))
# a CX triangle that reduces, and a CZ pair on fresh wire 1 that mints a CX
@example((spelled("ooo", "CX 1 2", "CX 2 3", "CX 1 3"), (0, 1, 2)))
@example((spelled("ooo", "CZ 1 3", "CZ 2 3", "J 1"), (0, 1, 2)))
@settings(max_examples=300)
@given(matched_sites())
def test_memoised_shape_matches_equal_the_rule_without_the_memo(case):
    circuit, site = case
    pair = site[:2]
    # each rule call, with the shape match it makes first
    calls = [
        (apply_cz_commute, site, {}, (_triangle_shape, "CZ")),
        (apply_cx_commute, site, {}, (_triangle_shape, "CX")),
        (apply_peephole, pair, {}, (_peephole_shape,)),
    ]
    calls += [(apply_cz_to_cx, pair, {"fresh": w.id}, (_cz_to_cx_shape, w.id)) for w in circuit.wires]
    node = node_of(circuit)
    # the same gates two positions on, in a node that shares the memo
    shifted = _Node(circuit.wires, (Gate("CZ", (1, 2)),) * 2 + circuit.gates, None, node)
    for rule, at, kw, _ in calls:
        want = produced_or_error(rule, circuit, at, **kw)
        assert produced_or_error(rule, node, at, **kw) == want  # the memo fills
        assert produced_or_error(rule, node, at, **kw) == want  # and answers
        moved = tuple(k + 2 for k in at)
        assert produced_or_error(rule, shifted, moved, **kw) == produced_or_error(
            rule, Circuit(circuit.wires, shifted.gates), moved, **kw
        )

    def matches(at, shape, *args) -> bool:
        try:
            shape(tuple(circuit.gates[k] for k in at), *args)
        except RewriteError:
            return False
        return True

    # the memo keeps each match once, and no refusal
    assert node.matches is shifted.matches
    assert len(node.matches) == sum(matches(at, *shape) for _, at, _, shape in calls)


def teleport_wires() -> tuple[Wire, ...]:
    return (Wire(1, "input", "measured"), Wire(2, "plus", "output"))


def test_jgate_removes_the_measured_wire():
    theta = Angle.exact(1, 4)
    circ = Circuit(teleport_wires(), (Gate("CZ", (1, 2)), Gate("J", (1,), theta), Gate("CX", (1, 2))))
    out, step = apply_jgate(circ, 1, 2)
    assert step.wire_removed == 1
    assert out.wires == (Wire(2, "input", "output"),)
    assert out.gates == (Gate("J", (2,), theta),)
    got = circuit_isometry(out)
    assert got.matrix == pytest.approx(j_of(np.pi / 4), abs=1e-12)


def test_jgate_relabels_inherited_gates():
    wires = teleport_wires() + (Wire(3, "input", "output"),)
    circ = Circuit(
        wires,
        (Gate("CZ", (1, 2)), Gate("CZ", (1, 3)), Gate("J", (1,), Angle.exact(1, 2)), Gate("CX", (1, 2))),
    )
    out, _ = apply_jgate(circ, 1, 2)
    assert out.gates == (Gate("CZ", (2, 3)), Gate("J", (2,), Angle.exact(1, 2)))
    assert_same_action(circ, out)


def test_jgate_lets_target_cx_ride_along():
    wires = teleport_wires() + (Wire(3, "input", "output"),)
    circ = Circuit(
        wires,
        (Gate("CZ", (1, 2)), Gate("J", (1,), Angle.exact(1, 4)), Gate("CX", (3, 2)), Gate("CX", (1, 2))),
    )
    out, _ = apply_jgate(circ, 1, 2)
    assert out.gates == (Gate("J", (2,), Angle.exact(1, 4)), Gate("CX", (3, 2)))
    assert_same_action(circ, out)


def test_jgate_rejections():
    theta = Angle.exact(1, 4)
    ok = (Gate("CZ", (1, 2)), Gate("J", (1,), theta), Gate("CX", (1, 2)))
    not_measured = Circuit((Wire(1, "input", "output"), Wire(2, "plus", "output")), ok)
    with pytest.raises(RewriteError, match="not a measured wire"):
        apply_jgate(not_measured, 1, 2)
    not_plus = Circuit((Wire(1, "input", "measured"), Wire(2, "input", "output")), ok)
    with pytest.raises(RewriteError, match="not \\|\\+>-initialized"):
        apply_jgate(not_plus, 1, 2)

    wires3 = teleport_wires() + (Wire(3, "input", "output"),)
    leftover = Circuit(wires3, (Gate("CZ", (1, 2)), Gate("J", (1,), theta), Gate("CZ", (1, 3)), Gate("CX", (1, 2))))
    with pytest.raises(RewriteError, match="between J and CX"):
        apply_jgate(leftover, 1, 2)
    stale = Circuit(wires3, (Gate("CZ", (1, 2)), Gate("J", (1,), theta), Gate("CZ", (2, 3)), Gate("CX", (1, 2))))
    with pytest.raises(RewriteError, match="not fresh"):
        apply_jgate(stale, 1, 2)
    no_cz = Circuit(teleport_wires(), (Gate("J", (1,), theta), Gate("CX", (1, 2))))
    with pytest.raises(RewriteError, match="no CZ 1 2 precedes"):
        apply_jgate(no_cz, 1, 2)
    doubled = Circuit(teleport_wires(), (Gate("CZ", (1, 2)),) + ok)
    with pytest.raises(RewriteError, match="cannot relabel"):
        apply_jgate(doubled, 1, 2)
    for gates, message in [
        ((), "^wire 1 carries no gates$"),
        (ok[:2], r"^leftover gate on wire 1: last is J\(1/4pi\) 1, want CX 1 2$"),
        (ok[::2], "^wire 1 carries no J gate$"),
    ]:
        with pytest.raises(RewriteError, match=message):
            apply_jgate(Circuit(teleport_wires(), gates), 1, 2)
    # a CX onto wire 1 acts on it as X, so it cannot pass the CZ 1 2 and ride along
    crossing = Circuit(wires3, ok[:1] + (Gate("CX", (3, 1)),) + ok[1:])
    with pytest.raises(RewriteError, match="^gate CX 3 1 at 1 cannot slide before the CZ 1 2$"):
        apply_jgate(crossing, 1, 2)


def test_step_and_trace_text():
    step = RewriteStep("jgate", (0, 1, 2), (Gate("J", (2,), Angle.exact(1, 4)),), wire_removed=1)
    assert step.text() == "jgate consumed=0,1,2 produced=J(1/4pi) 2 removed-wire=1"
    plain = RewriteStep("peephole-cancel", (3, 5), ())
    assert plain.text() == "peephole-cancel consumed=3,5 produced="


def path3_pipeline():
    graph, _ = load_fixture("path3")
    structure = find_flow(graph)
    ext = build_extended(graph, structure)
    return graph, structure, ext, structure.order


def test_simplify_flow_on_a_path():
    _, _, ext, order = path3_pipeline()
    compact, trace = simplify_flow(ext, order)
    assert emit_text(compact) == "wire 3 input output\nJ(1/4pi) 3\nJ(1/2pi) 3\n"
    assert [s.rule for s in trace.steps] == ["cz-commute", "jgate", "jgate"]
    assert max_deviation(circuit_isometry(ext), circuit_isometry(compact)) <= 1e-9
    assert trace.initial_digest == digest(ext)
    assert trace.final_digest == digest(compact)


def test_replay_reproduces_the_compact_circuit():
    _, _, ext, order = path3_pipeline()
    compact, trace = simplify_flow(ext, order)
    again = replay(ext, trace.steps)
    assert again == compact
    assert digest(again) == trace.final_digest
    assert trace_text(trace).splitlines()[0].startswith("cz-commute consumed=")


def test_replay_diverges_on_a_different_circuit():
    graph, _ = load_fixture("path3")
    structure = find_flow(graph)
    ext = build_extended(graph, structure)
    _, trace = simplify_flow(ext, structure.order)

    bent = OpenGraph(
        graph.vertices, graph.edges, graph.inputs, graph.outputs,
        {1: Angle.exact(1, 2), 2: Angle.exact(1, 2)},
    )
    other = build_extended(bent, find_flow(bent))
    with pytest.raises(RewriteError, match="replay diverged"):
        replay(other, trace.steps)
    with pytest.raises(RewriteError, match="unknown rule"):
        replay(ext, [RewriteStep("bogus", (), ())])


def test_rules_and_replay_refuse_wires_and_steps_the_circuit_lacks():
    theta = Angle.exact(1, 4)
    circ = Circuit(teleport_wires(), (Gate("CZ", (1, 2)), Gate("J", (1,), theta), Gate("CX", (1, 2))))
    for i, j, missing in [(7, 2, 7), (1, 9, 9)]:
        with pytest.raises(RewriteError, match=f"^the circuit has no wire {missing}$"):
            apply_jgate(circ, i, j)
    with pytest.raises(RewriteError, match="^the circuit has no wire 7$"):
        replay(circ, [RewriteStep("jgate", (0, 1, 2), (Gate("J", (2,), theta),), 7)])

    pair = Circuit(cz_to_cx_wires(), (Gate("CZ", (2, 3)), Gate("CZ", (1, 3))))
    _, step = apply_cz_to_cx(pair, (0, 1), fresh=2)
    assert replay(pair, [step]) == apply_cz_to_cx(pair, (0, 1), fresh=2)[0]
    for produced in [step.produced[1:], step.produced[:1], ()]:
        bent = RewriteStep("cz-to-cx", step.consumed, produced)
        with pytest.raises(RewriteError, match=f"^replay diverged at step {re.escape(bent.text())}$"):
            replay(pair, [bent])
    # the fresh wire is read off the last produced gate, here a CZ 2 3
    with pytest.raises(RewriteError, match="^wire 3 is not part of the site$"):
        replay(pair, [RewriteStep("cz-to-cx", step.consumed, step.produced[::-1])])
    for rule in ("jgate", "cz-commute"):
        with pytest.raises(RewriteError, match="^replay diverged at step"):
            replay(circ, [RewriteStep(rule, (0, 1, 2), ())])


def flow_compile(graph: OpenGraph):
    structure = find_flow(graph)
    assert structure is not None
    ext = build_extended(graph, structure)
    compact, trace = simplify_flow(ext, structure.order)
    assert not any(w.terminal == "measured" for w in compact.wires)
    assert len(compact.wires) == len(graph.outputs)
    for step in trace.steps:
        assert len(step.produced) <= len(step.consumed)
    assert max_deviation(circuit_isometry(ext), circuit_isometry(compact)) <= 1e-9
    return compact, trace


def test_simplify_flow_on_the_strip(strip2x3):
    flow_compile(strip2x3)


def test_simplify_flow_when_a_correction_is_temporarily_blocked():
    # two pending correction CZs on one wire: the far one must fire first,
    # and the near one has to wait a pass for the re-emitted entangler
    graph = OpenGraph(
        (1, 2, 3, 4),
        frozenset({(1, 2), (1, 4), (2, 3)}),
        frozenset(),
        frozenset({1, 2}),
        {3: Angle.exact(1, 8), 4: Angle.exact(3, 8)},
    )
    flow_compile(graph)


def test_simplify_flow_when_two_movers_share_an_entangler():
    # the CZ between two corrector wires partners both of their correction
    # CZs; firing the later block first would strand the earlier one
    graph = OpenGraph(
        (1, 2, 3, 4, 5),
        frozenset({(1, 5), (2, 4), (3, 4), (4, 5)}),
        frozenset(),
        frozenset({2, 5}),
        {1: Angle.exact(1, 8), 3: Angle.exact(3, 8), 4: Angle.exact(5, 8)},
    )
    flow_compile(graph)


def test_simplify_flow_rejects_multi_target_corrections(example1):
    graph, sets = example1
    structure = validate_gflow(graph, sets)
    ext = build_extended(graph, structure)
    with pytest.raises(FlowSimplifyError, match="flow needs 1"):
        simplify_flow(ext, structure.order)


def test_simplify_gflow_strips_every_measured_wire(example1):
    graph, sets = example1
    structure = validate_gflow(graph, sets)
    ext = build_extended(graph, structure)
    compact, trace = simplify_gflow(ext, structure.order, structure)
    assert len(compact.wires) == 3
    assert sum(s.rule == "jgate" for s in trace.steps) == 2
    for step in trace.steps:
        assert len(step.produced) <= len(step.consumed)
    assert max_deviation(circuit_isometry(ext), circuit_isometry(compact)) <= 1e-9
    assert replay(ext, trace.steps) == compact


def test_simplify_gflow_budget_exhaustion():
    graph, sets = load_fixture("budget")
    structure = validate_gflow(graph, sets)
    ext = build_extended(graph, structure)
    order = structure.order

    with pytest.raises(GflowSearchExhausted) as info:
        simplify_gflow(ext, order, structure, budget=1)
    exhausted = info.value
    assert exhausted.attempts == 1
    assert exhausted.partial.steps
    assert exhausted.partial.initial_digest == digest(ext)
    assert digest(replay(ext, exhausted.partial.steps)) == exhausted.partial.final_digest

    compact, _ = simplify_gflow(ext, order, structure)
    assert len(compact.wires) == len(graph.outputs)
    assert max_deviation(circuit_isometry(ext), circuit_isometry(compact)) <= 1e-9


@pytest.mark.parametrize("budget", [0, -3])
def test_simplify_gflow_refuses_a_budget_below_one(budget):
    # worded as compile_pattern and the CLI refuse it, before any search
    structure, ext, order = fixture_pipeline("budget")
    with pytest.raises(ValueError, match=f"^budget must be at least 1, got {budget}$"):
        simplify_gflow(ext, order, structure, budget=budget)


# sha256 of emit_text(compact) + trace_text(trace) per fixture: any change to
# a rewrite step, its order or its output shows here
FIXTURE_DIGESTS = {
    "path3": "87e339fd10aea1e10b9b1ed1b4072ffb2fda95365fa86cf86a8531e48b1309cc",
    "strip2x3": "bdb467e81aaabc05f00044258126942badf2a221a82bdb32a3316e20b1de2905",
    "example1": "e2a5d26cc3db72c6f9115f6d80c6ffb7e7609fbed50da73ec4bbb61ff6e3bd37",
    "example2": "420358fc5ba18c77215a32add5d2b8ab25c0bfb120ffc35ddf16dddcc0d01edb",
    "budget": "d4e1124eaed5ca87f748b6835bdf4e373b2856853207d105e60e3fc03f4cbe17",
}


def fixture_pipeline(name: str):
    graph, sets = load_fixture(name)
    structure = validate_gflow(graph, sets) if sets is not None else find_flow(graph)
    ext = build_extended(graph, structure)
    return structure, ext, structure.order


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_circuits_and_traces_are_byte_identical(name):
    structure, ext, order = fixture_pipeline(name)
    if structure.kind == "flow":
        compact, trace = simplify_flow(ext, order)
    else:
        compact, trace = simplify_gflow(ext, order, structure)
    text = emit_text(compact) + trace_text(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_DIGESTS[name]


# the same digest for the 2 x n cluster strips, where the eliminator fires
# hundreds of times and the order of its fires decides the output
STRIP_DIGESTS = {
    8: "387355feced212ef2ec1247a3be3fba4215ed53f8d13e70a3a3b787d2c0b9bf5",
    16: "95d7e49ffb725b22d2c9a4e11de2f55ce035f5fdbf16f06f137629b225f5bee8",
    32: "9323e11efb5594207978ad4a051dbcd406deb4bff439829d3dcac6ffa51c2a75",
    64: "e1f7b36280317b77068879f11c10438daff5b67c3a78de9efd07fd646019d486",
    128: "6fba734b5012bba9c9d94e63f6acf9e452c35b9a2ff874b6874c518c7f8a2a9e",
    256: "3fcfeb6dee0742cb2a69d234a4ab21fb73aee09f4c71bf5845f8ff336ce6695e",
    512: "55da1757840352fe5c339856903cc6271ce20ab91927905e542e755e8b0d15ff",
}


@pytest.mark.parametrize("n", sorted(STRIP_DIGESTS))
def test_strip_circuits_and_traces_are_byte_identical(n):
    graph = cluster_strip(n)
    structure = find_flow(graph)
    ext = build_extended(graph, structure)
    compact, trace = simplify_flow(ext, structure.order)
    assert len(compact.wires) == 2
    text = emit_text(compact) + trace_text(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == STRIP_DIGESTS[n]


def test_simplify_flow_enters_no_part_of_the_engine(monkeypatch):
    # the closed form replaces the engine on flow input: no rule, search or tail runs
    rules = [name for name in oneway.rewrite.__all__ if name.startswith("apply_")]
    for name in ["simplify_gflow", "_plan", "_tail", *rules]:
        monkeypatch.setattr(oneway.rewrite, name, None)
    structure, ext, order = fixture_pipeline("strip2x3")
    compact, trace = simplify_flow(ext, order)
    text = emit_text(compact) + trace_text(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_DIGESTS["strip2x3"]


def atlas_flows_with_inputs():
    """Each of ``atlas_with_inputs`` that has a flow, with it."""
    for opened in atlas_with_inputs():
        structure = find_flow(opened)
        if structure is not None:
            yield structure, build_extended(opened, structure)


def test_flow_atlas_with_inputs_is_byte_identical():
    # pinned on the rewrite engine before flow compiles left it
    count = 0
    texts = hashlib.sha256()
    for structure, ext in atlas_flows_with_inputs():
        compact, trace = simplify_flow(ext, structure.order)
        texts.update((emit_text(compact) + trace_text(trace)).encode())
        count += 1
    assert count == 5377
    assert texts.hexdigest() == "5ddc95c958248a5c475655572df2d2ac622d80320fd2835a9ac85bff8a78ed58"


@st.composite
def flow_patterns(draw):
    """A graph on 2 to 9 vertices and a causal flow f of it, measured in vertex
    order.  Each vertex starts a chain or extends one; each other edge u-v
    (u < v) is drawn only where v starts a chain, u is an output, or v's
    predecessor on its chain comes before u."""
    n = draw(st.integers(2, 9))
    f: dict[int, int] = {}
    ends: list[int] = []
    for v in range(1, n + 1):
        if ends and draw(st.booleans()):
            i = draw(st.sampled_from(ends))
            ends.remove(i)
            f[i] = v
        ends.append(v)
    pred = {t: i for i, t in f.items()}
    allowed = [
        (u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
        if f.get(u) != v and (v not in pred or pred[v] < u or u in ends)
    ]
    extra = draw(st.sets(st.sampled_from(allowed))) if allowed else set()
    starts = [v for v in range(1, n + 1) if v not in pred]
    inputs = draw(st.sets(st.sampled_from(starts)))
    angles = {i: Angle.exact(2 * k + 1, 8) for k, i in enumerate(sorted(f))}
    graph = OpenGraph(tuple(range(1, n + 1)), frozenset(f.items()) | extra, inputs, frozenset(ends), angles)
    return graph, {i: frozenset({t}) for i, t in f.items()}


@settings(deadline=None, max_examples=200)
@given(flow_patterns())
def test_simplify_flow_is_the_engine_given_the_flow(pattern):
    # the engine, handed the flow as correcting sets, takes the same steps
    graph, sets = pattern
    structure = validate_gflow(graph, sets)
    ext = build_extended(graph, structure)
    order = structure.order
    compact, trace = simplify_flow(ext, order)
    assert (compact, trace) == simplify_gflow(ext, order, structure)
    assert replay(ext, trace.steps) == compact


def layout_mutants(ext: Circuit):
    """``ext`` with one fault: a correction CZ dropped, two leading CZs
    swapped, a CX retargeted, or a J moved past its round's corrections."""
    gates = list(ext.gates)
    lead = next(p for p, g in enumerate(gates) if g.kind != "CZ")
    for p in range(lead - 1):
        yield gates[:p] + [gates[p + 1], gates[p]] + gates[p + 2:]
    for p, g in enumerate(gates):
        if g.kind == "CZ" and p > lead:
            yield gates[:p] + gates[p + 1:]
        elif g.kind == "CX":
            for w in ext.wires:
                if w.id not in g.wires:
                    yield gates[:p] + [Gate("CX", (g.control, w.id))] + gates[p + 1:]
        elif g.kind == "J":
            end = next(
                (q for q in range(p + 1, len(gates)) if gates[q].kind == "J" != gates[q - 1].kind), len(gates)
            )
            yield gates[:p] + gates[p + 1:end] + [g] + gates[end:]


@pytest.mark.parametrize("name", ["path3", "strip2x3"])
def test_flow_layout_mutants_are_refused_or_compile_faithfully(name):
    structure, ext, order = fixture_pipeline(name)
    refused = 0
    for gates in layout_mutants(ext):
        mutant = Circuit(ext.wires, tuple(gates))
        try:
            compact, trace = simplify_flow(mutant, order)
        except FlowSimplifyError:
            refused += 1
            continue
        a, b = circuit_isometry(mutant), circuit_isometry(compact)
        chained = follow_jgates(trace.steps, list(a.input_wires))
        assert max_deviation(a.matrix, b.matrix[:, basis_column_order(b.input_wires, chained)]) <= 1e-9
    assert refused > 0


def test_simplify_flow_refuses_a_circuit_off_the_flow_layout():
    _, ext, order = fixture_pipeline("path3")
    # the rounds swapped: CX 1 2 then corrects wire 1 after wire 2 is measured.
    # Built by hand, since no structure orders them so:
    # CZ 1 2, CZ 2 3, then J 2 and CX 2 3, then J 1, CX 1 2 and CZ 1 3
    early = Circuit(ext.wires, ext.gates[:2] + ext.gates[5:] + ext.gates[2:5])
    with pytest.raises(FlowSimplifyError, match=r"^CX 1 2 is not the correction of a causal flow$"):
        simplify_flow(early, (2, 1))
    with pytest.raises(FlowSimplifyError, match=r"^the J gates measure \[1, 2\], not the order \[2, 1\]$"):
        simplify_flow(ext, (2, 1))
    for w2, message in [
        (Wire(2, "plus", "output"), r"^wire 2 is output, but a J measures it$"),
        (Wire(2, "input", "measured"), r"^CX 1 2 is not the correction of a causal flow$"),
    ]:
        with pytest.raises(FlowSimplifyError, match=message):
            simplify_flow(Circuit(tuple(w2 if w.id == 2 else w for w in ext.wires), ext.gates), order)
    dropped = Circuit(ext.wires, ext.gates[:4] + ext.gates[5:])  # the correction CZ 1 3
    with pytest.raises(FlowSimplifyError, match=r"^gate J\(1/2pi\) 2 at 4 is off the flow layout"):
        simplify_flow(dropped, order)
    # one round measures wires 1 and 2 of two flow pairs, but its J gates descend
    descending = spelled("mmoo", "CZ 1 3", "CZ 2 4", "J 2", "J 1", "CX 1 3", "CX 2 4")
    with pytest.raises(FlowSimplifyError, match=r"^gate J\(1/4pi\) 1 at 3 is off the flow layout"):
        simplify_flow(descending, (1, 2))


def test_eliminator_names_a_correction_cz_it_cannot_move():
    # the only CX on either wire of CZ 1 2 targets the CZ's other wire, so no
    # commutation partner can carry the CZ off measured wire 1
    circuit = Circuit(
        (Wire(1, "input", "measured"), Wire(2, "plus", "output")),
        (Gate("J", (1,), Angle.exact(1, 4)), Gate("CZ", (1, 2)), Gate("CX", (1, 2))),
    )
    node = node_of(circuit)
    with pytest.raises(RewriteError, match=r"^no commutation partner eliminates CZ 1 2 at 1$"):
        _eliminate_corrections(node)
    assert node.steps == []


def test_gflow_without_an_injective_designation_says_so():
    # the 5-cycle 1-2-3-4-5 with chord 1-4: wires 2 and 5 can only teleport onto 1
    graph = OpenGraph(
        (1, 2, 3, 4, 5),
        frozenset({(1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)}),
        frozenset(),
        frozenset({1, 3}),
        {2: Angle.exact(1, 8), 4: Angle.exact(3, 8), 5: Angle.exact(5, 8)},
    )
    structure = find_gflow(graph)
    ext = build_extended(graph, structure)
    with pytest.raises(GflowSearchExhausted) as info:
        simplify_gflow(ext, structure.order, structure)
    assert info.value.attempts == 0
    assert info.value.partial.steps == ()
    assert "exhausted after 0 attempts: no injective designation" in str(info.value)
    assert "2:{1}" in str(info.value) and "5:{1}" in str(info.value)


def test_gflow_wire_without_a_neighbour_in_its_set_is_named():
    _, ext, _ = fixture_pipeline("path3")
    # a gflow of another graph on path3's vertices, 1-2 and 1-3, whose g(1)
    # misses every path3 neighbour of wire 1; it measures wire 2 first
    star = OpenGraph((1, 2, 3), {(1, 2), (1, 3)}, (), {3}, {1: Angle.exact(1, 4), 2: Angle.exact(1, 2)})
    foreign = CorrectionStructure(star, {1: frozenset({3}), 2: frozenset({1})})
    assert foreign.order == (2, 1)
    with pytest.raises(GflowSearchExhausted, match="0 attempts: wire 1 has no graph neighbour"):
        simplify_gflow(ext, foreign.order, foreign)


def test_a_tail_that_cannot_clear_a_correction_cz_fails_the_designation():
    # a gflow on the path 3-2-1-4 whose only designation, 3 onto 2 and 4 onto
    # 1, leaves the tail no partner for the correction CZ 2 4
    graph = OpenGraph(
        vertices=(1, 2, 3, 4), edges=((1, 2), (1, 4), (2, 3)), inputs=(), outputs=(1, 2),
        angles={3: Angle.exact(1, 4), 4: Angle.exact(1, 2)},
    )
    structure = validate_gflow(graph, {3: frozenset({2}), 4: frozenset({1, 3})})
    ext = build_extended(graph, structure)
    message = "^gflow designation search exhausted after 1 attempts: no commutation partner eliminates CZ 2 4 at 5$"
    with pytest.raises(GflowSearchExhausted, match=message):
        simplify_gflow(ext, structure.order, structure)


@pytest.fixture()
def no_engine_node(monkeypatch):
    def refuse(*args):
        raise AssertionError("simplify_gflow built an engine node")

    monkeypatch.setattr(oneway.rewrite, "_Node", refuse)


def test_gflow_refuses_an_order_that_leaves_a_measured_wire_out(no_engine_node):
    # two flow pairs, 1 onto 2 and 3 onto 4; an order that omits wire 3 is
    # refused before any search
    graph = OpenGraph(
        vertices=(1, 2, 3, 4), edges=((1, 2), (3, 4)), inputs=(), outputs=(2, 4),
        angles={1: Angle.exact(1, 4), 3: Angle.exact(1, 2)},
    )
    structure = validate_gflow(graph, {1: frozenset({2}), 3: frozenset({4})})
    ext = build_extended(graph, structure)
    with pytest.raises(ValueError, match=r"^the order \[1\] is not the structure's order \[1, 3\]$"):
        simplify_gflow(ext, (1,), structure)


def test_gflow_refuses_an_order_other_than_the_structures(no_engine_node):
    # example1 measures wire 1, then wire 3; the other permutation of them
    # is refused, though it names the same wires
    structure, ext, order = fixture_pipeline("example1")
    assert order == (1, 3)
    with pytest.raises(ValueError, match=r"^the order \[3, 1\] is not the structure's order \[1, 3\]$"):
        simplify_gflow(ext, (3, 1), structure)


def test_gflow_refuses_an_order_or_structure_of_other_wires_up_front(no_engine_node):
    structure, ext, order = fixture_pipeline("example1")
    # an order with a wire the circuit lacks, which has no correcting set
    with pytest.raises(ValueError, match=r"^the order \[1, 3, 99\] is not the structure's order \[1, 3\]$"):
        simplify_gflow(ext, order + (99,), structure)
    # another graph's structure, in its own order: path3's sets correct wires 1 and 2
    path3, _, _ = fixture_pipeline("path3")
    _, ext, _ = fixture_pipeline("strip2x3")
    message = r"^the structure corrects wires \[1, 2\], but the circuit measures wires \[1, 2, 4, 5\]$"
    with pytest.raises(ValueError, match=message):
        simplify_gflow(ext, path3.order, path3)


def test_step_checks_catch_a_drifting_step(monkeypatch):
    structure, ext, order = fixture_pipeline("example1")
    good_jgate = oneway.rewrite.apply_jgate

    def bent_jgate(node, i, j):
        # the tail fires jgate on an engine node, which gets the rule's edit
        # and the fields of its step
        edit, (rule, consumed, _, removed) = good_jgate(node, i, j)
        bent = Gate("J", (j,), Angle.exact(1, 3))
        edit = edit._replace(produced=(bent, *edit.produced[1:]))
        return edit, (rule, consumed, (bent,), removed)

    monkeypatch.setattr(oneway.rewrite, "apply_jgate", bent_jgate)
    with pytest.raises(GflowSearchExhausted, match="drifted") as info:
        simplify_gflow(ext, order, structure)
    partial = info.value.partial
    assert partial.steps and partial.steps[-1].rule != "jgate"
    assert digest(replay(ext, partial.steps)) == partial.final_digest


def test_final_oracle_check_catches_a_drifting_flow_compile(monkeypatch):
    # flow compiles check no step: the pipeline's final oracle check catches
    # a compact circuit whose every J is bent to J(1/3pi)
    good = oneway.pipeline.simplify_flow

    def bent(circuit, order):
        compact, trace = good(circuit, order)
        gates = tuple(Gate("J", g.wires, Angle.exact(1, 3)) if g.kind == "J" else g for g in compact.gates)
        return Circuit(compact.wires, gates), trace

    monkeypatch.setattr(oneway.pipeline, "simplify_flow", bent)
    graph, sets = load_fixture("path3")
    with pytest.raises(CompileError, match="^verification failed: deviation 2.588e-01 > 1.0e-09$") as info:
        compile_pattern(graph, sets)
    assert info.value.code == 4


def test_step_checks_pass_on_a_strip_wider_than_the_checked_width(monkeypatch):
    # 16 wires: the steps taken above 12 wires go unchecked, the rest are
    # each checked against the dense oracle; the flow, supplied as
    # correcting sets, gives simplify_gflow one designation
    calls = []
    isometry = oneway.simulate.circuit_isometry
    monkeypatch.setattr(oneway.simulate, "circuit_isometry", lambda c: calls.append(c) or isometry(c))
    graph = cluster_strip(8)
    structure = validate_gflow(graph, find_flow(graph).correcting_sets)
    ext = build_extended(graph, structure)
    compact, trace = simplify_gflow(ext, structure.order, structure)
    text = emit_text(compact) + trace_text(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == STRIP_DIGESTS[8]
    assert 0 < len(calls) < len(trace.steps) + 1
    assert all(len(c.wires) <= 12 for c in calls)


@pytest.mark.parametrize("name", ["example1", "example2", "budget", "strip2x8"])
def test_step_checks_read_the_search_path(name, monkeypatch):
    # the step checks compare the circuits the search built, and run no rule
    if name == "strip2x8":
        graph = cluster_strip(8)
        structure = validate_gflow(graph, find_flow(graph).correcting_sets)
        ext = build_extended(graph, structure)
        order = structure.order
    else:
        structure, ext, order = fixture_pipeline(name)
    paths = []
    check_steps = oneway.rewrite.check_steps

    def watched(path):
        paths.append(path)
        with pytest.MonkeyPatch.context() as mp:
            for rule in [n for n in oneway.rewrite.__all__ if n.startswith("apply_")]:
                mp.setattr(oneway.rewrite, rule, None)
            return check_steps(path)

    monkeypatch.setattr(oneway.rewrite, "check_steps", watched)
    compact, trace = simplify_gflow(ext, order, structure)
    (path,) = paths
    assert tuple(node.step for node in path[1:]) == trace.steps
    # by induction, the k-th node holds replay(ext, trace.steps[:k])
    assert circuit_of(path[0]) == ext
    for before, node in zip(path, path[1:]):
        assert circuit_of(node) == replay(circuit_of(before), [node.step])
    assert circuit_of(path[-1]) == compact


def assert_trace_replays(structure, ext: Circuit, order) -> None:
    """Simplify ``ext``; replaying the trace, or an exhausted search's partial
    trace, must rebuild the compact circuit or reach the partial digest."""
    try:
        if structure.kind == "flow":
            compact, trace = simplify_flow(ext, order)
        else:
            compact, trace = simplify_gflow(ext, order, structure)
    except GflowSearchExhausted as exc:
        compact, trace = None, exc.partial
    replayed = replay(ext, trace.steps)
    assert digest(replayed) == trace.final_digest
    assert compact is None or replayed == compact


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_traces_replay_on_the_fixtures(name):
    assert_trace_replays(*fixture_pipeline(name))


@pytest.mark.parametrize("n", [8, 64])
def test_traces_replay_on_the_strips(n):
    graph = cluster_strip(n)
    structure = find_flow(graph)
    ext = build_extended(graph, structure)
    assert_trace_replays(structure, ext, structure.order)


ATLAS = list(all_small_open_graphs())


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(ATLAS))
def test_traces_replay_on_the_atlas(graph):
    structure = find_flow(graph) or find_gflow(graph)
    assume(structure is not None)
    ext = build_extended(graph, structure)
    assert_trace_replays(structure, ext, structure.order)


@st.composite
def eliminator_inputs(draw) -> Circuit:
    n = draw(st.integers(3, 6))
    terminals = draw(st.lists(st.sampled_from(["measured", "output"]), min_size=n, max_size=n))
    wires = tuple(Wire(k + 1, "plus", t) for k, t in enumerate(terminals))
    return Circuit(wires, tuple(draw(st.lists(gates_on_wires(n), min_size=4, max_size=20))))


# Circuits whose outcome hangs on the eliminator's order: re-sorting the CZs
# by a controller's first CX after each fire changes which CZ the first names
# as blocked and which third step the second fires; in the third the second
# fire splices right beside the first one's re-emission.
@example(spelled("mmm", "CX 3 2", "CX 1 2", "J 1", "CZ 1 3", "CZ 2 1", "J 3", "CZ 1 3", "CZ 3 2"))
@example(spelled(
    "omom", "J 4", "CZ 4 3", "CX 4 1", "CZ 4 2", "CZ 3 4", "CZ 3 1", "CX 4 3", "CZ 1 3", "CX 2 3",
    "CZ 4 3",
))
@example(spelled(
    "mmo", "CZ 3 2", "J 1", "CZ 2 1", "CZ 2 1", "CZ 1 3", "CZ 1 3", "CZ 1 3", "CZ 2 3", "CX 2 3",
    "CX 1 2",
))
@settings(deadline=None, max_examples=150)
@given(eliminator_inputs())
def test_correction_eliminator_steps_replay_and_keep_the_isometry(circuit):
    try:
        end = _eliminate_corrections(node_of(circuit))
    except RewriteError as exc:
        # a node never changes, so a failed pass leaves no partial path to check
        assert re.fullmatch(r"no commutation partner eliminates CZ \d+ \d+ at \d+", str(exc))
        return
    assert not node_of(circuit_of(end)).shaped
    assert all(step.rule == "cz-commute" for step in end.steps)
    assert replay(circuit, end.steps) == circuit_of(end)

    # every wire an output, so no measured-wire projection can collapse
    def unprojected(c: Circuit):
        wires = tuple(Wire(w.id, w.init, "output") for w in c.wires)
        return circuit_isometry(Circuit(wires, c.gates)).matrix

    assert max_deviation(unprojected(circuit), unprojected(circuit_of(end))) <= 1e-9


@st.composite
def measured_first_inputs(draw) -> Circuit:
    """Three or four |+> wires, wire 1 measured, opening with a J on wire 1:
    every later CZ on wire 1 is correction-shaped."""
    n = draw(st.integers(3, 4))
    rest = draw(st.lists(st.sampled_from(["measured", "output"]), min_size=n - 1, max_size=n - 1))
    terminals = ["measured", *rest]
    wires = tuple(Wire(k + 1, "plus", t) for k, t in enumerate(terminals))
    gates = draw(st.lists(gates_on_wires(n), min_size=3, max_size=10))
    return Circuit(wires, (Gate("J", (1,), Angle.exact(1, 4)), *gates))


# The plan's candidate generators as written before they were pruned: every
# site is built, including sites their rule refuses.  The last is the shift
# move the plan once had, the reference for the fire move's sites.


def applied(node: _Node, sites):
    """Each site's rule applied to ``node``, as its edit and step fields,
    leaving out the sites the rule refuses."""
    for rule, site, _, _, args in sites:
        try:
            yield rule(node, site, *args)
        except RewriteError:
            pass


def commutation_site(rule, kind, gates):
    """The site of ``gates`` for ``rule``, the commutation identity with G of ``kind``."""
    return rule, tuple(sorted(gates)), _triangle_shape, kind, ()


def unpruned_direct_candidates(circuit, work):
    for u, i, t in work:
        for m, m_idx in _middles(circuit, i, t):
            for h in _helper_indices(circuit, m, t):
                yield commutation_site(apply_cx_commute, "CX", (h, m_idx, u))


def unpruned_mint_candidates(circuit, work):
    for u, i, t in work:
        for m, _ in _middles(circuit, i, t):
            if _helper_indices(circuit, m, t):
                continue
            t_czs, m_czs = circuit.czs[t], circuit.czs[m]
            for c in sorted(set(t_czs) & set(m_czs)):
                for kt in t_czs[c]:
                    for km in m_czs[c]:
                        yield apply_cz_to_cx, tuple(sorted((kt, km))), _cz_to_cx_shape, t, (t,)


def unpruned_fire_candidates(circuit):
    gates = circuit.gates
    for q, _ in circuit.shaped:
        for m in sorted(gates[q].wires):
            (k,) = set(gates[q].wires) - {m}
            partners = circuit.czs[k]
            for cx_idx, _ in circuit.cxs[m]:
                for p in partners.get(gates[cx_idx].target, ()):
                    yield commutation_site(apply_cz_commute, "CZ", (p, cx_idx, q))


def unpruned_hop_candidates(circuit, work):
    gates = circuit.gates
    seen_helpers: set[int] = set()
    for u, i, t in work:
        for m, _ in _middles(circuit, i, t):
            for h in _helper_indices(circuit, m, t):
                if h in seen_helpers:
                    continue
                seen_helpers.add(h)
                q = _next_conflict(circuit, h, len(gates))
                if q == len(gates):
                    continue
                g = gates[q]
                if g.kind == "CZ" and t in g.wires and m not in g.wires:
                    (y,) = set(g.wires) - {t}
                    for p in circuit.czs[m].get(y, ()):
                        yield commutation_site(apply_cz_commute, "CZ", (h, q, p))


def unpruned_shift_candidates(circuit, work):
    """Commutations that swap a CZ on the target past the unwanted CX itself."""
    gates = circuit.gates
    for u, i, t in work:
        eaten_by_y = circuit.czs[i]
        for q in circuit.gates_on(t):
            g = gates[q]
            if g.kind != "CZ" or i in g.wires:
                continue
            (y,) = set(g.wires) - {t}
            for e in eaten_by_y.get(y, ()):
                yield commutation_site(apply_cz_commute, "CZ", (q, u, e))


GENERATOR_CASES = [
    # the only gate between the CX and the correction CZ is the partner itself
    spelled("moo", "J 1", "CX 1 2", "CZ 2 3", "CZ 1 3"),
    # the partner comes first, and the CX it does not commute with is a site gate
    spelled("moo", "CZ 2 3", "J 1", "CX 1 2", "CZ 1 3"),
    # a shift site that no fire site matches: the CZ 1 3 it eats comes before
    # any J, as an entangling edge does
    spelled("moo", "CZ 2 3", "CX 1 2", "CZ 1 3"),
    # a fire site whose mover is the higher wire of the correction CZ 1 3
    spelled("moo", "J 1", "CZ 1 2", "CX 3 2", "CZ 1 3"),
    # a CX triangle whose helper is the only gate between its other two CXs
    spelled("ooo", "CX 1 2", "CX 2 3", "CX 1 3"),
    # a mint: wire 2 is fresh up to the CZ 3 4, and its second gate comes after
    spelled("oooo", "CZ 2 4", "CZ 3 4", "CX 1 3", "CX 1 2"),
    # no mint onto wire 2: it is fresh, but an input, not |+>
    started_as_inputs(spelled("oooo", "CZ 2 4", "CZ 3 4", "CX 1 3", "CX 1 2"), 2),
    # no mint onto wire 2 or 3: the J 4 blocks gathering the CZ 2 4 to the CZ 3 4
    spelled("oooo", "CZ 2 4", "J 4", "CZ 3 4", "CX 1 3", "CX 1 2"),
    # screened before any site: the one conflict of the CX 1 2 before the
    # correction CZ 1 3 is the CX 3 1, which is no partner
    spelled("moo", "J 1", "CX 1 2", "CX 3 1", "CZ 1 3", "CZ 2 3"),
    # screened: two conflicts, the J 2 and the partner CZ 2 3, lie in that window
    spelled("moo", "J 1", "CX 1 2", "J 2", "CZ 2 3", "CZ 1 3"),
    # screened: the shift of the CZ 2 3 past the CX 1 2 has no CZ 1 3 to eat,
    # and the triangle through the CX 1 3 has no helper CX 3 2
    spelled("ooo", "CZ 2 3", "CX 1 3", "CX 1 2"),
]


@st.composite
def with_some_inputs(draw, circuits) -> Circuit:
    """A drawn circuit with some of its wires, maybe none, started as inputs."""
    circuit = draw(circuits)
    return started_as_inputs(circuit, *draw(st.sets(st.sampled_from([w.id for w in circuit.wires]))))


def on_generator_cases(test):
    """Run ``test`` on ``GENERATOR_CASES``, then on 300 drawn circuits, some
    of whose wires are inputs."""
    test = settings(deadline=None, max_examples=300)(
        given(with_some_inputs(st.one_of(measured_first_inputs(), eliminator_inputs())))(test)
    )
    for circuit in reversed(GENERATOR_CASES):
        test = example(circuit)(test)
    return test


def every_cx_unwanted(circuit: Circuit) -> list[tuple[int, int, int]]:
    """The work list that makes the generators that take work see each CX."""
    return [(k, g.control, g.target) for k, g in enumerate(circuit.gates) if g.kind == "CX"]


@on_generator_cases
def test_pruned_generators_yield_what_the_unpruned_ones_yield(circuit):
    work = every_cx_unwanted(circuit)
    node = node_of(circuit)
    def fired(sites):
        return list(applied(node, sites))

    assert fired(_direct_candidates(node, work)) == fired(unpruned_direct_candidates(node, work))
    assert fired(_mint_candidates(node, work)) == fired(unpruned_mint_candidates(node, work))
    assert fired(_fire_candidates(node)) == fired(unpruned_fire_candidates(node))
    assert fired(_hop_candidates(node, work)) == fired(unpruned_hop_candidates(node, work))


def assert_the_rules_accept_every_site(node: _Node) -> None:
    """The rule of every site that the engine's generators build on
    ``node``, with every CX unwanted and every CZ a correction to move,
    accepts it, with the edit that the site's own shape match gives."""
    work = every_cx_unwanted(node)
    sites = itertools.chain(
        _direct_candidates(node, work),
        _mint_candidates(node, work),
        _fire_candidates(node),
        _hop_candidates(node, work),
        *(_partner_moves(node, q, g.wires) for q, g in enumerate(node.gates) if g.kind == "CZ"),
    )
    for rule, site, shape, arg, args in sites:
        try:
            edit, _ = rule(node, site, *args)
        except RewriteError as exc:
            text = emit_text(Circuit(node.wires, node.gates))
            pytest.fail(f"{rule.__name__} refuses its site {site} ({exc}) on\n{text}")
        assert edit == _gather(site, shape(tuple(map(node.gates.__getitem__, site)), arg))


@on_generator_cases
def test_the_rules_accept_every_site_the_generators_build(circuit):
    assert_the_rules_accept_every_site(node_of(circuit))


def eaten_cz(node: _Node, step) -> int:
    """The position of the CZ a cz-commute step consumes: the one site gate
    that is not among the gates it produces."""
    _, site, produced = step
    (eaten,) = (p for p in site if node.gates[p] not in produced)
    return eaten


@on_generator_cases
def test_a_shift_site_is_a_fire_site_exactly_when_the_cz_it_eats_is_shaped(circuit):
    # the plan dropped the shift move: the sites of it that fire does not
    # build all eat a CZ that comes before any J on its wires
    node = node_of(circuit)
    fired = set(applied(node, _fire_candidates(node)))
    shaped = {q for q, _ in node.shaped}
    for edit, step in applied(node, unpruned_shift_candidates(node, every_cx_unwanted(circuit))):
        assert ((edit, step) in fired) == (eaten_cz(node, step) in shaped)


def test_the_shift_site_on_an_entangling_edge_is_no_fire_site():
    # the CZ 1 3 the site eats comes before any J, as an entangling edge does
    circuit = spelled("moo", "CZ 2 3", "CX 1 2", "CZ 1 3")
    node = node_of(circuit)
    ((_, step),) = applied(node, unpruned_shift_candidates(node, every_cx_unwanted(circuit)))
    assert eaten_cz(node, step) == 2 and not node.shaped
    assert not list(applied(node, _fire_candidates(node)))


@functools.cache
def recorded_plan_search() -> tuple[list[int], list[tuple[tuple[Wire, ...], list]]]:
    """Run the gflow search on every gflow-only atlas graph, in order, then on
    the example1, example2 and budget fixtures, then on the first 21 of the
    30 gflow-only atlas graphs with inputs.  Returns the plan nodes spent on
    each atlas graph without inputs, and for each ``_plan`` call its wires
    and the gate tuples of the root and of every child it spliced, each one
    a node or a repeat of one."""
    nodes: list[int] = []
    plans: list[tuple[tuple[Wire, ...], list]] = []
    running: list[list] = []  # the children of the _plan call under way
    plan, spliced, tail = oneway.rewrite._plan, oneway.rewrite._spliced, oneway.rewrite._tail

    def recording_plan(circuit, order, targets):
        plans.append((circuit.wires, [circuit.gates]))
        running.append(plans[-1][1])
        try:
            found = plan(circuit, order, targets)
        finally:
            running.pop()
        nodes[-1] += found[2]
        return found

    def recording_spliced(gates, edit):
        out = spliced(gates, edit)
        if running:
            running[-1].append(out)
        return out

    def unrecorded_tail(*args):
        running.append([])  # the tail's circuits are no plan children
        try:
            return tail(*args)
        finally:
            running.pop()

    def gflow_input(graph):
        structure = find_gflow(graph)
        ext = build_extended(graph, structure)
        return structure, ext, structure.order

    inputs = [gflow_input(graph) for graph in atlas_gflow_only_graphs()]
    atlas = len(inputs)
    inputs.extend(fixture_pipeline(name) for name in ("example1", "example2", "budget"))
    with_inputs = (g for g in atlas_with_inputs() if find_flow(g) is None and find_gflow(g) is not None)
    inputs.extend(map(gflow_input, itertools.islice(with_inputs, 21)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oneway.rewrite, "_plan", recording_plan)
        mp.setattr(oneway.rewrite, "_spliced", recording_spliced)
        mp.setattr(oneway.rewrite, "_tail", unrecorded_tail)
        for structure, ext, order in inputs:
            nodes.append(0)
            try:
                simplify_gflow(ext, order, structure)
            except GflowSearchExhausted as exc:
                assert exc.nodes == nodes[-1]
    return nodes[:atlas], plans


def test_plan_nodes_per_gflow_only_graph_are_pinned():
    # a key for the visited set that merges or splits search nodes
    # differently from their emitted text moves these counts
    nodes, _ = recorded_plan_search()
    assert nodes == [0, 31, 45, 0, 0, 120, 1280, 1900, 437, 1642]


def test_the_rules_accept_every_site_the_generators_build_on_the_plan_nodes():
    _, plans = recorded_plan_search()
    for wires, children in plans:
        for gates in dict.fromkeys(children):
            assert_the_rules_accept_every_site(_Node(wires, gates))


def test_children_share_a_key_exactly_when_they_emit_the_same_text():
    _, plans = recorded_plan_search()
    assert sum(len(children) for _, children in plans) > 18_000
    for wires, children in plans:
        keys = set(children)
        # the text is a function of the key, so equal counts make it one-to-one
        assert len({emit_text(Circuit(wires, gates)) for gates in keys}) == len(keys)


def test_the_plan_search_calls_a_rule_only_for_a_child_it_has_not_seen(monkeypatch):
    # The rules are wrapped by their module names, as the benchmark's tracer
    # wraps them, so the plan must know each site's shape without reading it
    # off the rule.  A successful rule call inside the plan search makes a
    # node, and the nodes it visits are the rules' children, in order.
    edges = frozenset({(1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)})
    angles = {v: Angle.exact(2 * k + 1, 8) for k, v in enumerate((2, 3, 4))}
    graph = OpenGraph((1, 2, 3, 4, 5), edges, frozenset(), frozenset({1, 5}), angles)
    structure = find_gflow(graph)
    ext = build_extended(graph, structure)
    plans = []  # per _plan call: the nodes spent, the rules' children, the nodes visited
    running: list = []  # the record of the _plan call under way, None in the tail
    plan, tail, unwanted = oneway.rewrite._plan, oneway.rewrite._tail, oneway.rewrite._unwanted_cxs

    def recording_plan(root, order, targets):
        plans.append([0, [], []])
        running.append(plans[-1])
        try:
            found = plan(root, order, targets)
        finally:
            running.pop()
        plans[-1][0] = found[2]
        return found

    def unrecorded_tail(*args):
        running.append(None)
        try:
            return tail(*args)
        finally:
            running.pop()

    def visiting(node, *args):
        running[-1][2].append(node.gates)
        return unwanted(node, *args)

    def recorded(rule):
        def call(node, site, *args, **kwargs):
            edit, step = rule(node, site, *args, **kwargs)
            if running[-1] is not None:
                running[-1][1].append(oneway.rewrite._spliced(node.gates, edit))
            return edit, step

        return call

    for name in ("apply_cz_commute", "apply_cx_commute", "apply_cz_to_cx"):
        monkeypatch.setattr(oneway.rewrite, name, recorded(getattr(oneway.rewrite, name)))
    monkeypatch.setattr(oneway.rewrite, "_plan", recording_plan)
    monkeypatch.setattr(oneway.rewrite, "_tail", unrecorded_tail)
    monkeypatch.setattr(oneway.rewrite, "_unwanted_cxs", visiting)
    with pytest.raises(GflowSearchExhausted) as info:
        simplify_gflow(ext, structure.order, structure)
    assert info.value.nodes == sum(spent for spent, _, _ in plans) == 1900
    for spent, children, visited in plans:
        assert len(set(children)) == len(children) == spent
        assert visited == [ext.gates, *children]


def test_rewrite_module_stays_under_the_parser_token_array_step():
    """rewrite.py stays under 8,192 tokens, not counting COMMENT and NL.

    CPython's parser holds a module's tokens in one array that doubles its
    size when it fills up.  Without a bytecode cache, the benchmark parses
    this module after its memory baseline is taken, so past 8,192 tokens
    gflow-core's peak_rss_mb reads about 0.15 MiB higher for that alone.
    Comments cost nothing.  The guard can go once the benchmark imports
    oneway before its baseline (ROADMAP item 1).
    """
    with open(oneway.rewrite.__file__, encoding="utf-8") as source:
        tokens = tokenize.generate_tokens(source.readline)
        count = sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokens)
    assert count < 8192
