"""Rewrite rules, checked against their matrix identities first.

Every rule is an equality of gate words; the tests here pin those equalities
down as raw numpy facts (tolerance 1e-12) before exercising the site
machinery, so a regression in the rules cannot hide behind the oracle that
the drivers themselves use.
"""

import contextlib
import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    slice_circuit,
    trace_text,
    validate_gflow,
)
from oneway.rewrite import (
    _Driver,
    _GateStore,
    _blocker,
    _commutes,
    _correction_czs,
    _eliminate_corrections,
    _partner_moves,
    _reapply,
)
from _oracle import cx_on, cz_on, j_of, j_on, plus_embedding
from conftest import cluster_strip, load_fixture
from test_acceptance import atlas_gflow_only_graphs
from test_determinism import all_small_open_graphs

TRIPLES = list(itertools.permutations((1, 2, 3)))


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
    if _commutes(a, b):
        def lift(g: Gate) -> np.ndarray:
            if g.kind == "J":
                return j_on(np.pi / 4, g.wires[0], order)
            on = cz_on if g.kind == "CZ" else cx_on
            return on(g.wires[0], g.wires[1], order)

        ma, mb = lift(a), lift(b)
        assert np.max(np.abs(ma @ mb - mb @ ma)) <= 1e-12


def plain_wires(*ids: int) -> tuple[Wire, ...]:
    return tuple(Wire(i, "input", "output") for i in ids)


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
    cyclic = Circuit(plain_wires(1, 2, 3), (Gate("CX", (1, 2)), Gate("CX", (2, 3)), Gate("CX", (3, 1))))
    with pytest.raises(RewriteError, match="does not reduce"):
        apply_cx_commute(cyclic, (0, 1, 2))
    mixed = Circuit(plain_wires(1, 2, 3), (Gate("CX", (1, 2)), Gate("CZ", (2, 3)), Gate("CX", (1, 3))))
    with pytest.raises(RewriteError, match="must be CX"):
        apply_cx_commute(mixed, (0, 1, 2))
    narrow = Circuit(plain_wires(1, 2), (Gate("CX", (1, 2)), Gate("CX", (2, 1)), Gate("CX", (1, 2))))
    with pytest.raises(RewriteError, match="three wires"):
        apply_cx_commute(narrow, (0, 1, 2))


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


def test_step_and_trace_text():
    step = RewriteStep("jgate", (0, 1, 2), (Gate("J", (2,), Angle.exact(1, 4)),), wire_removed=1)
    assert step.text() == "jgate consumed=0,1,2 produced=J(1/4pi) 2 removed-wire=1"
    plain = RewriteStep("peephole-cancel", (3, 5), ())
    assert plain.text() == "peephole-cancel consumed=3,5 produced="


def path3_pipeline():
    graph, _ = load_fixture("path3")
    structure = find_flow(graph)
    ext = build_extended(graph, structure)
    return graph, structure, ext, slice_circuit(ext, structure)


def test_simplify_flow_on_a_path():
    _, _, ext, view = path3_pipeline()
    compact, trace = simplify_flow(ext, view)
    assert emit_text(compact) == "wire 3 input output\nJ(1/4pi) 3\nJ(1/2pi) 3\n"
    assert [s.rule for s in trace.steps] == ["cz-commute", "jgate", "jgate"]
    assert max_deviation(circuit_isometry(ext), circuit_isometry(compact)) <= 1e-9
    assert trace.initial_digest == digest(ext)
    assert trace.final_digest == digest(compact)


def test_replay_reproduces_the_compact_circuit():
    _, _, ext, view = path3_pipeline()
    compact, trace = simplify_flow(ext, view)
    again = replay(ext, trace.steps)
    assert again == compact
    assert digest(again) == trace.final_digest
    assert trace_text(trace).splitlines()[0].startswith("cz-commute consumed=")


def test_replay_diverges_on_a_different_circuit():
    graph, _ = load_fixture("path3")
    structure = find_flow(graph)
    ext = build_extended(graph, structure)
    _, trace = simplify_flow(ext, slice_circuit(ext, structure))

    bent = OpenGraph(
        graph.vertices, graph.edges, graph.inputs, graph.outputs,
        {1: Angle.exact(1, 2), 2: Angle.exact(1, 2)},
    )
    other = build_extended(bent, structure)
    with pytest.raises(RewriteError, match="replay diverged"):
        replay(other, trace.steps)
    with pytest.raises(RewriteError, match="unknown rule"):
        replay(ext, [RewriteStep("bogus", (), ())])


def flow_compile(graph: OpenGraph):
    structure = find_flow(graph)
    assert structure is not None
    ext = build_extended(graph, structure)
    compact, trace = simplify_flow(ext, slice_circuit(ext, structure))
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
        simplify_flow(ext, slice_circuit(ext, structure))


def test_simplify_gflow_strips_every_measured_wire(example1):
    graph, sets = example1
    structure = validate_gflow(graph, sets)
    ext = build_extended(graph, structure)
    compact, trace = simplify_gflow(ext, slice_circuit(ext, structure), structure)
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
    view = slice_circuit(ext, structure)

    with pytest.raises(GflowSearchExhausted) as info:
        simplify_gflow(ext, view, structure, budget=1)
    exhausted = info.value
    assert exhausted.attempts == 1
    assert exhausted.partial.steps
    assert exhausted.partial.initial_digest == digest(ext)
    assert digest(replay(ext, exhausted.partial.steps)) == exhausted.partial.final_digest

    compact, _ = simplify_gflow(ext, view, structure)
    assert len(compact.wires) == len(graph.outputs)
    assert max_deviation(circuit_isometry(ext), circuit_isometry(compact)) <= 1e-9


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
    return structure, ext, slice_circuit(ext, structure)


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_fixture_circuits_and_traces_are_byte_identical(name):
    structure, ext, view = fixture_pipeline(name)
    if structure.kind == "flow":
        compact, trace = simplify_flow(ext, view)
    else:
        compact, trace = simplify_gflow(ext, view, structure)
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
}


@pytest.mark.parametrize("n", sorted(STRIP_DIGESTS))
def test_strip_circuits_and_traces_are_byte_identical(n):
    graph = cluster_strip(n)
    structure = find_flow(graph)
    ext = build_extended(graph, structure)
    compact, trace = simplify_flow(ext, slice_circuit(ext, structure))
    assert len(compact.wires) == 2
    text = emit_text(compact) + trace_text(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == STRIP_DIGESTS[n]


def test_eliminator_names_a_correction_cz_it_cannot_move():
    # the only CX on either wire of CZ 1 2 targets the CZ's other wire, so no
    # commutation partner can carry the CZ off measured wire 1
    circuit = Circuit(
        (Wire(1, "input", "measured"), Wire(2, "plus", "output")),
        (Gate("J", (1,), Angle.exact(1, 4)), Gate("CZ", (1, 2)), Gate("CX", (1, 2))),
    )
    drv = _Driver(_GateStore(circuit))
    with pytest.raises(RewriteError, match=r"^no commutation partner eliminates CZ 1 2 at 1$"):
        _eliminate_corrections(drv)
    assert drv.steps == []


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
        simplify_gflow(ext, slice_circuit(ext, structure), structure)
    assert info.value.attempts == 0
    assert info.value.partial.steps == ()
    assert "exhausted after 0 attempts: no injective designation" in str(info.value)
    assert "2:{1}" in str(info.value) and "5:{1}" in str(info.value)


def test_gflow_wire_without_a_neighbour_in_its_set_is_named():
    _, ext, view = fixture_pipeline("path3")
    # correcting sets that miss every neighbour of wire 1
    foreign = CorrectionStructure(
        "gflow", {1: frozenset({3}), 2: frozenset({3})}, (frozenset({1}), frozenset({2}))
    )
    with pytest.raises(GflowSearchExhausted, match="0 attempts: wire 1 has no graph neighbour"):
        simplify_gflow(ext, view, foreign)


def test_step_checks_catch_a_drifting_step(monkeypatch):
    structure, ext, view = fixture_pipeline("example1")
    good_jgate = oneway.rewrite.apply_jgate

    def bent_jgate(circuit, i, j):
        out, step = good_jgate(circuit, i, j)
        bent = Gate("J", (j,), Angle.exact(1, 3))
        if isinstance(out, Circuit):
            out = Circuit(out.wires, tuple(bent if g == step.produced[0] else g for g in out.gates))
        else:  # on the tail's gate store: the edit, whose first produced gate is the J
            out = out._replace(produced=(bent,) + out.produced[1:])
        return out, RewriteStep(step.rule, step.consumed, (bent,), i)

    monkeypatch.setattr(oneway.rewrite, "apply_jgate", bent_jgate)
    with pytest.raises(GflowSearchExhausted, match="drifted") as info:
        simplify_gflow(ext, view, structure)
    partial = info.value.partial
    assert partial.steps and partial.steps[-1].rule != "jgate"
    assert digest(replay(ext, partial.steps)) == partial.final_digest

    # flow compiles check no step: the pipeline's final oracle check catches it
    graph, sets = load_fixture("path3")
    with pytest.raises(CompileError, match="^verification failed: deviation 2.588e-01 > 1.0e-09$") as info:
        compile_pattern(graph, sets)
    assert info.value.code == 4


def test_step_checks_pass_on_a_strip_wider_than_the_checked_width(monkeypatch):
    # 16 wires: the steps taken above 12 wires replay unchecked through a
    # gate store, the rest are each checked against the dense oracle; the
    # flow, supplied as correcting sets, gives simplify_gflow one designation
    calls = []
    isometry = oneway.simulate.circuit_isometry
    monkeypatch.setattr(oneway.simulate, "circuit_isometry", lambda c: calls.append(c) or isometry(c))
    graph = cluster_strip(8)
    structure = validate_gflow(graph, find_flow(graph).correcting_sets)
    ext = build_extended(graph, structure)
    compact, trace = simplify_gflow(ext, slice_circuit(ext, structure), structure)
    text = emit_text(compact) + trace_text(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == STRIP_DIGESTS[8]
    assert 0 < len(calls) < len(trace.steps) + 1
    assert all(len(c.wires) <= 12 for c in calls)


def assert_store_tracks_replay(ext: Circuit, steps) -> _GateStore:
    """Fire ``steps`` on a gate store; after each, it must match ``replay`` on Circuits."""
    store = _GateStore(ext)
    circuit = ext
    for step in steps:
        circuit = replay(circuit, [step])
        edit, redo = _reapply(store, step)
        assert redo == step
        store.apply(edit)
        assert tuple(store.gates) == circuit.gates
        assert store.wires == circuit.wires
        for w in ext.wires:
            assert store.gates_on(w.id) == circuit.gates_on(w.id), (step.text(), w.id)
        assert all(a < b for a, b in zip(store.keys, store.keys[1:]))
    assert store.circuit() == circuit
    return store


def spelled(terminals: str, *gates: str) -> Circuit:
    """A circuit on |+> wires, each measured ("m") or output ("o"), from gate
    lines such as "CZ 1 3" or "J 2" (a J of angle pi/4)."""
    lines = [f"wire {k} plus {'measured' if t == 'm' else 'output'}" for k, t in enumerate(terminals, 1)]
    lines += [f"J(1/4pi) {g[2:]}" if g.startswith("J") else g for g in gates]
    return parse_text("\n".join(lines))


@pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
def test_gate_store_tracks_replay_on_the_fixtures(name):
    structure, ext, view = fixture_pipeline(name)
    if structure.kind == "flow":
        _, trace = simplify_flow(ext, view)
    else:
        _, trace = simplify_gflow(ext, view, structure)
    assert_store_tracks_replay(ext, trace.steps)


@pytest.mark.parametrize("n", [8, 64])
def test_gate_store_tracks_replay_on_the_strips(n):
    graph = cluster_strip(n)
    structure = find_flow(graph)
    ext = build_extended(graph, structure)
    _, trace = simplify_flow(ext, slice_circuit(ext, structure))
    assert_store_tracks_replay(ext, trace.steps)


def test_gate_store_renumbers_when_splices_nest():
    # each cz-commute re-emits its CX where the consumed CZ was; the second
    # lands between the first one's re-emission and the J before it, where a
    # fresh store's order keys leave no room
    circ = spelled("ooooo", "CZ 2 4", "CZ 1 4", "CZ 2 3", "CX 1 2", "J 5", "CZ 1 3", "J 5")
    first, step1 = apply_cz_commute(circ, (2, 3, 5))
    _, step2 = apply_cz_commute(first, (0, 1, 3))
    store = assert_store_tracks_replay(circ, [step1, step2])
    assert store.renumbered == 1


ATLAS = list(all_small_open_graphs())


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(ATLAS))
def test_gate_store_tracks_replay_on_the_atlas(graph):
    structure = find_flow(graph) or find_gflow(graph)
    assume(structure is not None)
    ext = build_extended(graph, structure)
    view = slice_circuit(ext, structure)
    try:
        if structure.kind == "flow":
            _, trace = simplify_flow(ext, view)
        else:
            _, trace = simplify_gflow(ext, view, structure)
    except GflowSearchExhausted as exc:
        trace = exc.partial
    assert_store_tracks_replay(ext, trace.steps)


def resorted_corrections(circuit: Circuit) -> list[tuple[int, tuple[int, ...]]]:
    """The eliminator's order computed from scratch: every correction-shaped
    CZ by the first CX of its controllers, then rightmost first."""
    far = len(circuit.gates)
    first_cx: dict[int, int] = {}
    for k, g in enumerate(circuit.gates):
        if g.kind == "CX":
            first_cx.setdefault(g.control, k)
    shaped = [(q, tuple(c)) for q, c in _correction_czs(circuit)]
    return sorted(shaped, key=lambda e: (min(first_cx.get(m, far) for m in e[1]), -e[0]))


def eliminate_by_resorting(circuit: Circuit) -> tuple[list[RewriteStep], str | None]:
    """The eliminator with its order sorted from scratch on every pass, on
    immutable circuits: the reference its worklist must reproduce."""
    steps = []
    while shaped := resorted_corrections(circuit):
        for q, controllers in shaped:
            movers = list(controllers) + [w for w in circuit.gates[q].wires if w not in controllers]
            result = next(_partner_moves(circuit, q, movers), None)
            if result is not None:
                circuit, step = result
                steps.append(step)
                break
        else:
            q = shaped[0][0]
            return steps, f"no commutation partner eliminates {circuit.gates[q].text()} at {q}"
    return steps, None


@st.composite
def eliminator_inputs(draw) -> Circuit:
    n = draw(st.integers(3, 6))
    terminals = draw(st.lists(st.sampled_from(["measured", "output"]), min_size=n, max_size=n))
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(tuple)
    gate = st.one_of(
        pair.map(lambda p: Gate("CZ", p)),
        pair.map(lambda p: Gate("CX", p)),
        st.integers(1, n).map(lambda w: Gate("J", (w,), Angle.exact(1, 4))),
    )
    wires = tuple(Wire(k + 1, "plus", t) for k, t in enumerate(terminals))
    return Circuit(wires, tuple(draw(st.lists(gate, min_size=4, max_size=20))))


# In the first two circuits a stale first-CX rank after a fire changes the
# outcome: the first names a different blocked CZ, the second fires a
# different third step.  In the third the second fire renumbers the keys.
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
def test_correction_worklist_fires_as_a_fresh_sort_per_pass(circuit):
    expected, why = eliminate_by_resorting(circuit)
    drv = _Driver(_GateStore(circuit))
    try:
        _eliminate_corrections(drv)
        failed = None
    except RewriteError as exc:
        failed = str(exc)
    assert drv.steps == expected
    assert failed == why



@functools.cache
def recorded_plan_search() -> tuple[list[int], list[tuple[tuple[Wire, ...], list]]]:
    """Run the gflow search on every gflow-only atlas graph, in order, then on
    the example1, example2 and budget fixtures.  Returns the plan nodes spent
    on each atlas graph, and for each ``_plan`` call its wires and the gate
    tuples of the root and of every child it generated."""
    nodes: list[int] = []
    plans: list[tuple[tuple[Wire, ...], list]] = []
    running: list[list] = []  # the children of the _plan call under way
    plan, spliced = oneway.rewrite._plan, oneway.rewrite._spliced

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

    inputs = []
    for graph in atlas_gflow_only_graphs():
        structure = find_gflow(graph)
        ext = build_extended(graph, structure)
        inputs.append((structure, ext, slice_circuit(ext, structure)))
    atlas = len(inputs)
    inputs.extend(fixture_pipeline(name) for name in ("example1", "example2", "budget"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oneway.rewrite, "_plan", recording_plan)
        mp.setattr(oneway.rewrite, "_spliced", recording_spliced)
        for structure, ext, view in inputs:
            nodes.append(0)
            try:
                simplify_gflow(ext, view, structure)
            except GflowSearchExhausted as exc:
                assert exc.nodes == nodes[-1]
    return nodes[:atlas], plans


def test_plan_nodes_per_gflow_only_graph_are_pinned():
    # a key for the visited set that merges or splits search nodes
    # differently from their emitted text moves these counts
    nodes, _ = recorded_plan_search()
    assert nodes == [0, 31, 45, 0, 0, 120, 1280, 1900, 437, 1642]


def test_children_share_a_key_exactly_when_they_emit_the_same_text():
    _, plans = recorded_plan_search()
    assert sum(len(children) for _, children in plans) > 18_000
    for wires, children in plans:
        keys = set(children)
        # the text is a function of the key, so equal counts make it one-to-one
        assert len({emit_text(Circuit(wires, gates)) for gates in keys}) == len(keys)
