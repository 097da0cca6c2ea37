"""Directed circuit identities and the rewrite engine that strips wires.

A rewrite site is a tuple of ascending gate indices.  Conceptually the site
gates are gathered at the last index (each one commuting rightward past the
non-site gates in between), the identity is applied there, and the
replacement block is spliced in.  Positions therefore shift by exactly
len(site) - 1 to the left of the insertion point, which keeps traces
replayable.

Identity catalogue, written in program order (left gate acts first):

  cz-commute   [CZ jk; CX ij; CZ ik] == [CX ij; CZ jk]   (and mirrored
               arrangements; the CZ touching the control is consumed and the
               other two swap relative order)
  cz-to-cx     [CZ jk; CZ ik] == [CZ jk; CX ij]          (wire j fresh |+>)
  cx-commute   [CX jk; CX ij; CX ik] == [CX ij; CX jk]   (and mirrored)
  jgate        [CZ ij; J(t) i; CX ij] == J(t) on j       (wire j fresh |+>,
               wire i measured and otherwise finished; j inherits i's start)
  peephole     equal CZ or CX pairs cancel

One engine drives these identities for flow and gflow alike.  It is given,
for each measured wire in layer order, the wires it may teleport onto:
``simplify_flow`` passes the single CX target of each wire (a flow is a
gflow whose correcting sets are singletons), ``simplify_gflow`` the graph
neighbours in g(i).  For each injective designation a depth-first search
cancels every CX off the designation, then a fixed tail cancels pairs,
clears correction CZs, cancels pairs again and collapses each wire with the
J-gate identity.  The first path that strips every measured wire is the
result; each of its steps is applied once and, under ``simplify_gflow``
only, oracle-checked on circuits of at most ``_CHECKED_WIDTH`` wires.

A Circuit never changes: each rule applied to one returns a new Circuit.
The engine hands the rules stand-ins on which a rule returns its edit
instead.  The plan search reads each node through a read-only view and
builds a child's Circuit only when the child's gates are new.  The tail
splices an engine-private gate store in place, a mutable copy of the circuit
that offers the same reads, and builds one Circuit when it ends.  The step
checks replay their unchecked prefix through a store the same way.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import NamedTuple

from .circuits import Circuit, Gate, TimeSlicedView, Wire, digest
from .determinism import CorrectionStructure

__all__ = [
    "RewriteStep",
    "SimplificationTrace",
    "RewriteError",
    "FlowSimplifyError",
    "GflowSearchExhausted",
    "apply_cz_commute",
    "apply_cz_to_cx",
    "apply_cx_commute",
    "apply_jgate",
    "apply_peephole",
    "replay",
    "trace_text",
    "simplify_flow",
    "simplify_gflow",
]


_TOL = 1e-9  # the per-step oracle checks' deviation bound
_PLAN_BUDGET = 4000  # search nodes per designation
_CHECKED_WIDTH = 12  # the widest circuit the per-step oracle checks compare


class RewriteError(ValueError):
    """Site does not match the rule, or gathering it is obstructed."""


class FlowSimplifyError(RuntimeError):
    """The flow driver hit a circuit it could not strip (invalid input)."""


class GflowSearchExhausted(RuntimeError):
    """No special-CX designation succeeded: ``reason`` says why (or why none
    was tried), ``nodes`` counts the plan nodes spent over all attempts."""

    def __init__(self, attempts: int, partial: "SimplificationTrace", reason: str, nodes: int = 0):
        super().__init__(
            f"gflow designation search exhausted after {attempts} attempts: {reason}"
        )
        self.attempts = attempts
        self.partial = partial
        self.reason = reason
        self.nodes = nodes


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    consumed: tuple[int, ...]
    produced: tuple[Gate, ...]
    wire_removed: int | None = None

    def text(self) -> str:
        line = (
            f"{self.rule} consumed={','.join(str(k) for k in self.consumed)}"
            f" produced={','.join(g.text() for g in self.produced)}"
        )
        if self.wire_removed is not None:
            line += f" removed-wire={self.wire_removed}"
        return line


@dataclass(frozen=True)
class SimplificationTrace:
    steps: tuple[RewriteStep, ...]
    initial_digest: str
    final_digest: str


def trace_text(trace: SimplificationTrace) -> str:
    return "".join(step.text() + "\n" for step in trace.steps)


def _commutes(a: Gate, b: Gate) -> bool:
    """Sound syntactic test; False only means "do not reorder"."""
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


def _check_site(circuit: Circuit, site: tuple[int, ...]) -> None:
    if list(site) != sorted(set(site)):
        raise RewriteError(f"site indices must be strictly ascending, got {site}")
    if site and not (0 <= site[0] and site[-1] < len(circuit.gates)):
        raise RewriteError(f"site {site} out of range")


def _crossed(circuit: Circuit, p: int, stop: int) -> list[int]:
    """The gates after p and before stop that share a wire with gate p (the rest commute with it)."""
    spans = set()
    for w in circuit.gates[p].wires:
        on = circuit.gates_on(w)
        spans.update(on[bisect_right(on, p):bisect_left(on, stop)])
    return sorted(spans)


def _per_node(table):
    """A per-wire table that a plan node fills once; other circuits compute it on every call."""

    def lookup(circuit, w: int):
        if type(circuit) is not _Node:
            return table(circuit, w)
        key, tables = (table, w), circuit.tables
        if key not in tables:
            tables[key] = table(circuit, w)
        return tables[key]

    return lookup


@_per_node
def _czs_on(circuit: Circuit, w: int) -> dict[int, list[int]]:
    """The CZs on wire w, keyed by their other wire, each list in program order."""
    out: dict[int, list[int]] = {}
    for k in circuit.gates_on(w):
        g = circuit.gates[k]
        if g.kind == "CZ":
            out.setdefault(g.wires[g.wires[0] == w], []).append(k)
    return out


def _blocker(circuit: Circuit, site: tuple[int, ...]) -> tuple[int, int] | None:
    """The first site position p and non-site gate q past which gate p cannot be gathered, or None."""
    in_site = set(site)
    gates = circuit.gates
    for p in site[:-1]:
        for q in _crossed(circuit, p, site[-1]):
            if q not in in_site and not _commutes(gates[p], gates[q]):
                return p, q
    return None


def _check_gather(circuit: Circuit, site: tuple[int, ...]) -> None:
    """Each site gate must commute past the non-site gates it crosses."""
    blocked = _blocker(circuit, site)
    if blocked is not None:
        (p, q), gates = blocked, circuit.gates
        raise RewriteError(f"gate {gates[q].text()} at {q} blocks gathering {gates[p].text()} from {p}")


class _Edit(NamedTuple):
    """What a rule does to the gate list: drop the gates at ``drop``
    (ascending positions), then insert ``produced`` at ``at``, counted after
    the drop.  A jgate also sets ``moved = (i, j)``: the gates left on wire i
    move onto j, j inherits i's start, and wire i goes."""

    drop: tuple[int, ...]
    at: int
    produced: tuple[Gate, ...]
    moved: tuple[int, int] | None = None


def _relabel(g: Gate, i: int, j: int) -> Gate:
    if i not in g.wires:
        return g
    return Gate(g.kind, tuple(j if w == i else w for w in g.wires), g.angle)


def _moved_wires(wires: tuple[Wire, ...], i: int, j: int) -> tuple[Wire, ...]:
    wi = next(w for w in wires if w.id == i)
    return tuple(Wire(w.id, wi.init, w.terminal) if w.id == j else w for w in wires if w.id != i)


def _spliced(gates: tuple[Gate, ...], edit: _Edit) -> tuple[Gate, ...]:
    """The gate list after ``edit``."""
    out = list(gates)
    for p in reversed(edit.drop):
        del out[p]
    if edit.moved is not None:
        out = [_relabel(g, *edit.moved) for g in out]
    out[edit.at:edit.at] = edit.produced
    return tuple(out)


def _splice(circuit: Circuit | _Node | _GateStore, edit: _Edit) -> Circuit | _Edit:
    """The circuit after ``edit``; a plan node or a gate store gets the edit back."""
    if isinstance(circuit, (_Node, _GateStore)):
        return edit
    wires = circuit.wires if edit.moved is None else _moved_wires(circuit.wires, *edit.moved)
    return Circuit(wires, _spliced(circuit.gates, edit))


def _site_edit(site: tuple[int, ...], produced: tuple[Gate, ...]) -> _Edit:
    return _Edit(site, site[-1] - (len(site) - 1), produced)


def apply_cz_commute(circuit: Circuit, site: tuple[int, ...]) -> tuple[Circuit, RewriteStep]:
    """The CZ/CX commutation identity on one CX and two CZs.

    The CZ sharing the control wire is consumed, the other two swap order.
    """
    _check_site(circuit, site)
    gates = [circuit.gates[k] for k in site]
    cxs = [g for g in gates if g.kind == "CX"]
    czs = [g for g in gates if g.kind == "CZ"]
    if len(site) == 3:
        if len(cxs) != 1 or len(czs) != 2:
            raise RewriteError("need one CX and two CZ gates")
        cx = cxs[0]
        i, j = cx.control, cx.target
        partner = [g for g in czs if j in g.wires and i not in g.wires]
        eaten = [g for g in czs if i in g.wires and j not in g.wires]
        if len(partner) != 1 or len(eaten) != 1:
            raise RewriteError("CZ pair does not fit the commutation pattern")
        (k,) = set(partner[0].wires) - {j}
        if set(eaten[0].wires) != {i, k}:
            raise RewriteError("CZ pair does not share the third wire")
        _check_gather(circuit, site)
        first, second = (partner[0], cx) if gates.index(cx) < gates.index(partner[0]) else (cx, partner[0])
        produced = (first, second)
        step = RewriteStep("cz-commute", site, produced)
        return _splice(circuit, _site_edit(site, produced)), step
    raise RewriteError("site must have three gates")


def _require_fresh(circuit: Circuit, wire: int, before: int, site: set[int]) -> None:
    w = circuit.wire(wire)
    if w.init != "plus":
        raise RewriteError(f"wire {wire} is not |+>-initialized")
    for q in circuit.gates_on(wire):
        if q < before and q not in site:
            raise RewriteError(
                f"wire {wire} is not fresh: touched by {circuit.gates[q].text()} at {q}"
            )


def apply_cz_to_cx(
    circuit: Circuit, site: tuple[int, ...], fresh: int
) -> tuple[Circuit, RewriteStep]:
    """Trade a CZ pair on a fresh |+> wire for a CX.

    [CZ jk; CZ ik] with j = ``fresh`` becomes [CZ jk; CX ij].
    """
    _check_site(circuit, site)
    if len(site) != 2:
        raise RewriteError("site must have two gates")
    g0, g1 = (circuit.gates[k] for k in site)

    if g0.kind == "CZ" and g1.kind == "CZ":
        shared = set(g0.wires) & set(g1.wires)
        if len(shared) != 1:
            raise RewriteError("CZ pair must share exactly one wire")
        (k,) = shared
        others = (set(g0.wires) | set(g1.wires)) - {k}
        if fresh not in others:
            raise RewriteError(f"wire {fresh} is not part of the site")
        (i,) = others - {fresh}
        _require_fresh(circuit, fresh, site[-1], set(site))
        _check_gather(circuit, site)
        produced = (Gate("CZ", (fresh, k)), Gate("CX", (i, fresh)))
        step = RewriteStep("cz-to-cx", site, produced)
        return _splice(circuit, _site_edit(site, produced)), step

    raise RewriteError("site must be a CZ pair")


def _cx_word(gate_list: list[Gate], wires: list[int]) -> tuple[int, ...]:
    """GF(2) action of a CX-only sequence, as images of basis bit vectors."""
    index = {w: k for k, w in enumerate(wires)}
    images = [1 << k for k in range(len(wires))]  # column space over GF(2)
    state = list(images)
    for g in gate_list:
        c, t = index[g.control], index[g.target]
        state[t] ^= state[c]
    return tuple(state)


def apply_cx_commute(circuit: Circuit, site: tuple[int, ...]) -> tuple[Circuit, RewriteStep]:
    """Cancel the redundant CX in a triangle of CX gates.

    The site must be three CX gates on wires i, j, k shaped (i->j), (j->k),
    (i->k); the (i->k) gate is consumed and the other two are reordered so
    the overall linear action is unchanged (checked over GF(2), which is
    exact for CX-only circuits).
    """
    _check_site(circuit, site)
    if len(site) != 3:
        raise RewriteError("site must have three gates")
    gates = [circuit.gates[k] for k in site]
    if any(g.kind != "CX" for g in gates):
        raise RewriteError("all site gates must be CX")
    wires = sorted({w for g in gates for w in g.wires})
    if len(wires) != 3:
        raise RewriteError("site must span exactly three wires")

    want = _cx_word(gates, wires)
    for drop in range(3):
        rest = [g for k, g in enumerate(gates) if k != drop]
        a, b = rest
        if not (a.target == b.control or b.target == a.control):
            continue
        for candidate in ((a, b), (b, a)):
            if _cx_word(list(candidate), wires) == want:
                _check_gather(circuit, site)
                produced = candidate
                step = RewriteStep("cx-commute", site, produced)
                return _splice(circuit, _site_edit(site, produced)), step
    raise RewriteError("CX triple does not reduce to a two-gate word")


def apply_peephole(circuit: Circuit, site: tuple[int, ...]) -> tuple[Circuit, RewriteStep]:
    """Cancel an equal CZ or CX pair separated only by commuting gates."""
    _check_site(circuit, site)
    if len(site) != 2:
        raise RewriteError("site must have two gates")
    g0, g1 = (circuit.gates[k] for k in site)
    if g0 != g1 or g0.kind == "J":
        raise RewriteError("site gates must be an equal CZ or CX pair")
    _check_gather(circuit, site)
    step = RewriteStep("peephole-cancel", site, ())
    return _splice(circuit, _site_edit(site, ())), step


def apply_jgate(circuit: Circuit, i: int, j: int) -> tuple[Circuit, RewriteStep]:
    """Collapse measured wire i onto its fresh partner j.

    Wire i must end [..., CZ ij, (commuting i-gates), J i, CX i->j]; wire j
    must be untouched |+> before the CX, up to gates that commute out past
    the CX.  Everything left on wire i is relabeled to j (it rides along
    through the teleportation), wire i disappears, and J picks up i's angle
    at the CX position.
    """
    gates = circuit.gates
    wi, wj = circuit.wire(i), circuit.wire(j)
    if wi.terminal != "measured":
        raise RewriteError(f"wire {i} is not a measured wire")
    if wj.init != "plus":
        raise RewriteError(f"wire {j} is not |+>-initialized")

    on_i = circuit.gates_on(i)
    if not on_i:
        raise RewriteError(f"wire {i} carries no gates")
    cx_pos = on_i[-1]
    cx = gates[cx_pos]
    if not (cx.kind == "CX" and cx.control == i and cx.target == j):
        raise RewriteError(f"leftover gate on wire {i}: last is {cx.text()}, want CX {i} {j}")

    j_positions = [k for k in on_i if gates[k].kind == "J"]
    if not j_positions:
        raise RewriteError(f"wire {i} carries no J gate")
    jg_pos = j_positions[-1]  # earlier J gates are inherited prefix content
    between = [k for k in on_i if jg_pos < k < cx_pos]
    if between:
        raise RewriteError(f"leftover gate on wire {i} between J and CX: {gates[between[0]].text()}")

    cz = Gate("CZ", (i, j))
    cz_candidates = [k for k in on_i if k < jg_pos and gates[k] == cz]
    if not cz_candidates:
        raise RewriteError(f"no CZ {min(i, j)} {max(i, j)} precedes the J on wire {i}")
    cz_pos = cz_candidates[-1]

    for k in on_i:
        if k in (cz_pos, jg_pos, cx_pos):
            continue
        g = gates[k]
        if j in g.wires:
            raise RewriteError(f"gate {g.text()} touches both {i} and {j}; cannot relabel")
        if cz_pos < k < jg_pos and not _commutes(g, gates[cz_pos]):
            raise RewriteError(f"gate {g.text()} at {k} cannot slide before the CZ {i} {j}")

    site = {cz_pos, jg_pos, cx_pos}
    # A gate touching j inside the span may ride along if it commutes all
    # the way past the final CX (a CX sharing j as its target does); it is
    # reinserted right after the teleported J.  Scanning right to left lets
    # earlier riders skip over later ones, which keep their relative order.
    on_j = circuit.gates_on(j)
    sliders: list[int] = []
    for q in reversed(on_j):
        g = gates[q]
        if not cz_pos < q < cx_pos or i in g.wires:
            continue
        movable = all(
            r in sliders or _commutes(g, gates[r]) for r in _crossed(circuit, q, cx_pos + 1)
        )
        if movable:
            sliders.append(q)
    slid = set(sliders)
    for q in on_j:
        if q < cx_pos and q not in site and q not in slid:
            raise RewriteError(f"wire {j} is not fresh: {gates[q].text()} at {q}")

    theta = gates[jg_pos].angle
    assert theta is not None
    produced = Gate("J", (j,), theta)
    # the teleported J, then the riders in program order, where the CX was
    edit = _Edit(
        tuple(sorted(site | slid)),
        cx_pos - 2 - len(sliders),
        (produced,) + tuple(gates[q] for q in sorted(sliders)),
        (i, j),
    )
    step = RewriteStep("jgate", (cz_pos, jg_pos, cx_pos), (produced,), wire_removed=i)
    return _splice(circuit, edit), step


def _reapply(circuit: Circuit, st: RewriteStep) -> tuple[Circuit, RewriteStep]:
    """Run one recorded step against a circuit it may not have come from."""
    if st.rule == "jgate":
        assert st.wire_removed is not None
        return apply_jgate(circuit, st.wire_removed, st.produced[0].wires[0])
    if st.rule == "peephole-cancel":
        return apply_peephole(circuit, st.consumed)
    if st.rule == "cz-commute":
        return apply_cz_commute(circuit, st.consumed)
    if st.rule == "cx-commute":
        return apply_cx_commute(circuit, st.consumed)
    if st.rule == "cz-to-cx":
        return apply_cz_to_cx(circuit, st.consumed, fresh=st.produced[1].target)
    raise RewriteError(f"unknown rule {st.rule!r}")


def replay(circuit: Circuit, steps: tuple[RewriteStep, ...] | list[RewriteStep]) -> Circuit:
    """Re-run recorded steps; raises if any step no longer matches."""
    c = circuit
    for st in steps:
        c, redo = _reapply(c, st)
        if redo.produced != st.produced:
            raise RewriteError(f"replay diverged at step {st.text()}")
    return c


def follow_jgates(steps: tuple[RewriteStep, ...] | list[RewriteStep], wires: list[int]) -> list[int]:
    """Where ``wires`` end up after ``steps``: a jgate moves wire i onto j."""
    for st in steps:
        if st.rule == "jgate":
            j = st.produced[0].wires[0]
            wires = [j if w == st.wire_removed else w for w in wires]
    return wires


# --- the engine --------------------------------------------------------------


# Spacing of a fresh store's order keys.  Two leaves room for one nested
# insertion, all the eliminator's re-emissions need on the strips and the flow
# atlas; deeper nesting renumbers every key.
_GAP = 2


class _GateStore:
    """The tail's mutable circuit: each fired step splices it in place.

    It offers the reads the rules make of a Circuit (``wires``, ``gates``,
    ``wire``, ``gates_on``), so each identity keeps one implementation.
    Every gate also carries an order key; keys ascend in program order and
    survive splices elsewhere, so the per-wire index holds keys and reads
    positions off them once per wire between splices.  When a splice finds no
    room between two neighbouring keys, all keys are renumbered
    (``renumbered`` counts how often).
    """

    def __init__(self, circuit: Circuit):
        self.wires = circuit.wires
        self.gates = list(circuit.gates)
        self.renumbered = 0
        self._renumber()

    def _renumber(self) -> None:
        self.keys = list(range(0, len(self.gates) * _GAP, _GAP))
        # gates_on per wire, kept until the next splice
        self._pos: dict[int, list[int]] = {w.id: [] for w in self.wires}
        for p, g in enumerate(self.gates):
            for w in g.wires:
                self._pos[w].append(p)
        self._on = {w: [p * _GAP for p in ps] for w, ps in self._pos.items()}

    wire = Circuit.wire

    def gates_on(self, wire_id: int) -> list[int]:
        """Positions of the gates on a wire, in program order; shared until the next splice."""
        pos = self._pos.get(wire_id)
        if pos is None:
            keys = self.keys
            pos = self._pos[wire_id] = [bisect_left(keys, k) for k in self._on.get(wire_id, ())]
        return pos

    def apply(self, edit: _Edit) -> None:
        gates, keys, on = self.gates, self.keys, self._on
        for p in reversed(edit.drop):
            k = keys.pop(p)
            for w in gates.pop(p).wires:
                ks = on[w]
                del ks[bisect_left(ks, k)]
        at, new = edit.at, edit.produced
        room = _GAP * (len(new) + 1)  # past either end there is always room
        lo = keys[at - 1] if at else (keys[0] if keys else 0) - room
        hi = keys[at] if at < len(keys) else lo + room
        step = (hi - lo) // (len(new) + 1)
        gates[at:at] = new
        if step:
            fresh = range(lo + step, hi, step)[: len(new)]
            keys[at:at] = fresh
            for k, g in zip(fresh, new):
                for w in g.wires:
                    insort(on[w], k)
        else:
            self.renumbered += 1
            self._renumber()
        if edit.moved is not None:
            i, j = edit.moved
            keys, on = self.keys, self._on
            for k in on[i]:
                p = bisect_left(keys, k)
                gates[p] = _relabel(gates[p], i, j)
            on[j] = sorted(on[j] + on.pop(i))
            self.wires = _moved_wires(self.wires, i, j)
        self._pos = {}

    def circuit(self) -> Circuit:
        return Circuit(self.wires, tuple(self.gates))


class _Node:
    """A plan-search node as the rules read it: a read-only view of a Circuit
    whose ``gates_on`` lists are the circuit's own, uncopied, and whose
    ``_per_node`` tables fill on first use; callers only read either."""

    def __init__(self, circuit: Circuit):
        self.wires, self.gates, self._on, self.tables = circuit.wires, circuit.gates, circuit._on, {}

    wire = Circuit.wire

    def gates_on(self, wire_id: int) -> list[int]:
        return self._on.get(wire_id, [])


class _Driver:
    """A circuit and the steps that led to it from the engine's input.

    During the plan search ``circuit`` is an immutable Circuit, which
    ``fork`` shares.  The tail swaps in a _GateStore that each fired step
    splices in place, and builds one Circuit from it when it succeeds.
    """

    def __init__(self, circuit: Circuit | _GateStore, steps=()):
        self.circuit = circuit
        self.steps = list(steps)

    def fire(self, result: _Result) -> None:
        """Splice a step's edit into the gate store and record the step."""
        edit, step = result
        self.circuit.apply(edit)
        self.steps.append(step)

    def fork(self) -> "_Driver":
        return _Driver(self.circuit, self.steps)


def _peephole_pass(drv: _Driver) -> None:
    changed = True
    while changed:
        changed = False
        gates = drv.circuit.gates
        for q1 in range(len(gates)):
            g = gates[q1]
            if g.kind == "J":
                continue
            for q2 in _crossed(drv.circuit, q1, len(gates)):
                if gates[q2] == g:
                    drv.fire(apply_peephole(drv.circuit, (q1, q2)))
                    changed = True
                    break
                if not _commutes(g, gates[q2]):
                    break
            if changed:
                break


def _controllers(g: Gate, q: int, measured: set[int], first_j: dict[int, int]) -> list[int]:
    """The measured wires of the CZ g at q whose first J comes before it."""
    return [m for m in g.wires if m in measured and first_j.get(m, q) < q]


def _correction_czs(circuit: Circuit):
    """Each CZ sitting after the J of a measured wire it touches, with those wires.

    Such a CZ is correction-shaped: it rides on the measured wire past its
    measurement unitary.  The commutation identity trades it for a forward
    move of a CZ on the corrector, exactly the slice-migration step.
    """
    measured = _measured_ids(circuit)
    j_at: dict[int, int] = {}  # first J of each wire among the gates before q
    for q, g in enumerate(circuit.gates):
        if g.kind == "J":
            j_at.setdefault(g.wires[0], q)
        elif g.kind == "CZ":
            controllers = _controllers(g, q, measured, j_at)
            if controllers:
                yield q, controllers


def _partner_moves(circuit: Circuit, q: int, movers: list[int]):
    """Commutations that carry the CZ at q away through a mover's CX.

    The mover CX may be controlled by either wire of the CZ; the measured
    side is the common case, but when the CZ pairs a measured wire with its
    own corrector only the other side has a usable partner.
    """
    gates = circuit.gates
    for m in movers:
        (k,) = set(gates[q].wires) - {m}
        partners = _czs_on(circuit, k)
        for cx_idx in _cx_controlled_by(circuit, m):
            # the partner CZ pairs k with the CX target (never the CZ at q,
            # which pairs k with the CX control)
            for p in partners.get(gates[cx_idx].target, ()):
                yield from _fits(apply_cz_commute, circuit, (p, cx_idx, q))


def _fits(rule, circuit: Circuit, gates: tuple[int, ...], **kw):
    """Yield ``rule`` at the site of ``gates`` if it matches.  On a plan node a
    blocked site is skipped before the rule sees it; in the tail nearly every
    site tried fires, so the rule checks alone."""
    site = tuple(sorted(gates))
    if type(circuit) is _Node and _blocker(circuit, site) is not None:
        return
    try:
        yield rule(circuit, site, **kw)
    except RewriteError:
        pass


class _Corrections:
    """The eliminator's worklist: a gate store's correction-shaped CZs, in firing order.

    ``order`` holds one (rank, -key, controllers) entry per shaped CZ, sorted:
    ``key`` is the CZ's order key and ``rank`` the order key of the first CX
    that one of its controllers controls (inf if none).  Order keys sort as
    positions do and survive splices elsewhere, so a fire only re-tests the
    gates it moved.
    """

    def __init__(self, store: _GateStore):
        self.store = store
        self.measured = _measured_ids(store)
        self._seed()

    def _seed(self) -> None:
        store = self.store
        self.renumbered = store.renumbered
        self.first_j: dict[int, int] = {}
        self.first_cx: dict[int, int] = {}
        for k, g in zip(store.keys, store.gates):
            if g.kind == "J":
                self.first_j.setdefault(g.wires[0], k)
            elif g.kind == "CX":
                self.first_cx.setdefault(g.control, k)
        self.entry: dict[int, tuple] = {}
        for q, controllers in _correction_czs(store):
            key = store.keys[q]
            self.entry[key] = self._entry(key, tuple(controllers))
        self.order = sorted(self.entry.values())

    def _entry(self, key: int, controllers: tuple[int, ...]) -> tuple:
        return (min(self.first_cx.get(m, math.inf) for m in controllers), -key, controllers)

    def _add(self, key: int, controllers: tuple[int, ...]) -> None:
        self.entry[key] = entry = self._entry(key, controllers)
        insort(self.order, entry)

    def _drop(self, key: int) -> None:
        entry = self.entry.pop(key, None)
        if entry is not None:
            del self.order[bisect_left(self.order, entry)]

    def fire(self, drv: _Driver, result: _Result) -> None:
        """Fire ``result`` on the store and update from the gates it moved."""
        store, edit = self.store, result[0]
        dropped = [(store.keys[p], store.gates[p]) for p in edit.drop]
        drv.fire(result)
        if store.renumbered != self.renumbered:
            self._seed()
            return
        controls = {g.control for _, g in dropped if g.kind == "CX"}
        controls.update(g.control for g in edit.produced if g.kind == "CX")
        for k, _ in dropped:
            self._drop(k)
        for c in controls:
            cxs = _cx_controlled_by(store, c)
            self.first_cx[c] = store.keys[cxs[0]] if cxs else math.inf
        for t, g in enumerate(edit.produced):
            if g.kind == "CZ":
                k = store.keys[edit.at + t]
                controllers = _controllers(g, k, self.measured, self.first_j)
                if controllers:
                    self._add(k, tuple(controllers))
        for c in controls:  # re-rank the CZs c controls
            for p in store.gates_on(c):
                entry = self.entry.get(store.keys[p])
                if entry is not None and c in entry[2]:
                    self._drop(-entry[1])
                    self._add(-entry[1], entry[2])


def _eliminate_corrections(drv: _Driver) -> None:
    """Strip every correction-shaped CZ, measured wires first as movers.

    A fire re-emits its partner CZ just past the mover CX, so ordering
    matters twice over: within one mover's span the rightmost CZ must go
    first (a re-emission lands between the mover and anything left of the
    consumed gate), and across movers the leftmost block must go first (two
    blocks can share a partner, and only the earlier block can reach it
    before it is relocated).  Each pass walks the worklist in that order and
    fires the first CZ that moves; a blocked CZ is retried on a later pass
    once others have moved.
    """
    store = drv.circuit
    work = _Corrections(store)
    while work.order:
        for _, key, controllers in work.order:
            q = bisect_left(store.keys, -key)
            movers = list(controllers) + [w for w in store.gates[q].wires if w not in controllers]
            result = next(_partner_moves(store, q, movers), None)
            if result is not None:
                break
        else:
            q = bisect_left(store.keys, -work.order[0][1])
            raise RewriteError(f"no commutation partner eliminates {store.gates[q].text()} at {q}")
        work.fire(drv, result)


@_per_node
def _cx_controlled_by(circuit: Circuit, control: int) -> list[int]:
    gates = circuit.gates
    return [k for k in circuit.gates_on(control) if gates[k].kind == "CX" and gates[k].control == control]


def _measured_ids(circuit: Circuit) -> set[int]:
    return {w.id for w in circuit.wires if w.terminal == "measured"}


def _unwanted_cxs(circuit: Circuit, order: tuple[int, ...], targets: dict[int, int]) -> list[tuple[int, int, int]]:
    out = []
    for i in order:
        for k in _cx_controlled_by(circuit, i):
            if circuit.gates[k].target != targets[i]:
                out.append((k, i, circuit.gates[k].target))
    out.sort()
    return out


def _middles(circuit: Circuit, i: int, t: int) -> list[tuple[int, int]]:
    gates = circuit.gates
    return sorted(
        (gates[k].target, k) for k in _cx_controlled_by(circuit, i) if gates[k].target != t
    )


def _helper_indices(circuit: Circuit, m: int, t: int) -> list[int]:
    return [k for k in _cx_controlled_by(circuit, m) if circuit.gates[k].target == t]


_Result = tuple[Circuit | _Edit, RewriteStep]


def _direct_candidates(circuit: Circuit, work: list[tuple[int, int, int]]):
    """CX triangles that erase an unwanted CX outright."""
    for u, i, t in work:
        for m, m_idx in _middles(circuit, i, t):
            for h in _helper_indices(circuit, m, t):
                yield from _fits(apply_cx_commute, circuit, (h, m_idx, u))


def _mint_candidates(circuit: Circuit, work: list[tuple[int, int, int]]):
    """CZ pairs that mint a missing helper CX onto a still-fresh wire."""
    for u, i, t in work:
        for m, _ in _middles(circuit, i, t):
            if _helper_indices(circuit, m, t):
                continue
            t_czs, m_czs = _czs_on(circuit, t), _czs_on(circuit, m)
            for c in sorted(set(t_czs) & set(m_czs)):
                for kt in t_czs[c]:
                    for km in m_czs[c]:
                        yield from _fits(apply_cz_to_cx, circuit, (kt, km), fresh=t)


def _fire_candidates(circuit: Circuit):
    """Commutations that carry a correction-shaped CZ off a measured wire."""
    for q, _ in _correction_czs(circuit):
        yield from _partner_moves(circuit, q, sorted(circuit.gates[q].wires))


def _hop_candidates(circuit: Circuit, work: list[tuple[int, int, int]]):
    """Commutations that walk a helper CX right past the CZ blocking it."""
    gates = circuit.gates
    seen_helpers: set[int] = set()
    for u, i, t in work:
        for m, _ in _middles(circuit, i, t):
            for h in _helper_indices(circuit, m, t):
                if h in seen_helpers:
                    continue
                seen_helpers.add(h)
                helper = gates[h]
                for q in _crossed(circuit, h, len(gates)):
                    g = gates[q]
                    if _commutes(helper, g):
                        continue
                    if g.kind == "CZ" and t in g.wires and m not in g.wires:
                        (y,) = set(g.wires) - {t}
                        for p in _czs_on(circuit, m).get(y, ()):
                            yield from _fits(apply_cz_commute, circuit, (h, q, p))
                    break  # only the first blocker can move this helper


def _shift_candidates(circuit: Circuit, work: list[tuple[int, int, int]]):
    """Commutations that swap a CZ on the target past the unwanted CX itself."""
    gates = circuit.gates
    for u, i, t in work:
        eaten_by_y = _czs_on(circuit, i)
        for q in circuit.gates_on(t):
            g = gates[q]
            if g.kind != "CZ" or i in g.wires:
                continue
            (y,) = set(g.wires) - {t}
            for e in eaten_by_y.get(y, ()):
                yield from _fits(apply_cz_commute, circuit, (q, u, e))


def _tail(drv: _Driver, order: tuple[int, ...], targets: dict[int, int]) -> str | None:
    """Cancel pairs, clear correction CZs, collapse wires; why it failed, or None.

    The steps splice a gate store in place; on success ``drv.circuit`` is
    the one Circuit built from it.
    """
    drv.circuit = store = _GateStore(drv.circuit)
    try:
        _peephole_pass(drv)
        _eliminate_corrections(drv)
        _peephole_pass(drv)
        for i in order:
            drv.fire(apply_jgate(store, i, targets[i]))
    except RewriteError as exc:
        return str(exc)
    left = _measured_ids(store)
    if left:
        return f"wires {sorted(left)} were not removed"
    drv.circuit = store.circuit()
    return None


class _PlanBudgetExceeded(Exception):
    pass


def _plan(
    circuit: Circuit, order: tuple[int, ...], targets: dict[int, int]
) -> tuple[_Driver, str | None, int]:
    """Depth-first search for a step sequence that strips every measured wire.

    A CX is unwanted when its target is not its control's designated
    partner.  Moves are tried most-direct-first on a read-only ``_Node``
    view, where each rule returns its edit.  The plan moves no wire (jgate
    fires only in the tail), so a child is keyed on its gate tuple: a seen
    one is pruned, only a new one becomes a Circuit.  Once no unwanted CX
    remains, the tail is the goal test.  Returns the driver of the accepted
    path and None, or the deepest explored prefix and why the search failed;
    then the nodes spent.
    """
    nodes = 0
    best = root = _Driver(circuit)
    seen = {circuit.gates}
    why = "no sequence of moves cancels every unwanted CX"

    def rec(drv: _Driver) -> _Driver | None:
        nonlocal nodes, best, why
        c = _Node(drv.circuit)
        work = _unwanted_cxs(c, order, targets)
        if not work:
            done = drv.fork()
            why = _tail(done, order, targets)
            return done if why is None else None
        if len(drv.steps) > len(best.steps):
            best = drv
        candidates = itertools.chain(
            _direct_candidates(c, work),
            _mint_candidates(c, work),
            _fire_candidates(c),
            _hop_candidates(c, work),
            _shift_candidates(c, work),
        )
        for edit, step in candidates:
            gates = _spliced(c.gates, edit)
            if gates in seen:
                continue
            seen.add(gates)
            nodes += 1
            if nodes > _PLAN_BUDGET:
                raise _PlanBudgetExceeded
            found = rec(_Driver(Circuit(c.wires, gates), [*drv.steps, step]))
            if found is not None:
                return found
        return None

    try:
        found = rec(root)
    except _PlanBudgetExceeded:
        return best, f"the plan search spent its {_PLAN_BUDGET}-node budget", _PLAN_BUDGET
    return (found, None, nodes) if found is not None else (best, why, nodes)


def _check_path(circuit: Circuit, drv: _Driver) -> tuple[_Driver, str | None]:
    """Oracle-check each accepted step on circuits of at most ``_CHECKED_WIDTH`` wires.

    The steps are replayed from the engine's input ``circuit``: through a
    gate store, unchecked, while it is wider than that, then on Circuits,
    each step comparing the isometries of the circuits on either side of it,
    with input columns lined up through the jgate relabelings.  Returns the
    driver and None, or the steps before the first drifting one and why.
    """
    from .simulate import basis_column_order, circuit_isometry, max_deviation

    steps = drv.steps
    order = [w.id for w in circuit.wires if w.init == "input"]
    start = 0
    if len(circuit.wires) > _CHECKED_WIDTH:
        store = _GateStore(circuit)
        while start < len(steps) and len(store.wires) > _CHECKED_WIDTH:
            store.apply(_reapply(store, steps[start])[0])
            start += 1
        circuit = store.circuit()
        order = follow_jgates(steps[:start], order)
    before = None
    for k, step in enumerate(steps[start:], start):
        following, _ = _reapply(circuit, step)
        order_after = follow_jgates([step], order)
        if before is None:
            before = circuit_isometry(circuit)
        after = circuit_isometry(following)
        mb = before.matrix[:, basis_column_order(before.input_wires, order)]
        ma = after.matrix[:, basis_column_order(after.input_wires, order_after)]
        dev = max_deviation(mb, ma)
        if dev > _TOL:
            why = f"step {step.text()} drifted by {dev:.3g}"
            return _Driver(circuit, steps[:k]), why
        circuit, order, before = following, order_after, after
    return drv, None


def _simplify(
    circuit: Circuit, order: tuple[int, ...], candidates: list[list[int]],
    budget: int | None, check_steps: bool,
) -> tuple[Circuit, SimplificationTrace]:
    """The one rewrite engine behind both entry points.

    ``candidates[k]`` lists the possible teleportation partners of wire
    ``order[k]``.  Injective designations are tried in product order, at
    most ``budget`` of them (default: all, capped at 10000); each gets one
    plan search, whose accepted path is the result, once its steps pass the
    oracle checks if the entry point asks for them (``check_steps``).
    """
    initial = digest(circuit)
    cap = min(math.prod(map(len, candidates)), 10_000) if budget is None else budget

    attempts = nodes = 0
    partial = SimplificationTrace((), initial, initial)
    why: str | None = f"the attempt budget is {cap}"
    for assignment in itertools.product(*candidates):
        if len(set(assignment)) != len(assignment):
            continue
        if attempts >= cap:
            break
        attempts += 1
        targets = dict(zip(order, assignment))
        drv, why, spent = _plan(circuit, order, targets)
        nodes += spent
        if why is None and check_steps:
            drv, why = _check_path(circuit, drv)
        trace = SimplificationTrace(tuple(drv.steps), initial, digest(drv.circuit))
        if why is None:
            return drv.circuit, trace
        partial = trace
    else:
        if not attempts:
            why = "no injective designation exists among the candidate partners " + " ".join(
                f"{i}:{{{','.join(map(str, cand))}}}" for i, cand in zip(order, candidates)
            )
    raise GflowSearchExhausted(attempts, partial, why, nodes)


def simplify_flow(circuit: Circuit, view: TimeSlicedView) -> tuple[Circuit, SimplificationTrace]:
    """Strip every measured wire of a flow-built extended circuit.

    A flow corrects each measured wire through its one CX, whose target is
    the only designation the engine is given: no CX needs cancelling, so the
    engine goes straight to its tail, clearing correction CZs (migrating
    entangler CZs forward in the same stroke) and collapsing each measured
    wire onto its corrector in layer order.  It checks no step; the
    pipeline's final oracle check covers the result.
    """
    candidates = []
    for i in view.order:
        cxs = _cx_controlled_by(circuit, i)
        if len(cxs) != 1:
            raise FlowSimplifyError(f"wire {i} has {len(cxs)} correction CXs; flow needs 1")
        candidates.append([circuit.gates[cxs[0]].target])
    try:
        return _simplify(circuit, view.order, candidates, None, check_steps=False)
    except GflowSearchExhausted as exc:
        raise FlowSimplifyError(exc.reason) from exc


def simplify_gflow(
    circuit: Circuit,
    view: TimeSlicedView,
    structure: CorrectionStructure,
    *,
    budget: int | None = None,
) -> tuple[Circuit, SimplificationTrace]:
    """Search a special-CX designation and strip every measured wire.

    Each measured wire i keeps one special CX (its eventual teleportation
    partner, a graph neighbour in g(i)); the engine cancels the others with
    the CX-triangle identity, minting helpers from CZ pairs where needed.
    Designations are tried in ascending-target order, injectively, within
    the attempt budget.  Each accepted step on at most ``_CHECKED_WIDTH``
    wires is oracle-checked; a drifting step fails the designation.
    """
    candidates: list[list[int]] = []
    for i in view.order:
        cand = sorted(structure.correcting_sets[i] & view.neighbors[i])
        if not cand:
            initial = digest(circuit)
            raise GflowSearchExhausted(
                0,
                SimplificationTrace((), initial, initial),
                f"wire {i} has no graph neighbour in its correcting set",
            )
        candidates.append(cand)
    return _simplify(circuit, view.order, candidates, budget, check_steps=True)
