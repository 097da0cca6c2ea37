"""Directed circuit identities and the rewrite engine that strips wires.

A rewrite site is a tuple of ascending gate indices.  Conceptually the site
gates are gathered at the last index (each one commuting rightward past the
non-site gates in between), the identity is applied there, and the
replacement block is spliced in.  Positions therefore shift by exactly
len(site) - 1 to the left of the insertion point, which keeps traces
replayable.

Gathering commutes by roles.  A gate acts on each of its wires in one role:
"Z" where it is diagonal (a CZ on either wire, a CX on its control), "X" (a
CX on its target) or "J".  Two gates commute when they act in the same role,
Z or X, on every wire they share; a J commutes with no gate on its wire.
Each wire has one bitmask per role, of the gates there that conflict with
a gate in that role; ORed over its wires they give a gate's conflicts as one
integer.  The gather check ANDs it with the window up to the site's end,
clears the site's own bits, and the lowest bit left blocks.

Identity catalogue, written in program order (left gate acts first):

  commutation  [G jk; CX ij; G ik] == [CX ij; G jk]      (G a CZ: traced as
               cz-commute; G a CX controlled by j: cx-commute, the CX
               triangle.  G ik commutes with the other two, so the three
               come in any order: G ik is consumed, the other two swap)
  cz-to-cx     [CZ jk; CZ ik] == [CZ jk; CX ij]          (wire j fresh |+>)
  jgate        [CZ ij; J(t) i; CX ij] == J(t) on j       (wire j fresh |+>,
               wire i measured and otherwise finished; j inherits i's start)
  peephole     equal CZ or CX pairs cancel

Under a causal flow these identities always strip the extended circuit the
same way, so ``simplify_flow`` searches nothing: it reads the flow off the
circuit, writes the compact circuit in closed form and derives the trace
from that fixed schedule, calling no rule.

The rewrite engine serves ``simplify_gflow``.  It is given, for each
measured wire in the structure's order, the graph neighbours in g(i) it may
teleport onto.  For each injective designation a depth-first search cancels
every CX off the designation, then a fixed tail cancels pairs, clears correction CZs,
cancels pairs again and collapses each wire with the J-gate identity.  The
first path that strips every measured wire is the result; each of its steps
is applied once and oracle-checked on circuits of at most
``_CHECKED_WIDTH`` wires.  Given a flow as singleton correcting sets, the
engine reproduces ``simplify_flow``'s output byte for byte.  An order other
than the structure's, or a structure and circuit that do not name the same
measured wires, is refused up front with ValueError, before any search.

A Circuit never changes: each rule applied to one returns a new Circuit.
Inside the engine every circuit sits in a ``_Node`` with the step that made
it and its parent, and a rule applied to a node returns its edit and its
step's fields instead.  The plan search calls a rule, and builds a child and
its step, only when the child's gates are new, the tail extends the accepted
node one step at a time, and the step checks walk that one path back from
its end, comparing the nodes already built.

Every site the engine builds is a rewrite its rule accepts.  A site is
(rule, positions, shape, shape argument, rule arguments), and the generator
that builds it screens it there with the rule's own side conditions: the
shape, a fresh |+> wire, and gathering unblocked.  A pair of fixed site
gates that no partner can complete is screened out before any site is
built.  So the engine handles no refusal: one would be a bug, and it
surfaces as RewriteError.

Each node does only the work its result depends on.  Its tables come from
one pass over its gates.  A rule's shape match depends only on the site's
gates in site order, so one ``simplify_gflow`` call matches each such gate
sequence once per shape: its root node holds the memo, and every node below
shares it.  The plan search splices each site's child from that match, and
a child it has already seen ends there; only a new one calls its rule, for
its step.  The site carries its shape, so it is never read off the rule,
and the rules are still called by their module names, ``apply_*``, looked
up at call time.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import Counter, namedtuple
from dataclasses import dataclass
from typing import NamedTuple

from .circuits import Circuit, Gate, Wire, _StrictTuple, digest
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
_ATTEMPT_CAP = 10_000  # designations tried when no budget is given
_CHECKED_WIDTH = 12  # the widest circuit the per-step oracle checks compare
_PRODUCED = {"jgate": 1, "peephole-cancel": 0, "cz-commute": 2, "cx-commute": 2, "cz-to-cx": 2}  # gates per step


class RewriteError(ValueError):
    """Site does not match the rule, or gathering it is obstructed."""


class FlowSimplifyError(RuntimeError):
    """``simplify_flow`` was given a circuit that is not a flow-built extended circuit."""


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


class RewriteStep(
    _StrictTuple, namedtuple("RewriteStep", "rule consumed produced wire_removed", defaults=[None])
):
    """One applied identity: the rule, the site it consumed, the gates it
    produced there and, for a jgate, the wire it removed."""

    __slots__ = ()

    def text(self) -> str:
        rule, consumed, produced, removed = self
        line = f"{rule} consumed={','.join(map(str, consumed))} produced={','.join(map(Gate.text, produced))}"
        if removed is not None:
            line += f" removed-wire={removed}"
        return line


@dataclass(frozen=True)
class SimplificationTrace:
    steps: tuple[RewriteStep, ...]
    initial_digest: str
    final_digest: str


def trace_text(trace: SimplificationTrace) -> str:
    return "".join(step.text() + "\n" for step in trace.steps)


def _conflicts(circuit: Circuit, p: int, stop: int) -> int:
    """The gates after p and before stop that gate p does not commute with,
    as a bitmask; empty when stop <= p."""
    node = circuit if type(circuit) is _Node else _Node(circuit.wires, circuit.gates)
    return node.conflicts[p] & ((1 << stop) - 1) >> (p + 1) << (p + 1)


def _next_conflict(circuit: Circuit, p: int, stop: int, skip=()) -> int:
    """The first gate after p and before stop, not in ``skip``, that gate p
    does not commute with, else stop."""
    mask = _conflicts(circuit, p, stop)
    for k in skip:
        mask &= ~(1 << k)
    return (mask & -mask).bit_length() - 1 if mask else stop


def _blocker(circuit: Circuit, site: tuple[int, ...]) -> tuple[int, int] | None:
    """The first site position p and non-site gate q past which gate p cannot
    be gathered to ``site[-1]``, or None: q is the lowest conflict of p
    before ``site[-1]`` once the site's own bits are cleared."""
    for p in site[:-1]:
        q = _next_conflict(circuit, p, site[-1], site)
        if q < site[-1]:
            return p, q
    return None


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


def _splice(circuit: Circuit | _Node, edit: _Edit, *step):
    """The circuit after ``edit`` and the step made of the fields ``step``.
    An engine node gets the edit and the fields back: the search builds a
    step only for a child that is new."""
    if type(circuit) is _Node:
        return edit, step
    wires = circuit.wires if edit.moved is None else _moved_wires(circuit.wires, *edit.moved)
    return Circuit(wires, _spliced(circuit.gates, edit)), RewriteStep(*step)


def _gather(site: tuple[int, ...], produced: tuple[Gate, ...]) -> _Edit:
    """The edit that gathers ``site`` at its last gate and puts ``produced`` there."""
    return _Edit(site, site[-1] - (len(site) - 1), produced)


def _gathered(circuit: Circuit, rule: str, site: tuple[int, ...], produced: tuple[Gate, ...]):
    """Gather ``site`` at its last gate and put ``produced`` there: the
    circuit after and the step, as ``_splice`` returns them.  Each site gate
    must commute past the non-site gates it crosses."""
    blocked = _blocker(circuit, site)
    if blocked is not None:
        (p, q), gates = blocked, circuit.gates
        raise RewriteError(f"gate {gates[q].text()} at {q} blocks gathering {gates[p].text()} from {p}")
    return _splice(circuit, _gather(site, produced), rule, site, produced)


def _matched(circuit: Circuit, site: tuple[int, ...], shape, *args):
    """``shape(gates, *args)`` on the site's gates in site order, once the
    site's positions ascend within the circuit: the gates the rule
    produces, else RewriteError."""
    if list(site) != sorted(set(site)):
        raise RewriteError(f"site indices must be strictly ascending, got {site}")
    if site and not (0 <= site[0] and site[-1] < len(circuit.gates)):
        raise RewriteError(f"site {site} out of range")
    return _match(circuit, site, shape, *args)


def _match(circuit: Circuit, site: tuple[int, ...], shape, *args):
    """``_matched`` on a site known to ascend within the circuit.  A match
    depends on the site's gates alone, so an engine node keeps it in the
    memo its search shares; a refusal raises and is not kept."""
    memo = circuit.matches if type(circuit) is _Node else {}
    key = (shape, tuple(map(circuit.gates.__getitem__, site)), *args)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = shape(*key[1:])
    return hit


def _triangle_shape(gates, kind):
    """[G jk; CX ij; G ik] == [CX ij; G jk], G of ``kind`` ("CX": controlled
    by j), on the site's three gates in any order: G ik is consumed, and
    the other two come out in reversed site order."""
    if len(gates) != 3:
        raise RewriteError("site must have three gates")
    for x, y, z in itertools.permutations(range(3)):
        cx, g = gates[x], gates[y]
        if cx.kind == "CX" and g.kind == kind and cx.target in g.wires:
            i, j = cx.wires
            k = g.wires[g.wires[0] == j]
            if k != i and g == Gate(kind, (j, k)) and gates[z] == Gate(kind, (i, k)):
                return (g, cx) if x < y else (cx, g)
    raise RewriteError(f"site does not fit [{kind} jk; CX ij; {kind} ik]")


def apply_cz_commute(circuit: Circuit, site: tuple[int, ...]) -> tuple[Circuit, RewriteStep]:
    """The commutation identity with G a CZ: [CZ jk; CX ij; CZ ik] == [CX ij; CZ jk].

    The CZ sharing the control wire is consumed, the other two swap order.
    """
    return _gathered(circuit, "cz-commute", site, _matched(circuit, site, _triangle_shape, "CZ"))


def _require_fresh(circuit: Circuit, wire: int, before: int, site: tuple[int, ...]) -> None:
    if circuit.wire(wire).init != "plus":
        raise RewriteError(f"wire {wire} is not |+>-initialized")
    for q in circuit.gates_on(wire):
        if q < before and q not in site:
            raise RewriteError(
                f"wire {wire} is not fresh: touched by {circuit.gates[q].text()} at {q}"
            )


def _cz_to_cx_shape(gates, fresh):
    if len(gates) != 2:
        raise RewriteError("site must have two gates")
    g0, g1 = gates
    if g0.kind != "CZ" or g1.kind != "CZ":
        raise RewriteError("site must be a CZ pair")
    shared = set(g0.wires) & set(g1.wires)
    if len(shared) != 1:
        raise RewriteError("CZ pair must share exactly one wire")
    (k,) = shared
    others = (set(g0.wires) | set(g1.wires)) - {k}
    if fresh not in others:
        raise RewriteError(f"wire {fresh} is not part of the site")
    (i,) = others - {fresh}
    return Gate("CZ", (fresh, k)), Gate("CX", (i, fresh))


def apply_cz_to_cx(
    circuit: Circuit, site: tuple[int, ...], fresh: int
) -> tuple[Circuit, RewriteStep]:
    """Trade a CZ pair on a fresh |+> wire for a CX.

    [CZ jk; CZ ik] with j = ``fresh`` becomes [CZ jk; CX ij].
    """
    produced = _matched(circuit, site, _cz_to_cx_shape, fresh)
    _require_fresh(circuit, fresh, site[-1], site)
    return _gathered(circuit, "cz-to-cx", site, produced)


def apply_cx_commute(circuit: Circuit, site: tuple[int, ...]) -> tuple[Circuit, RewriteStep]:
    """The commutation identity with G a CX: [CX jk; CX ij; CX ik] == [CX ij; CX jk].

    In this triangle of CX gates on wires i, j, k the chord (i->k) is
    consumed and the other two swap order.
    """
    return _gathered(circuit, "cx-commute", site, _matched(circuit, site, _triangle_shape, "CX"))


def _peephole_shape(gates):
    if len(gates) != 2:
        raise RewriteError("site must have two gates")
    g0, g1 = gates
    if g0 != g1 or g0.kind == "J":
        raise RewriteError("site gates must be an equal CZ or CX pair")
    return ()


def apply_peephole(circuit: Circuit, site: tuple[int, ...]) -> tuple[Circuit, RewriteStep]:
    """Cancel an equal CZ or CX pair separated only by commuting gates."""
    return _gathered(circuit, "peephole-cancel", site, _matched(circuit, site, _peephole_shape))


def apply_jgate(circuit: Circuit, i: int, j: int) -> tuple[Circuit, RewriteStep]:
    """Collapse measured wire i onto its fresh partner j.

    Wire i must end [..., CZ ij, (commuting i-gates), J i, CX i->j]; wire j
    must be untouched |+> before the CX, up to gates that commute out past
    the CX.  Everything left on wire i is relabeled to j (it rides along
    through the teleportation), wire i disappears, and J picks up i's angle
    at the CX position.
    """
    gates = circuit.gates
    try:
        wi, wj = circuit.wire(i), circuit.wire(j)
    except KeyError as exc:
        raise RewriteError(f"the circuit has no wire {exc.args[0]}") from None
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

    crossed = _conflicts(circuit, cz_pos, jg_pos)  # what cannot slide before the CZ
    for k in on_i:
        if k in (cz_pos, jg_pos, cx_pos):
            continue
        g = gates[k]
        if j in g.wires:
            raise RewriteError(f"gate {g.text()} touches both {i} and {j}; cannot relabel")
        if crossed >> k & 1:
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
        if _next_conflict(circuit, q, cx_pos + 1, sliders) > cx_pos:
            sliders.append(q)
    slid = set(sliders)
    for q in on_j:
        if q < cx_pos and q not in site and q not in slid:
            raise RewriteError(f"wire {j} is not fresh: {gates[q].text()} at {q}")

    produced = Gate("J", (j,), gates[jg_pos].angle)
    # the teleported J, then the riders in program order, where the CX was
    edit = _Edit(
        tuple(sorted(site | slid)),
        cx_pos - 2 - len(sliders),
        (produced,) + tuple(gates[q] for q in sorted(sliders)),
        (i, j),
    )
    return _splice(circuit, edit, "jgate", (cz_pos, jg_pos, cx_pos), (produced,), i)


def replay(circuit: Circuit, steps: tuple[RewriteStep, ...] | list[RewriteStep]) -> Circuit:
    """Re-run recorded steps; raises RewriteError if any step no longer matches."""
    c = circuit
    for st in steps:
        if st.rule not in _PRODUCED:
            raise RewriteError(f"unknown rule {st.rule!r}")
        if len(st.produced) != _PRODUCED[st.rule]:  # a jgate's and a cz-to-cx's wire are read off them
            redo = None
        elif st.rule == "jgate":
            c, redo = apply_jgate(c, st.wire_removed, st.produced[0].wires[0])
        elif st.rule == "peephole-cancel":
            c, redo = apply_peephole(c, st.consumed)
        elif st.rule == "cz-commute":
            c, redo = apply_cz_commute(c, st.consumed)
        elif st.rule == "cx-commute":
            c, redo = apply_cx_commute(c, st.consumed)
        else:
            c, redo = apply_cz_to_cx(c, st.consumed, fresh=st.produced[1].wires[-1])  # the CX's target
        if redo is None or redo.produced != st.produced:
            raise RewriteError(f"replay diverged at step {st.text()}")
    return c


def follow_jgates(steps: tuple[RewriteStep, ...] | list[RewriteStep], wires: list[int]) -> list[int]:
    """Where ``wires`` end up after ``steps``: a jgate moves wire i onto j."""
    for st in steps:
        if st.rule == "jgate":
            j = st.produced[0].wires[0]
            wires = [j if w == st.wire_removed else w for w in wires]
    return wires


# --- flow: the closed form ---------------------------------------------------


def _read_flow(circuit: Circuit, order: tuple[int, ...]):
    """Read ``build_extended``'s flow layout off ``circuit`` in one pass.

    Returns the leading CZs' wire pairs (the graph edges), the other
    neighbours of f(i) for each measured i, ascending, as its CZs name them,
    f, and the positions of each measured wire's J and CX.  A
    circuit laid out any other way, or whose rounds do not make f a causal
    flow measured in ``order``, raises FlowSimplifyError.
    """
    gates, n = circuit.gates, len(circuit.gates)
    kinds, wires, _ = zip(*gates) if gates else ((), (), ())
    cxs = Counter(w[0] for kind, w in zip(kinds, wires) if kind == "CX")
    for i in order:
        if cxs[i] != 1:
            raise FlowSimplifyError(f"wire {i} has {cxs[i]} correction CXs; flow needs 1")

    def off_layout(p: int) -> FlowSimplifyError:
        at = f"gate {gates[p].text()} at {p}" if p < n else "the end of the circuit"
        return FlowSimplifyError(f"{at} is off the flow layout of an extended circuit")

    p = 0
    while p < n and kinds[p] == "CZ":
        if p and wires[p - 1] >= wires[p]:
            raise off_layout(p)
        p += 1
    edges = wires[:p]
    nbrs: dict[int, set[int]] = {w.id: set() for w in circuit.wires}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)

    # each round: its J gates in ascending wire order, then per wire i its CX
    # onto f(i) and its CZs onto the other neighbours of f(i)
    f: dict[int, int] = {}
    others: dict[int, list[int]] = {}
    layer_of: dict[int, int] = {}
    j_at: dict[int, int] = {}
    cx_at: dict[int, int] = {}
    rounds = 0
    while p < n:
        start = p
        while p < n and kinds[p] == "J":
            (i,) = wires[p]
            if i in layer_of or (p > start and i < wires[p - 1][0]):
                raise off_layout(p)
            layer_of[i], j_at[i] = rounds, p
            p += 1
        if p == start:
            raise off_layout(p)
        rounds += 1
        for (i,) in wires[start:p]:
            if p == n or kinds[p] != "CX" or wires[p][0] != i:
                raise off_layout(p)
            t = wires[p][1]
            f[i], cx_at[i] = t, p
            others[i] = ks = sorted(nbrs[t] - {i})
            p += 1
            for k in ks:
                if p == n or kinds[p] != "CZ" or wires[p] != ((i, k) if i < k else (k, i)):
                    raise off_layout(p)
                p += 1

    measured = sorted(j_at, key=j_at.get)
    if tuple(measured) != tuple(order):
        raise FlowSimplifyError(f"the J gates measure {measured}, not the order {list(order)}")
    for w in circuit.wires:
        if (w.terminal == "measured") != (w.id in f):
            which = "a" if w.id in f else "no"
            raise FlowSimplifyError(f"wire {w.id} is {w.terminal}, but {which} J measures it")
    plus = {w.id for w in circuit.wires if w.init == "plus"}
    for i, t in f.items():
        # f(i) and its other neighbours come in later rounds, which also makes f injective
        at = layer_of[i]
        if (i not in nbrs[t] or t not in plus or layer_of.get(t, rounds) <= at
                or any(layer_of.get(k, rounds) <= at for k in others[i])):
            raise FlowSimplifyError(f"CX {i} {t} is not the correction of a causal flow")
    return edges, others, f, j_at, cx_at


def simplify_flow(circuit: Circuit, order: tuple[int, ...]) -> tuple[Circuit, SimplificationTrace]:
    """Strip every measured wire of a flow-built extended circuit, without search.

    ``order`` is the flow's ``structure.order``, in which the circuit's J
    gates must measure.  Under a causal flow f the identities leave a closed
    form: one wire per chain s, f(s), f(f(s)), ..., named by its output and
    started as s is; the CZs of the edges between chain starts; then, for
    each measured i in ``order``, J(angle of i) on its chain followed by a
    CZ from f(i)'s chain to the chain of each other neighbour k of f(i) that
    is already live (a chain start, or f of a wire measured before i), k
    ascending.

    The trace is the one the engine takes on such a circuit, whose schedule
    is fixed: for each measured i in ``order``, one cz-commute per
    correction CZ i k, right to left, moving the edge CZ f(i) k past the CX
    i f(i); then, in ``order``, one jgate per measured wire.  Positions
    are read off order keys by bisection, each key once per step, with no
    relabelling.  It checks no step; the pipeline's final oracle check
    covers the result.
    """
    edges, others, f, j_at, cx_at = _read_flow(circuit, order)
    gates = circuit.gates

    image = set(f.values())
    starts = [w for w in circuit.wires if w.id not in image]
    chain: dict[int, int] = {}
    for w in starts:
        path = [w.id]
        while path[-1] in f:
            path.append(f[path[-1]])
        chain.update(dict.fromkeys(path, path[-1]))
    live = {w.id for w in starts}
    out = [Gate("CZ", (chain[a], chain[b])) for a, b in edges if a in live and b in live]
    for i in order:
        t = f[i]
        out.append(Gate("J", (chain[i],), gates[j_at[i]].angle))
        out.extend(Gate("CZ", (chain[t], chain[k])) for k in others[i] if k in live)
        live.add(t)
    compact = Circuit(tuple(Wire(chain[w.id], w.init, "output") for w in starts), tuple(out))

    # Gate p starts with order key 2p.  A cz-commute consumes the edge CZ
    # f(i) k, the CX i f(i) and the correction CZ i k.  The edge CZ comes
    # first: it sits among the leading CZs or in the block of a wire measured
    # before i.  So apply_cz_commute, which swaps the CX and the edge CZ,
    # puts out (CX, CZ) where the correction CZ was: the CX takes its key c,
    # the CZ c + 1, which no other gate ever holds.  The CX comes before the
    # correction CZ in i's first step and after it in the others.
    keys = list(range(0, 2 * len(gates), 2))
    edge_key = {e: 2 * p for p, e in enumerate(edges)}
    edge_cz = dict(zip(edges, gates))  # the leading CZs are the edges
    cx_key = {i: 2 * p for i, p in cx_at.items()}

    steps = []
    for i in order:
        t, cx, ks = f[i], gates[cx_at[i]], others[i]
        for q, k in zip(range(cx_at[i] + len(ks), cx_at[i], -1), reversed(ks)):  # its correction CZs, right to left
            e = (t, k) if t < k else (k, t)
            c, x, z = 2 * q, cx_key[i], edge_key[e]
            pz, px, pc = bisect_left(keys, z), bisect_left(keys, x), bisect_left(keys, c)
            site = (pz, px, pc) if px < pc else (pz, pc, px)
            steps.append(RewriteStep("cz-commute", site, (cx, edge_cz[e])))
            cx_key[i], edge_key[e] = c, c + 1
            del keys[px]  # the higher first, so pz still holds
            del keys[pz]
            insort(keys, c + 1)
    for i in order:
        t, angle = f[i], gates[j_at[i]].angle
        z, j, x = edge_key[(i, t) if i < t else (t, i)], 2 * j_at[i], cx_key[i]
        pz, pj = bisect_left(keys, z), bisect_left(keys, j)
        steps.append(RewriteStep("jgate", (pz, pj, bisect_left(keys, x)), (Gate("J", (t,), angle),), i))
        del keys[pj]  # the produced J keeps the CX's key
        del keys[pz]
    return compact, SimplificationTrace(tuple(steps), digest(circuit), digest(compact))


# --- the engine --------------------------------------------------------------


class _Node:
    """A circuit inside the engine, the step that made it and its parent.

    The rules read a node as they read a Circuit.  One pass over the gates,
    when the node is built, makes all that the search reads off it: each
    wire's gate positions (``gates_on`` returns them uncopied), the conflict
    index (one mask per wire and role, ORed per gate), the per-wire CZ
    table, each wire's CXs with their targets, and the correction-shaped
    CZs.  A node stands for its own circuit wherever only ``wires`` and
    ``gates`` are read, as the oracle reads them.  A rule applied to a node
    returns its edit and the fields of its step, which ``then`` turns into
    the child.  The root holds the memo of shape matches that every node
    below it shares.  Nothing on a node changes once it is built, and the
    two wires of a CZ share its position list; callers only read.
    """

    __slots__ = ("wires", "gates", "_on", "conflicts", "czs", "cxs", "shaped", "matches", "step", "parent", "depth")

    def __init__(self, wires: tuple[Wire, ...], gates: tuple[Gate, ...], step=None, parent=None):
        self.wires, self.gates, self.step, self.parent = wires, gates, step, parent
        self.depth, self.matches = (0, {}) if parent is None else (parent.depth + 1, parent.matches)
        self._on = on = {w.id: [] for w in wires}
        self.czs = czs = {w: {} for w in on}
        self.cxs = cxs = {w: [] for w in on}  # each CX a wire controls, with its target
        self.shaped = shaped = []  # each correction-shaped CZ, with the measured wires it rides on
        z, x, j = (dict.fromkeys(on, 0) for _ in range(3))  # per wire, its gates in each role
        measured = {w.id for w in wires if w.terminal == "measured"}
        past_j = set()  # the measured wires whose J has come
        for k, (kind, ws, _) in enumerate(gates):
            bit, a, b = 1 << k, ws[0], ws[-1]
            on[a].append(k)
            if kind == "J":
                j[a] |= bit
                if a in measured:
                    past_j.add(a)
                continue
            on[b].append(k)
            z[a] |= bit
            if kind == "CX":
                x[b] |= bit
                cxs[a].append((k, b))
                continue
            z[b] |= bit
            pair = czs[a].get(b)
            if pair is None:  # one position list per CZ pair, in both wires' tables
                pair = czs[a][b] = czs[b][a] = []
            pair.append(k)
            if a in past_j or b in past_j:
                shaped.append((k, [m for m in (a, b) if m in past_j]))
        # a gate conflicts with every gate on its wires but those in its own
        # role there, Z or X (not_z or not_x); a J, with every gate on its
        # wire (not_z | z)
        not_z = {w: x[w] | j[w] for w in on}
        not_x = {w: z[w] | j[w] for w in on}
        self.conflicts = [
            not_z[ws[0]] | (z if kind == "J" else not_x if kind == "CX" else not_z)[ws[-1]]
            for kind, ws, _ in gates
        ]

    wire = Circuit.wire

    def gates_on(self, wire_id: int) -> list[int]:
        return self._on.get(wire_id, [])

    def then(self, edit: _Edit, step) -> _Node:
        """The child that ``edit`` makes, with the step of the fields ``step``."""
        wires = self.wires if edit.moved is None else _moved_wires(self.wires, *edit.moved)
        return _Node(wires, _spliced(self.gates, edit), RewriteStep(*step), self)

    def path(self) -> list[_Node]:
        """The nodes from the engine's input to this one."""
        out, node = [], self
        while node is not None:
            out.append(node)
            node = node.parent
        return out[::-1]

    @property
    def steps(self) -> list[RewriteStep]:
        return [node.step for node in self.path()[1:]]


def _peephole_pass(node: _Node) -> _Node:
    while True:
        gates = node.gates
        for q1, g in enumerate(gates):
            if g.kind == "J":
                continue
            # an equal gate commutes with g, so it cancels if it comes first
            stop = _next_conflict(node, q1, len(gates))
            q2 = next((q for q in node.gates_on(g.wires[0]) if q1 < q < stop and gates[q] == g), None)
            if q2 is not None:
                node = node.then(*apply_peephole(node, (q1, q2)))
                break
        else:
            return node


def _partner_moves(node: _Node, q: int, movers):
    """The commutation sites that carry the CZ at q away through a mover's CX.

    The mover CX may be controlled by either wire of the CZ; the measured
    side is the common case, but when the CZ pairs a measured wire with its
    own corrector only the other side has a usable partner.
    """
    a, b = node.gates[q].wires
    for m in movers:
        partners = node.czs[b if m == a else a]
        for cx_idx, t in node.cxs[m]:
            # the partner CZ pairs the CZ's other wire with the CX target
            # (never the CZ at q, which pairs it with the CX control)
            if t in partners:
                yield from _partner_sites(apply_cz_commute, "CZ", node, cx_idx, q, partners[t])


def _partner_sites(rule, kind, node, a, b, partners):
    """The sites (partner, a, b) of ``rule``, the commutation identity
    with G of ``kind``, partners in order: each one a site the rule
    accepts, since a, b and a partner fit the shape and gathering them is
    unblocked.

    Let lo and hi be the earlier and the later of a and b.  Gathering a site
    carries lo past every gate before hi but the partner, a partner before
    hi past every gate up to hi but lo, and lo and hi past every gate up to
    a partner after hi.  So a pair with no partners, or whose lo conflicts
    before hi with two gates or with one that is no partner, is screened
    out before any generator is made.  Otherwise the partners are all one
    gate, so two bounds leave only the unblocked sites, and no other is
    built: a partner before hi must follow the last conflict of its kind
    there, and one after hi must come no later than the first conflict of
    lo or hi past hi."""
    if not partners:
        return ()
    lo, hi = (a, b) if a < b else (b, a)
    between = _conflicts(node, lo, hi)
    if between & (between - 1) or between and between.bit_length() - 1 not in partners:
        return ()
    return _unblocked_sites(rule, kind, node, a, b, partners, lo, hi, between)


def _unblocked_sites(rule, kind, node, a, b, partners, lo, hi, between):
    """The sites of a pair that ``_partner_sites`` did not screen out."""
    last = first = None  # each bound is found when a partner first needs it
    for p in partners:
        if between & ~(1 << p):
            continue
        if p < hi:
            if last is None:
                last = (_conflicts(node, partners[0], hi) & ~(1 << lo)).bit_length() - 1
            if p < last:
                continue
        else:
            if first is None:
                end = len(node.gates)
                first = min(_next_conflict(node, lo, end, (hi,)), _next_conflict(node, hi, end))
            if p > first:
                break
        yield rule, tuple(sorted((p, a, b))), _triangle_shape, kind, ()


def _eliminate_corrections(node: _Node) -> _Node:
    """Strip every correction-shaped CZ, measured wires first as movers.

    A fire re-emits its partner CZ just past the mover CX, so ordering
    matters twice over: within one mover's span the rightmost CZ must go
    first (a re-emission lands between the mover and anything left of the
    consumed gate), and across movers the leftmost block must go first (two
    blocks can share a partner, and only the earlier block can reach it
    before it is relocated).  Each pass sorts the shaped CZs afresh, by the
    first CX of any of their controllers and then rightmost first, and fires
    the first CZ that moves; a blocked CZ is retried on a later pass once
    others have moved.  Returns the node with no shaped CZ left.
    """
    while True:
        first_cx = {m: cxs[0][0] if cxs else len(node.gates) for m, cxs in node.cxs.items()}
        shaped = sorted(node.shaped, key=lambda e: (min(first_cx[m] for m in e[1]), -e[0]))
        if not shaped:
            return node
        for q, controllers in shaped:
            movers = controllers + [w for w in node.gates[q].wires if w not in controllers]
            site = next(_partner_moves(node, q, movers), None)
            if site is not None:
                break
        else:
            q = shaped[0][0]
            raise RewriteError(f"no commutation partner eliminates {node.gates[q].text()} at {q}")
        rule, positions, *_, args = site
        node = node.then(*rule(node, positions, *args))


def _unwanted_cxs(node: _Node, order: tuple[int, ...], targets: dict[int, int]) -> list[tuple[int, int, int]]:
    return sorted((k, i, t) for i in order for k, t in node.cxs[i] if t != targets[i])


def _middles(node: _Node, i: int, t: int) -> list[tuple[int, int]]:
    return sorted((target, k) for k, target in node.cxs[i] if target != t)


def _helper_indices(node: _Node, m: int, t: int) -> list[int]:
    return [k for k, target in node.cxs[m] if target == t]


def _direct_candidates(node: _Node, work: list[tuple[int, int, int]]):
    """CX triangles that erase an unwanted CX outright."""
    for u, i, t in work:
        for m, m_idx in _middles(node, i, t):
            yield from _partner_sites(apply_cx_commute, "CX", node, m_idx, u, _helper_indices(node, m, t))


def _mint_candidates(node: _Node, work: list[tuple[int, int, int]]):
    """CZ pairs that mint a missing helper CX onto a still-fresh wire t,
    each a site ``apply_cz_to_cx`` accepts.  Its side conditions are
    checked where the site is built: wire t is |+>-initialised, t is fresh
    to the site's end only if the site's CZ on t is its first gate and the
    CZ on m comes before its second, and ``_blocker`` finds nothing.  No
    other site is built."""
    gates = node.gates
    for u, i, t in work:
        kt, second, *_ = node.gates_on(t) + [len(gates)] * 2
        if kt == len(gates) or gates[kt].kind != "CZ" or node.wire(t).init != "plus":
            continue
        (c,) = set(gates[kt].wires) - {t}
        for m, _ in _middles(node, i, t):
            if _helper_indices(node, m, t):
                continue
            for km in node.czs[m].get(c, ()):
                site = (kt, km) if kt < km else (km, kt)
                if km < second and _blocker(node, site) is None:
                    yield apply_cz_to_cx, site, _cz_to_cx_shape, t, (t,)


def _fire_candidates(node: _Node):
    """Commutations that carry a correction-shaped CZ off a measured wire.

    Such a CZ sits after the J of a measured wire it touches: it rides on
    that wire past its measurement unitary.  The commutation identity trades
    it for a forward move of a CZ on the corrector, exactly the
    slice-migration step.
    """
    for q, _ in node.shaped:
        yield from _partner_moves(node, q, node.gates[q].wires)  # a CZ's wires ascend


def _hop_candidates(node: _Node, work: list[tuple[int, int, int]]):
    """Commutations that walk a helper CX right past the CZ blocking it."""
    gates = node.gates
    helpers = (h for _, i, t in work for m, _ in _middles(node, i, t) for h in _helper_indices(node, m, t))
    for h in dict.fromkeys(helpers):  # each helper CX m->t once, where the work first reaches it
        m, t = gates[h].wires
        q = _next_conflict(node, h, len(gates))  # only the first blocker can move this helper
        if q == len(gates):
            continue
        g = gates[q]
        if g.kind == "CZ" and t in g.wires and m not in g.wires:
            y = g.wires[g.wires[0] == t]
            yield from _partner_sites(apply_cz_commute, "CZ", node, h, q, node.czs[m].get(y, ()))


def _tail(node: _Node, order: tuple[int, ...], targets: dict[int, int]) -> _Node:
    """Cancel pairs, clear correction CZs, cancel pairs again and collapse
    each wire onto its partner; the node that strips every measured wire,
    else RewriteError says why not."""
    node = _peephole_pass(node)
    node = _eliminate_corrections(node)
    node = _peephole_pass(node)
    for i in order:
        node = node.then(*apply_jgate(node, i, targets[i]))
    return node


class _PlanBudgetExceeded(Exception):
    pass


def _plan(
    root: _Node, order: tuple[int, ...], targets: dict[int, int]
) -> tuple[_Node, str | None, int]:
    """Depth-first search from ``root`` for a step sequence that strips
    every measured wire.

    A CX is unwanted when its target is not its control's designated
    partner.  Each node tries the sites of four moves in turn, direct, mint,
    fire and hop.  The plan moves no wire (jgate fires only in the tail), so
    a child is keyed on its gate tuple, spliced from the site's memoised
    shape match before its rule runs: a seen one is pruned, and a new one
    becomes a node, with the step its rule returns.  Every site the moves
    build is one its rule accepts, so the search skips no refusal: a rule
    that refuses raises RewriteError out of the search, as the bug it is.
    Once no unwanted CX remains, the tail is the goal test.  Returns the end
    node of the accepted path and None, or the deepest node explored and why
    the search failed; then the nodes spent.
    """
    nodes, best = 0, root
    seen = {root.gates}
    why = "no sequence of moves cancels every unwanted CX"

    def rec(c: _Node) -> _Node | None:
        nonlocal nodes, best, why
        work = _unwanted_cxs(c, order, targets)
        if not work:
            try:
                return _tail(c, order, targets)
            except RewriteError as exc:
                why = str(exc)
                return None
        if c.depth > best.depth:
            best = c
        candidates = itertools.chain(
            _direct_candidates(c, work),
            _mint_candidates(c, work),
            _fire_candidates(c),
            _hop_candidates(c, work),
        )
        for rule, site, shape, arg, args in candidates:
            gates = _spliced(c.gates, _gather(site, _match(c, site, shape, arg)))
            known = len(seen)
            seen.add(gates)  # the one hash of the child's gate tuple
            if len(seen) == known:
                continue
            _, step = rule(c, site, *args)
            nodes += 1
            if nodes > _PLAN_BUDGET:
                raise _PlanBudgetExceeded
            found = rec(_Node(c.wires, gates, RewriteStep(*step), c))
            if found is not None:
                return found
        return None

    try:
        found = rec(root)
    except _PlanBudgetExceeded:
        return best, f"the plan search spent its {_PLAN_BUDGET}-node budget", _PLAN_BUDGET
    return (found, None, nodes) if found is not None else (best, why, nodes)


def _check_path(end: _Node) -> tuple[_Node, str | None]:
    """Oracle-check each step on the path to ``end`` taken on a circuit of
    at most ``_CHECKED_WIDTH`` wires.

    Each such step compares the isometries of the nodes on either side of
    it, with input columns lined up through the jgate relabelings; no rule
    runs again.  Returns ``end`` and None, or the node before the
    first drifting step and why.
    """
    from .simulate import basis_column_order, circuit_isometry, max_deviation

    path = end.path()
    order = [w.id for w in path[0].wires if w.init == "input"]
    before = None
    for node, following in zip(path, path[1:]):
        step = following.step
        order_after = follow_jgates([step], order)
        if len(node.wires) <= _CHECKED_WIDTH:
            if before is None:
                before = circuit_isometry(node)
            after = circuit_isometry(following)
            mb = before.matrix[:, basis_column_order(before.input_wires, order)]
            ma = after.matrix[:, basis_column_order(after.input_wires, order_after)]
            dev = max_deviation(mb, ma)
            if dev > _TOL:
                return node, f"step {step.text()} drifted by {dev:.3g}"
            before = after
        order = order_after
    return end, None


def simplify_gflow(
    circuit: Circuit,
    order: tuple[int, ...],
    structure: CorrectionStructure,
    *,
    budget: int | None = None,
) -> tuple[Circuit, SimplificationTrace]:
    """Search a special-CX designation and strip every measured wire.

    Each measured wire i keeps one special CX (its eventual teleportation
    partner, a graph neighbour in g(i), read off the circuit's leading CZs,
    which ``build_extended`` lays out as the graph's edges); the engine
    cancels the others with the CX-triangle identity, minting helpers from
    CZ pairs where needed.  Designations, one partner per wire in
    ``order``, are tried injectively in product order of the ascending
    candidate lists, at most ``budget`` of them (default: all, capped at
    ``_ATTEMPT_CAP``; a budget below 1 raises ValueError).  Each gets one
    plan search; its accepted path is the result once every step on at most
    ``_CHECKED_WIDTH`` wires passes the oracle check, and a drifting step
    fails the designation.  ``order`` must be ``structure.order``, and the
    structure must correct the wires the circuit measures; else ValueError,
    before any search.
    `compile_pattern` calls it only for a gflow (some g(i) of two or more
    vertices); given a flow's single-vertex sets it takes
    ``simplify_flow``'s steps, which the tests hold it to.
    """
    if budget is not None and not budget >= 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if tuple(order) != structure.order:
        raise ValueError(f"the order {list(order)} is not the structure's order {list(structure.order)}")
    measured = sorted(w.id for w in circuit.wires if w.terminal == "measured")
    if sorted(order) != measured:
        raise ValueError(f"the structure corrects wires {sorted(order)}, but the circuit measures wires {measured}")
    initial = digest(circuit)
    partial = SimplificationTrace((), initial, initial)
    edges = {g.wires for g in itertools.takewhile(lambda g: g.kind == "CZ", circuit.gates)}
    candidates: list[list[int]] = []
    for i in order:
        cand = sorted(j for j in structure.correcting_sets[i] if (min(i, j), max(i, j)) in edges)
        if not cand:
            raise GflowSearchExhausted(0, partial, f"wire {i} has no graph neighbour in its correcting set")
        candidates.append(cand)
    cap = _ATTEMPT_CAP if budget is None else budget

    root = _Node(circuit.wires, circuit.gates)  # every designation's search starts here
    attempts = nodes = 0
    for assignment in itertools.product(*candidates):
        if len(set(assignment)) != len(assignment):
            continue
        if attempts >= cap:
            break
        attempts += 1
        targets = dict(zip(order, assignment))
        end, why, spent = _plan(root, order, targets)
        nodes += spent
        if why is None:
            end, why = _check_path(end)
        compact = Circuit(end.wires, end.gates)
        trace = SimplificationTrace(tuple(end.steps), initial, digest(compact))
        if why is None:
            return compact, trace
        partial = trace
    if not attempts:  # a budget of at least 1 stops the loop only after an attempt
        why = "no injective designation exists among the candidate partners " + " ".join(
            f"{i}:{{{','.join(map(str, cand))}}}" for i, cand in zip(order, candidates)
        )
    raise GflowSearchExhausted(attempts, partial, why, nodes)
