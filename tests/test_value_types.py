"""Gate, Wire and RewriteStep against test-local copies of the frozen
dataclasses they replaced, a loaded graph or circuit checked as a built one
is, and the single-vertex odd neighbourhood against the counting loop."""

import copy
import pickle
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneway import Angle, Circuit, Gate, OpenGraph, RewriteStep, Wire, odd_neighborhood
from oneway.circuits import _StrictTuple


@dataclass(frozen=True)
class OldGate:
    kind: str
    wires: tuple[int, ...]
    angle: Angle | None = None

    def __post_init__(self) -> None:
        if self.kind == "J":
            if len(self.wires) != 1 or self.angle is None:
                raise ValueError("J gate needs one wire and an angle")
        elif self.kind == "CZ":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError("CZ needs two distinct wires")
            if self.angle is not None:
                raise ValueError("CZ carries no angle")
            object.__setattr__(self, "wires", tuple(sorted(self.wires)))
        elif self.kind == "CX":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError("CX needs distinct control and target")
            if self.angle is not None:
                raise ValueError("CX carries no angle")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class OldWire:
    id: int
    init: str
    terminal: str

    def __post_init__(self) -> None:
        if self.init not in ("input", "plus"):
            raise ValueError(f"bad wire init {self.init!r}")
        if self.terminal not in ("output", "measured"):
            raise ValueError(f"bad wire terminal {self.terminal!r}")


@dataclass(frozen=True)
class OldRewriteStep:
    rule: str
    consumed: tuple[int, ...]
    produced: tuple[Gate, ...]
    wire_removed: int | None = None


# the dataclass repr names the class by its qualified name
OldGate.__qualname__, OldWire.__qualname__, OldRewriteStep.__qualname__ = "Gate", "Wire", "RewriteStep"

angles = st.one_of(
    st.none(),
    st.builds(Angle.exact, st.integers(-9, 9), st.integers(1, 8)),
    st.builds(Angle.radians, st.floats(-4, 4)),
)
gate_fields = st.tuples(
    st.sampled_from(["J", "CZ", "CX", "H", "cz", ""]),
    st.lists(st.integers(0, 4), max_size=3).map(tuple),
    angles,
)
wire_fields = st.tuples(
    st.integers(0, 4),
    st.sampled_from(["input", "plus", "output", "Plus", ""]),
    st.sampled_from(["output", "measured", "input", ""]),
)
step_fields = st.tuples(
    st.sampled_from(["cz-commute", "jgate", "peephole-cancel"]),
    st.lists(st.integers(0, 9), max_size=3).map(tuple),
    st.lists(st.sampled_from([Gate("CZ", (1, 2)), Gate("CX", (2, 1)), Gate("J", (3,), Angle.exact(1, 4))]),
             max_size=2).map(tuple),
    st.one_of(st.none(), st.integers(0, 5)),
)
KINDS = [(Gate, OldGate, gate_fields), (Wire, OldWire, wire_fields), (RewriteStep, OldRewriteStep, step_fields)]


def built(cls, fields):
    """The value, or the type and text of what its constructor raised."""
    try:
        return cls(*fields)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("new, old, fields", KINDS, ids=["Gate", "Wire", "RewriteStep"])
def test_matches_the_old_dataclass(new, old, fields):
    @given(fields, fields)
    def check(a, b):
        na, oa, nb, ob = built(new, a), built(old, a), built(new, b), built(old, b)
        if not isinstance(oa, old):
            assert na == oa  # the same exception type and message
            return
        assert type(na) is new
        assert tuple(na) == tuple(getattr(oa, f) for f in new._fields)
        assert repr(na) == repr(oa)
        assert hash(na) == hash(oa)
        if isinstance(ob, old):
            assert (na == nb) == (oa == ob)
            assert (na != nb) == (oa != ob)

    check()


@pytest.mark.parametrize("new, old, fields", KINDS, ids=["Gate", "Wire", "RewriteStep"])
def test_equality_is_type_strict_and_fields_are_frozen(new, old, fields):
    @given(fields)
    def check(f):
        value = built(new, f)
        if type(value) is not new:
            return
        fields = namedtuple(new.__name__, new._fields)
        twin = type(new.__name__, (_StrictTuple, fields), {"__slots__": ()})
        for other in (tuple(value), list(value), twin(*value)):
            assert value != other and other != value
            assert not (value == other or other == value)
        # a foreign tuple subclass on the left compares by its own ==
        assert value != fields(*value) and not value == fields(*value)
        for name in new._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")

    check()


@pytest.mark.parametrize("new, old, fields", KINDS, ids=["Gate", "Wire", "RewriteStep"])
def test_a_copy_or_pickle_round_trip_returns_an_equal_value(new, old, fields):
    @given(fields)
    def check(f):
        value = built(new, f)
        if type(value) is not new:
            return
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is new and back == value and hash(back) == hash(value)
        assert copy.copy(value) == value and copy.deepcopy(value) == value

    check()


def test_loading_or_replacing_a_gate_validates_it_again():
    payload = pickle.dumps(Gate("CZ", (2, 1)))
    assert b"\x8c\x02CZ" in payload
    with pytest.raises(ValueError, match="unknown gate kind 'CQ'"):
        pickle.loads(payload.replace(b"\x8c\x02CZ", b"\x8c\x02CQ"))
    with pytest.raises(ValueError, match="CZ carries no angle"):
        Gate("CZ", (1, 2))._replace(angle=Angle.exact(1, 4))
    with pytest.raises(ValueError, match="bad wire init"):
        Wire(1, "plus", "output")._replace(init="zero")
    assert Gate("CZ", (1, 2))._replace(wires=(5, 3)) == Gate("CZ", (3, 5))
    assert Gate._make(["CX", (4, 2), None]) == Gate("CX", (4, 2))


def test_loading_a_graph_or_a_circuit_builds_it_again():
    J = Angle.exact(1, 4)
    graph = OpenGraph((1, 2, 3), {(1, 2), (2, 3)}, {1}, {3}, {1: J, 2: J})
    graph.neighbors, graph.measured  # cached on the instance, not pickled
    circuit = Circuit((Wire(1, "input", "output"), Wire(2, "plus", "measured")), (Gate("CZ", (1, 2)),))
    for value, edge, tampered, message in [
        (graph, b"K\x02K\x03\x86", b"K\x02K\x09\x86", "^edge 2-9 uses unknown vertex$"),
        (circuit, b"K\x01K\x02\x86", b"K\x01K\x07\x86", "^gate CZ 1 7 uses undeclared wire$"),
    ]:
        payload = pickle.dumps(value)
        assert pickle.loads(payload) == value and copy.deepcopy(value) == value
        assert edge in payload  # the graph's edge 2-3, the circuit's CZ 1 2
        with pytest.raises(ValueError, match=message):
            pickle.loads(payload.replace(edge, tampered))
    assert b"neighbors" not in pickle.dumps(graph) and b"measured" not in pickle.dumps(graph)


@given(st.integers(-50, 50), st.integers(-12, 12).filter(bool))
def test_exact_is_the_fraction_mod_two(n, d):
    for angle in (Angle.exact(n, d), Angle.exact(Fraction(n), d), Angle(pi_multiple=Fraction(n, d))):
        assert type(angle.pi_multiple) is Fraction
        assert angle.pi_multiple == Fraction(n, d) % 2
        assert angle == Angle.exact(n, d) and hash(angle) == hash(Angle.exact(n, d))


@given(st.one_of(st.integers(-9, 9), st.fractions(), st.floats(-9, 9)))
def test_any_exact_value_normalises_into_two_turns(x):
    assert Angle(pi_multiple=x).pi_multiple == Fraction(x) % 2


def counted_odd_neighborhood(graph, subset):
    counts = {}
    for s in subset:
        for n in graph.neighbors[s]:
            counts[n] = counts.get(n, 0) + 1
    return frozenset(v for v, c in counts.items() if c % 2 == 1)


def test_odd_neighborhood_matches_the_counting_loop_on_the_atlas():
    graphs = 0
    for atlas in nx.graph_atlas_g():
        if atlas.number_of_nodes() > 5:
            break
        vertices = tuple(atlas.nodes)
        graph = OpenGraph(vertices, frozenset(atlas.edges), frozenset(), frozenset(vertices))
        for bits in range(1 << len(vertices)):
            subset = {v for k, v in enumerate(vertices) if bits >> k & 1}
            assert odd_neighborhood(graph, subset) == counted_odd_neighborhood(graph, subset)
        for v in vertices:
            assert odd_neighborhood(graph, frozenset({v})) == graph.neighbors[v]
        with pytest.raises(ValueError, match="vertex 9 not in graph"):
            odd_neighborhood(graph, {9})
        graphs += 1
    assert graphs == 53
