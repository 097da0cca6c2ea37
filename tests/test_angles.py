import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneway import Angle


def test_exact_normalizes_into_two_turns():
    assert Angle.exact(-1, 3).pi_multiple == Angle.exact(5, 3).pi_multiple
    assert Angle.exact(7, 2).pi_multiple == Angle.exact(3, 2).pi_multiple
    assert Angle.exact(2).pi_multiple == 0


def test_exact_and_float_are_distinct_representations():
    assert Angle.exact(1, 2) != Angle.radians(math.pi / 2)
    assert Angle.exact(1, 2).to_radians() == pytest.approx(math.pi / 2)


def test_parse_rational_and_decimal():
    assert Angle.parse("1/4pi") == Angle.exact(1, 4)
    assert Angle.parse("-1/3pi") == Angle.exact(5, 3)
    assert Angle.parse("0.25").float_radians == 0.25


@pytest.mark.parametrize("bad", ["pi", "1/0pi", "x", "", "nan", "inf", "-inf"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        Angle.parse(bad)


def test_a_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        Angle.exact(1, 0)
    with pytest.raises(ValueError, match="zero denominator"):
        Angle.parse("1/0pi")


def test_a_pickled_angle_drops_its_cached_hash():
    # the hash of None can differ between processes, so the caches must not travel
    for angle, text in ((Angle.exact(3, 8), "3/8pi"), (Angle.radians(0.5), "0.5")):
        hash(angle)
        assert angle.text() is angle.text() == text
        assert "_hash" in vars(angle) and "_text" in vars(angle)
        copy = pickle.loads(pickle.dumps(angle))
        assert copy == angle and repr(copy) == repr(angle)
        assert "_hash" not in vars(copy) and "_text" not in vars(copy)
        assert hash(copy) == hash(angle) == hash((angle.pi_multiple, angle.float_radians))
        assert copy.text() == text


def test_an_angle_keeps_its_radians_outside_its_value():
    for angle, radians in ((Angle.exact(3, 8), math.pi * float(Fraction(3, 8))), (Angle.radians(0.5), 0.5)):
        assert angle.to_radians() == radians
        assert "_radians" in vars(angle)
        assert "_radians" not in {f.name for f in dataclasses.fields(angle)}
        assert repr(angle) == f"Angle(pi_multiple={angle.pi_multiple!r}, float_radians={angle.float_radians!r})"
        # a different kept value changes neither == nor hash
        other = Angle(angle.pi_multiple, angle.float_radians)
        object.__setattr__(other, "_radians", -1.0)
        assert other == angle and hash(other) == hash(angle)
        # pickling carries the fields alone; loading computes the radians again
        data = pickle.dumps(angle)
        assert b"_radians" not in data
        copy = pickle.loads(data)
        assert copy.to_radians() == radians and copy == angle


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_radians_are_refused(value):
    with pytest.raises(ValueError, match="angle must be finite"):
        Angle.radians(value)


def test_constructor_needs_exactly_one_representation():
    with pytest.raises(ValueError):
        Angle()
    with pytest.raises(ValueError):
        Angle(pi_multiple=1, float_radians=1.0)


@given(st.integers(-40, 40), st.integers(1, 24))
def test_text_round_trips_exact_angles(p, q):
    a = Angle.exact(p, q)
    assert Angle.parse(a.text()) == a


@given(st.floats(-10, 10, allow_nan=False))
def test_text_round_trips_float_angles(r):
    a = Angle.radians(r)
    assert Angle.parse(a.text()) == a


def test_parse_returns_one_shared_angle_per_token():
    Angle.parse.cache_clear()
    first = Angle.parse("3/8pi")
    first.text()
    hash(first)
    again = Angle.parse("3/8pi")
    assert again is first
    # its hash and text were computed once, on the shared value
    assert "_hash" in vars(again) and "_text" in vars(again)
    assert Angle.parse("0.5") is Angle.parse("0.5")
    assert Angle.parse("6/16pi") == first  # another token of the same value is parsed on its own


@pytest.mark.parametrize("bad", ["pi", "1/0pi", "x", "nan"])
def test_parse_refuses_garbage_on_every_call(bad):
    for _ in range(3):
        misses = Angle.parse.cache_info().misses
        with pytest.raises(ValueError):
            Angle.parse(bad)
        assert Angle.parse.cache_info().misses == misses + 1  # parsed again, not served


def test_the_parse_cache_is_bounded():
    Angle.parse.cache_clear()
    bound = Angle.parse.cache_info().maxsize
    assert bound is not None
    first = Angle.parse("1/3pi")
    for k in range(bound + 10):
        Angle.parse(f"{k}/{bound + 20}pi")
    assert Angle.parse.cache_info().currsize == bound
    evicted = Angle.parse("1/3pi")
    assert evicted == first and evicted is not first
