import math

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
