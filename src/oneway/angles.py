"""Measurement angles, stored exactly as rational multiples of pi when possible."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["Angle"]

_RATIONAL = re.compile(r"^(-?\d+)/(-?\d+)pi$")


@dataclass(frozen=True)
class Angle:
    """An angle in radians, either an exact multiple of pi or a float.

    Exact angles are reduced fractions of pi normalised into [0, 2); the float
    fallback keeps whatever finite value the caller supplied.  The two
    representations never compare equal, which keeps serialisation canonical.
    """

    pi_multiple: Fraction | None = None
    float_radians: float | None = None

    def __post_init__(self) -> None:
        if (self.pi_multiple is None) == (self.float_radians is None):
            raise ValueError("angle needs exactly one of pi_multiple / float_radians")
        if self.pi_multiple is not None:
            object.__setattr__(self, "pi_multiple", Fraction(self.pi_multiple) % 2)
        elif not math.isfinite(self.float_radians):
            raise ValueError(f"angle must be finite, got {self.float_radians} radians")

    @staticmethod
    def exact(numerator: int | Fraction, denominator: int = 1) -> Angle:
        return Angle(pi_multiple=Fraction(numerator, denominator))

    @staticmethod
    def radians(value: float) -> Angle:
        return Angle(float_radians=float(value))

    @staticmethod
    def parse(token: str) -> Angle:
        """Parse ``p/qpi`` (rational multiple of pi) or a decimal radian value."""
        m = _RATIONAL.match(token)
        if m:
            p, q = int(m.group(1)), int(m.group(2))
            if q == 0:
                raise ValueError(f"zero denominator in angle {token!r}")
            return Angle.exact(p, q)
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"cannot parse angle {token!r}") from None
        return Angle.radians(value)

    def to_radians(self) -> float:
        if self.pi_multiple is not None:
            return math.pi * float(self.pi_multiple)
        assert self.float_radians is not None
        return self.float_radians

    def text(self) -> str:
        if self.pi_multiple is not None:
            return f"{self.pi_multiple.numerator}/{self.pi_multiple.denominator}pi"
        return repr(self.float_radians)
