"""Measurement angles, stored exactly as rational multiples of pi when possible."""

from __future__ import annotations

import functools
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
        p = self.pi_multiple
        if p is not None:
            if type(p) is not Fraction or not 0 <= p.numerator < 2 * p.denominator:
                object.__setattr__(self, "pi_multiple", Fraction(p) % 2)
        elif not math.isfinite(self.float_radians):
            raise ValueError(f"angle must be finite, got {self.float_radians} radians")

    # Not fields: __hash__ keeps the hash here on first use, because hashing
    # a Fraction is slow, and text() keeps its string, formatted once.
    _hash = None
    _text = None

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.pi_multiple, self.float_radians)))
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields, so the cached hash and text do not
        # travel: the hash of None can differ between processes.
        return (Angle, (self.pi_multiple, self.float_radians))

    @staticmethod
    def exact(numerator: int | Fraction, denominator: int = 1) -> Angle:
        if denominator == 0:
            raise ValueError(f"zero denominator in angle {numerator}/{denominator}pi")
        return Angle(pi_multiple=Fraction(numerator, denominator))

    @staticmethod
    def radians(value: float) -> Angle:
        return Angle(float_radians=float(value))

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def parse(token: str) -> Angle:
        """Parse ``p/qpi`` (rational multiple of pi) or a decimal radian value.

        A repeated token returns the same Angle, from a bounded cache, so a
        pattern's few distinct angles are parsed, hashed and formatted once
        each.  A token that does not parse raises on every call, since the
        cache keeps only results.
        """
        m = _RATIONAL.match(token)
        if m:
            return Angle.exact(int(m.group(1)), int(m.group(2)))
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
        if self._text is None:
            p = self.pi_multiple
            text = repr(self.float_radians) if p is None else f"{p.numerator}/{p.denominator}pi"
            object.__setattr__(self, "_text", text)
        return self._text
