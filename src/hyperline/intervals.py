"""Closed rational intervals with outward-exact arithmetic.

Endpoints are `fractions.Fraction`, so every operation here is exact; no
rounding direction bookkeeping is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def grid_bits(x: Fraction) -> int:
    """The least k >= 0 with 2^-k <= x, for a positive rational x."""
    return (-(-x.denominator // x.numerator) - 1).bit_length()


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _frac(self.lo))
        object.__setattr__(self, "hi", _frac(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, q) -> "Interval":
        q = _frac(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q) -> bool:
        q = _frac(q)
        return self.lo <= q <= self.hi

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        q = _frac(other)
        return Interval(self.lo + q, self.hi + q)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        return self + (-_frac(other))

    def __rsub__(self, other):
        return (-self) + _frac(other)

    def __mul__(self, other):
        if isinstance(other, Interval):
            products = (self.lo * other.lo, self.lo * other.hi,
                        self.hi * other.lo, self.hi * other.hi)
            return Interval(min(products), max(products))
        q = _frac(other)
        if q >= 0:
            return Interval(self.lo * q, self.hi * q)
        return Interval(self.hi * q, self.lo * q)

    __rmul__ = __mul__

    def pow_int(self, k: int) -> "Interval":
        if k < 0:
            raise ValueError("negative powers not supported")
        result = Interval.point(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def abs_hi(self) -> Fraction:
        """Largest |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def abs_lo(self) -> Fraction:
        """Smallest |x| over the interval (0 if it straddles zero)."""
        if self.lo <= 0 <= self.hi:
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def widen(self, margin) -> "Interval":
        margin = _frac(margin)
        return Interval(self.lo - margin, self.hi + margin)

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"
