"""Closed rational intervals with outward-exact arithmetic, and the one
decimal codec every printed or parsed number goes through.

Endpoints are `fractions.Fraction`, so every operation here is exact; no
rounding direction bookkeeping is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
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


# ---------------------------------------------------------------------------
# decimal text

# CPython refuses int <-> str conversions past 4300 digits, so integers are
# converted in pieces of at most _DIGIT_CHUNK digits (Brent and Zimmermann,
# Modern Computer Arithmetic, 1.7).  A text longer than _MAX_DECIMAL_CHARS is
# refused, so a parse stays bounded; the CLI prints fewer bytes than that.
_DIGIT_CHUNK = 3000
_MAX_DECIMAL_CHARS = 1 << 20


def _to_decimal(x: int, width: int = 0) -> str:
    """``str(x)``, zero-padded to ``width`` digits, from pieces converted
    below the digit limit (divide and conquer on powers of ten)."""
    if x < 0:
        return "-" + _to_decimal(-x)
    if x.bit_length() <= 3 * _DIGIT_CHUNK:  # below 2^(3c) < 10^c
        return str(x).zfill(width)
    k = x.bit_length() * 3 // 20  # about half the digits: 10^k < x
    high, low = divmod(x, 10 ** k)
    return _to_decimal(high, width - k) + _to_decimal(low, k)


def _from_decimal(text) -> int:
    """The integer of a decimal string: an optional ``-`` and ASCII digits,
    at most ``_MAX_DECIMAL_CHARS`` characters."""
    if not isinstance(text, str):
        raise ValueError(f"expected a decimal string, got {type(text).__name__}")
    if not _DECIMAL_TEXT.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    if len(text) <= _DIGIT_CHUNK:  # ASCII digits only: int() reads it whole
        return int(text)
    return read_int(text)


def _parse_digits(digits: str) -> int:
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits)
    k = len(digits) // 2
    return _parse_digits(digits[:-k]) * 10 ** k + _parse_digits(digits[-k:])


def _fraction_to_text(q: Fraction) -> str:
    """``str(q)`` for a Fraction of any size."""
    if q.denominator == 1:
        return _to_decimal(q.numerator)
    return f"{_to_decimal(q.numerator)}/{_to_decimal(q.denominator)}"


def _fraction_from_text(text) -> Fraction:
    """Inverse of ``_fraction_to_text``: ``n`` or ``n/d`` in decimal."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    num, slash, den = text.partition("/")
    return _rational(num, den if slash else "1")


def _rational(num, den) -> Fraction:
    """``num / den`` from two decimal strings; a zero ``den`` is refused."""
    n, d = _from_decimal(num), _from_decimal(den)
    if d == 0:
        raise ValueError(f"zero denominator under {num[:40]!r}")
    return Fraction(n, d)


_DECIMAL_TEXT = re.compile(r"-?[0-9]+")
_INT_TEXT = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")
_LOOSE_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")


def read_int(text: str) -> int:
    """``int(text)``, the same syntax and ValueError, for a decimal of up to
    _MAX_DECIMAL_CHARS characters, its digits parsed in pieces."""
    if len(text) > _MAX_DECIMAL_CHARS:
        raise ValueError(f"decimal of {len(text)} characters is over the 2^20 cap")
    match = _INT_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}")
    value = _parse_digits(match[2].replace("_", ""))
    return -value if match[1] == "-" else value


def read_fraction(text: str) -> Fraction:
    """``Fraction(text)`` at any length: ``p/q`` through ``read_int``, a
    finite decimal exactly through ``Decimal``, else Fraction's ValueError."""
    num, slash, den = text.partition("/")
    try:
        if slash:
            return Fraction(read_int(num), read_int(den))
        value = Decimal(text)  # Decimal also takes "_" that no digit follows
        if value.is_finite() and not _LOOSE_UNDERSCORE.search(text):
            return Fraction(value)
    except (InvalidOperation, ValueError):
        pass
    raise ValueError(f"Invalid literal for Fraction: {text!r}")
