"""Goldbach-Euler engine: perfect powers, their reciprocal series, and the
stepwise Euler sieve with tracked truncation tails.

The classical statement: the sum of 1/(k-1) over perfect powers k = m^n
(m, n >= 2) is exactly 1.  Everything here works at finite depth with exact
rationals and explicit error ledgers instead of manipulating the divergent
harmonic symbol.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import List, Optional

from . import extsum
from .errors import DepthTooSmall
from .intervals import Interval


def perfect_powers(limit: int) -> List[int]:
    """Sorted, deduplicated m^n <= limit with m, n >= 2: the squares, plus
    the powers m^n with odd n >= 3 that are not squares (an even exponent
    gives a square)."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    odd = set()
    exponent = 3
    while (1 << exponent) <= limit:
        base = 2
        while True:
            value = base ** exponent
            if value > limit:
                break
            if isqrt(value) ** 2 != value:
                odd.add(value)
            base += 1
        exponent += 2
    return sorted([m * m for m in range(2, isqrt(limit) + 1)] + list(odd))


def _integer_root(k: int, exponent: int) -> int:
    """floor(k^(1/exponent)) for k >= 1, in integers: isqrt for squares,
    otherwise Newton's iteration down from a power of two above the root."""
    if exponent == 2:
        return isqrt(k)
    root = 1 << -(-k.bit_length() // exponent)
    while True:
        lower = ((exponent - 1) * root + k // root ** (exponent - 1)) // exponent
        if lower >= root:
            return root
        root = lower


def is_perfect_power(k: int) -> bool:
    return k >= 4 and any(_integer_root(k, e) ** e == k
                          for e in range(2, k.bit_length()))


def _sum_reciprocals(values) -> Fraction:
    """Exact sum of 1/v over values, by divide-and-conquer on raw num/den
    pairs with a single reduction at the end (much faster than repeated
    Fraction additions for thousands of terms)."""
    pairs = [(1, v) for v in values]
    if not pairs:
        return Fraction(0)
    while len(pairs) > 1:
        merged = []
        for i in range(0, len(pairs) - 1, 2):
            (a, b), (c, d) = pairs[i], pairs[i + 1]
            merged.append((a * d + c * b, b * d))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    num, den = pairs[0]
    return Fraction(num, den)


def partial_sum(limit: int) -> Fraction:
    """Exact sum of 1/(k-1) over perfect powers k <= limit."""
    if limit < 4:
        raise ValueError("limit must be >= 4 (the first perfect power)")
    return _sum_reciprocals(k - 1 for k in perfect_powers(limit))


def tail_bound(limit: int) -> Fraction:
    """Certified bound on the sum of 1/(k-1) over perfect powers k > limit.

    Bases above s = isqrt(limit) contribute at most 2/(m^2-1) each, and the
    telescoping sum of 2/(m^2-1) over m > s is 1/s + 1/(s+1); the factor 2
    is meant to absorb the higher powers of every base, which is not proven.
    As the whole sum is 1, the tests check 0 < 1 - partial_sum(L) <= bound
    exactly for every L in [4, 2*10^5).
    """
    if limit < 4:
        raise ValueError("limit must be >= 4")
    s = isqrt(limit)
    return Fraction(1, s) + Fraction(1, s + 1)


def powers_reciprocal_series() -> extsum.SeriesSpec:
    """The series 1/(k-1) over perfect powers in increasing order, with a
    certified tail bound, as integer pairs.

    The ``j``-th perfect power (from 0) is at most ``(j + 2)^2``, as the
    squares ``2^2 .. (j + 2)^2`` are ``j + 1`` of them.  So a read past the
    enumerated powers enumerates them once more, up to
    ``max(4 * limit, (j + 2)^2)``, ``limit`` the previous enumeration's.
    """
    powers: List[int] = []
    limit = [64]
    lock = threading.Lock()

    def kth_power(j: int) -> int:
        if j < len(powers):
            return powers[j]
        with lock:
            if len(powers) <= j:
                limit[0] = max(4 * limit[0], (j + 2) ** 2)
                powers[:] = perfect_powers(limit[0])
        return powers[j]

    return extsum.SeriesSpec.from_pairs(
        lambda n: (1, kth_power(n) - 1), "nonneg",
        lambda k: tail_bound(kth_power(k)).as_integer_ratio(), "powers_recip")


@dataclass(frozen=True)
class SieveStep:
    base: int
    contribution: Fraction
    tail: Fraction


@dataclass(frozen=True)
class SieveReport:
    steps: List[SieveStep]
    removed_bases: List[int]
    residual: Interval
    depth: int

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "steps": [{"base": s.base,
                       "contribution": str(s.contribution),
                       "tail_bound": str(s.tail)} for s in self.steps],
            "removed_bases": list(self.removed_bases),
            "residual": [str(self.residual.lo), str(self.residual.hi)],
        }


def euler_sieve(depth: int, steps: int) -> SieveReport:
    """Run the Euler sieve on the harmonic range {1..depth}.

    Each step picks the smallest integer in [2, depth] not yet covered by a
    previous base's powers (necessarily not a perfect power), removes its
    whole geometric series, and records the exact contribution 1/(m-1) and a
    bound on the tail truncated beyond depth.  The residual is H(depth) less
    the contributions and the untouched terms, that is 1 plus the covered
    terms less the contributions; widened by the tails it must contain 1.
    """
    if steps < 1 or depth < steps:
        raise ValueError("need depth >= steps >= 1")
    covered = set()  # the powers of the chosen bases, O(steps log depth) of them
    covered_values: List[int] = []
    sieve_steps: List[SieveStep] = []
    candidate = 2
    for _ in range(steps):
        while candidate <= depth and candidate in covered:
            candidate += 1
        if candidate > depth:
            raise DepthTooSmall(f"only {len(sieve_steps)} bases fit below {depth}")
        m = candidate
        value = m
        largest_exp = 0
        while value <= depth:
            covered.add(value)
            covered_values.append(value)
            largest_exp += 1
            value *= m
        contribution = Fraction(1, m - 1)
        tail = Fraction(1, (m - 1) * m ** (largest_exp - 1))
        sieve_steps.append(SieveStep(m, contribution, tail))
    contributions = sum((s.contribution for s in sieve_steps), Fraction(0))
    residual = 1 + _sum_reciprocals(covered_values) - contributions
    slack = sum((s.tail for s in sieve_steps), Fraction(0))
    return SieveReport(
        steps=sieve_steps,
        removed_bases=[s.base for s in sieve_steps],
        residual=Interval(residual, residual + slack),
        depth=depth,
    )


def flat_identity(limit: int, depth: int = 4096) -> extsum.ExtSumResult:
    """Flat sum of the perfect-power reciprocal series: eta^# - eps_d with
    the eta interval pinned by the partial sum up to `limit`."""
    if limit < 4:
        raise ValueError("limit must be >= 4")
    series = powers_reciprocal_series()
    eta_terms = max(1, len(perfect_powers(limit)))
    return extsum.flat_sum(series, depth=depth, eta_terms=eta_terms)


def goldbach_report(limit: int, total: Optional[Fraction] = None) -> dict:
    """JSON-ready summary used by the CLI; ``total`` is ``partial_sum(limit)``
    when the caller has it already."""
    if total is None:
        total = partial_sum(limit)
    bound = tail_bound(limit)
    return {
        "limit": limit,
        "partial_sum": str(total),
        "tail_bound": str(bound),
        "abs_err_vs_1": str(abs(1 - total)),
    }
