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
from typing import List

from . import extsum
from .errors import DepthTooSmall
from .intervals import Interval, _fraction_to_text


def perfect_powers(limit: int) -> List[int]:
    """Sorted, deduplicated m^n <= limit with m, n >= 2: the squares plus
    ``_odd_powers``."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    return sorted([m * m for m in range(2, isqrt(limit) + 1)] + _odd_powers(limit))


def _odd_powers(limit: int) -> List[int]:
    """The perfect powers up to limit that are not squares: m^n with odd
    n >= 3 (an even exponent gives a square), deduplicated, in any order."""
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
    return list(odd)


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
    """Exact sum of 1/(k-1) over perfect powers k <= limit.

    The squares m^2, m = 2..s, s = isqrt(limit), telescope:
    1/(m^2-1) = (1/(m-1) - 1/(m+1))/2, so all but 1/1 + 1/2 and
    1/s + 1/(s+1) cancel, and they add (3/2 - 1/s - 1/(s+1))/2 =
    3/4 - (2s+1)/(2s(s+1)).  Only the other powers, ``_odd_powers``, are
    summed one by one.
    """
    if limit < 4:
        raise ValueError("limit must be >= 4 (the first perfect power)")
    s = isqrt(limit)
    squares = Fraction(3, 4) - Fraction(2 * s + 1, 2 * s * (s + 1))
    return squares + _sum_reciprocals(k - 1 for k in _odd_powers(limit))


def tail_bound(limit: int) -> Fraction:
    """Certified bound 1/s + 1/(s+1), s = isqrt(L), on the sum of 1/(k-1)
    over the perfect powers k > L = limit.

    As the whole sum is 1, the tests check 0 < 1 - partial_sum(L) <= bound
    exactly for every L in [4, 2*10^5).  For L >= 2*10^5 it is proved.
    Each perfect power is m^e, e >= 2, for one non-power m (see
    ``euler_sieve``); split by m, with t = floor(L^(1/3)):

    - m > s: every m^e >= m^2 > L counts.  As m^e - 1 >= m^(e-2) (m^2 - 1),
      they add at most m/((m-1)(m^2-1)) = 1/(m^2-1) + 1/((m-1)^2 (m+1)).
      Over m > s the first part telescopes, 1/(m^2-1) = (1/(m-1) -
      1/(m+1))/2, to (1/s + 1/(s+1))/2.  The second is at most
      (s+1)/s * 1/((m-1) m (m+1)), which telescopes to at most 1/(2 s^2).
    - t < m <= s: m^2 <= L < m^3, so e >= 3 and, as above, the powers add
      at most 2/(m^3-1) <= 16/(7 m^3); over m > t, at most 8/(7 t^2).
    - m <= t: with m^f the least power above L, the powers add at most
      2/(m^f - 1) <= 2/L each, and at most 2 (t-1)/L < 2/t^2 for all.

    So the tail is at most the bound less 1/(s+1) - 1/(2 s^2) - 22/(7 t^2),
    as (1/s + 1/(s+1))/2 >= 1/(s+1).  At L >= 2*10^5, s >= 447 and t >= 58,
    so 1/(s+1) - 1/(2 s^2) >= 0.998/(s+1) >= 0.995 L^(-1/2), and
    t >= L^(1/3) - 1 >= (57/58) L^(1/3) gives 22/(7 t^2) <= 3.26 L^(-2/3).
    That is below 0.995 L^(-1/2) once L^(1/6) > 3.28, from L = 1250 on.
    (The true tail was 0.51 to 0.56 of the bound from L = 10^4 to 10^10.)
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
                       "contribution": _fraction_to_text(s.contribution),
                       "tail_bound": _fraction_to_text(s.tail)} for s in self.steps],
            "removed_bases": list(self.removed_bases),
            "residual": [_fraction_to_text(q) for q in (self.residual.lo, self.residual.hi)],
        }


def euler_sieve(depth: int, steps: int) -> SieveReport:
    """Run the Euler sieve on the harmonic range {1..depth}.

    Each step picks the smallest integer in [2, depth] not yet covered by a
    previous base's powers, removes its whole geometric series, and records
    the exact contribution 1/(m-1) and a bound on the tail truncated beyond
    depth.  The residual is H(depth) less the contributions and the
    untouched terms, that is 1 plus the covered terms less the
    contributions; widened by the tails it must contain 1.  Two identities
    make that a walk over the non-powers with no table of covered values.

    *The bases are the non-powers in increasing order.*  Every c >= 2 is
    m^e for exactly one non-power m >= 2 and e >= 1: with g the gcd of the
    exponents of c's prime factorization, c = m^g where m's exponents have
    gcd 1, so m is no power; and c = r^f with r a non-power gives those
    exponents as f times r's, whose gcd is 1, so f = g and r = m.  Say the
    bases so far are the non-powers up to b.  A non-power c above b is m^e
    only as c^1, so no base covers it.  A perfect power c up to depth, below
    the next non-power above b, is m^e with m < c a non-power, so m <= b is
    a base and covers c.  So the next base is the least non-power above b:
    the walk skips exactly the perfect powers, read by ``is_perfect_power``.

    *One reciprocal sum for the residual.*  With m^E the largest power of
    m up to depth, sum_{e=1..E} m^-e = (1 - m^-E)/(m-1) = 1/(m-1) -
    1/((m-1) m^E).  So the covered terms less the contributions are
    -sum 1/((m-1) m^E) over the bases, the residual is
    1 - sum 1/((m-1) m^E), and the slack is the sum of the tails
    1/((m-1) m^(E-1)), each m times the truncated tail 1/((m-1) m^E).
    """
    if steps < 1 or depth < steps:
        raise ValueError("need depth >= steps >= 1")
    sieve_steps: List[SieveStep] = []
    m = 1
    for _ in range(steps):
        m += 1
        while m <= depth and is_perfect_power(m):
            m += 1
        if m > depth:
            raise DepthTooSmall(f"only {len(sieve_steps)} bases fit below {depth}")
        power = m  # m^E, the largest power of m up to depth
        while power * m <= depth:
            power *= m
        tail = Fraction(1, (m - 1) * (power // m))
        sieve_steps.append(SieveStep(m, Fraction(1, m - 1), tail))
    residual = 1 - _sum_reciprocals(s.base * s.tail.denominator for s in sieve_steps)
    slack = _sum_reciprocals(s.tail.denominator for s in sieve_steps)
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


def goldbach_report(limit: int) -> dict:
    """JSON-ready summary used by the CLI."""
    total = partial_sum(limit)
    return {
        "limit": limit,
        "partial_sum": _fraction_to_text(total),
        "tail_bound": _fraction_to_text(tail_bound(limit)),
        "abs_err_vs_1": _fraction_to_text(abs(1 - total)),
    }
