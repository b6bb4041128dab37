"""External summation of countable rational series.

The value of a convergent sum lives in the canonical-form fragment: a
nonnegative convergent series with real sum eta yields ``eta^# - eps_d``
(the sup of the embedded partial sums sits one infinitesimal-sup below the
embedded limit), a nonpositive one yields ``eta^# + eps_d``, and a split
series adds its two compactly-enumerated halves.  Divergent nonnegative
series keep their exact partial-sum hyperreal with no correction.

Convergence is certificate-driven: a ``SeriesSpec`` may carry a
``tail_bound`` with ``sum_{n>k} |term(n)| <= tail_bound(k)``, monotone
nonincreasing.  Without a certificate only a divergence witness (partial
sums crossing a probe) is accepted; everything else raises
``ConvergenceUnknown``.

A series is read as integer pairs (fraction-free, as in Knuth, TAOCP vol.
2, 4.5.1): ``pair(n)`` is ``(p, q)`` with ``q > 0`` and term ``p/q``, not
necessarily reduced, and ``tail_pair(k)`` is the tail bound the same way.
The bracket floors, the freeze check, ``split_parts``' cursor and the eta
interval all read those pairs; ``term_at`` and ``tail_bound`` are the
rational faces, derived from them.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from . import seqfield as sf
from .errors import ConvergenceUnknown, InvalidPermutation
from .intervals import Interval, exact_int, exact_rational, grid_bits, read_int
from .seqfield import Hyperreal, Pair, Verdict, make
from .wattenberg import DedekindNumber, EPS_IDEM, dd_add, dd_scalar_mul, embed

DEFAULT_DEPTH = sf.DEFAULT_DEPTH
DEFAULT_ETA_TERMS = 128
DEFAULT_DIVERGENCE_PROBE = 64

NONNEG = "nonneg"
NONPOS = "nonpos"
SPLIT = "split"


def _exact_pairs(fn: Callable[[int], Fraction], label: str, kind: str,
                 pattern: str = SPLIT) -> Callable[[int], Pair]:
    """``fn``'s values as reduced pairs, read with ``exact_rational``: a
    float or a bool is refused with ``TypeError`` naming ``kind`` and the
    index.  A negative value under ``NONNEG`` and a positive one under
    ``NONPOS`` are refused with ``ValueError``."""
    what = f"{label}: {kind}"

    def pair(n):
        p, q = exact_rational(fn(n), what, n).as_integer_ratio()
        if p < 0 and pattern == NONNEG:
            raise ValueError(f"{label}: negative {kind} at index {n}")
        if p > 0 and pattern == NONPOS:
            raise ValueError(f"{label}: positive {kind} at index {n}")
        return p, q

    return pair


class SeriesSpec:
    """A series ``sum t_n`` from its terms, its sign pattern and, optionally,
    a certified tail bound.

    The pair contract: ``pair(n)`` is ``(p, q)`` with ``q > 0`` and
    ``t_n = p/q``, not necessarily reduced, and ``tail_pair(k)``, or None
    without a certificate, is the tail bound as such a pair.
    ``SeriesSpec(term, pattern, tail_bound, label)`` takes rational faces
    (ints or ``Fraction``s) and wraps them into checked pairs once: a float
    is refused with ``TypeError`` naming its index, and a term against the
    sign pattern with ``ValueError``.  ``from_pairs`` takes the pairs
    themselves, as the DSL's series give them, and trusts them to keep the
    contract and the pattern.  ``term_at`` and ``tail_bound`` are the
    rational faces of the pairs.

    The tail-bound contract: ``tail_bound(k) >= sum_{n>k} |t_n|`` at every
    ``k >= 0``, nonincreasing in ``k``.  It bounds the absolute tail, not only
    the signed one.  ``split_parts`` relies on that when it gives each half
    the bound at the original index of its ``k``-th term, and so does
    ``partial_sums``'s cut-off, which freezes a one-signed table once
    ``tail_bound(i) < 2^-k``.  The DSL's series keep it: ``pser`` and a
    nonnegative ``geom`` are one-signed, a negative ``geom`` bounds the
    absolute tail by ``|r|^(k+2) / (1 - |r|)``, and ``alt(...)`` reuses the
    bound of the absolute terms.  ``powers_recip`` rests on
    ``goldbach.tail_bound``, checked exactly for ``L < 2*10^5`` and proved
    above.  The ``i``-th perfect power is at most ``(i+2)^2``, so
    its bound at index ``i`` exceeds ``2/(i+3)``, which at ``i <= depth``
    is above ``2^-(bits(depth) + 3)``: its brackets never freeze at the
    scales ``shadow`` and ``classify`` read.  Its partial sums are monotone
    all the same, so ``classify`` reads its window's two ends and
    ``shadow`` bisects (see ``partial_sums``).
    A split series whose bound holds only for the signed tail breaks the
    contract.
    """

    __slots__ = ("term", "pattern", "tail_bound", "label", "pair", "tail_pair")

    def __init__(self, term: Callable[[int], Fraction], pattern: str,
                 tail_bound: Optional[Callable[[int], Fraction]] = None,
                 label: str = "<series>"):
        if pattern not in (NONNEG, NONPOS, SPLIT):
            raise ValueError(f"unknown sign pattern {pattern!r}")
        self.term, self.pattern, self.tail_bound, self.label = term, pattern, tail_bound, label
        self.pair = _exact_pairs(term, label, "term", pattern)
        self.tail_pair = None if tail_bound is None else \
            _exact_pairs(tail_bound, label, "tail bound")

    @classmethod
    def from_pairs(cls, pair: Callable[[int], Pair], pattern: str,
                   tail_pair: Optional[Callable[[int], Pair]] = None,
                   label: str = "<series>") -> "SeriesSpec":
        """The series whose pairs are ``pair`` and ``tail_pair``, read as
        they are: every term must have the sign ``pattern`` says."""
        bound = None if tail_pair is None else lambda k: Fraction(*tail_pair(k))
        spec = cls(lambda n: Fraction(*pair(n)), pattern, bound, label)
        spec.pair, spec.tail_pair = pair, tail_pair
        return spec

    def term_at(self, n: int) -> Fraction:
        return Fraction(*self.pair(n))


def geom(ratio) -> SeriesSpec:
    """Geometric series with terms ratio^(n+1)."""
    r = exact_rational(ratio, "ratio")
    a, b = r.numerator, r.denominator
    pattern = NONNEG if a >= 0 else SPLIT
    bound = None
    m = abs(a)
    if m < b:
        # |sum_{n>k} r^(n+1)| <= |r|^(k+2) / (1 - |r|) = m^(k+2) / (b^(k+1) (b - m))
        bound = lambda k: (m ** (k + 2), b ** (k + 1) * (b - m))
    return SeriesSpec.from_pairs(lambda n: (a ** (n + 1), b ** (n + 1)), pattern, bound,
                                 f"geom({r})")


def pser(k: int) -> SeriesSpec:
    """p-series with terms 1/(n+1)^k; carries a tail bound for k >= 2."""
    exact_int(k, "exponent", 1)
    bound = None
    if k >= 2:
        # sum_{n>m} 1/(n+1)^k <= integral comparison: 1/((k-1) (m+1)^(k-1))
        bound = lambda m: (1, (k - 1) * (m + 1) ** (k - 1))
    return SeriesSpec.from_pairs(lambda n: (1, (n + 1) ** k), NONNEG, bound, f"pser({k})")


def harmonic_series() -> SeriesSpec:
    return SeriesSpec.from_pairs(lambda n: (1, n + 1), NONNEG, None, "harmonic")


def alternating(inner: SeriesSpec) -> SeriesSpec:
    """Apply signs (-1)^n to the absolute values of another series' terms."""
    pair = inner.pair

    def term(n):
        p, q = pair(n)
        return (abs(p) if n % 2 == 0 else -abs(p)), q

    return SeriesSpec.from_pairs(term, SPLIT, inner.tail_pair, f"alt({inner.label})")


def partial_sums(spec: SeriesSpec) -> Hyperreal:
    """The identity-permutation representative: the hyperreal of partial sums.

    Its bracket at scale ``k`` is ``(L_n, L_n + n + 1)``, ``L_n`` the sum of
    ``floor(t_j * 2^k)`` over ``j <= n``: ``L_n <= a(n) * 2^k < L_n + n + 1``,
    as each of the ``n + 1`` floors is less than one unit below its term.
    Each scale keeps one running-sum table of ``L_n``
    (``seqfield.cumulative_gen``, as the exact sums do), so no exact partial
    sum is formed for it.

    A one-signed series with a tail bound ``T`` freezes its table at the
    certified tail.  At scale ``k`` let ``i`` be the first of ``1, 2, 4, ...``
    with ``T(i) < 2^-k``; a read at ``n`` checks only the ``i <= n``.  For
    ``n > i`` the terms after ``i`` add ``d = (a(n) - a(i)) * 2^k``, and
    ``|d| <= T(i) * 2^k < 1``.  A nonnegative series has ``0 <= d < 1``, so
    ``L_i <= a(n) * 2^k < L_i + i + 2``; a nonpositive one has
    ``-1 < d <= 0``, so ``L_i - 1 < a(n) * 2^k < L_i + i + 1``.  That frozen
    bracket, ``i + 2 <= n + 1`` wide, is returned for every ``n > i``, and
    no term after ``i`` is floored at that scale.  A frozen read reports the
    run start ``i + 1``, any other read ``n`` (see ``seqfield``).

    The partial sums of a nonnegative series are marked monotone.  Each
    ``floor(t_j * 2^k)`` of a term ``t_j >= 0`` is ``>= 0``, so ``L_n`` is
    nondecreasing and ``L_n + n + 1`` increasing in ``n``.  The frozen
    bracket ``(L_i, L_i + i + 2)`` is at least every earlier one, as
    ``L_m <= L_i`` and ``L_m + m + 1 <= L_i + i + 1`` for ``m <= i``.  So
    both ends are nondecreasing at every scale, and so is ``a(n) >= 0``.  A
    nonpositive series is not marked: a zero term floors to 0 and raises
    ``L_n + n + 1`` by one, so its upper ends rise as its sums fall.
    """
    # per scale k: [table of L_n, next index to check, frozen (i, bracket)]
    scales: dict = {}
    pair = spec.pair
    bound = None if spec.pattern == SPLIT else spec.tail_pair
    below = 1 if spec.pattern == NONPOS else 0
    lock = threading.Lock()

    def bracket(n: int, k: int):
        scale = scales.get(k)
        if scale is None:
            def floor_term(i):
                p, q = pair(i)
                return (p << k) // q

            scale = scales.setdefault(k, [sf.cumulative_gen(floor_term), 1, None])
        table = scale[0]
        if scale[2] is None and bound is not None and scale[1] <= n:
            with lock:  # the check index only grows past indices that failed
                while scale[2] is None and scale[1] <= n:
                    i = scale[1]
                    if _frozen(bound(i), k):
                        lo = table(i) - below
                        scale[2] = (i, (lo, lo + i + 2, i + 1))
                    else:
                        scale[1] = 2 * i
        frozen = scale[2]
        if frozen is not None and n > frozen[0]:
            return frozen[1]
        lo = table(n)
        return lo, lo + n + 1, n

    sums = Hyperreal(sf.cumulative_gen(spec.term_at), label=f"sum[{spec.label}]",
                     bracket=bracket)
    sums.monotone = spec.pattern == NONNEG
    return sums


def _frozen(tail: Pair, k: int) -> bool:
    """The freeze rule of ``partial_sums``: ``0 <= T(i) < 2^-k``, with
    ``tail`` the pair ``(b, d)`` of ``T(i) = b/d``."""
    b, d = tail
    return b >= 0 and b << k < d


def table_work(spec: SeriesSpec, depth: int, k: int, cap: int) -> int:
    """An estimate of the work of reading ``spec``'s flat-sum brackets at
    scale ``k`` up to ``depth``: the extent of the table that floors its
    terms, times the bits of the term pair there, which is at least the
    bits of every pair floored before it when the pairs grow with the index.

    The extent is where ``partial_sums`` freezes the table: the first ``i``
    of 1, 2, 4, ... with ``_frozen(tail_pair(i), k)``, and at most
    ``depth``.  A split series is read as its halves, and the DSL's split
    series alternate in sign: a half's ``j``-th term is the series' term
    ``2j`` or ``2j + 1``, and its bound there is at most the series' bound
    at ``2j``.  So the halves freeze by the first ``i`` with
    ``_frozen(tail_pair(2i), k)``, having floored the series' terms up to
    ``2i + 1``, where the pair is read.  The pairs are read at the doubling
    indices, and the estimate stops once it passes ``cap``, so its own
    reads stay small.  A series without a certificate has no such table:
    ``flat_sum`` refuses a split one at once and reads a one-signed one only
    through the divergence probe, which stops at its first witness; its
    estimate is 0.
    """
    if spec.tail_pair is None:
        return 0
    stride = 2 if spec.pattern == SPLIT else 1
    i = 1
    while True:
        n = stride * min(i, depth) + stride - 1
        p, q = spec.pair(n)
        work = n * (p.bit_length() + q.bit_length())
        if work > cap or i >= depth or _frozen(spec.tail_pair(stride * i), k):
            return work
        i *= 2


@dataclass(frozen=True)
class ExtSumResult:
    value: DedekindNumber
    eta_interval: Optional[Interval]
    divergent: bool = False

    def __post_init__(self):
        if self.divergent and self.eta_interval is not None:
            raise ValueError("divergent results carry no eta interval")


def split_parts(spec: SeriesSpec):
    """Compact subsequences of nonnegative and negative terms.

    Reindexing compactly (rather than padding with zeros) is what makes the
    alternating unit series collapse exactly: its halves sum to the all-ones
    and all-minus-ones partials, which cancel pointwise.  One shared cursor
    reads each term's pair once and files its index and pair under its sign
    (a zero term is nonnegative).  A zero term ``n`` with a zero
    ``tail_pair(n)`` ends the cursor, as every later term is then 0; past
    its filed terms a half reads zero terms with tail bound 0.
    """
    filed = ([], [])  # (original index, pair) of the nonnegative, negative terms
    cursor = [0]      # the next index to read; None once the rest is certified 0
    lock = threading.Lock()
    pair, bound = spec.pair, spec.tail_pair

    def entry(negative: bool, j: int):
        mine = filed[negative]
        if j < len(mine):
            return mine[j]
        with lock:
            while len(mine) <= j and cursor[0] is not None:
                n = cursor[0]
                value = pair(n)
                filed[value[0] < 0].append((n, value))
                ended = not value[0] and bound is not None and bound(n)[0] == 0
                cursor[0] = None if ended else n + 1
        return mine[j] if j < len(mine) else None

    def half(negative, pattern, suffix):
        def term(j):
            found = entry(negative, j)
            return (0, 1) if found is None else found[1]

        def tail(k):
            found = entry(negative, k)
            return (0, 1) if found is None else bound(found[0])

        return SeriesSpec.from_pairs(term, pattern, None if bound is None else tail,
                                     spec.label + suffix)

    return half(False, NONNEG, "+"), half(True, NONPOS, "-")


def _eta_interval(spec: SeriesSpec, eta_terms: int) -> Interval:
    """Interval around the real sum: the first ``eta_terms`` terms plus or
    minus the tail bound ``slack`` at ``eta_terms - 1``, rounded outward to
    the grid ``2^-k``, ``k`` the least integer >= 0 with ``2^-k <= slack``.
    It is at most ``4 * slack`` wide and its endpoints have about ``k``
    bits, whatever the size of the exact partial sum; a zero slack keeps
    the exact point.  The terms are summed once over the lcm of their
    denominators, and bounds are compared by cross-multiplication.

    The tail bound is checked nonincreasing at every index of
    ``[0, eta_terms)``, and a negative one is refused; a certificate that
    rises beyond them is not detected.
    """
    terms = [spec.pair(n) for n in range(eta_terms)]
    den = lcm(*(q for _, q in terms))
    num = sum(p * (den // q) for p, q in terms)
    bounds = [spec.tail_pair(n) for n in range(eta_terms)]
    # b1/d1 > b0/d0 with d0, d1 > 0
    if any(b1 * d0 > b0 * d1 for (b0, d0), (b1, d1) in zip(bounds, bounds[1:])):
        raise ValueError(f"{spec.label}: tail bound is not nonincreasing")
    b, d = bounds[-1]  # the least bound, as they are nonincreasing
    if b < 0:
        raise ValueError(f"{spec.label}: tail bound is negative")
    if b == 0:
        return Interval.point(Fraction(num, den))
    k = grid_bits(Fraction(b, d))
    # the sum minus and plus the slack: (num d -/+ b den) / (den d)
    whole = den * d
    return Interval(Fraction(((num * d - b * den) << k) // whole, 1 << k),
                    Fraction(-(-((num * d + b * den) << k) // whole), 1 << k))


def flat_sum(spec: SeriesSpec, depth: int = DEFAULT_DEPTH,
             eta_terms: int = DEFAULT_ETA_TERMS,
             divergence_probe: int = DEFAULT_DIVERGENCE_PROBE) -> ExtSumResult:
    """Flat sum of a series, valued in the canonical-form fragment.

    ``eta_terms`` must be at least 1: the tail bound is read at index
    ``eta_terms - 1``, and it is defined from index 0 on."""
    exact_int(depth, "depth")
    exact_int(eta_terms, "eta_terms", 1)
    probe = exact_rational(divergence_probe, "divergence_probe")
    if spec.pattern == SPLIT:
        plus, minus = split_parts(spec)
        if spec.tail_pair is None:
            raise ConvergenceUnknown(f"{spec.label}: split sums need a certificate")
        left = flat_sum(plus, depth, eta_terms, divergence_probe)
        right = flat_sum(minus, depth, eta_terms, divergence_probe)
        value = dd_add(left.value, right.value, depth)
        interval = left.eta_interval + right.eta_interval
        return ExtSumResult(value, interval, False)

    sums = partial_sums(spec)
    if spec.tail_pair is not None:
        interval = _eta_interval(spec, eta_terms)
        sign = -1 if spec.pattern == NONNEG else 1
        return ExtSumResult(DedekindNumber(sums, sign, EPS_IDEM), interval, False)

    # |a(n)| never falls, so it reaches the probe by depth exactly when it
    # does at depth; the brackets at n = 0, 1, 3, 7, ..., depth, each under
    # one unit wide at scale k, find an early witness with no exact sum
    # unless one straddles the probe
    k = depth.bit_length() + 1
    sign = 1 if spec.pattern == NONNEG else -1
    target = probe * (1 << k)
    n = 0
    while True:
        lo, hi, _ = sums.bracket(n, k)
        lo, hi = (lo, hi) if sign > 0 else (-hi, -lo)
        if lo >= target or (hi >= target and sign * sums.at(n) >= probe):
            return ExtSumResult(embed(sums), None, True)
        if n == depth:
            break
        n = min(2 * n + 1, depth)
    raise ConvergenceUnknown(
        f"{spec.label}: no certificate and no divergence witness "
        f"(probe {divergence_probe}, depth {depth})")


def upper_lower_sum(spec: SeriesSpec):
    """Upper and lower sums of a certified-convergent series:
    (zeta^# + eps_d, zeta^# - eps_d) around the partial-sum hyperreal."""
    if spec.tail_pair is None:
        raise ConvergenceUnknown(f"{spec.label}: upper/lower sums need a certificate")
    sums = partial_sums(spec)
    upper = DedekindNumber(sums, 1, EPS_IDEM)
    lower = DedekindNumber(sums, -1, EPS_IDEM)
    return upper, lower


def upper_lower_limit(a, tail_bound=None, depth: int = DEFAULT_DEPTH):
    """Upper and lower limits of a hyperreal sequence.

    Eventually constant input (witnessed within depth) realizes its sup and
    inf exactly, so the literal inf-sup gives the exact cut a# on both sides;
    this is the documented divergence from the +/- eps_d form that genuine
    (non-realized) convergence produces.
    """
    exact_int(depth, "depth", 1)
    a = make(a)
    if sf._compare(a, a.at(depth), depth).verdict is Verdict.EQUAL:
        exact = embed(a)
        return exact, exact
    if tail_bound is None:
        raise ConvergenceUnknown("no certificate and not eventually constant")
    for k in (0, depth // 2):
        # |a(depth) - a(k)| <= c(k) + c(depth) <= 2 c(k) for a real certificate
        if abs(a.at(depth) - a.at(k)) > 2 * exact_rational(tail_bound(k), "tail bound", k):
            raise ValueError(
                f"certificate inconsistent with the inspected prefix at {k}")
    upper = DedekindNumber(a, 1, EPS_IDEM)
    lower = DedekindNumber(a, -1, EPS_IDEM)
    return upper, lower


@dataclass(frozen=True)
class BoundedPermutation:
    """Bijection of the naturals moving no index further than `displacement`."""
    mapping: Callable[[int], int]
    displacement: int

    def validate(self, window: int):
        seen = {}
        for i in range(window):
            j = self.mapping(i)
            if abs(j - i) > self.displacement or j < 0:
                raise InvalidPermutation(f"index {i} moved to {j}")
            if j in seen:
                raise InvalidPermutation(f"indices {seen[j]} and {i} collide at {j}")
            seen[j] = i


def rearranged(spec: SeriesSpec, perm: BoundedPermutation) -> SeriesSpec:
    """The permuted series; the certificate shifts by the displacement.

    A term after index ``k`` comes from an index above ``k - d``, ``d`` the
    displacement, so ``bound(k - d)`` covers the tail for ``k >= d``.  For
    ``k < d`` the tail may hold term 0, so the whole sum's bound
    ``|t_0| + bound(0)`` stands in."""
    pair, bound, mapping = spec.pair, spec.tail_pair, perm.mapping
    d = perm.displacement
    shifted = None
    if bound is not None:
        def shifted(k):
            if k >= d:
                return bound(k - d)
            (b, e), (p, q) = bound(0), pair(0)
            return b * q + abs(p) * e, e * q

    return SeriesSpec.from_pairs(lambda n: pair(mapping(n)), spec.pattern, shifted,
                                 f"{spec.label} o sigma")


def rearranged_flat_sum(spec: SeriesSpec, perm: BoundedPermutation,
                        depth: int = DEFAULT_DEPTH,
                        eta_terms: int = DEFAULT_ETA_TERMS) -> ExtSumResult:
    """Flat sum after a bounded-displacement rearrangement; equal, as a
    DedekindNumber, to the unpermuted flat sum."""
    if spec.pattern != NONNEG:
        raise InvalidPermutation("rearrangement is supported for nonneg series")
    perm.validate(depth + perm.displacement + 1)
    return flat_sum(rearranged(spec, perm), depth, eta_terms)


def scalar_mul_flat(c, spec: SeriesSpec, depth: int = DEFAULT_DEPTH,
                    eta_terms: int = DEFAULT_ETA_TERMS) -> ExtSumResult:
    """Flat sum of the termwise-scaled series for a positive scalar c.

    Scaling commutes with the flat sum, so the value is the scalar product of
    the base result: the diagonal hyperreal c(i) * S(i) with the idempotent
    scale multiplied by c.  For constant c the real limit scales exactly and
    the eta interval follows; for nonconstant c no real limit exists.
    """
    c = make(c)
    if sf._compare(c, 0, depth).verdict is not Verdict.GREATER:
        raise ConvergenceUnknown("scalar must verify positive")
    base = flat_sum(spec, depth, eta_terms)
    value = dd_scalar_mul(c, base.value, depth)
    cq = c.const_value
    interval = None
    if base.eta_interval is not None and cq is not None:
        interval = base.eta_interval * cq
    return ExtSumResult(value, interval, base.divergent)


# ---------------------------------------------------------------------------
# Mini-DSL used by the CLI: geom(r), pser(k), powers_recip, harmonic, alt(...)

_CALL = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\(\s*(.*)\s*\))?\s*$")


def parse_series(text: str) -> SeriesSpec:
    match = _CALL.match(text)
    if not match:
        raise ValueError(f"cannot parse series expression {text!r}")
    name, arg = match.group(1), match.group(2)
    if name == "geom":
        if arg is None:
            raise ValueError("geom needs a ratio argument")
        return geom(arg)
    if name == "pser":
        if arg is None:
            raise ValueError("pser needs an exponent argument")
        return pser(read_int(arg))
    if name == "alt":
        if arg is None:
            raise ValueError("alt needs an inner series")
        return alternating(parse_series(arg))
    if name in ("harmonic", "powers_recip") and arg is not None:
        raise ValueError(f"{name} takes no argument")
    if name == "harmonic":
        return harmonic_series()
    if name == "powers_recip":
        from .goldbach import powers_reciprocal_series
        return powers_reciprocal_series()
    raise ValueError(f"unknown series {name!r}")
