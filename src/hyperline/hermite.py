"""Transcendence machinery for e, plus Diophantine approximation helpers.

The core objects are the Hermite integers

    M_k(n, p) = integral over [0, inf) of the shifted weight
                x^(p-1) [(x-1)...(x-n)]^p e^(-x) / (p-1)!   (k = 0)

and their x = k + u translates (k = 1..n).  Gamma integrals turn these into
exact integer sums of coefficient * factorial terms, no quadrature involved.
The identity e^k M_0 = M_k + eps_k with tiny eps_k then makes a finite
rational combination sum(b_k e^k) certifiably nonzero: pick a prime p so
that p divides every M_k (k >= 1) but not the k = 0 contribution, squeeze
|sum of scaled eps_k| below 1/2 in fixed-point integers, and the integer
part of the combination cannot vanish.

Every e^k comes from one fixed-point kernel, an integer bracket of
e^k * 2^K cut from one integer bracket of e 2^r: the floored terms of e's
series with an explicit remainder bound, summed once per power-of-two scale
r and kept; pi comes only from Machin's arctangent series, summed the same
way.  Intervals built from them are exact-rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt, lcm
from typing import Callable, Dict, List, Optional, Tuple, Union

from .errors import (IdentityViolated, PrecisionExhausted, RadiusViolation,
                     SearchExhausted, ZeroLeadingCoefficient, ZeroRoot)
from .intervals import (_MAX_DECIMAL_CHARS, Interval, _fraction_from_text,
                        _fraction_to_text, _from_decimal, _rational, _to_decimal, grid_bits)


# ---------------------------------------------------------------------------
# integer polynomials

def poly_expand_f(n: int, p: int) -> List[int]:
    """Coefficients of x^(p-1) * product_{j=1..n} (x - j)^p, lowest first:
    a list of length (n+1) p whose first p-1 entries are 0.

    The coefficient of x^(p-1) is ((-1)^n n!)^p.  The coefficients P_k of
    A(x)^p, A = sum a_i x^i = prod (x - j), follow J.C.P. Miller's recurrence
    (Knuth, TAOCP vol. 2, 4.7), each division checked exact:
    k a_0 P_k = sum_{i=1..min(n,k)} ((p+1) i - k) a_i P_{k-i}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 2 or not _is_prime(p):
        raise ValueError("p must be a prime >= 2")
    a = [1]
    for j in range(1, n + 1):
        a = [(a[i - 1] if i else 0) - j * (a[i] if i < len(a) else 0)
             for i in range(len(a) + 1)]
    powers = [a[0] ** p]  # a_0 = (-1)^n n! != 0
    for k in range(1, n * p + 1):
        total = 0
        for i in range(1, min(n, k) + 1):
            total += ((p + 1) * i - k) * a[i] * powers[k - i]
        quotient, remainder = divmod(total, k * a[0])
        if remainder:
            raise IdentityViolated(f"Miller step {k} of A^{p} is not exact")
        powers.append(quotient)
    return [0] * (p - 1) + powers


def elem_sym(values: List[Fraction], m: int) -> Fraction:
    """Elementary symmetric polynomial of the reciprocals 1/z_i.

    With P(z) = prod (1 - z/z_i) = 1 + a_1 z + ... the coefficients obey
    a_m = (-1)^m e_m.
    """
    if not 1 <= m <= len(values):
        raise ValueError("need 1 <= m <= len(values)")
    recips = []
    for z in values:
        z = Fraction(z)
        if z == 0:
            raise ZeroRoot("reciprocal of a zero root")
        recips.append(1 / z)
    # dp over prod (1 + y * r): e_m is the coefficient of y^m
    coeffs = [Fraction(1)] + [Fraction(0)] * len(recips)
    for r in recips:
        for j in range(len(coeffs) - 1, 0, -1):
            coeffs[j] += coeffs[j - 1] * r
    return coeffs[m]


# ---------------------------------------------------------------------------
# Hermite integers

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


def _next_prime(p: int) -> int:
    candidate = p + 1
    while not _is_prime(candidate):
        candidate += 1
    return candidate


# (n, p, tuple of [M_0, ..., M_n]) of the last expansion hermite_Ms finished,
# or None before the first.  Replaced by one assignment and read once per
# call, so a concurrent call sees one whole entry, old or new.
_LAST_MS: Optional[Tuple[int, int, Tuple[int, ...]]] = None


def hermite_Ms(n: int, p: int) -> List[int]:
    """[M_0, ..., M_n] from one expansion f(x) = sum_e c_e x^e.

    (p-1)! M_k = int_0^inf g(u) e^-u du with g(u) = f(u+k).  For a
    polynomial g, integrating by parts, int_0^inf g(u) e^-u du = g(0) +
    int_0^inf g'(u) e^-u du = ... = sum_j g^(j)(0), and g^(j)(0) = f^(j)(k),
    so (p-1)! M_k = F(k) with F = sum_j f^(j).  Then F - F' = f, so from the
    top F_e = c_e + (e+1) F_(e+1).  F(0) = F_0 and F(1) is the sum of the
    F_e; F(k) for k >= 2 follows by Horner's rule, where every product is a
    big integer times a small one.  The division is checked exact.

    Hermite's divisibility follows in closed form.  f^(j)(x) = sum_e c_e
    e!/(e-j)! x^(e-j) with e!/(e-j)! = j! C(e, j), so f^(j) at an integer
    is a multiple of j!, and of p! = p (p-1)! for j >= p.  For 1 <= k <= n,
    f has a zero of order p at k, so f^(j)(k) = 0 for j < p, p! divides
    F(k), and M_k = 0 (mod p).  At 0 the zero has order p-1: f^(j)(0) =
    j! c_j is 0 for j < p-1 and a multiple of p! for j >= p, so F(0) =
    (p-1)! c_(p-1) + (a multiple of p!) and M_0 = c_(p-1) = ((-1)^n n!)^p
    = (-1)^n n! (mod p) by Fermat, nonzero mod p exactly when p > n.  The
    certificate checks still test both, as an untrusted certificate needs
    them.

    One expansion is kept, the last: a call with the integers (n, p) of the
    call before returns a fresh list of its values, so a certificate's round
    trip (nonvanish_certificate, then verify_certificate at the same prime)
    expands once.  Any other call expands, runs every check (the inputs, each
    Miller step, the (p-1)! division) and only then replaces the entry; the
    empty entry, None, matches no input.  Verification may read the entry as
    it reads the e brackets of _E_SCALES: it holds only values computed here
    from (n, p), never a certificate's stated M, and it is a tuple, which no
    caller can alter through a returned list.
    """
    global _LAST_MS
    last = _LAST_MS
    if last is not None and last[:2] == (n, p) and type(n) is type(p) is int:
        return list(last[2])
    f = poly_expand_f(n, p)
    big_f, total = [], 0  # F_N, ..., F_0: the highest coefficient first
    for coefficient, e1 in zip(reversed(f), range(len(f), 0, -1)):
        total = coefficient + e1 * total
        big_f.append(total)
    scale, result = factorial(p - 1), []
    for k in range(n + 1):
        if k < 2:
            total = sum(big_f) if k else big_f[-1]
        else:
            total = 0
            for coefficient in big_f:
                total = total * k + coefficient
        quotient, remainder = divmod(total, scale)
        if remainder:
            raise IdentityViolated(f"(p-1)! does not divide M_{k}({n}, {p})")
        result.append(quotient)
    _LAST_MS = (n, p, tuple(result))
    return result


def hermite_M_min_bits(n: int, p: int) -> int:
    """A lower bound on the bit length of every M_k(n, p), 0 <= k <= n, for
    n >= 1 and p >= 2; 0 when the argument below gives nothing.

    With N = (n+1) p - 1 and f(x) = x^(p-1) prod_(j<=n) (x-j)^p of degree N,
    (p-1)! M_k = e^k I with I = int_k^inf f(x) e^-x dx.  f >= 0 on [n, inf),
    and |f| <= n^(p-1) n^(np) = n^N on [k, n], so that part of I is at least
    -n^(N+1).  For x >= 2n each x - j >= x/2, so f(x) >= x^N 2^(-np); as
    N >= 2n + 1, [N, N+1] lies there, with x^N e^-x >= N^N e^-(N+1), so
    I > A - n^(N+1), A = N^N / (2^(np) 3^(N+1)).  With bits(N) - 1 <= log2 N
    and log2 3 < 2, log2 A >= L = N (bits(N) - 1) - np - 2 (N+1).  When
    L >= (N+1) bits(n) + 1, n^(N+1) <= 2^(L-1) <= A/2, so I > 2^(L-1).  Then
    M_k >= I / (p-1)! and (p-1)! < p^p <= 2^(p bits(p)) give
    M_k > 2^(L - 1 - p bits(p)), at least L - p bits(p) bits.
    """
    if n < 1 or p < 2:
        return 0
    N = (n + 1) * p - 1
    L = N * (N.bit_length() - 1) - n * p - 2 * (N + 1)
    if L < (N + 1) * n.bit_length() + 1:
        return 0
    return max(0, L - p * p.bit_length())


def hermite_M(n: int, p: int, k: int = 0) -> int:
    """The exact integer value of the weighted integral at shift k."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return hermite_Ms(n, p)[k]


# r -> (E_r, H_r) of _e_scale, for the power-of-two scales r >= 64 read so
# far; a race recomputes the same pair
_E_SCALES: Dict[int, Tuple[int, int]] = {}


def _e_scale(r: int) -> Tuple[int, int]:
    """(E_r, H_r): integers with E_r <= e 2^r < H_r = E_r + j_r + 2, j_r <= r + 2.

    The floors nest: q_i = q_(i-1) // i = floor(2^r / i!).  E_r = q_0 + ... +
    q_(j-1), j = j_r the first index with q_j = 0 (j! > 2^r, and (r+2)! >=
    2^(r+1), so j <= r+2).  The j floors lose under a unit each and the tail
    is below (2^r / j!)(1 + 1/2 + ...) < 2, so e 2^r < E_r + j + 2.
    """
    bracket = _E_SCALES.get(r)
    if bracket is None:
        q, E, j = 1 << r, 0, 0
        while q:
            E += q
            j += 1
            q //= j
        bracket = _E_SCALES.setdefault(r, (E, E + j + 2))
    return bracket


def _exp_brackets(n: int, K: int) -> List[Tuple[int, int]]:
    """[(lo_k, hi_k) for k = 0..n]: integers with lo_k <= e^k 2^K < hi_k and
    hi_k - lo_k <= 2, all from one bracket of e (n, K >= 0).

    At F = K + 2n + b + 1, b = (K + 2n + 4).bit_length(), the bracket of e 2^F
    is cut from the series at scale r, the least power of two >= max(F, 64),
    which depends on F alone: with t = r - F, E = floor(E_r / 2^t) and
    H = ceil(H_r / 2^t), so E <= e 2^F < H.  H - E <= F + 4: at t = 0 it is
    j_r + 2 <= r + 4 = F + 4; at t >= 1, H - E < (H_r - E_r) / 2^t + 2 <=
    (F + t + 4) / 2^t + 2 <= (F + 5)/2 + 2 <= F + 4.
    lo_k = floor(E^k 2^(K-kF)), hi_k = floor(H^k 2^(K-kF)) + 1 bracket e^k 2^K.
    Width: hi_k - lo_k < D + 2, D = (H^k - E^k) 2^(K-kF), and D < 1: D = 0 at
    k = 0; H - E <= F + 4 = (K + 2n + 4) + b + 1 <= 2^b + b <= 2^(b+1);
    as F - K = 2n + b + 1, D <= 2^-2n at k = 1; for k >= 2, n >= 2 and F >= 8,
    so F + 4 <= 2^F / 4 and, as e < 11/4, H < 3 2^F; with H^k - E^k <=
    k (H - E) H^(k-1) and k 3^(k-1) <= 4^k (a term of (3+1)^k),
    D < 4^k 2^(b+1) 2^(K-F) = 2^(2k-2n) <= 1.
    """
    F = K + 2 * n + (K + 2 * n + 4).bit_length() + 1
    r = 1 << (max(F, 64) - 1).bit_length()
    E_r, H_r = _e_scale(r)
    E, H = E_r >> (r - F), -(-H_r >> (r - F))
    return [((E ** k << K) >> k * F, ((H ** k << K) >> k * F) + 1)
            for k in range(n + 1)]


def _exp_bits(tolerance: Fraction) -> int:
    """A scale K at which every _exp_brackets(n, K) bracket, at most 2 units
    wide, is at most 2^-8 tolerance * 2^K wide, so hermite_eps brackets
    compare across primes: K = grid_bits(tolerance) + 9, as
    2^-grid_bits(tolerance) <= tolerance."""
    return grid_bits(tolerance) + 9


def _exp_intervals(n: int, K: int) -> List[Interval]:
    """e^0 .. e^n as rational intervals from _exp_brackets(n, K)."""
    return [Interval(Fraction(lo, 1 << K), Fraction(hi, 1 << K))
            for lo, hi in _exp_brackets(n, K)]


def e_interval(tolerance) -> Interval:
    """Rational interval around e of width tolerance, from _exp_brackets."""
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    raw = _exp_intervals(1, _exp_bits(tolerance))[1]
    # pad out to the full width: callers expect nearby decimal truncations
    # (slightly below e) to land inside too
    return raw.widen((tolerance - raw.width) / 2)


@dataclass(frozen=True)
class EpsEstimate:
    """Interval for eps_k = e^k M_0 - M_k plus the closed-form bound
    n * g_k(n) * a(n)^(p-1) / (p-1)! with a(n) = n^(n+1), g_k = e^k n^(n+1)."""
    interval: Interval
    bound: Fraction


def _e_upper() -> Fraction:
    return Fraction(_exp_brackets(1, 64)[1][1], 1 << 64)


def hermite_eps(n: int, p: int, k: int, tolerance=Fraction(1, 10 ** 12)) -> EpsEstimate:
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    m_values = hermite_Ms(n, p)
    m0, mk = m_values[0], m_values[k]
    K = _exp_bits(Fraction(tolerance) / max(1, abs(m0)))
    interval = _exp_intervals(k, K)[k] * m0 - mk
    a_n = Fraction(n) ** (n + 1)
    g_k = _e_upper() ** k * a_n
    bound = n * g_k * a_n ** (p - 1) / factorial(p - 1)
    return EpsEstimate(interval, bound)


# ---------------------------------------------------------------------------
# nonvanishing certificates

@dataclass(frozen=True)
class HermiteCertificate:
    coefficients: List[Fraction]
    common_denominator: int
    prime: int
    M: List[int]
    integer_combination: int
    eps_total_bound: Fraction
    lower_bound: Fraction
    checks: Dict[str, bool]

    def to_dict(self) -> dict:
        return {
            "coeffs": [[_to_decimal(c.numerator), _to_decimal(c.denominator)]
                       for c in self.coefficients],
            "prime": self.prime,
            "M": [_to_decimal(m) for m in self.M],
            "I": _to_decimal(self.integer_combination),
            "eps_bound": _fraction_to_text(self.eps_total_bound),
            "lower_bound": _fraction_to_text(self.lower_bound),
            "checks": dict(self.checks),
        }


def _prime_from_json(value) -> int:
    """The certificate's prime, which ``to_dict`` writes as a JSON integer."""
    if type(value) is not int:
        raise ValueError(f"prime must be a JSON integer, got {value!r:.40}")
    return value


def search_start(coefficients, p_cap: int = 10_000) -> int:
    """``nonvanish_certificate`` tries the primes above this and up to
    ``p_cap``: ``min(max(n, |scaled b_0|, common denominator), p_cap)``."""
    b = [Fraction(c) for c in coefficients]
    denom = lcm(*(c.denominator for c in b))
    return min(max(len(b) - 1, abs(int(b[0] * denom)), denom), p_cap)


def nonvanish_certificate(coefficients, p_cap: int = 10_000) -> HermiteCertificate:
    """Produce a verified positive lower bound on |sum b_k e^k|.

    Searches primes p above max(n, |scaled b_0|, common denominator) until
    the scaled epsilon total certifies below 1/2; then the integer part of
    the scaled combination is nonzero mod p, so its absolute value is at
    least 1, giving |sum b_k e^k| >= 1/(2 * denom * |M_0|).  A start at
    ``p_cap`` leaves no prime to try, and none is looked for.
    """
    b = [Fraction(c) for c in coefficients]
    if len(b) < 2:
        raise ValueError("need at least coefficients b_0, b_1")
    if b[0] == 0:
        raise ZeroLeadingCoefficient("b_0 must be nonzero")
    n = len(b) - 1
    denom = lcm(*(c.denominator for c in b))
    scaled = [int(c * denom) for c in b]
    start = search_start(b, p_cap)
    if start >= p_cap:
        raise SearchExhausted(p_cap)
    p = _next_prime(start)
    while p <= p_cap:
        m_values = hermite_Ms(n, p)
        m0 = m_values[0]
        checks, total_bound = _checks(n, p, scaled, m_values)
        if checks.get("eps_half"):
            combination = sum(s * m for s, m in zip(scaled, m_values))
            if combination % p == 0:  # excluded by the two divisibility checks
                raise IdentityViolated(f"{p} divides the integer combination")
            return HermiteCertificate(
                coefficients=b,
                common_denominator=denom,
                prime=p,
                M=m_values,
                integer_combination=combination,
                eps_total_bound=total_bound,
                lower_bound=Fraction(1, 2 * denom * abs(m0)),
                checks=checks,
            )
        p = _next_prime(p)
    raise SearchExhausted(p_cap)


def _checks(n: int, p: int, scaled: List[int],
            m_values: List[int]) -> Tuple[Dict[str, bool], Fraction]:
    """The checks of a certificate at ``p``, in order, and the epsilon total
    bound (0 unless ``eps_half`` holds).  The squeeze ``eps_half`` runs only
    when both cheap divisibility checks hold."""
    checks = {
        "m0_nondivisible": (scaled[0] * m_values[0]) % p != 0,
        "mk_divisible": all(m % p == 0 for m in m_values[1:]),
    }
    if not all(checks.values()):
        return checks, Fraction(0)
    checks["eps_half"], bound = _certify_eps(n, p, scaled, m_values)
    return checks, bound


def _certify_eps(n: int, p: int, scaled: List[int],
                 m_values: List[int]) -> Tuple[bool, Fraction]:
    """Squeeze sum_{k>=1} scaled[k] * (e^k M_0 - M_k) inside (-1/2, 1/2) in
    integers at scale 2^K: with lo <= e^k 2^K <= hi from _exp_brackets, the k-th
    term lies between scaled[k] * (lo M_0 - (M_k << K)) and the same with hi.
    The total bound is rounded up to a short dyadic rational, still a bound;
    an undecided total doubles K."""
    m0 = m_values[0]
    K = m0.bit_length() + max(map(abs, scaled)).bit_length() + n.bit_length() + 32
    for _ in range(4):
        total_lo = total_hi = 0
        brackets = _exp_brackets(n, K)
        for k in range(1, n + 1):
            lo, hi = sorted(scaled[k] * (e * m0 - (m_values[k] << K))
                            for e in brackets[k])
            total_lo, total_hi = total_lo + lo, total_hi + hi
        bound = _round_up_dyadic(max(-total_lo, total_hi), K)
        if bound < Fraction(1, 2):
            return True, bound
        if total_lo << 1 >= 1 << K or total_hi << 1 <= -(1 << K):
            break  # |total| >= 1/2
        K *= 2
    return False, Fraction(0)


def _round_up_dyadic(m: int, K: int) -> Fraction:
    """The least c / 2^s >= m / 2^K, s = K + 65 - m.bit_length(), for m >= 0:
    c = ceil(m 2^(65 - m.bit_length())) has at most 65 bits.  s is 64 less
    the bit length of the reduced fraction's numerator plus its
    denominator's, both smaller by the factors of two they share."""
    bits = m.bit_length()
    return Fraction(-(-m << 65 >> bits)) / Fraction(2) ** (K + 65 - bits)


def certificate_from_dict(doc: dict) -> HermiteCertificate:
    """Rebuild a certificate from its JSON form (inverse of to_dict).

    The common denominator is recomputed from the coefficients.  Numbers are
    decimal strings (``n`` or ``n/d`` with ``d != 0`` for rationals) of at
    most ``_MAX_DECIMAL_CHARS`` characters each, and the prime is a JSON
    integer; anything else, a missing field or a document that is not an
    object included, raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a certificate must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in _CERT_FIELDS if key not in doc]
    if missing:
        raise ValueError(f"certificate has no {', '.join(missing)}")
    coeffs = [_rational(*_json_array(pair, "each coefficient", 2))
              for pair in _json_array(doc["coeffs"], "coeffs")]
    denom = lcm(*(c.denominator for c in coeffs))
    return HermiteCertificate(
        coefficients=coeffs,
        common_denominator=denom,
        prime=_prime_from_json(doc["prime"]),
        M=[_from_decimal(m) for m in _json_array(doc["M"], "M")],
        integer_combination=_from_decimal(doc["I"]),
        eps_total_bound=_fraction_from_text(doc["eps_bound"]),
        lower_bound=_fraction_from_text(doc["lower_bound"]),
        checks=_checks_from_json(doc["checks"]),
    )


_CERT_FIELDS = ("coeffs", "prime", "M", "I", "eps_bound", "lower_bound", "checks")


def _json_array(value, name: str, length: Optional[int] = None) -> list:
    """``value`` if it is a JSON array (of ``length`` items, when given)."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        shape = "a JSON array" if length is None else f"a JSON array of {length}"
        got = f"{len(value)} items" if isinstance(value, list) else type(value).__name__
        raise ValueError(f"{name} must be {shape}, got {got}")
    return value


def _checks_from_json(value) -> Dict[str, bool]:
    """The certificate's checks, which ``to_dict`` writes as an object of
    booleans."""
    if type(value) is not dict or any(type(v) is not bool for v in value.values()):
        raise ValueError(f"checks must be an object of booleans, got {value!r:.60}")
    return dict(value)


def verify_certificate(cert: HermiteCertificate, digits: int = 60) -> bool:
    """Re-verify a certificate from its own fields.

    Recomputes the Hermite integers, the checks (the certificate's stated
    ``checks`` must equal them, all passed), the epsilon half-bound (the
    certificate's stated ``eps_total_bound`` must lie between the
    recomputed bound and 1/2), the lower bound formula, and finally
    confirms with a high-precision interval that |sum b_k e^k| really
    exceeds the bound.

    The stated prime is untrusted, so it is bounded before the primality
    test: ``hermite_M_min_bits(n, p)`` is a proved lower bound on the bits
    of every ``M_k(n, p)``, so a stated ``M_0`` with fewer bits refutes
    ``p``.  The bound grows with ``p``, so the size of ``M_0`` caps the
    prime and the trial division.
    """
    n = len(cert.coefficients) - 1
    p = cert.prime
    if n < 1 or len(cert.M) != n + 1:
        return False
    if hermite_M_min_bits(n, p) > cert.M[0].bit_length() or not _is_prime(p):
        return False
    m_values = hermite_Ms(n, p)
    if m_values != list(cert.M):
        return False
    scaled = [int(c * cert.common_denominator) for c in cert.coefficients]
    if any(Fraction(s, cert.common_denominator) != c
           for s, c in zip(scaled, cert.coefficients)):
        return False
    if sum(s * m for s, m in zip(scaled, m_values)) != cert.integer_combination:
        return False
    if cert.integer_combination % p == 0:
        return False
    checks, recomputed = _checks(n, p, scaled, m_values)
    if cert.checks != checks or not checks.get("eps_half"):
        return False
    if not recomputed <= cert.eps_total_bound < Fraction(1, 2):
        return False
    if cert.lower_bound != Fraction(1, 2 * cert.common_denominator * abs(m_values[0])):
        return False
    value = combination_interval(cert.coefficients, Fraction(1, 10 ** digits))
    return value.abs_lo() >= cert.lower_bound


def combination_interval(coefficients, tolerance) -> Interval:
    """Interval for sum b_k e^k at the requested absolute tolerance.

    Summed in integers over D 2^K, D the common denominator: with s_k =
    b_k D and lo_k <= e^k 2^K <= hi_k from _exp_brackets, the term s_k e^k 2^K
    lies in [s_k lo_k, s_k hi_k], the ends swapped when s_k < 0."""
    b = [Fraction(c) for c in coefficients]
    n = len(b) - 1
    K = _exp_bits(Fraction(tolerance) / max(1, sum(map(abs, b[1:]))))
    denom = lcm(*(c.denominator for c in b))
    scaled = [c.numerator * (denom // c.denominator) for c in b]
    lo = hi = scaled[0] << K
    for s, (e_lo, e_hi) in zip(scaled[1:], _exp_brackets(n, K)[1:]):
        if s < 0:
            e_lo, e_hi = e_hi, e_lo
        lo, hi = lo + s * e_lo, hi + s * e_hi
    return Interval(Fraction(lo, denom << K), Fraction(hi, denom << K))


# ---------------------------------------------------------------------------
# Dirichlet approximation: continued-fraction convergents

@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    error_bound: Interval


OracleFn = Callable[[Fraction], Interval]


def pi_oracle(tolerance) -> Interval:
    """Rational interval around pi of width <= tolerance, from Machin's
    identity pi = 16 atan(1/5) - 4 atan(1/239) in integers at scale 2^k.

    atan(1/x) = sum_j (-1)^j / ((2j+1) x^(2j+1)) alternates with falling
    terms.  Each term is floored (error below one unit of 2^-k), and the
    sum stops at the first j with x^(2j+1) > 2^k, whose term bounds the
    remainder by one unit, so j terms are off by less than j + 1 units.
    The bracket is then 32 (j5 + 1) + 8 (j239 + 1) < 7.5 k + 80 units wide.
    k is k0 + g, k0 the least integer >= 0 with 2^-k0 <= tolerance and
    g = k0.bit_length() + 8 guard bits: 2^g >= 256 (k0 + 1) > 7.5 k + 80,
    so the width is below 2^-k0.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    k = grid_bits(tolerance)
    k += k.bit_length() + 8
    center, slack = 0, 0
    for weight, x in ((16, 5), (-4, 239)):
        power, j = (1 << k) // x, 0  # floor(2^k / x^(2j+1)): floors nest
        while power:
            term = weight * (power // (2 * j + 1))
            center += -term if j & 1 else term
            power //= x * x
            j += 1
        slack += abs(weight) * (j + 1)
    return Interval(Fraction(center - slack, 1 << k),
                    Fraction(center + slack, 1 << k))


e_oracle = e_interval


def cf_convergents(alpha: Union[Fraction, OracleFn], count: int) -> List[Convergent]:
    """First `count` continued-fraction convergents, each verified to satisfy
    |alpha - p/q| < 1/q^2 by interval arithmetic.

    `alpha` is either an exact Fraction, whose point bracket gives its
    terminating expansion (fewer than `count` convergents when it ends, and
    error intervals that are points), or an oracle mapping a tolerance to a
    certified interval.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(alpha, (int, Fraction)):
        bracket = Interval.point(alpha)
        return _build_convergents(bracket, _extract_terms(bracket, count))
    tolerance = Fraction(1, 10 ** 40)
    for _ in range(8):
        bracket = alpha(tolerance)
        terms = _extract_terms(bracket, count)
        if terms is not None:
            return _build_convergents(bracket, terms)
        tolerance /= 10 ** 40
    raise PrecisionExhausted("oracle could not separate the partial quotients")


def _extract_terms(bracket: Interval, count: int) -> Optional[List[int]]:
    terms = []
    lo, hi = bracket.lo, bracket.hi
    for _ in range(count):
        a_lo = lo.numerator // lo.denominator
        a_hi = hi.numerator // hi.denominator
        if a_lo != a_hi:
            return None
        terms.append(a_lo)
        lo, hi = lo - a_lo, hi - a_lo
        if hi == 0:
            break  # 0 <= lo <= hi: a point whose expansion ends here
        if lo <= 0:
            return None  # cannot certify the next quotient
        lo, hi = 1 / hi, 1 / lo
    return terms


def _build_convergents(bracket: Interval, terms: List[int]) -> List[Convergent]:
    result = []
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for a in terms:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        approx = Fraction(p_cur, q_cur)
        err_hi = max(abs(bracket.lo - approx), abs(bracket.hi - approx))
        err_lo = (bracket - approx).abs_lo()
        if err_hi >= Fraction(1, q_cur ** 2):
            raise PrecisionExhausted(
                f"could not verify |alpha - {p_cur}/{q_cur}| < 1/q^2")
        result.append(Convergent(p_cur, q_cur, Interval(err_lo, err_hi)))
    return result


# ---------------------------------------------------------------------------
# Liouville approximations

def _capped_factorial(n: int, max_digits: int) -> int:
    """n!, the exponent of 10^(n!), which has n! + 1 digits; ValueError when
    that is more than max_digits, before any power of ten is built.  The
    product stops at the first partial product past the cap."""
    fact = 1
    for j in range(2, n + 1):
        fact *= j
        if fact >= max_digits:
            raise ValueError(f"10^({_to_decimal(n)}!) would have more than "
                             f"{max_digits} digits")
    return fact


def liouville_partial(n: int) -> Tuple[int, int]:
    """Numerator and denominator of the n-term partial sum of sum 10^(-j!)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exponent = _capped_factorial(n, _MAX_DECIMAL_CHARS)
    p = sum(10 ** (exponent - factorial(j)) for j in range(1, n + 1))
    return p, 10 ** exponent


def liouville_approx(m: int, n: int) -> Tuple[Convergent, bool]:
    """Partial sums of the Liouville constant as hyper-good approximations.

    The tail obeys 10^-(n+1)! < L - p/q < 2 * 10^-(n+1)!, so the returned
    flag verifies 0 < |L - p/q| < 1/q^m.  It is decided exactly without
    building q^m: with q = 10^(n!), 2 * 10^-(n+1)! < 10^-(m n!) holds iff
    10^((n+1)! - m n!) > 2, iff the integer (n+1)! - m n! is at least 1
    (10^k is at most 1 for k <= 0 and at least 10 for k >= 1), iff
    m n! < (n+1)! = (n+1) n!, iff m <= n.  The lower end is positive.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    tail_lo = Fraction(1, 10 ** _capped_factorial(n + 1, _MAX_DECIMAL_CHARS))
    p, q = liouville_partial(n)
    return Convergent(p, q, Interval(tail_lo, 2 * tail_lo)), m <= n


# ---------------------------------------------------------------------------
# truncated Q-analytic evaluation

def eval_q_analytic(coeffs: Callable[[int], Fraction], x: Interval, terms: int,
                    coeff_bound) -> Interval:
    """Interval for sum a_n x^n truncated at `terms`, plus a geometric tail.

    `coeff_bound` is a certified radius R with |a_n| <= R^(-n) for all
    n > terms; the tail is then at most q^(terms+1)/(1-q) with q = |x|/R,
    which requires |x| strictly inside R.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    radius = Fraction(coeff_bound)
    if radius <= 0:
        raise ValueError("coeff_bound must be positive")
    q = x.abs_hi() / radius
    if q >= 1:
        raise RadiusViolation(f"|x| up to {x.abs_hi()} not inside radius {radius}")
    total = Interval.point(0)
    power = Interval.point(1)
    for n in range(terms + 1):
        a_n = Fraction(coeffs(n))
        if a_n != 0:
            total = total + power * a_n
        power = power * x
    tail = q ** (terms + 1) / (1 - q)
    return total.widen(tail)
