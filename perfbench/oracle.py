"""Computations made apart from hyperline, used to check its outputs.

Nothing here imports hyperline.  Each function states the mathematics it
relies on, so a disagreement with the library points at one side or the
other rather than at shared code.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, lcm

PROBES = 64  # the library's default classification budget
TINY, BIG = Fraction(1, PROBES), Fraction(PROBES)

# pi to 40 decimals (a published constant), bracketed by one unit in the last place
_PI_40 = Fraction("3.1415926535897932384626433832795028841971")
PI_BRACKET = (_PI_40 - Fraction(1, 10 ** 40), _PI_40 + Fraction(1, 10 ** 40))


# ---------------------------------------------------------------------------
# number theory and e

def is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, isqrt(p) + 1))


def e_bracket(bits: int):
    """(lo, hi) with lo < e < hi and hi - lo < 2^-bits.

    sum_{k<=m} 1/k! < e < that + 1/(m! m), the tail being dominated by a
    geometric series of ratio 1/(m+1)."""
    m, fact = 1, 1
    while fact * m < 2 ** bits:
        m += 1
        fact *= m
    num, term = 0, 1  # term runs through m!/k! for k = m, m-1, ..., 0
    for k in range(m, -1, -1):
        num += term
        term *= k
    lo = Fraction(num, fact)
    return lo, lo + Fraction(1, fact * m)


def combination_bracket(coeffs, bits: int):
    """Rational bracket of sum b_k e^k from an e bracket of `bits` bits."""
    lo_e, hi_e = e_bracket(bits)
    lo = hi = Fraction(coeffs[0])
    for k, b in enumerate(coeffs[1:], start=1):
        a, c = b * lo_e ** k, b * hi_e ** k
        lo, hi = lo + min(a, c), hi + max(a, c)
    return lo, hi


_M_CACHE: dict = {}


def hermite_Ms(n: int, p: int) -> list:
    """[M_0, ..., M_n] for M_k = sum_mu c_mu mu! / (p-1)!, where c_mu are the
    coefficients of f(x + k), f(x) = x^(p-1) prod_j (x-j)^p, expanded by
    sympy's polynomial arithmetic."""
    key = (n, p)
    if key not in _M_CACHE:
        import sympy

        x = sympy.symbols("x")
        poly = sympy.Poly(x ** (p - 1), x)
        base = sympy.Poly(1, x)
        for j in range(1, n + 1):
            base = base * sympy.Poly(x - j, x)
        poly = poly * base ** p
        values = []
        for k in range(n + 1):
            shifted = poly.shift(k) if k else poly
            total = sum(int(c) * factorial(e) for (e,), c in shifted.terms())
            quotient, remainder = divmod(total, factorial(p - 1))
            if remainder:
                raise ArithmeticError(f"M_{k}({n}, {p}) is not an integer")
            values.append(quotient)
        _M_CACHE[key] = values
    return _M_CACHE[key]


def check_certificate(coeffs, prime, M, integer_combination, lower_bound):
    """None when the certificate fields are right, else the first reason."""
    coeffs = [Fraction(c) for c in coeffs]
    n = len(coeffs) - 1
    denom = lcm(*(c.denominator for c in coeffs))
    scaled = [int(c * denom) for c in coeffs]
    if not is_prime(prime):
        return f"{prime} is not prime"
    if list(M) != hermite_Ms(n, prime):
        return "M_k differ from the sympy expansion"
    if (scaled[0] * M[0]) % prime == 0:
        return "p divides b_0' M_0"
    if any(m % prime for m in M[1:]):
        return "p does not divide some M_k, k >= 1"
    if integer_combination != sum(s * m for s, m in zip(scaled, M)):
        return "I != sum b_k' M_k"
    if not lower_bound > 0:
        return "lower bound is not positive"
    bits = lower_bound.denominator.bit_length() + 64
    lo, hi = combination_bracket(coeffs, bits)
    if not (lo >= lower_bound or hi <= -lower_bound):
        return f"|sum b_k e^k| >= {lower_bound} not confirmed"
    return None


def perfect_powers(limit: int) -> list:
    """m^e <= limit for m, e >= 2, by walking the powers of each base."""
    found = set()
    for m in range(2, isqrt(limit) + 1):
        value = m * m
        while value <= limit:
            found.add(value)
            value *= m
    return sorted(found)


def reciprocal_sum(values) -> Fraction:
    """sum 1/v over a common denominator."""
    values = list(values)
    den = lcm(*values)
    return Fraction(sum(den // v for v in values), den)


def sieve_bases(depth: int, steps: int) -> list:
    """The first `steps` integers >= 2 that are not perfect powers."""
    powers = set(perfect_powers(depth))
    return [k for k in range(2, depth + 1) if k not in powers][:steps]


def liouville(m: int, n: int):
    """(p, q, holds) for the n-term partial sum p/q of sum 10^-j!, and whether
    10^-(n+1)! < L - p/q < 2 * 10^-(n+1)! stays below 1/q^m."""
    q = 10 ** factorial(n)
    p = sum(q // 10 ** factorial(j) for j in range(1, n + 1))
    tail_hi = Fraction(2, 10 ** factorial(n + 1))
    return p, q, tail_hi < Fraction(1, q ** m)


def pi_convergents(count: int) -> list:
    """Continued-fraction convergents of pi from PI_BRACKET (both ends must
    agree on every partial quotient used)."""
    lo, hi = PI_BRACKET
    out = []
    p0, p1, q0, q1 = 0, 1, 1, 0
    for _ in range(count):
        a = lo.numerator // lo.denominator
        if a != hi.numerator // hi.denominator:
            raise ArithmeticError("pi bracket too wide")
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
        out.append((p1, q1))
        lo, hi = 1 / (hi - a), 1 / (lo - a)
    return out


# ---------------------------------------------------------------------------
# rational functions of the index n (coefficient tuples, lowest degree first)

def _trim(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def _padd(a, b):
    size = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(size))


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _peval(a, n):
    value = 0
    for c in reversed(a):
        value = value * n + c
    return value


def _root_bound(a) -> int:
    """Cauchy's bound: every real root has |x| < 1 + max |a_i / a_lead|,
    so no root lies at or above the returned integer."""
    return max((abs(c) for c in a[:-1]), default=0) // abs(a[-1]) + 2


class RatFn:
    """P(n) / Q(n), kept with integer coefficients; Q has no root at n >= 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num, den = [Fraction(c) for c in num], [Fraction(c) for c in den]
        scale = lcm(*(c.denominator for c in num + den))
        self.num = _trim(int(c * scale) for c in num)
        self.den = _trim(int(c * scale) for c in den)

    @classmethod
    def _raw(cls, num, den):
        f = cls.__new__(cls)
        f.num, f.den = num, den
        return f

    @classmethod
    def const(cls, c):
        return cls((c,))

    def __add__(self, o):
        return RatFn._raw(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                          _pmul(self.den, o.den))

    def __neg__(self):
        return RatFn._raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return RatFn._raw(_pmul(self.num, o.num), _pmul(self.den, o.den))

    def __truediv__(self, o):
        return RatFn._raw(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def at(self, n: int) -> Fraction:
        return Fraction(_peval(self.num, n), _peval(self.den, n))

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self):
        """Growth order in n; None for the zero function."""
        return None if self.is_zero else len(self.num) - len(self.den)

    @property
    def sign(self) -> int:
        """Eventual sign."""
        if self.is_zero:
            return 0
        return 1 if (self.num[-1] > 0) == (self.den[-1] > 0) else -1

    def sign_from(self) -> int:
        """An index beyond which the sign is constant (no root of P or Q)."""
        if self.is_zero:
            return 0
        return max(_root_bound(self.num), _root_bound(self.den))

    def magnitude(self, start: int):
        """(lo, hi, g) with lo * n^g <= |f(n)| <= hi * n^g for every n >= start;
        None when the leading terms do not dominate from `start`."""
        parts = []
        for poly in (self.num, self.den):
            d = len(poly) - 1
            slack = Fraction(sum(abs(c) * start ** i for i, c in enumerate(poly[:-1])),
                             start ** d)
            lead = abs(poly[-1])
            if slack >= lead:
                return None
            parts.append((lead - slack, lead + slack))
        (plo, phi), (qlo, qhi) = parts
        return plo / qhi, phi / qlo, self.degree


OMEGA = RatFn((1, 1))            # n + 1
RECIP = RatFn((1,), (1, 1))      # 1 / (n + 1)


def sign_settled(f: RatFn, depth: int) -> bool:
    """The sign of f is constant from depth/4 on, so the library's suffix
    scan must find a witness within depth/2."""
    return f.is_zero or f.sign_from() <= depth // 4


def class_settled(f: RatFn, depth: int) -> bool:
    """On [depth/2, depth] |f| stays below 1/64, inside [1/64, 64] or above
    64 as its growth order says, so the probe-based class matches it."""
    if f.is_zero:
        return True
    if not sign_settled(f, depth):
        return False
    start = depth // 2
    mag = f.magnitude(start)
    if mag is None:
        return False
    lo, hi, g = mag
    if g < 0:
        return hi * Fraction(start) ** g < TINY
    if g > 0:
        return lo * Fraction(start) ** g > BIG
    return TINY < lo and hi < BIG


def growth_class(f: RatFn) -> str:
    """'Infinitesimal', 'Appreciable' or 'Unlimited' by growth order."""
    g = f.degree
    if g is None or g < 0:
        return "Infinitesimal"
    return "Appreciable" if g == 0 else "Unlimited"


def arch_class(a: RatFn, b: RatFn) -> str:
    g = (a / b).degree
    return "LowerClass" if g < 0 else ("SameClass" if g == 0 else "HigherClass")


def witness_ok(f: RatFn, verdict_sign: int, witness: int, depth: int) -> bool:
    """f has sign `verdict_sign` on [witness, depth], and not at witness - 1."""
    last = min(depth, max(witness, f.sign_from()))
    if any(_sgn(f.at(n)) != verdict_sign for n in range(witness, last + 1)):
        return False
    if last < depth and f.sign != verdict_sign:
        return False
    return witness == 0 or _sgn(f.at(witness - 1)) != verdict_sign


def _sgn(q) -> int:
    return (q > 0) - (q < 0)


# ---------------------------------------------------------------------------
# canonical forms h# + sign * delta, modelled by growth orders
#
# An idempotent is None (zero) or (kind, scale) with kind 'B' (largest
# idempotent not containing the scale) or 'A' (smallest containing it).
# Idempotents are ordered by the scale's growth order, B below A within one
# order; the rank below encodes exactly that.

def idem_rank(idem):
    if idem is None:
        return None
    kind, scale = idem
    return 2 * scale.degree + (1 if kind == "A" else 0)


def rank_lt(r1, r2) -> bool:
    if r1 is None:
        return r2 is not None
    return r2 is not None and r1 < r2


def absorbed(f: RatFn, idem) -> bool:
    """B(a) absorbs what is infinitesimal against a, A(a) also a's own order,
    the zero idempotent only 0."""
    if idem is None:
        return f.is_zero
    kind, scale = idem
    g = (f / scale).degree
    return g is None or g < 0 or (kind == "A" and g == 0)


def absorbs(x, y) -> bool:
    """x + y = x: x's idempotent absorbs y's h and is not below y's."""
    return absorbed(y[0], x[2]) and not rank_lt(idem_rank(x[2]), idem_rank(y[2]))


def form_cmp(x, y) -> int:
    """-1, 0 or 1 for forms (h, sign, idem): h# - D < h# < h# + D, and a form
    whose h differs by more than the larger idempotent absorbs is ordered by
    that difference."""
    (hx, sx, dx), (hy, sy, dy) = x, y
    larger = dy if rank_lt(idem_rank(dx), idem_rank(dy)) else dx
    gap = hx - hy
    if not absorbed(gap, larger):
        return gap.sign
    if sx != sy:
        return -1 if sx < sy else 1
    rx, ry = idem_rank(dx), idem_rank(dy)
    if sx == 0 or rx == ry:
        return 0
    further = 1 if rank_lt(ry, rx) else -1
    return further if sx > 0 else -further


def form_add(x, y):
    """Parts add, the idempotent is the larger one and keeps its orientation;
    equal idempotents stay positive only when both are (no cancellation)."""
    (hx, sx, dx), (hy, sy, dy) = x, y
    h = hx + hy
    rx, ry = idem_rank(dx), idem_rank(dy)
    if rank_lt(rx, ry):
        return h, sy, dy
    if rank_lt(ry, rx):
        return h, sx, dx
    if dx is None:
        return h, 0, None
    return h, (1 if sx > 0 and sy > 0 else -1), dx


def relation(kind: str, x, y, delta) -> bool:
    """R: x + delta = y + delta;  S: x - delta = y - delta;  T: the gap is
    inside delta and the oriented idempotents coincide or both lie below it."""
    if kind == "R":
        shift = (RatFn.const(0), 1, delta)
        return form_cmp(form_add(x, shift), form_add(y, shift)) == 0
    if kind == "S":
        shift = (RatFn.const(0), -1, delta)
        return form_cmp(form_add(x, shift), form_add(y, shift)) == 0
    (hx, sx, dx), (hy, sy, dy) = x, y
    if not absorbed(hx - hy, delta):
        return False
    rd = idem_rank(delta)
    if sx == sy and idem_rank(dx) == idem_rank(dy):
        return True
    return rank_lt(idem_rank(dx), rd) and rank_lt(idem_rank(dy), rd)
