import hashlib
import json
import time
from fractions import Fraction
from math import ceil, factorial, gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.continued_fraction import (continued_fraction_convergents,
                                              continued_fraction_iterator)

from hyperline import hermite, intervals
from hyperline.errors import (IdentityViolated, PrecisionExhausted,
                              RadiusViolation, SearchExhausted,
                              ZeroLeadingCoefficient, ZeroRoot)
from hyperline.hermite import (certificate_from_dict, cf_convergents,
                               combination_interval, e_interval, e_oracle,
                               elem_sym, eval_q_analytic, hermite_M,
                               hermite_Ms, hermite_eps, liouville_approx,
                               liouville_partial, nonvanish_certificate,
                               pi_oracle, poly_expand_f, verify_certificate)
from hyperline.intervals import Interval

F = Fraction

E_50 = F(sympy.Rational(sympy.E.evalf(50)))
PI_400 = F(sympy.Rational(sympy.pi.evalf(400)))


def sympy_weight_poly(n, p, k=0):
    x = sympy.symbols("x")
    expr = x ** (p - 1)
    for j in range(1, n + 1):
        expr *= (x - j) ** p
    if k:
        expr = expr.subs(x, x + k)
    return sympy.Poly(sympy.expand(expr), x)


def sympy_hermite_M(n, p, k=0):
    poly = sympy_weight_poly(n, p, k)
    total = sum(c * sympy.factorial(e)
                for (e,), c in poly.terms())
    return int(total / sympy.factorial(p - 1))


def sympy_hermite_Ms(n, p):
    # Poly arithmetic and Taylor shifts: fast enough for every n <= 6, p <= 31
    x = sympy.symbols("x")
    poly = sympy.Poly(x ** (p - 1), x)
    for j in range(1, n + 1):
        poly *= sympy.Poly(x - j, x) ** p
    values = []
    for k in range(n + 1):
        shifted = poly.shift(k) if k else poly
        total = sum(int(c) * factorial(e) for (e,), c in shifted.terms())
        values.append(total // factorial(p - 1))
    return values


class TestPolynomialExpansion:
    def test_n1_p3(self):
        # x^2 (x-1)^3 = x^5 - 3x^4 + 3x^3 - x^2, lowest coefficient first
        assert poly_expand_f(1, 3) == [0, 0, -1, 3, -3, 1]

    def test_n1_p2(self):
        assert poly_expand_f(1, 2) == [0, 1, -2, 1]

    @pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (2, 3), (3, 5), (2, 7)])
    def test_matches_symbolic_expansion(self, n, p):
        # every coefficient, zeros included; the length fixes the degree
        oracle = sympy_weight_poly(n, p).all_coeffs()
        assert poly_expand_f(n, p) == [int(c) for c in reversed(oracle)]

    @pytest.mark.parametrize("n,p", [(1, 3), (2, 3), (3, 5), (4, 5)])
    def test_lowest_coefficient_law(self, n, p):
        poly = poly_expand_f(n, p)
        assert poly[:p - 1] == [0] * (p - 1)
        assert poly[p - 1] == ((-1) ** n * factorial(n)) ** p


class TestElementarySymmetric:
    def test_single_root(self):
        assert elem_sym([F(1)], 1) == 1

    def test_two_roots(self):
        assert elem_sym([F(2), F(3)], 1) == F(5, 6)
        assert elem_sym([F(2), F(3)], 2) == F(1, 6)

    def test_zero_root_rejected(self):
        with pytest.raises(ZeroRoot):
            elem_sym([F(2), F(0)], 1)

    @pytest.mark.parametrize("roots", [(2, 3), (1, 2, 4), (-2, 3, 5, 7)])
    def test_sign_law_against_expanded_product(self, roots):
        # P(z) = prod (1 - z/z_i) has coefficient a_m = (-1)^m e_m
        z = sympy.symbols("z")
        poly = sympy.Poly(sympy.expand(
            sympy.prod([1 - z / r for r in roots])), z)
        for m in range(1, len(roots) + 1):
            a_m = F(sympy.Rational(poly.coeff_monomial(z ** m)))
            e_m = elem_sym([F(r) for r in roots], m)
            assert a_m == (-1) ** m * e_m


class TestHermiteIntegers:
    def test_frozen_values(self):
        assert hermite_M(1, 3, 0) == 32
        assert hermite_M(1, 3, 1) == 87

    @pytest.mark.parametrize("n,p,k", [(1, 3, 0), (1, 3, 1), (2, 3, 0),
                                       (2, 3, 1), (2, 3, 2), (1, 5, 1),
                                       (3, 5, 2)])
    def test_matches_symbolic_oracle(self, n, p, k):
        assert hermite_M(n, p, k) == sympy_hermite_M(n, p, k)

    def test_integral_oracle_small_case(self):
        # direct Gamma integration of the weight, the definition itself
        x = sympy.symbols("x")
        integral = sympy.integrate(
            x ** 2 * (x - 1) ** 3 * sympy.exp(-x), (x, 0, sympy.oo))
        assert int(integral / sympy.factorial(2)) == hermite_M(1, 3, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_divisibility_split(self, n, p):
        m0 = hermite_M(n, p, 0)
        assert m0 % p == ((-1) ** (n * p) * factorial(n) ** p) % p
        assert m0 % p != 0
        for k in range(1, n + 1):
            assert hermite_M(n, p, k) % p == 0

    def test_divisibility_in_closed_form(self):
        # hermite_Ms' docstring: M_k = 0 and M_0 = (-1)^n n! (mod p), at all
        # 204 pairs with n <= 6 and p < 140, primes p <= n included
        cases = [(n, p) for n in range(1, 7) for p in sympy.primerange(2, 140)]
        assert len(cases) == 204
        for n, p in cases:
            m_values = hermite_Ms(n, p)
            assert m_values[0] % p == (-1) ** n * factorial(n) % p
            assert all(m % p == 0 for m in m_values[1:])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_all_shifts_match_symbolic_oracle(self, n, p):
        assert hermite_Ms(n, p) == sympy_hermite_Ms(n, p)

    @pytest.mark.parametrize("n,p", [(1, 101), (1, 307), (2, 101), (2, 211),
                                     (3, 101), (4, 53), (6, 31)])
    def test_min_bits_is_a_lower_bound(self, n, p):
        floor = hermite.hermite_M_min_bits(n, p)
        assert floor > 0
        assert all(abs(m).bit_length() >= floor for m in hermite_Ms(n, p))

    @pytest.mark.parametrize("n,p", [(0, 5), (1, 1), (1, 2), (2, 3), (5, 7)])
    def test_min_bits_gives_nothing_outside_its_range(self, n, p):
        assert hermite.hermite_M_min_bits(n, p) == 0

    def test_inexact_division_raises(self, monkeypatch):
        # the (p-1)! division is an explicit check, kept under python -O
        monkeypatch.setattr(hermite, "factorial", lambda m: 7 ** 40)
        with pytest.raises(IdentityViolated, match=r"^\(p-1\)! does not divide M_0\(1, 3\)$"):
            hermite_Ms(1, 3)

    def test_inexact_miller_step_raises(self, monkeypatch):
        # every division the expansion makes leaves a remainder
        monkeypatch.setattr(hermite, "divmod", lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(IdentityViolated, match="^Miller step 1 of A\\^5 is not exact$"):
            hermite_Ms(2, 5)


def parent_hermite_Ms(n, p):
    """hermite_Ms as it was before its loops were rewritten: Miller's
    recurrence with generator sums, F built in place, Horner at every k."""
    a = [1]
    for j in range(1, n + 1):
        a = [(a[i - 1] if i else 0) - j * (a[i] if i < len(a) else 0)
             for i in range(len(a) + 1)]
    powers = [a[0] ** p]
    for k in range(1, n * p + 1):
        total = sum(((p + 1) * i - k) * a[i] * powers[k - i]
                    for i in range(1, min(n, k) + 1))
        quotient, remainder = divmod(total, k * a[0])
        assert remainder == 0
        powers.append(quotient)
    big_f = [0] * (p - 1) + powers
    for e in range(len(big_f) - 2, -1, -1):
        big_f[e] += (e + 1) * big_f[e + 1]
    scale, result = factorial(p - 1), []
    for k in range(n + 1):
        total = 0
        for coefficient in reversed(big_f):
            total = total * k + coefficient
        quotient, remainder = divmod(total, scale)
        assert remainder == 0
        result.append(quotient)
    return result


class TestHermiteMsAgainstParentLoop:
    def test_every_pair_the_engine_batch_reads(self):
        # n <= 3 and p <= 211: every certificate search of the benchmark's
        # batches, and the primes between
        for n in (1, 2, 3):
            for p in sympy.primerange(2, 212):
                assert hermite_Ms(n, p) == parent_hermite_Ms(n, p), (n, p)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_higher_degrees_at_small_primes(self, n):
        for p in sympy.primerange(2, 42):
            assert hermite_Ms(n, p) == parent_hermite_Ms(n, p), (n, p)


class TestEInterval:
    def test_width_contract(self):
        for tol in (F(1, 10 ** 3), F(1, 10 ** 9), F(1, 10 ** 30)):
            interval = e_interval(tol)
            assert interval.width <= tol
            assert interval.contains(E_50)

    def test_matches_reference_digits(self):
        interval = e_interval(F(1, 10 ** 3))
        assert F(2717, 1000) < interval.lo and interval.hi < F(2720, 1000)
        tight = e_interval(F(1, 10 ** 9))
        assert tight.contains(F(2718281828, 10 ** 9))


class TestFixedPointKernel:
    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("K", [0, 1, 10, 64, 200, 600])
    def test_brackets_e_power(self, k, K):
        lo, hi = hermite._exp_brackets(8, K)[k]
        scaled = F(sympy.Rational(sympy.exp(k).evalf(300))) * 2 ** K
        assert lo <= scaled < hi
        assert hi - lo <= 2

    @pytest.mark.parametrize("tolerance", [F(1), F(1, 3), F(1, 10 ** 12), F(7, 2 ** 300)])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_scale_meets_tolerance(self, tolerance, k):
        K = hermite._exp_bits(tolerance)
        for lo, hi in hermite._exp_brackets(k, K):
            assert F(hi - lo, 2 ** K) <= tolerance / 256

    def test_e_upper(self):
        assert E_50 < hermite._e_upper() < E_50 + F(1, 2 ** 56)


def _pairs_at_scale_edges():
    """(n, K) whose bracket is cut at F = K + 2n + bits(K + 2n + 4) + 1 on
    both sides of the scales 64, 128 and 4096; F = 64 reads the scale
    itself, F = 65 the next one."""
    pairs = []
    for F in (63, 64, 65, 127, 128, 129, 4095, 4096, 4097):
        found = [(n, K) for n in (1, 2, 3, 4, 8) for K in range(max(0, F - 40), F)
                 if K + 2 * n + (K + 2 * n + 4).bit_length() + 1 == F]
        assert found, F
        pairs += found
    return pairs


SCALE_EDGE_PAIRS = _pairs_at_scale_edges()


def _e_series(bits):
    """(T, N, N!) with sum_{i<=N} 1/i! = T / N! and N! N > 2^bits, so that
    T / N! <= e < (T + 1/N) / N!: the rest of the series is below
    (1/(N+1)!)(1 + 1/(N+2) + ...) < 1/(N! N)."""
    N, fact = 1, 1
    while fact * N <= 1 << bits:
        N += 1
        fact *= N
    total, term = 0, 1
    for i in range(N, -1, -1):  # N!/i! from i = N down
        total += term
        term *= i
    return total, N, fact


class TestScaleCache:
    """_exp_brackets cuts e 2^F from the kept bracket at the power-of-two
    scale above F: its result must not depend on which scales are kept."""

    def _brackets(self, order):
        return {(n, K): hermite._exp_brackets(n, K) for n, K in order}

    def test_brackets_do_not_depend_on_the_cache(self, monkeypatch):
        # every n <= 8 with K up to 300 and near 4096: a bracket cut from a
        # larger kept scale than its own differs in a few percent of them
        pairs = {(n, K) for n in range(9) for K in [*range(301), *range(4030, 4101)]}
        by_scale = sorted(pairs | set(SCALE_EDGE_PAIRS), key=lambda nK: (nK[1] + 2 * nK[0], nK))
        monkeypatch.setattr(hermite, "_E_SCALES", {})
        ascending = self._brackets(by_scale)
        assert sorted(hermite._E_SCALES) == [64, 128, 256, 512, 4096, 8192]
        monkeypatch.setattr(hermite, "_E_SCALES", {})
        descending = self._brackets(reversed(by_scale))
        assert ascending == descending
        monkeypatch.setattr(hermite, "_E_SCALES", {})
        assert self._brackets(by_scale[:1]) == {by_scale[0]: ascending[by_scale[0]]}

    @pytest.mark.parametrize("n,K", SCALE_EDGE_PAIRS)
    def test_brackets_hold_e_powers_at_scale_edges(self, n, K):
        total, N, fact = _e_series(K + 4 * n + 80)
        for k, (lo, hi) in enumerate(hermite._exp_brackets(n, K)):
            # lo <= e^k 2^K < hi against T^k / N!^k <= e^k < (T + 1/N)^k / N!^k
            assert lo * fact ** k <= total ** k << K
            assert (total * N + 1) ** k << K < hi * (fact * N) ** k
            assert hi - lo <= 2

    def test_scale_is_the_power_of_two_above_F(self, monkeypatch):
        monkeypatch.setattr(hermite, "_E_SCALES", {})
        for F, r in ((4, 64), (63, 64), (64, 64), (65, 128), (4096, 4096), (4097, 8192)):
            # n = 0: F = K + bits(K + 4) + 1
            K = next(K for K in range(F) if K + (K + 4).bit_length() + 1 == F)
            hermite._E_SCALES.clear()
            hermite._exp_brackets(0, K)
            assert list(hermite._E_SCALES) == [r], (F, K)


def reference_combination_interval(coefficients, tolerance):
    """combination_interval summed in Fraction intervals."""
    b = [F(c) for c in coefficients]
    K = hermite._exp_bits(F(tolerance) / max(1, sum(map(abs, b[1:]))))
    total = Interval.point(b[0])
    for power, coefficient in zip(hermite._exp_intervals(len(b) - 1, K)[1:], b[1:]):
        total = total + power * coefficient
    return total


class TestCombinationInterval:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(st.just(F(0)), st.fractions(-200, 200, max_denominator=60)),
                    min_size=1, max_size=8),
           st.integers(0, 150))
    def test_matches_fraction_intervals(self, coefficients, digits):
        tolerance = F(1, 10 ** digits)
        got = combination_interval(coefficients, tolerance)
        assert got == reference_combination_interval(coefficients, tolerance)
        assert got.width <= tolerance


class TestHermiteEps:
    def test_eps_1_3_is_32e_minus_87(self):
        estimate = hermite_eps(1, 3, 1)
        exact = 32 * E_50 - 87
        assert estimate.interval.contains(exact)
        # the true value, derived by the oracle: -0.01498...
        assert F(-15, 1000) < estimate.interval.lo
        assert estimate.interval.hi < F(-14, 1000)

    def test_small_at_larger_prime(self):
        estimate = hermite_eps(1, 11, 1)
        assert estimate.interval.abs_hi() < F(1, 10 ** 4)

    @pytest.mark.parametrize("n,p,k", [(1, 3, 1), (2, 5, 1), (2, 5, 2),
                                       (3, 7, 2), (4, 11, 3)])
    def test_identity_and_closed_form_bound(self, n, p, k):
        estimate = hermite_eps(n, p, k)
        m0 = hermite_M(n, p, 0)
        digits = 60 + len(str(abs(m0)))  # oracle precision scaled to M_0
        e_ref = F(sympy.Rational(sympy.E.evalf(digits)))
        exact = e_ref ** k * m0 - hermite_M(n, p, k)
        assert estimate.interval.contains(exact)
        assert estimate.interval.abs_hi() <= estimate.bound

    def test_decay_along_primes(self):
        sizes = [hermite_eps(2, p, 1).interval.abs_hi()
                 for p in (5, 7, 11, 13, 17)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestCertificates:
    def test_three_minus_e(self):
        cert = nonvanish_certificate([F(3), F(-1)])
        assert cert.checks == {"m0_nondivisible": True, "mk_divisible": True,
                               "eps_half": True}
        true_value = abs(3 - E_50)
        assert cert.lower_bound <= true_value
        assert verify_certificate(cert)

    def test_hermite_pair(self):
        cert = nonvanish_certificate([F(-87), F(32)])
        assert cert.prime > 87
        true_value = abs(-87 + 32 * E_50)
        assert cert.lower_bound <= true_value
        assert verify_certificate(cert)

    def test_soundness_via_interval(self):
        cert = nonvanish_certificate([F(1, 2), F(1, 3), F(-1, 7)])
        value = combination_interval(cert.coefficients, F(1, 10 ** 60))
        assert value.abs_lo() >= cert.lower_bound

    def test_zero_inner_coefficient(self):
        cert = nonvanish_certificate([F(2), F(0), F(-1)])  # 2 - e^2 < 0
        assert verify_certificate(cert)
        value = combination_interval(cert.coefficients, F(1, 10 ** 40))
        assert value.hi < 0
        assert value.abs_lo() >= cert.lower_bound

    def test_rejects_zero_leading(self):
        with pytest.raises(ZeroLeadingCoefficient):
            nonvanish_certificate([F(0), F(1)])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            nonvanish_certificate([F(3)])

    def test_search_exhausted(self):
        with pytest.raises(SearchExhausted):
            nonvanish_certificate([F(3), F(-1)], p_cap=3)

    @pytest.mark.parametrize("coefficients,p_cap,start", [
        ([F(3), F(-1)], 10_000, 3), ([F(-87), F(32)], 10_000, 87),
        ([F(1, 7), F(-2, 9), F(5, 11), F(1, 13)], 10_000, 9009),
        ([F(11, 2), F(-4), F(11)], -10 ** 40, -10 ** 40), ([F(10) ** 400, F(1)], 100, 100)])
    def test_search_start(self, coefficients, p_cap, start):
        assert hermite.search_start(coefficients, p_cap) == start
        if start >= p_cap:  # no prime is looked for, however far the start
            with pytest.raises(SearchExhausted):
                nonvanish_certificate(coefficients, p_cap)

    def test_json_roundtrip_reverifies(self):
        cert = nonvanish_certificate([F(3), F(-1)])
        rebuilt = certificate_from_dict(cert.to_dict())
        assert rebuilt.prime == cert.prime
        assert rebuilt.M == cert.M
        assert verify_certificate(rebuilt)

    def test_tampered_certificate_fails(self):
        cert = nonvanish_certificate([F(3), F(-1)])
        doc = cert.to_dict()
        doc["I"] = str(int(doc["I"]) + 1)
        assert not verify_certificate(certificate_from_dict(doc))

    @pytest.mark.parametrize("eps_bound,accepted", [(None, True), ("7", False),
                                                    ("0", False)])
    def test_stated_eps_bound_is_checked(self, eps_bound, accepted):
        doc = nonvanish_certificate([F(3), F(-1)]).to_dict()
        if eps_bound is not None:
            doc["eps_bound"] = eps_bound
        assert verify_certificate(certificate_from_dict(doc)) is accepted

    @pytest.mark.parametrize("checks", [
        {"m0_nondivisible": False, "mk_divisible": False, "eps_half": False},
        {"m0_nondivisible": True, "mk_divisible": True, "eps_half": False},
        {"m0_nondivisible": True, "mk_divisible": True},
        {},
        {"m0_nondivisible": True, "mk_divisible": True, "eps_half": True, "extra": True},
    ], ids=["all-false", "eps-false", "no-eps", "empty", "extra"])
    def test_stated_checks_must_match(self, checks):
        # each verified True when the stated checks were ignored
        doc = nonvanish_certificate([F(3), F(-1)]).to_dict()
        doc["checks"] = checks
        assert not verify_certificate(certificate_from_dict(doc))

    @pytest.mark.parametrize("checks", [{"anything": "goes"}, [], None, "true",
                                        {"m0_nondivisible": 1, "mk_divisible": True,
                                         "eps_half": True}])
    def test_from_dict_refuses_checks_that_are_not_booleans(self, checks):
        doc = nonvanish_certificate([F(3), F(-1)]).to_dict()
        doc["checks"] = checks
        with pytest.raises(ValueError, match="checks must be an object of booleans"):
            certificate_from_dict(doc)

    def test_search_and_verification_share_the_checks(self, monkeypatch):
        calls = []
        checks = hermite._checks
        monkeypatch.setattr(hermite, "_checks", lambda *a: calls.append(a[1]) or checks(*a))
        cert = nonvanish_certificate([F(3), F(-1)])
        assert verify_certificate(certificate_from_dict(cert.to_dict()))
        assert calls == [cert.prime, cert.prime]

    def test_untrusted_prime_is_bounded_by_M0(self):
        # trial division up to sqrt(2^61 - 1) would run for minutes; the
        # proved lower bound on the bits of M_0 refuses the prime first
        doc = nonvanish_certificate([F(3), F(-1)]).to_dict()
        doc["prime"] = 2 ** 61 - 1
        cert = certificate_from_dict(doc)
        start = time.perf_counter()
        assert not verify_certificate(cert)
        assert time.perf_counter() - start < 1

    def test_malformed_shapes_are_rejected(self):
        cert = nonvanish_certificate([F(3), F(-1)])
        doc = cert.to_dict()
        for coeffs, M in ((doc["coeffs"][:1], doc["M"][:1]),
                          (doc["coeffs"], doc["M"][:1]),
                          (doc["coeffs"], doc["M"] + doc["M"][-1:])):
            assert not verify_certificate(certificate_from_dict(
                dict(doc, coeffs=coeffs, M=M)))


# prime and a digest of the JSON M, I and lower_bound fields
GOLDEN_CERTIFICATES = [
    ("3,-1", 5, "7d170ed7ce2933bf0fb486fcf11dcbd6"),
    ("-87,32", 89, "95b4509ac8308f30a67fbdf0777d1eb1"),
    ("1,-1,1", 3, "90cd7c43fa0f27787ed94e4f4696a884"),
    ("1/2,1/3,-1/7", 43, "5a37160e4630603e2d093e73306b8f66"),
    ("2,0,-1", 3, "2294b9aa368de7d9baae10b6865805bc"),
    ("7,1,1,-1,2,3", 53, "42513b40b859e04df6e99b6f0389c855"),
    ("126,1,1,-2", 127, "d3aee2aa67bae20110c3a2badbea64d7"),
]


@pytest.mark.parametrize("text,prime,digest", GOLDEN_CERTIFICATES,
                         ids=[g[0] for g in GOLDEN_CERTIFICATES])
def test_golden_certificates(text, prime, digest):
    cert = nonvanish_certificate([F(c) for c in text.split(",")])
    doc = json.loads(json.dumps(cert.to_dict()))
    fields = json.dumps([doc["M"], doc["I"], doc["lower_bound"]]).encode()
    assert doc["prime"] == prime
    assert hashlib.sha256(fields).hexdigest()[:32] == digest
    assert verify_certificate(certificate_from_dict(doc))


class TestLargeCertificate:
    # p = 127: the exact epsilon bound has thousands of digits, the stored
    # one is rounded up to a 64-bit dyadic rational
    COEFFS = [F(126), F(1), F(1), F(-2)]

    def test_json_roundtrip_reverifies(self):
        cert = nonvanish_certificate(self.COEFFS)
        doc = json.loads(json.dumps(cert.to_dict()))
        rebuilt = certificate_from_dict(doc)
        assert rebuilt.eps_total_bound == cert.eps_total_bound
        assert verify_certificate(rebuilt)

    def test_rounded_bound_covers_exact_bound(self, monkeypatch):
        cert = nonvanish_certificate(self.COEFFS)
        monkeypatch.setattr(hermite, "_round_up_dyadic", lambda m, K: F(m, 2 ** K))
        ok, exact = hermite._certify_eps(3, cert.prime, [126, 1, 1, -2], cert.M)
        assert ok
        assert exact != cert.eps_total_bound
        assert exact <= cert.eps_total_bound < F(1, 2)

    @pytest.mark.parametrize("m,K", [(0, 0), (0, 40), (1, 0), (205, 11), (7, 90),
                                     (3 ** 200, 300), (2 ** 70 + 1, 0), (2 ** 70 + 1, 200),
                                     (5 << 100, 3), (2 ** 65 - 1, 64), (2 ** 66 - 1, 1)])
    def test_dyadic_rounding(self, m, K):
        x = F(m, 2 ** K)
        rounded = hermite._round_up_dyadic(m, K)
        # the same rounding as of the reduced fraction m / 2^K
        shift = 64 - x.numerator.bit_length() + x.denominator.bit_length()
        assert rounded == ceil(x * F(2) ** shift) / F(2) ** shift
        assert x <= rounded <= x * (1 + F(1, 2 ** 63))
        num, den = rounded.numerator, rounded.denominator
        assert den & (den - 1) == 0
        odd_part = num >> max(0, (num & -num).bit_length() - 1)
        assert odd_part.bit_length() <= 65


class TestDecimalChunks:
    """Certificate numbers past CPython's 4300-digit int <-> str limit are
    read back through the decimal codec in ``intervals``, whose cap bounds
    the parse of untrusted JSON (the codec's own tests are in
    ``test_intervals.py``)."""

    def test_from_dict_refuses_over_the_cap(self):
        doc = nonvanish_certificate([F(3), F(-1)]).to_dict()
        doc["I"] = "9" * (intervals._MAX_DECIMAL_CHARS + 1)
        with pytest.raises(ValueError, match="cap"):
            certificate_from_dict(doc)
        doc = nonvanish_certificate([F(3), F(-1)]).to_dict()
        doc["lower_bound"] = "1/" + "7" * (intervals._MAX_DECIMAL_CHARS + 1)
        with pytest.raises(ValueError, match="cap"):
            certificate_from_dict(doc)

    @pytest.mark.parametrize("field,value", [("lower_bound", "1/0"), ("eps_bound", "-3/0"),
                                             ("coeffs", [["3", "0"], ["-1", "1"]])])
    def test_from_dict_refuses_zero_denominators(self, field, value):
        doc = nonvanish_certificate([F(3), F(-1)]).to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match="zero denominator"):
            certificate_from_dict(doc)

    @pytest.mark.parametrize("prime", [5.9, 5.0, "5", " 5", True, None])
    def test_from_dict_refuses_a_non_integer_prime(self, prime):
        doc = nonvanish_certificate([F(3), F(-1)]).to_dict()
        assert doc["prime"] == 5
        doc["prime"] = prime
        with pytest.raises(ValueError, match="prime"):
            certificate_from_dict(doc)


class TestConvergents:
    def test_pi_first_four(self):
        convergents = cf_convergents(pi_oracle, 4)
        assert [(c.p, c.q) for c in convergents] == \
            [(3, 1), (22, 7), (333, 106), (355, 113)]

    def test_dirichlet_inequality(self):
        for c in cf_convergents(pi_oracle, 6):
            assert c.error_bound.hi < F(1, c.q ** 2)

    def test_rational_terminates_exactly(self):
        convergents = cf_convergents(F(7, 3), 5)
        assert convergents[-1].p == 7 and convergents[-1].q == 3
        assert convergents[-1].error_bound.hi == 0

    @pytest.mark.parametrize("alpha", ["7/3", "355/113", "-5/3", "1/2", "5", "-3", "0"])
    def test_rational_matches_sympy_convergents(self, alpha):
        want = list(continued_fraction_convergents(
            continued_fraction_iterator(sympy.Rational(alpha))))
        value = F(alpha)
        for count in range(1, len(want) + 2):
            convergents = cf_convergents(value, count)
            assert [(c.p, c.q) for c in convergents] == \
                [(int(r.p), int(r.q)) for r in want[:count]]
            for c in convergents:
                assert c.error_bound == Interval.point(abs(value - F(c.p, c.q)))

    def test_lazy_oracle_exhaustion(self):
        stubborn = lambda tol: Interval(F(1, 4), F(3, 4))
        with pytest.raises(PrecisionExhausted):
            cf_convergents(stubborn, 3)

    def test_convergent_laws(self):
        convergents = cf_convergents(pi_oracle, 8)
        qs = [c.q for c in convergents]
        assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))
        pi_100 = F(sympy.Rational(sympy.pi.evalf(100)))
        for c1, c2 in zip(convergents, convergents[1:]):
            assert gcd(c1.p, c1.q) == 1
            assert abs(pi_100 - F(c1.p, c1.q)) < F(1, c1.q * c2.q)
            # consecutive convergents bracket alpha
            assert (F(c1.p, c1.q) - pi_100) * (F(c2.p, c2.q) - pi_100) < 0

    def test_pairwise_proximity(self):
        convergents = cf_convergents(pi_oracle, 6)
        for c1 in convergents:
            for c2 in convergents:
                gap = abs(F(c1.p, c1.q) - F(c2.p, c2.q))
                assert gap <= F(1, c1.q ** 2) + F(1, c2.q ** 2)

    def test_pi_first_eight(self):
        assert [(c.p, c.q) for c in cf_convergents(pi_oracle, 8)] == [
            (3, 1), (22, 7), (333, 106), (355, 113), (103993, 33102),
            (104348, 33215), (208341, 66317), (312689, 99532)]

    @pytest.mark.parametrize("digits", [12, 40, 160, 320])
    def test_pi_oracle_brackets_within_tolerance(self, digits):
        tolerance = F(1, 10 ** digits)
        bracket = pi_oracle(tolerance)
        assert bracket.lo < PI_400 < bracket.hi
        assert bracket.width <= tolerance
        for end in (bracket.lo, bracket.hi):
            assert end.denominator & (end.denominator - 1) == 0

    def test_pi_oracle_coarse_and_bad_tolerances(self):
        for tolerance in (F(10 ** 6), F(1), F(7, 10)):
            bracket = pi_oracle(tolerance)
            assert bracket.lo < PI_400 < bracket.hi and bracket.width <= tolerance
        for tolerance in (F(0), F(-1)):
            with pytest.raises(ValueError):
                pi_oracle(tolerance)

    def test_e_oracle_reaches_87_over_32(self):
        convergents = cf_convergents(e_oracle, 6)
        assert (convergents[-1].p, convergents[-1].q) == (87, 32)


class TestLiouville:
    def test_partial_sums(self):
        assert liouville_partial(1) == (1, 10)
        assert liouville_partial(2) == (11, 100)

    def test_n2_m2(self):
        conv, holds = liouville_approx(2, 2)
        assert (conv.p, conv.q) == (11, 100)
        assert holds
        assert conv.error_bound.lo == F(1, 10 ** 6)
        assert conv.error_bound.hi == F(2, 10 ** 6)

    def test_n3_m3(self):
        conv, holds = liouville_approx(3, 3)
        assert conv.q == 10 ** 6
        assert holds

    def test_n1_m1(self):
        conv, holds = liouville_approx(1, 1)
        assert (conv.p, conv.q) == (1, 10)
        assert holds

    def test_m4_n3_fails_by_a_hair(self):
        # tail is (1 + 1e-96...) * 10^-24 while 1/q^4 is exactly 10^-24, so
        # the strict inequality is false; the n = 4 partial sum repairs it
        _, holds = liouville_approx(4, 3)
        assert not holds
        _, holds = liouville_approx(3, 4)
        assert holds

    def test_reduced_fraction(self):
        for n in (1, 2, 3, 4):
            p, q = liouville_partial(n)
            assert gcd(p, q) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bound_holds_matches_the_rational_comparison(self, n):
        # the flag is m <= n; the comparison it replaces builds q^m
        for m in range(1, 9):
            conv, holds = liouville_approx(m, n)
            tail_hi = F(2, 10 ** factorial(n + 1))
            assert holds == (tail_hi < F(1, conv.q ** m)), (m, n)
            assert conv.error_bound == Interval(tail_hi / 2, tail_hi)

    @pytest.mark.parametrize("call", [lambda: liouville_approx(2, 9),
                                      lambda: liouville_partial(10 ** 18)],
                             ids=["approx(2, 9)", "partial(10**18)"])
    def test_unprintable_sizes_are_refused_up_front(self, call):
        # 10^(10!) has 3628801 digits, past the 2^20 decimal cap; the
        # factorial stops at the first partial product past the cap
        start = time.perf_counter()
        with pytest.raises(ValueError, match="digits"):
            call()
        assert time.perf_counter() - start < 1

    def test_largest_n_under_the_cap(self):
        # error_bound's end 10^-(9!) has 9! + 1 = 362881 digits, under 2^20
        conv, holds = liouville_approx(2, 8)
        assert conv.q == 10 ** factorial(8) and holds
        assert conv.error_bound.lo == F(1, 10 ** factorial(9))

    def test_tail_bracket_is_true(self):
        # 50-digit decimal expansion of L vs the certified bracket at n = 2
        L = sum(F(1, 10 ** factorial(j)) for j in range(1, 5))
        conv, _ = liouville_approx(2, 2)
        gap = L - F(conv.p, conv.q)
        assert conv.error_bound.lo <= gap <= conv.error_bound.hi


class TestQAnalytic:
    def test_geometric_series(self):
        value = eval_q_analytic(lambda n: F(1), Interval.point(F(1, 2)),
                                terms=40, coeff_bound=1)
        assert value.contains(2)

    def test_truncated_exponential_at_one(self):
        # 1/n! <= 2^-n for n >= 4, so radius 2 certifies the tail at x = 1
        value = eval_q_analytic(lambda n: F(1, factorial(n)),
                                Interval.point(F(1)), terms=25, coeff_bound=2)
        assert value.contains(E_50)

    def test_sine_combination_vanishes_at_half_pi(self):
        def coeffs(n):
            if n == 0:
                return F(-1)
            if n % 2 == 1:
                return F((-1) ** ((n - 1) // 2), factorial(n))
            return F(0)

        half_pi_bracket = pi_oracle(F(1, 10 ** 30)) * F(1, 2)
        value = eval_q_analytic(coeffs, half_pi_bracket, terms=80,
                                coeff_bound=2)
        assert value.contains(0)
        # tail ratio (pi/4)^81 / (1 - pi/4) dominates the width
        assert value.width < F(1, 10 ** 6)

    def test_radius_violation(self):
        with pytest.raises(RadiusViolation):
            eval_q_analytic(lambda n: F(1), Interval.point(F(3, 2)),
                            terms=10, coeff_bound=1)
