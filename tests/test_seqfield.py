import gc
import math
import operator
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperline import seqfield as sf
from hyperline.errors import (DivisionByZeroAtIndex, NotConvergentAtDepth,
                              UnlimitedValue, ZeroTailAtDepth)
from hyperline.seqfield import (ArchClass, ClassTag, Verdict, arch_compare,
                                classify, compare, div_rem, divides,
                                gcd_bezout, hyper_floor, make, shadow)

F = Fraction


class TestConstruction:
    def test_constant_embedding(self):
        a = make(F(2, 3))
        assert a.prefix(5) == [F(2, 3)] * 5
        assert a.const_value == F(2, 3)

    def test_omega_counts_from_one(self):
        assert sf.OMEGA.prefix(4) == [1, 2, 3, 4]

    def test_harmonic_partial_sums(self):
        assert sf.HARMONIC.prefix(3) == [1, F(3, 2), F(11, 6)]

    def test_reciprocal_succ(self):
        assert sf.RECIPROCAL_SUCC.prefix(3) == [1, F(1, 2), F(1, 3)]

    def test_make_from_string(self):
        assert make("omega") is sf.OMEGA
        assert make("5/7").at(3) == F(5, 7)

    def test_make_from_generator(self):
        a = make(lambda n: F(n * n))
        assert a.at(4) == 16
        assert a.const_value is None


class TestExactInputs:
    """A float is not the rational it prints as, so none enters a verdict."""

    def test_leaf_refuses_a_float_term(self):
        a = make(lambda n: 0.1 * (n + 1))
        with pytest.raises(TypeError, match="at index 8 is a float"):
            compare(a, F(3, 10), 8)
        exact = make(lambda n: F(n + 1, 10))
        assert compare(exact, F(3, 10), 8) == sf.CompareResult(Verdict.GREATER, 3)

    def test_constant_refuses_a_float(self):
        with pytest.raises(TypeError, match="constant 0.1 is a float"):
            sf.Hyperreal.constant(0.1)
        assert sf.Hyperreal.constant(F(1, 10)).at(4) == F(1, 10)
        assert make("1/3").at(5) == F(1, 3) and make("0.1").at(0) == F(1, 10)

    def test_integer_constant_refuses_a_float(self):
        with pytest.raises(TypeError, match="constant 2.7 is a float"):
            sf.Hyperinteger.constant(2.7)
        assert sf.Hyperinteger.constant(7).at(3) == 7
        assert sf.Hyperinteger.constant(F(7, 2)).at(0) == 3

    def test_int_and_fraction_terms_are_kept(self):
        a = make(lambda n: n if n % 2 else F(n, 4))
        assert [a.at(n) for n in range(4)] == [0, 1, F(1, 2), 3]
        assert all(type(a.at(n)) is F for n in range(4))


class TestArithmetic:
    def test_tilde_inverse_with_zero(self):
        a = make(lambda n: F(n))  # (0, 1, 2, 3, ...)
        inv = a.tilde_inv()
        assert inv.prefix(4) == [0, 1, F(1, 2), F(1, 3)]

    def test_tilde_inverse_recovers_one(self):
        r = sf.RECIPROCAL_SUCC
        product = r * r.tilde_inv()
        assert product.prefix(6) == [1] * 6

    def test_tilde_zero_rule_pointwise(self):
        a = make(lambda n: F(0) if n % 3 == 0 else F(n))
        product = a * a.tilde_inv()
        for i in range(30):
            assert product.at(i) == (0 if i % 3 == 0 else 1)

    def test_pointwise_sum(self):
        s = make(1) + sf.RECIPROCAL_SUCC
        assert [s.at(n) for n in (0, 1, 9)] == [2, F(3, 2), F(11, 10)]

    @given(st.fractions(max_denominator=100), st.fractions(max_denominator=100))
    def test_constant_ops_match_rationals(self, x, y):
        a, b = make(x), make(y)
        assert (a * b - a).const_value == x * y - x
        for idx in (0, 3, 17):
            assert (a + b).at(idx) == x + y
            assert (a - b).at(idx) == x - y
            assert (a * b).at(idx) == x * y
            assert (-a).at(idx) == -x
            assert abs(a).at(idx) == abs(x)


class TestCompare:
    def test_infinitesimal_below_reals(self):
        k = 5
        result = compare(sf.RECIPROCAL_SUCC, F(1, k), depth=4 * k)
        assert result.verdict is Verdict.LESS
        assert result.witness_index == k

    def test_constant_equality(self):
        result = compare(make(F(5, 7)), make(F(5, 7)), depth=1)
        assert result.verdict is Verdict.EQUAL
        assert result.witness_index == 0

    def test_oscillation_undetermined(self):
        flip = make(lambda n: F((-1) ** n))
        for depth in (1, 2, 64, 1001):
            result = compare(flip, 0, depth)
            assert result.verdict is Verdict.UNDETERMINED
            assert result.witness_index is None

    def test_short_tail_rejected(self):
        # sign settles only at index 9; depth 12 makes the witness too late
        a = make(lambda n: F(1) if n < 9 else F(-1))
        assert compare(a, 0, depth=12).verdict is Verdict.UNDETERMINED
        assert compare(a, 0, depth=18).verdict is Verdict.LESS

    @given(st.fractions(max_denominator=50), st.fractions(max_denominator=50),
           st.integers(min_value=1, max_value=200))
    def test_order_embedding(self, q1, q2, depth):
        verdict = compare(make(q1), make(q2), depth).verdict
        if q1 < q2:
            assert verdict is Verdict.LESS
        elif q1 > q2:
            assert verdict is Verdict.GREATER
        else:
            assert verdict is Verdict.EQUAL

    def test_determinism(self):
        a = make(lambda n: F(1, n + 1))
        first = compare(a, 0, 100)
        second = compare(a, 0, 100)
        assert first == second


class TestClassify:
    def test_examples(self):
        assert classify(sf.RECIPROCAL_SUCC) is ClassTag.INFINITESIMAL
        assert classify(sf.OMEGA) is ClassTag.UNLIMITED
        assert classify(make(5)) is ClassTag.APPRECIABLE

    def test_oscillating_undetermined(self):
        a = make(lambda n: F(1) if n % 2 else F(1, 10 ** 9))
        assert classify(a, depth=100) is ClassTag.UNDETERMINED

    def test_probe_budget_matters(self):
        # 1/100 sits below the default probe floor 1/64
        assert classify(make(F(1, 100))) is ClassTag.INFINITESIMAL
        assert classify(make(F(1, 100)), probes=256) is ClassTag.APPRECIABLE


class TestShadow:
    def test_constant_is_exact(self):
        interval = shadow(make(F(2, 3)), F(1, 10 ** 9))
        assert interval.lo == interval.hi == F(2, 3)

    def test_limit_of_one_plus_reciprocal(self):
        a = make(1) + sf.RECIPROCAL_SUCC
        tol = F(1, 10 ** 4)
        interval = shadow(a, tol, depth=240_000)
        assert interval.contains(1)
        assert interval.width <= 2 * tol

    def test_fast_convergence_tight_tolerance(self):
        a = make(lambda n: 1 + F(1, 2 ** n))
        interval = shadow(a, F(1, 10 ** 6), depth=256)
        assert interval.contains(1)
        assert interval.width <= F(2, 10 ** 6)

    def test_unlimited_rejected(self):
        with pytest.raises(UnlimitedValue):
            shadow(sf.OMEGA, F(1, 100))

    def test_unlimited_constant_rejected(self):
        with pytest.raises(UnlimitedValue):
            shadow(make(100), F(1, 10))

    def test_constant_needs_depth(self):
        with pytest.raises(ValueError):
            shadow(make(F(2, 3)), F(1, 10), depth=0)

    def test_no_window_raises(self):
        flip = make(lambda n: F((-1) ** n))
        with pytest.raises(NotConvergentAtDepth):
            shadow(flip, F(1, 100), depth=200)


def _suffix_witness(values, depth, pred):
    """Reference: smallest w with pred on [w, depth], or None if 2*w > depth."""
    w = depth + 1
    for n in range(depth, -1, -1):
        if not pred(values(n)):
            break
        w = n
    return w if 2 * w <= depth else None


def reference_classify(a, depth, probes=sf.DEFAULT_PROBES):
    """The three-scan classification the half-window pass replaced."""
    tiny, big = F(1, probes), F(probes)
    values = lambda n: abs(a.at(n))
    if _suffix_witness(values, depth, lambda v: v < tiny) is not None:
        return ClassTag.INFINITESIMAL
    if _suffix_witness(values, depth, lambda v: v > big) is not None:
        return ClassTag.UNLIMITED
    if _suffix_witness(values, depth, lambda v: tiny <= v <= big) is not None:
        return ClassTag.APPRECIABLE
    return ClassTag.UNDETERMINED


def reference_arch_compare(a, b, depth, probes=sf.DEFAULT_PROBES):
    """The three-scan archimedean comparison the half-window pass replaced."""
    tiny, big = F(1, probes), F(probes)
    start = (depth + 1) // 2
    if all(a.at(n) == 0 for n in range(start, depth + 1)) or \
            all(b.at(n) == 0 for n in range(start, depth + 1)):
        raise ZeroTailAtDepth("reference")
    unbounded, indeterminate = object(), object()

    def ratio(n):
        x, y = abs(a.at(n)), abs(b.at(n))
        if y == 0:
            return indeterminate if x == 0 else unbounded
        return x / y

    is_frac = lambda r: r is not unbounded and r is not indeterminate
    if _suffix_witness(ratio, depth, lambda r: is_frac(r) and r < tiny) is not None:
        return ArchClass.LOWER
    higher = lambda r: r is unbounded or (is_frac(r) and r > big)
    if _suffix_witness(ratio, depth, higher) is not None:
        return ArchClass.HIGHER
    same = lambda r: is_frac(r) and tiny <= r <= big
    if _suffix_witness(ratio, depth, same) is not None:
        return ArchClass.SAME
    return ArchClass.UNDETERMINED


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroTailAtDepth:
        return ZeroTailAtDepth


# values on both sides of the probe thresholds 1/64 and 64, and zero
_edge_values = st.sampled_from([F(0), F(1, 64), F(1, 65), F(-1, 63), F(64),
                                F(-65), F(63), F(1)])
_any_values = st.one_of(_edge_values,
                        st.fractions(min_value=-200, max_value=200,
                                     max_denominator=500))
_bucket_values = st.sampled_from([
    st.fractions(min_value=F(-1, 65), max_value=F(1, 65), max_denominator=10 ** 4),
    st.fractions(min_value=65, max_value=10 ** 4, max_denominator=7),
    st.fractions(min_value=F(1, 64), max_value=64, max_denominator=300),
])


@st.composite
def window_sequences(draw, depth):
    """depth+1 values whose tail is often drawn from one class bucket, with
    an occasional stray value, so decided and undecided cases both occur."""
    tail = draw(_bucket_values)
    if draw(st.booleans()):
        tail = st.one_of(tail, _edge_values)
    head = draw(st.integers(0, depth + 1))
    return (draw(st.lists(_any_values, min_size=head, max_size=head))
            + draw(st.lists(tail, min_size=depth + 1 - head, max_size=depth + 1 - head)))


@st.composite
def depth_and_sequences(draw, parity, count):
    depth = 2 * draw(st.integers(1 - parity, 12)) + parity
    return depth, [draw(window_sequences(depth)) for _ in range(count)]


@st.composite
def compare_operands(draw, parity):
    """A depth of the given parity, 1 or 2 often, and two operands: leaves
    whose sign settles at a drawn index, or monomial forms."""
    depth = 2 * draw(st.one_of(st.just(1 - parity), st.integers(1 - parity, 20))) + parity

    def operand():
        kind = draw(st.sampled_from(["leaf", "constant", "omega", "recip"]))
        if kind == "leaf":
            values = draw(st.lists(st.integers(-3, 3), min_size=depth + 1,
                                   max_size=depth + 1))
            settle, sign = draw(st.integers(0, depth + 1)), draw(st.integers(-1, 1))
            values[settle:] = [sign * (abs(v) or 1) for v in values[settle:]]
            return make(lambda n: F(values[n]))
        c = make(draw(st.fractions(-3, 3, max_denominator=4)))
        return {"constant": c, "omega": c * sf.OMEGA, "recip": c * sf.RECIPROCAL_SUCC}[kind]

    return depth, operand(), operand()


class TestHalfWindowScans:
    """classify and arch_compare against the three-scan reference, and the
    half-window sign scan against public compare's scan down to index 0."""

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @given(data=st.data())
    def test_half_window_compare_keeps_the_verdict(self, parity, data):
        depth, a, b = data.draw(compare_operands(parity))
        half = sf._compare(a, b, depth, depth // 2)
        eager = compare(a, b, depth)
        assert half.verdict is eager.verdict
        if eager.witness_index is not None:  # so the sign holds on [w, depth]
            assert eager.witness_index <= half.witness_index <= depth // 2

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @given(data=st.data())
    def test_classify_matches_reference(self, parity, data):
        depth, (values,) = data.draw(depth_and_sequences(parity, 1))
        a = make(lambda n: values[n])
        assert classify(a, depth) is reference_classify(a, depth)

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @given(data=st.data())
    def test_arch_compare_matches_reference(self, parity, data):
        depth, (xs, ys) = data.draw(depth_and_sequences(parity, 2))
        a, b = make(lambda n: xs[n]), make(lambda n: ys[n])
        assert _outcome(arch_compare, a, b, depth) is \
            _outcome(reference_arch_compare, a, b, depth)


def _hull_join(max_spread):
    def join(state, c):
        lo, hi = min(state[0], c[0]), max(state[1], c[1])
        return (lo, hi) if hi - lo <= max_spread else None
    return join


@st.composite
def run_cells(draw, hull, monotone):
    """Cells ``(c, start)`` for ``0..depth`` in runs of equal cells, each
    index reporting a start inside its run; nondecreasing when monotone."""
    depth = draw(st.integers(1, 60))
    cells, lo, hi, tag = [], 0, 0, 0
    while len(cells) <= depth:
        if hull and monotone:  # cells at most 3 wide, with both ends nondecreasing
            lo += draw(st.integers(0, 3))
            hi = max(hi, lo + draw(st.integers(0, 3)))
            c = (lo, hi)
        elif hull:
            lo = draw(st.integers(-8, 8))
            c = (lo, lo + draw(st.integers(0, 3)))
        elif monotone:
            tag += draw(st.integers(0, 1))
            c = tag
        else:
            c = draw(st.sampled_from([0, 1, 2, None]))
        first = len(cells)
        for _ in range(draw(st.integers(1, 12))):
            cells.append((c, draw(st.integers(first, len(cells)))))
    return cells[:depth + 1]


def reference_window(cells, join, floor):
    """``_window`` by a walk of every index: the true window start ``W`` and
    the state of each window ``[n, depth]``, ``n >= W``."""
    depth = len(cells) - 1
    states = {depth: cells[depth][0]}
    n = depth
    while states[n] is not None and n > 0:
        joined = join(states[n], cells[n - 1][0])
        if joined is None:
            break
        n -= 1
        states[n] = joined
    return n, states


class TestWindow:
    """The one suffix scan against a walk of every index."""

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), hull=st.booleans(), monotone=st.booleans(),
           half=st.booleans(), max_spread=st.integers(3, 10))
    def test_window_matches_an_index_by_index_walk(self, data, hull, monotone,
                                                    half, max_spread):
        cells = data.draw(run_cells(hull, monotone))
        depth = len(cells) - 1
        floor = depth // 2 if half else 0
        join = _hull_join(max_spread) if hull else sf._same
        reads = []
        state, w = sf._window(lambda n: reads.append(n) or cells[n], join, depth, floor,
                              monotone)
        start, states = reference_window(cells, join, floor)
        if start > floor or states[depth] is None:
            assert (state, w) == (states[start], start)
        else:  # a run may carry the window past floor
            assert start <= w <= floor and state == states[w]
        assert reads[0] == depth
        if not monotone:  # each read is the index just below the last run
            assert all(n == cells[m][1] - 1 for m, n in zip(reads, reads[1:]))
        elif len(reads) > 1:  # floor first, then a bisection
            assert reads[1] == floor and len(reads) <= 2 + depth.bit_length()

    def test_a_none_cell_at_depth_is_no_window(self):
        assert sf._window(lambda n: (None, 0), sf._same, 4, 2) == (None, 4)
        assert sf._window(lambda n: (None, 0), sf._same, 4, 2, True) == (None, 4)


class TestShadowSoundness:
    @given(limit=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
           scale=st.fractions(min_value=-5, max_value=5, max_denominator=50),
           power=st.integers(0, 3),
           tolerance=st.fractions(min_value=F(1, 10 ** 9), max_value=20,
                                  max_denominator=10 ** 9),
           depth=st.integers(1, 300))
    def test_window_inside_interval(self, limit, scale, power, tolerance, depth):
        # limit + scale / (n+1)^power: a window, or none, depending on the draw
        a = make(lambda n: limit + scale / F(n + 1) ** power)
        try:
            interval = shadow(a, tolerance, depth)
        except NotConvergentAtDepth:
            return
        half = tolerance / 2
        for n in range(depth // 2, depth + 1):
            assert interval.lo <= a.at(n) - half and a.at(n) + half <= interval.hi
        assert interval.width <= 2 * tolerance
        # endpoints on the grid 2^-k, k least with 2^-k <= tolerance/8
        k = 0
        while F(1, 2 ** k) > tolerance / 8:
            k += 1
        for end in (interval.lo, interval.hi):
            assert (tolerance.denominator << k) % end.denominator == 0


def _bracketed(values, widen):
    """The sequence ``values`` with a bracket that is the exact cell at scale
    ``k`` widened by ``widen(n)`` units on each side, each index its own run."""
    def bracket(n, k):
        v = values(n)
        m = (v.numerator << k) // v.denominator
        below, above = widen(n)
        return m - below, m + 1 + above, n

    return sf.Hyperreal(values, bracket=bracket)


# mostly tight brackets; a huge widening forces the exact fallback
_widenings = st.lists(st.tuples(*[st.sampled_from([0, 0, 1, 3, 1 << 40])] * 2),
                      min_size=1, max_size=5)


class TestBrackets:
    @given(xs=st.lists(_any_values, min_size=1, max_size=6),
           ys=st.lists(_any_values, min_size=1, max_size=6),
           widen=_widenings, k=st.integers(0, 70))
    def test_sum_and_difference_brackets_hold(self, xs, ys, widen, k):
        a = _bracketed(lambda n: xs[n % len(xs)], lambda n: widen[n % len(widen)])
        b = _bracketed(lambda n: ys[n % len(ys)], lambda n: widen[-1 - n % len(widen)])
        for c in (a + b, a - b, b - a, a + b - a):
            for n in range(8):
                lo, hi, _ = c.bracket(n, k)
                assert lo <= c.at(n) * 2 ** k <= hi

    def test_unbracketed_operand_drops_the_bracket(self):
        a = _bracketed(lambda n: F(1, n + 1), lambda n: (0, 0))
        assert (a + sf.RECIPROCAL_SUCC).bracket is None
        assert (a * a).bracket is None
        assert (a + 0).bracket is a.bracket

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @given(data=st.data(), widen=_widenings)
    def test_bracketed_classify_matches_exact(self, parity, data, widen):
        depth, (values,) = data.draw(depth_and_sequences(parity, 1))
        exact = make(lambda n: values[n])
        a = _bracketed(lambda n: values[n], lambda n: widen[n % len(widen)])
        assert classify(a, depth) is classify(exact, depth) is reference_classify(exact, depth)

    @pytest.mark.parametrize("value,tag", [
        (F(-1), ClassTag.APPRECIABLE), (F(1, 2), ClassTag.APPRECIABLE),
        (F(-100), ClassTag.UNLIMITED), (F(100), ClassTag.UNLIMITED),
        (F(1, 1000), ClassTag.INFINITESIMAL), (F(-1, 1000), ClassTag.INFINITESIMAL)])
    def test_classify_decides_from_a_tight_bracket(self, value, tag):
        # a bracket clear of the probe boundaries settles every index alone
        def unreadable(n):
            pytest.fail(f"exact value read at index {n}")

        a = _bracketed(lambda n: value, lambda n: (1, 1))
        a.gen = unreadable
        assert classify(a, 64) is tag

    def test_exact_fallback_decides_its_index_alone(self):
        # one bracket over every index, across the 1/64 probe, so each index
        # reads its exact value, and those change tag at index 50
        def bracket(n, k):
            return (1 << k) // 200, -(-(1 << k) // 5), 0

        a = sf.Hyperreal(lambda n: F(1, 100) if n < 50 else F(1, 10), bracket=bracket)
        assert classify(a, 80) is ClassTag.UNDETERMINED
        assert classify(a, 100) is ClassTag.APPRECIABLE

    @given(limit=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
           scale=st.fractions(min_value=-5, max_value=5, max_denominator=50),
           power=st.integers(0, 3),
           tolerance=st.fractions(min_value=F(1, 10 ** 9), max_value=20,
                                  max_denominator=10 ** 9),
           depth=st.integers(1, 300), widen=_widenings)
    @settings(deadline=None)
    def test_bracketed_shadow_soundness(self, limit, scale, power, tolerance, depth,
                                        widen):
        # TestShadowSoundness's properties for the bracket hull scan
        values = lambda n: limit + scale / F(n + 1) ** power
        a = _bracketed(values, lambda n: widen[n % len(widen)])
        try:
            interval = shadow(a, tolerance, depth)
        except NotConvergentAtDepth:
            return
        half = tolerance / 2
        for n in range(depth // 2, depth + 1):
            assert interval.lo <= values(n) - half and values(n) + half <= interval.hi
        assert interval.width <= 2 * tolerance
        k = 0
        while F(1, 2 ** k) > tolerance / 8:
            k += 1
        for end in (interval.lo, interval.hi):
            assert (tolerance.denominator << k) % end.denominator == 0

    def test_bracketed_shadow_needs_depth(self):
        a = _bracketed(lambda n: F(1, n + 1), lambda n: (0, 0))
        with pytest.raises(ValueError):
            shadow(a, F(1, 100), depth=0)


class TestFloor:
    def test_constant(self):
        assert hyper_floor(make(F(7, 2))).prefix(3) == [3, 3, 3]

    def test_shifted_halves(self):
        a = make(lambda n: n + F(1, 2))
        assert hyper_floor(a).prefix(4) == [0, 1, 2, 3]

    def test_harmonic_floor_prefix(self):
        # exact partial sums: 1, 3/2, 11/6, 25/12, 137/60 -> floors 1,1,1,2,2
        assert hyper_floor(sf.HARMONIC).prefix(5) == [1, 1, 1, 2, 2]

    @given(st.fractions(max_denominator=500), st.integers(0, 255))
    def test_floor_contract(self, q, idx):
        shifted = make(lambda n, q=q: q + n)
        floored = hyper_floor(shifted)
        value, fl = shifted.at(idx), floored.at(idx)
        assert fl <= value < fl + 1


class TestIntegerOps:
    def test_hyperinteger_is_a_hyperreal(self):
        i = sf.Hyperinteger(lambda n: 2 * n + 5)
        assert make(i) is i
        assert compare(i, 3) == sf.CompareResult(Verdict.GREATER, 0)
        assert (i + 1).prefix(3) == [6, 8, 10]
        assert [type(v) for v in i.prefix(2)] == [int, int]
        assert repr(i) == "Hyperinteger(<iseq>)"
        assert repr(sf.Hyperinteger.constant(F(7, 2))) == "Hyperinteger(3)"
        assert repr(hyper_floor(sf.OMEGA)) == "Hyperinteger(floor(omega))"

    def test_divides_multiples(self):
        a = sf.Hyperinteger(lambda n: 3 * n)
        check = divides(a, sf.Hyperinteger.constant(3))
        assert all(check(i) for i in range(50))

    def test_divides_zero_divisor(self):
        a = sf.Hyperinteger(lambda n: n)
        check = divides(a, sf.Hyperinteger.constant(0))
        assert check(0) and not check(1)

    def test_div_rem_euclidean(self):
        a = sf.Hyperinteger(lambda n: 7 * n)
        q, r = div_rem(a, sf.Hyperinteger.constant(5))
        for i in range(40):
            assert a.at(i) == q.at(i) * 5 + r.at(i)
            assert 0 <= r.at(i) < 5

    def test_div_rem_negative_divisor(self):
        a = sf.Hyperinteger(lambda n: n - 20)
        q, r = div_rem(a, sf.Hyperinteger.constant(-7))
        for i in range(40):
            assert a.at(i) == q.at(i) * -7 + r.at(i)
            assert 0 <= r.at(i) < 7

    def test_div_rem_zero_raises(self):
        a = sf.Hyperinteger(lambda n: n)
        q, _ = div_rem(a, sf.Hyperinteger(lambda n: n))  # divisor 0 at index 0
        with pytest.raises(DivisionByZeroAtIndex):
            q.at(0)

    def test_gcd_of_scaled_sequences(self):
        g, s, t = gcd_bezout(sf.Hyperinteger(lambda n: 6 * n),
                             sf.Hyperinteger(lambda n: 4 * n))
        for i in range(1, 30):
            assert g.at(i) == 2 * i

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
    def test_bezout_witnesses(self, x, y):
        import math
        g, s, t = gcd_bezout(sf.Hyperinteger.constant(x),
                             sf.Hyperinteger.constant(y))
        assert g.at(0) == math.gcd(x, y)
        assert g.at(0) == s.at(0) * x + t.at(0) * y


class TestArchClasses:
    def test_same_class_scaled(self):
        a = make(lambda n: F(1, n + 1))
        b = make(lambda n: F(2, n + 1))
        assert arch_compare(a, b) is ArchClass.SAME

    def test_lower_class_square(self):
        a = make(lambda n: F(1, (n + 1) ** 2))
        assert arch_compare(a, sf.RECIPROCAL_SUCC) is ArchClass.LOWER

    def test_omega_below_omega_squared(self):
        omega_sq = sf.OMEGA * sf.OMEGA
        assert arch_compare(sf.OMEGA, omega_sq) is ArchClass.LOWER
        assert arch_compare(omega_sq, sf.OMEGA) is ArchClass.HIGHER

    def test_constants_same(self):
        assert arch_compare(make(3), make(F(1, 3))) is ArchClass.SAME

    def test_zero_tail_raises(self):
        with pytest.raises(ZeroTailAtDepth):
            arch_compare(make(0), make(1), depth=64)

    @pytest.mark.parametrize("a, b, depth, probes", [
        (sf.OMEGA, make(3), 64, 0),
        (sf.OMEGA, make(3), 0, 64),
        (sf.OMEGA, make(3), -5, 64),
        (make(lambda n: F(n + 1)), make(lambda n: F(3)), -5, 64),
    ], ids=["probes-0", "depth-0", "depth-negative", "leaves-depth-negative"])
    def test_refuses_empty_window_or_budget(self, a, b, depth, probes):
        with pytest.raises(ValueError, match="depth and probes"):
            arch_compare(a, b, depth, probes)


class TestConcurrentEvaluation:
    def test_shared_memo_is_race_free(self):
        from concurrent.futures import ThreadPoolExecutor

        tower = (make(1) + sf.RECIPROCAL_SUCC) * sf.HARMONIC
        reference = [F(1) + F(1, n + 1) for n in range(3000)]
        reference = [r * sf.HARMONIC.at(n) for n, r in enumerate(reference)]

        fresh = (make(1) + sf.RECIPROCAL_SUCC) * sf.HARMONIC
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: fresh.prefix(3000), range(8)))
        for run in results:
            assert run == reference
        assert tower.prefix(3000) == reference

    def test_lock_free_memos_under_thread_switching(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        value = lambda n: F(n * n + 1, n + 2)
        leaf = make(value)
        g, s, t = gcd_bezout(sf.Hyperinteger(lambda n: 6 * n + 4),
                             sf.Hyperinteger(lambda n: 4 * n + 10))

        def work(seed):
            rng = random.Random(seed)
            for _ in range(3000):
                n = rng.randrange(400)
                assert leaf.at(n) == value(n)
                assert g.at(n) == s.at(n) * (6 * n + 4) + t.at(n) * (4 * n + 10)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(work, seed) for seed in range(8)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert leaf._cache and all(v == value(n).as_integer_ratio()
                                   for n, v in leaf._cache.items())


def reference_compare(xs, ys, depth):
    """Plain list scan: the sign of xs - ys on the longest suffix of
    [0, depth], decided when it starts at most depth/2."""
    signs = [(x > y) - (x < y) for x, y in zip(xs, ys)]
    w = depth
    while w > 0 and signs[w - 1] == signs[depth]:
        w -= 1
    if 2 * w > depth:
        return sf.CompareResult(Verdict.UNDETERMINED, None)
    verdict = (Verdict.LESS, Verdict.EQUAL, Verdict.GREATER)[signs[depth] + 1]
    return sf.CompareResult(verdict, w)


# coefficients on both sides of the probe thresholds 1/64 and 64, and zero
_coefficients = st.sampled_from([F(0), F(1), F(-1), F(1, 64), F(-1, 65), F(64),
                                 F(65), F(3, 2), F(-7, 3), F(1, 4096)])


def _leaf(value):
    if isinstance(value, str):
        return make(value), {"omega": lambda n: F(n + 1),
                             "reciprocal_succ": lambda n: F(1, n + 1)}[value]
    return make(value), lambda n: value


def _pointwise(pair, fn):
    seq, plain = pair
    return fn(seq), lambda n: fn(plain(n))


def _binary(pairs, fn):
    (a, pa), (b, pb) = pairs
    return fn(a, b), lambda n: fn(pa(n), pb(n))


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        children.map(lambda p: _pointwise(p, operator.neg)),
        children.map(lambda p: _pointwise(p, abs)),
        children.map(lambda p: (p[0].tilde_inv(),
                                lambda n, f=p[1]: 1 / f(n) if f(n) else F(0))),
        pairs.map(lambda ps: _binary(ps, operator.mul)),
        pairs.map(lambda ps: _binary(ps, operator.add)),
        pairs.map(lambda ps: _binary(ps, operator.sub)))


# (sequence, plain generator) pairs over the monomial forms' building blocks
monomial_trees = st.recursive(
    st.one_of(_coefficients, st.sampled_from(["omega", "reciprocal_succ"])).map(_leaf),
    _extend, max_leaves=6)


class TestMonomialForms:
    """The closed-form fast paths against plain scans of the same values."""

    @settings(deadline=None, max_examples=300)
    @given(x=monomial_trees, y=monomial_trees, depth=st.integers(1, 160))
    def test_fast_paths_match_scans(self, x, y, depth):
        (a, pa), (b, pb) = x, y
        xs = [pa(n) for n in range(depth + 1)]
        ys = [pb(n) for n in range(depth + 1)]
        for seq, values in ((a, xs), (b, ys)):
            assert [seq.at(n) for n in range(depth + 1)] == values
            if seq.form is not None:
                c, e = seq.form
                assert values == [c * F(n + 1) ** e for n in range(depth + 1)]
        plain_a, plain_b = make(lambda n: xs[n]), make(lambda n: ys[n])
        assert compare(a, b, depth) == reference_compare(xs, ys, depth)
        assert classify(a, depth) is reference_classify(plain_a, depth)
        assert _outcome(arch_compare, a, b, depth) is \
            _outcome(reference_arch_compare, plain_a, plain_b, depth)

    def test_forms_propagate(self):
        omega, recip = sf.OMEGA, sf.RECIPROCAL_SUCC
        assert (make(3) * omega).form == (3, 1)
        assert (omega * recip).form == (1, 0)
        assert (omega * omega - make(F(1, 2)) * omega * omega).form == (F(1, 2), 2)
        assert (omega - omega).form == (0, 0)
        assert (omega + recip).form is None
        assert (omega + make(0) * recip).form == (1, 1)
        assert (-recip).form == (-1, -1)
        assert abs(make(-2) * recip).form == (2, -1)
        assert (make(4) * omega).tilde_inv().form == (F(1, 4), -1)
        assert (make(lambda n: F(n)) * omega).form is None

    def test_forms_keep_labels_and_constants(self):
        # a composite whose form is constant is not folded into a constant
        product = sf.OMEGA * sf.RECIPROCAL_SUCC
        assert product.label == "(omega * 1/(n+1))"
        assert product.const_value is None
        assert (product + 1).label == "((omega * 1/(n+1)) + 1)"
        assert (make(2) * make(F(1, 3)) - 1).label == "-1/3"
        assert make(F(2, 3)).form == (F(2, 3), 0)

    def test_equal_exponents_decide_without_a_scan(self):
        def unreadable(n):
            pytest.fail(f"value read at index {n}")

        a, b = make(3) * sf.OMEGA, make(2) * sf.OMEGA
        a.gen = b.gen = unreadable
        assert compare(a, b, 4096) == sf.CompareResult(Verdict.GREATER, 0)
        assert compare(b, a + 0, 7) == sf.CompareResult(Verdict.LESS, 0)


class TestMemos:
    def test_composites_hold_no_memo(self):
        a = make(lambda n: F(n, 3))
        b = make(lambda n: F(2 * n + 1))
        i = sf.Hyperinteger(lambda n: 5 * n + 7)
        j = sf.Hyperinteger(lambda n: 3 * n + 2)
        views = [a + b, a - b, a * b, -a, abs(a), a.tilde_inv(), make(F(3, 4)),
                 sf.OMEGA * 3, sf.RECIPROCAL_SUCC + sf.HARMONIC,
                 hyper_floor(a), *div_rem(i, j), *gcd_bezout(i, j),
                 sf.Hyperinteger.constant(4)]
        for view in views:
            view.at(40)
            view.prefix(5)
            assert view._cache == ()
            assert not hasattr(view, "_lock")
            assert len(view._cache) == 0

    def test_cold_leaf_read_calls_its_generator_once(self):
        calls = []
        a = make(lambda n: calls.append(n) or F(n, 7))
        assert a.at(4096) == F(4096, 7)
        assert a.at(4096) == F(4096, 7)
        assert calls == [4096]

    def test_scan_reads_only_the_half_window(self):
        calls = []
        a = make(lambda n: calls.append(n) or F(1, (n + 1) ** 2))
        assert classify(a * 2, depth=100) is ClassTag.INFINITESIMAL
        assert sorted(calls) == list(range(50, 101))

    def test_leaf_memoizes_the_reduced_pair_of_its_term(self):
        # the memo holds the term's reduced integer pair, and a hit returns
        # that very tuple; `at` normalises it to a Fraction
        a = make(lambda n: F(10, 6) if n == 3 else -2 * n)
        assert a.pair(3) == (5, 3) and a.pair(3) is a._cache[3]
        assert a.pair(4) == (-8, 1) and type(a.pair(4)[0]) is int
        assert sorted(a._cache.items()) == [(3, (5, 3)), (4, (-8, 1))]
        for n, value in ((3, F(5, 3)), (4, F(-8))):
            assert type(a.at(n)) is F and a.at(n) == value
        assert type(make(lambda n: n).at(3)) is F

    def test_integer_leaf_refuses_a_non_integer_term(self):
        a = sf.Hyperinteger(lambda n: n // 2 if n % 2 == 0 else F(n, 2))
        assert a.at(4) == 2
        with pytest.raises(TypeError, match="index 3"):
            a.at(3)

    def test_gcd_bezout_runs_xgcd_once_per_index(self, monkeypatch):
        calls = []
        xgcd = sf._xgcd
        monkeypatch.setattr(sf, "_xgcd", lambda x, y: calls.append((x, y)) or xgcd(x, y))
        g, s, t = gcd_bezout(sf.Hyperinteger(lambda n: 6 * n + 4),
                             sf.Hyperinteger(lambda n: 4 * n + 10))
        for i in range(30):
            assert g.at(i) == s.at(i) * (6 * i + 4) + t.at(i) * (4 * i + 10)
            assert g.at(i) == math.gcd(6 * i + 4, 4 * i + 10)
        assert len(calls) == 30


def _values_leaf(values):
    """A generator leaf cycling through ``values``, with its plain values."""
    plain = lambda n: values[n % len(values)]
    return make(plain), plain


def _integer_leaf(values):
    seq = sf.Hyperinteger(lambda n: values[n % len(values)])
    return seq, lambda n: F(values[n % len(values)])


# (sequence, plain generator) pairs over every kind of view: generator and
# integer leaves (often with zero terms), constants, omega and 1/(n+1)
view_trees = st.recursive(
    st.one_of(
        _coefficients.map(_leaf),
        st.sampled_from(["omega", "reciprocal_succ"]).map(_leaf),
        st.lists(st.one_of(_edge_values, _any_values), min_size=1,
                 max_size=5).map(_values_leaf),
        st.lists(st.integers(-70, 70), min_size=1, max_size=5).map(_integer_leaf)),
    _extend, max_leaves=6)


def _floor_node(child):
    seq, plain = child
    return hyper_floor(seq), lambda n: F(math.floor(plain(n)))


def _div_rem_node(child, divisors, remainder):
    # a nonzero divisor, so every index of the view is defined
    (seq, plain), d = child, sf.Hyperinteger(lambda n: divisors[n % len(divisors)])
    quotient, rest = div_rem(hyper_floor(seq), d)

    def reference(n):
        x, y = math.floor(plain(n)), divisors[n % len(divisors)]
        r = x % abs(y)
        return F(r) if remainder else F((x - r) // y)

    return (rest if remainder else quotient), reference


def _gcd_node(children, bezout):
    (a, pa), (d, pd) = children
    a, d = hyper_floor(a), hyper_floor(d)
    g, s, t = gcd_bezout(a, d)
    # s a + t d reads the Bezout views through + and *, and equals the gcd
    return (s * a + t * d if bezout else g,
            lambda n: F(math.gcd(math.floor(pa(n)), math.floor(pd(n)))))


_nonzero_divisors = st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=4)


def _extend_with_integer_views(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        _extend(children),
        children.map(_floor_node),
        st.builds(_div_rem_node, children, _nonzero_divisors, st.booleans()),
        st.builds(_gcd_node, pairs, st.booleans()))


_leaves = st.one_of(
    st.lists(st.one_of(_edge_values, _any_values), min_size=1, max_size=5).map(_values_leaf),
    st.lists(st.integers(-70, 70), min_size=1, max_size=5).map(_integer_leaf))

# view_trees' leaves and views, with floors, Euclidean quotients and
# remainders, and gcds and their Bezout witnesses
pair_trees = st.recursive(
    st.one_of(_coefficients.map(_leaf),
              st.sampled_from(["omega", "reciprocal_succ"]).map(_leaf), _leaves),
    _extend_with_integer_views, max_leaves=6)


class TestPairEvaluation:
    """The integer-pair evaluator against normalised values and the scans."""

    @settings(deadline=None, max_examples=300)
    @given(x=view_trees, y=view_trees, depth=st.integers(1, 40))
    def test_pairs_match_values_and_reference_scans(self, x, y, depth):
        (a, pa), (b, pb) = x, y
        xs = [pa(n) for n in range(depth + 1)]
        ys = [pb(n) for n in range(depth + 1)]
        for seq, values in ((a, xs), (b, ys)):
            for n, value in enumerate(values):
                p, q = seq.pair(n)
                assert type(p) is int and type(q) is int and q > 0
                assert F(p, q) == seq.at(n) == value
            floors = hyper_floor(seq)
            assert [floors.at(n) for n in range(depth + 1)] == [math.floor(v) for v in values]
        plain_a, plain_b = make(lambda n: xs[n]), make(lambda n: ys[n])
        assert compare(a, b, depth) == reference_compare(xs, ys, depth)
        assert classify(a, depth) is reference_classify(plain_a, depth)
        assert _outcome(arch_compare, a, b, depth) is \
            _outcome(reference_arch_compare, plain_a, plain_b, depth)

    @settings(deadline=None, max_examples=300)
    @given(tree=pair_trees, leaf=_leaves, data=st.data())
    def test_pair_evaluators_match_fraction_arithmetic(self, tree, leaf, data):
        # indices in random order, repeats included, so leaves both miss
        # and hit their memos
        indices = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=24))
        for seq, plain in (tree, leaf):
            for n in indices:
                want = plain(n)
                p, q = seq.pair(n)
                assert type(p) is int and type(q) is int and q > 0
                assert F(p, q) == want
                value = seq.at(n)
                assert type(value) is (int if isinstance(seq, sf.Hyperinteger) else F)
                assert value == want
        with pytest.raises(IndexError):
            leaf[0].pair(-1)

    def test_inverse_keeps_the_sign_in_the_numerator(self):
        a = make(lambda n: F(n - 2, 3)).tilde_inv()
        assert [a.pair(n) for n in range(4)] == [(-3, 2), (-3, 1), (0, 1), (3, 1)]

    def test_equal_denominators_are_not_multiplied(self):
        a = make(lambda n: F(1, 7)) + make(lambda n: F(3, 7))
        assert a.pair(0) == (4, 7)
        assert (a - make(F(4, 7))).pair(5) == (0, 7)

    def test_scans_read_no_normalised_view_values(self, monkeypatch):
        # views and leaves, memo misses included, are read through pair
        # only: `at` never runs
        calls, reads = [], []
        at = sf.Hyperreal.at
        monkeypatch.setattr(sf.Hyperreal, "at", lambda seq, n: calls.append(n) or at(seq, n))
        a = ((make(lambda n: reads.append(n) or F(n + 1, 3)) + sf.RECIPROCAL_SUCC)
             * make(lambda n: F(2, n + 5)))
        b = -abs(a.tilde_inv())
        compare(a, b, 64)
        classify(a, 64)
        arch_compare(a, b, 64)
        shadow(a * sf.RECIPROCAL_SUCC, F(1, 10), 64)
        assert reads and not calls

    @pytest.mark.parametrize("offset,witness", [(1000, 1001), (-1, 0)])
    def test_compare_reads_each_leaf_index_once(self, monkeypatch, offset, witness):
        # the scan reads [w - 1, depth] ([0, depth] when w = 0), each index
        # once per generator, through pair alone; a second compare of the
        # same pair reads only the memos
        reads_a, reads_b, calls = [], [], []
        at = sf.Hyperreal.at
        monkeypatch.setattr(sf.Hyperreal, "at", lambda seq, n: calls.append(n) or at(seq, n))
        a = make(lambda n: reads_a.append(n) or F(n - offset))
        b = make(lambda n: reads_b.append(n) or F(0))
        expected = list(range(max(witness - 1, 0), 4097))
        for _ in range(2):
            assert compare(a, b, 4096) == sf.CompareResult(Verdict.GREATER, witness)
            assert sorted(reads_a) == sorted(reads_b) == expected
        assert not calls

    def test_dropped_leaf_is_freed_without_the_cycle_collector(self):
        # a leaf (or a view) that referred to itself would keep its memo alive
        # until the cyclic garbage collector ran
        gc.disable()
        try:
            gen = lambda n: F(n + 1, 3)
            ref = weakref.ref(gen)
            leaf = make(gen)
            del gen
            views = [leaf + 1, leaf * sf.OMEGA, -leaf, abs(leaf), leaf.tilde_inv(),
                     leaf - sf.RECIPROCAL_SUCC, hyper_floor(leaf)]
            compare(views[0], views[1], 256)
            classify(views[3], 256)
            arch_compare(views[4], views[5], 256)
            assert [v.at(100) for v in views[:2]] == [F(104, 3), F(101 * 101, 3)]
            assert views[-1].at(7) == 2
            assert ref() is not None
            del leaf, views
            assert ref() is None
        finally:
            gc.enable()


class TestOracleEquivalenceBulk:
    def test_random_pairs_match_rational_arithmetic(self):
        rng = random.Random(20260810)
        for _ in range(2000):
            x = F(rng.randint(-999, 999), rng.randint(1, 999))
            y = F(rng.randint(-999, 999), rng.randint(1, 999))
            a, b = make(x), make(y)
            idx = rng.randrange(64)
            assert (a + b).at(idx) == x + y
            assert (a * b).at(idx) == x * y
            assert (a - b).at(idx) == x - y
