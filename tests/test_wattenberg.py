from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as own
from hyperline import extsum
from hyperline import seqfield as sf
from hyperline import wattenberg as wb
from hyperline.errors import ClassUndetermined, NotInfinitesimal, OutOfRange
from hyperline.seqfield import ClassTag, Verdict, classify, make
from hyperline.wattenberg import (DedekindNumber, Idempotent, IdemKind,
                                  ZERO_IDEM, ab_p, absorbs, dd_add, dd_cmp,
                                  dd_eq, dd_floor, dd_neg, dd_scalar_mul,
                                  delta_d, embed, eps_d, eps_part, from_idem,
                                  idem_add, idem_cmp, idem_eq, rel_holds, wst,
                                  zero_cut)

F = Fraction
DEPTH = own.DEPTH


class TestIdempotents:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Idempotent.b(make(-1))
        with pytest.raises(ValueError):
            Idempotent.a(make(0))

    def test_oscillating_scale_rejected(self):
        with pytest.raises(ValueError):
            Idempotent.b(make(lambda n: F((-1) ** n)))

    def test_order_chain(self):
        assert idem_cmp(ZERO_IDEM, wb.EPS_IDEM) is Verdict.LESS
        assert idem_cmp(wb.EPS_IDEM, wb.DELTA_IDEM) is Verdict.LESS
        assert idem_cmp(wb.DELTA_IDEM, ZERO_IDEM) is Verdict.GREATER

    def test_class_equality_of_scales(self):
        assert idem_eq(Idempotent.b(make(2)), wb.EPS_IDEM)
        assert not idem_eq(Idempotent.b(sf.OMEGA), wb.EPS_IDEM)

    def test_a_below_b_of_higher_class(self):
        # the finite sup sits below the omega-scaled infinitesimal sup
        assert idem_cmp(wb.DELTA_IDEM, Idempotent.b(sf.OMEGA)) is Verdict.LESS
        assert idem_cmp(Idempotent.a(sf.OMEGA), Idempotent.b(sf.OMEGA)) is Verdict.GREATER

    def test_add_is_class_max(self):
        assert idem_eq(idem_add(wb.EPS_IDEM, wb.EPS_IDEM), wb.EPS_IDEM)
        assert idem_eq(idem_add(wb.EPS_IDEM, wb.DELTA_IDEM), wb.DELTA_IDEM)
        got = idem_add(ZERO_IDEM, Idempotent.b(sf.RECIPROCAL_SUCC))
        assert got.kind is IdemKind.B

    def test_bigger_idempotent_eats_negated_smaller(self):
        # Delta_2 + (-Delta_1) = Delta_2 at the number level
        total = dd_add(from_idem(wb.DELTA_IDEM, 1), from_idem(wb.EPS_IDEM, -1))
        assert dd_eq(total, delta_d())


class TestEmbeddingAndNegation:
    def test_zero_and_one_cuts(self):
        assert embed(0).render() == "0#"
        assert embed(1).sign == 0

    def test_infinitesimal_distinct_until_absorbed(self):
        tiny = embed(sf.RECIPROCAL_SUCC)
        assert not dd_eq(tiny, embed(0))
        lowered = dd_add(tiny, from_idem(wb.EPS_IDEM, -1))
        assert dd_eq(lowered, dd_add(embed(0), from_idem(wb.EPS_IDEM, -1)))

    def test_neg_swaps_orientation(self):
        x = dd_add(embed(F(5, 2)), eps_d())
        negated = dd_neg(x)
        assert negated.sign == -1
        assert negated.h.at(3) == F(-5, 2)

    @given(own.canonical_forms())
    @settings(max_examples=120, deadline=None)
    def test_double_negation_structural(self, x):
        back = dd_neg(dd_neg(x))
        assert back.sign == x.sign
        assert back.h.at(7) == x.h.at(7)
        assert idem_eq(back.delta, x.delta, DEPTH)


class TestAddition:
    def test_type1_pair(self):
        a = dd_add(embed(2), eps_d())
        b = dd_add(embed(3), eps_d())
        total = dd_add(a, b)
        assert dd_eq(total, dd_add(embed(5), eps_d()))
        assert total.sign == 1

    def test_mixed_orientations_fall_down(self):
        a = dd_add(embed(2), eps_d())
        b = dd_add(embed(3), dd_neg(eps_d()))
        total = dd_add(a, b)
        assert total.sign == -1
        assert dd_eq(total, dd_add(embed(5), dd_neg(eps_d())))

    def test_eps_plus_minus_eps(self):
        total = dd_add(eps_d(), dd_neg(eps_d()))
        assert total.sign == -1
        assert dd_eq(total, dd_neg(eps_d()))

    def test_zero_cut_identity(self):
        x = dd_add(embed(F(7, 3)), dd_neg(eps_d()))
        assert dd_eq(dd_add(x, zero_cut()), x)

    def test_absorption_law_form(self):
        x = dd_add(embed(F(9, 4)), eps_d())
        cancel = dd_add(x, dd_neg(x))
        assert cancel.sign == -1
        assert dd_eq(cancel, from_idem(ab_p(x), -1))

    @given(own.canonical_forms(), own.canonical_forms())
    @settings(max_examples=120, deadline=None)
    def test_commutativity(self, x, y):
        assert dd_eq(dd_add(x, y, DEPTH), dd_add(y, x, DEPTH), DEPTH)

    @given(own.canonical_forms(), own.canonical_forms(), own.canonical_forms())
    @settings(max_examples=120, deadline=None)
    def test_associativity(self, x, y, z):
        left = dd_add(dd_add(x, y, DEPTH), z, DEPTH)
        right = dd_add(x, dd_add(y, z, DEPTH), DEPTH)
        assert dd_eq(left, right, DEPTH)
        # the structural parts agree too, not just the order-equivalence
        assert left.sign == right.sign
        assert idem_eq(left.delta, right.delta, DEPTH)


class TestScalarMultiplication:
    def test_constant_scaling_stays_in_class(self):
        x = dd_add(embed(F(3, 2)), eps_d())
        scaled = dd_scalar_mul(2, x)
        assert dd_eq(scaled, dd_add(embed(3), eps_d()))

    def test_omega_times_eps_is_scaled_idempotent(self):
        scaled = dd_scalar_mul(sf.OMEGA, eps_d())
        assert scaled.delta.kind is IdemKind.B
        assert sf.arch_compare(scaled.delta.scale, sf.OMEGA) is sf.ArchClass.SAME
        assert not idem_eq(scaled.delta, wb.EPS_IDEM)

    def test_negative_scalar_flips(self):
        x = dd_add(embed(2), eps_d())
        scaled = dd_scalar_mul(-3, x)
        assert scaled.sign == -1
        assert scaled.h.at(0) == -6

    def test_oscillating_scalar_rejected(self):
        from hyperline.errors import SignUndetermined
        with pytest.raises(SignUndetermined):
            dd_scalar_mul(make(lambda n: F((-1) ** n)), eps_d())

    @given(st.fractions(min_value=F(1, 16), max_value=16, max_denominator=16),
           own.canonical_forms(), own.canonical_forms())
    @settings(max_examples=100, deadline=None)
    def test_distributivity_positive_scalar(self, b, x, y):
        left = dd_scalar_mul(b, dd_add(x, y, DEPTH), DEPTH)
        right = dd_add(dd_scalar_mul(b, x, DEPTH),
                       dd_scalar_mul(b, y, DEPTH), DEPTH)
        assert dd_eq(left, right, DEPTH)


class TestAbsorption:
    def test_eps_absorbs_infinitesimals(self):
        assert absorbs(eps_d(), embed(sf.RECIPROCAL_SUCC))

    def test_delta_absorbs_reals(self):
        assert absorbs(delta_d(), embed(17))
        assert absorbs(delta_d(), embed(F(-3, 2)))

    def test_eps_does_not_absorb_one(self):
        x = dd_add(embed(F(5, 4)), eps_d())
        assert not absorbs(x, embed(1))

    def test_sign_irrelevant(self):
        assert absorbs(eps_d(), dd_neg(embed(sf.RECIPROCAL_SUCC)))

    def test_ab_p_examples(self):
        assert ab_p(embed(F(2, 3))).is_zero
        assert idem_eq(ab_p(eps_d()), wb.EPS_IDEM)
        lowered = dd_add(embed(4), dd_neg(eps_d()))
        assert idem_eq(ab_p(lowered), wb.EPS_IDEM)

    def test_ab_p_negation_invariant(self):
        x = dd_add(embed(F(1, 2)), eps_d())
        assert idem_eq(ab_p(dd_neg(x)), ab_p(x))


class TestStandardPart:
    def test_constant_with_eps(self):
        x = dd_add(embed(F(2, 3)), eps_d())
        interval = wst(x, F(1, 10 ** 6))
        assert interval.contains(F(2, 3))

    def test_convergent_h_part(self):
        h = make(1) + sf.RECIPROCAL_SUCC
        x = DedekindNumber(h, -1, wb.EPS_IDEM)
        interval = wst(x, F(1, 100), depth=4096)
        assert interval.contains(1)

    def test_additivity_containment(self):
        tol = F(1, 10 ** 6)
        a = dd_add(embed(F(1, 3)), eps_d())
        b = dd_add(embed(F(1, 6)), eps_d())
        total_interval = wst(dd_add(a, b), tol)
        summed = wst(a, tol) + wst(b, tol)
        assert summed.lo <= total_interval.lo and total_interval.hi <= summed.hi

    def test_unlimited_rejected(self):
        with pytest.raises(OutOfRange):
            wst(dd_add(embed(sf.OMEGA), eps_d()), F(1, 10))

    def test_unlimited_constant_rejected(self):
        with pytest.raises(OutOfRange):
            wst(dd_add(embed(100), eps_d()), F(1, 10))

    def test_monotone(self):
        tol = F(1, 10 ** 6)
        a = dd_add(embed(F(1, 3)), eps_d())
        b = embed(F(1, 3))
        assert dd_cmp(b, a).verdict is Verdict.LESS
        assert wst(b, tol).lo <= wst(a, tol).hi + tol
        c = embed(F(2, 5))
        assert dd_cmp(a, c).verdict is Verdict.LESS
        assert wst(a, tol).lo <= wst(c, tol).hi + tol


class TestOrder:
    def test_orientation_chain(self):
        h = embed(F(7, 5))
        up = dd_add(h, eps_d())
        down = dd_add(h, dd_neg(eps_d()))
        assert dd_cmp(down, h).verdict is Verdict.LESS
        assert dd_cmp(h, up).verdict is Verdict.LESS

    def test_h_parts_dominate(self):
        assert dd_cmp(dd_add(embed(1), eps_d()), embed(2)).verdict is Verdict.LESS

    def test_eps_below_delta(self):
        assert dd_cmp(eps_d(), delta_d()).verdict is Verdict.LESS

    def test_undetermined_propagates(self):
        wobble = make(lambda n: F(2) + F((-1) ** n))
        x = embed(wobble)
        assert dd_cmp(x, embed(2)).verdict is Verdict.UNDETERMINED

    @settings(deadline=None)
    @given(data=st.data())
    def test_half_window_matches_the_eager_scan(self, data):
        depth = data.draw(st.integers(1, 40))
        x, y = data.draw(scanned_pairs(depth))
        got = dd_cmp(x, y, depth)
        assert got.verdict is eager_dd_cmp(x, y, depth).verdict
        dverdict = idem_cmp(x.delta, y.delta, depth)
        larger = y.delta if dverdict is Verdict.LESS else x.delta
        if got.witness_index is None or wb._absorbed_by(x.h - y.h, larger, depth):
            return
        w, sign = got.witness_index, sf._BY_SIGN.index(got.verdict) - 1
        assert 2 * w <= depth
        assert all(sf._sign(x.h.at(n) - y.h.at(n)) == sign for n in range(w, depth + 1))


def eager_dd_cmp(x, y, depth):
    """``dd_cmp`` with every sign scan run down to index 0, as public
    ``compare`` runs it: the reference the half-window scans must agree with."""
    scan = sf._compare
    with mock.patch.object(sf, "_compare", lambda a, b, d, floor: scan(a, b, d, 0)):
        return dd_cmp(x, y, depth)


@st.composite
def scanned_pairs(draw, depth):
    """Two canonical forms whose hyperreal parts are leaves with no monomial
    form, their gap's sign settling at a drawn index, so a scan decides it."""
    xs = draw(st.lists(own.small_rationals, min_size=depth + 1, max_size=depth + 1))
    gaps = draw(st.lists(st.integers(-3, 3), min_size=depth + 1, max_size=depth + 1))
    settle, sign = draw(st.integers(0, depth + 1)), draw(st.integers(-1, 1))
    gaps[settle:] = [sign * (abs(g) or 1) for g in gaps[settle:]]
    # a pure cut half the time: no idempotent absorbs the gap
    fx, fy = (draw(st.one_of(st.just(zero_cut()), own.canonical_forms())) for _ in "xy")
    return (DedekindNumber(make(lambda n: xs[n]), fx.sign, fx.delta),
            DedekindNumber(make(lambda n: xs[n] - gaps[n]), fy.sign, fy.delta))


class TestEpsParts:
    def test_basic_form(self):
        x = dd_add(embed(F(3, 2)), eps_d())
        form = eps_part(x, sf.RECIPROCAL_SUCC)
        assert form.nonneg_restricted
        assert form.base.sign == 1
        assert form.base.delta.kind is IdemKind.B
        assert classify(form.base.delta.scale) is ClassTag.INFINITESIMAL

    def test_negative_orientation_subtracts(self):
        x = dd_add(embed(F(3, 2)), dd_neg(eps_d()))
        form = eps_part(x, sf.RECIPROCAL_SUCC)
        assert form.base.sign == -1
        assert "-" in form.render()

    def test_scalar_action_matches(self):
        eps = sf.RECIPROCAL_SUCC
        x = dd_add(embed(F(3, 2)), eps_d())
        left = eps_part(x, eps).scaled(4)
        right = eps_part(dd_scalar_mul(4, x), eps)
        assert dd_eq(left.base, right.base)
        assert idem_eq(left.base.delta, right.base.delta)

    def test_rejects_pure_cut(self):
        with pytest.raises(NotInfinitesimal):
            eps_part(embed(1), sf.RECIPROCAL_SUCC)

    def test_rejects_appreciable_eps(self):
        with pytest.raises(NotInfinitesimal):
            eps_part(eps_d(), make(F(1, 2)))


class TestRelations:
    def test_r_maximum_element(self):
        x = dd_add(embed(F(1, 2)), eps_d())
        shifted = dd_add(x, from_idem(wb.DELTA_IDEM, 1))
        assert rel_holds("R", x, shifted, wb.DELTA_IDEM)

    def test_s_minimum_element(self):
        x = dd_add(embed(F(1, 2)), eps_d())
        lowered = dd_add(x, from_idem(wb.DELTA_IDEM, -1))
        assert rel_holds("S", x, lowered, wb.DELTA_IDEM)

    def test_t_strictly_finer_than_r(self):
        x = zero_cut()
        y = from_idem(wb.DELTA_IDEM, 1)
        assert rel_holds("R", x, y, wb.DELTA_IDEM)
        assert not rel_holds("T", x, y, wb.DELTA_IDEM)

    def test_s_strictly_coarser_than_r(self):
        x = from_idem(wb.DELTA_IDEM, -1)
        y = from_idem(wb.DELTA_IDEM, 1)
        assert rel_holds("S", x, y, wb.DELTA_IDEM)
        assert not rel_holds("R", x, y, wb.DELTA_IDEM)

    def test_t_between_pure_cuts(self):
        assert rel_holds("T", embed(0), embed(sf.RECIPROCAL_SUCC), wb.EPS_IDEM)
        assert not rel_holds("T", embed(0), embed(1), wb.EPS_IDEM)

    @given(own.canonical_forms(), own.canonical_forms(),
           own.idempotents(allow_zero=False))
    @settings(max_examples=150, deadline=None)
    def test_t_implies_r_implies_s(self, x, y, delta):
        try:
            t = rel_holds("T", x, y, delta, DEPTH)
            r = rel_holds("R", x, y, delta, DEPTH)
            s = rel_holds("S", x, y, delta, DEPTH)
        except ClassUndetermined:
            return
        if t:
            assert r
        if r:
            assert s


class TestFloor:
    def test_rational_with_eps(self):
        x = dd_add(embed(F(7, 2)), eps_d())
        assert dd_eq(dd_floor(x), embed(3))

    def test_hyperinteger_fixed(self):
        assert dd_eq(dd_floor(embed(sf.OMEGA)), embed(sf.OMEGA))

    def test_omega_plus_eps(self):
        x = dd_add(embed(sf.OMEGA), eps_d())
        assert dd_eq(dd_floor(x), embed(sf.OMEGA))


class TestNoAdditiveInverseForDelta:
    def test_delta_d_has_no_inverse_among_canonical_forms(self):
        target = zero_cut()
        candidates = [
            dd_neg(delta_d()),
            dd_add(embed(-1), dd_neg(delta_d())),
            dd_add(embed(0), dd_neg(eps_d())),
            embed(0),
            embed(-1),
        ]
        for y in candidates:
            assert not dd_eq(dd_add(delta_d(), y), target)


def _unabsorbed_pair(leaf):
    """Two pure cuts 1 + 1/(n+1) apart: the gap is appreciable, so eps_d
    absorbs none of it and a sign scan decides their order."""
    return embed(leaf(lambda n: F(n + 2, n + 1))), embed(leaf(lambda n: F(0)))


def _b_one(depth):
    """0# + B(1), its scale's positivity checked at ``depth``."""
    return DedekindNumber(sf.ZERO, 1, Idempotent.b(sf.ONE, depth))


HALF_WINDOW_CALLERS = {
    "dd_cmp": lambda leaf, d: dd_cmp(*_unabsorbed_pair(leaf), d),
    "dd_le": lambda leaf, d: wb.dd_le(*_unabsorbed_pair(leaf), d),
    "rel_R": lambda leaf, d: rel_holds("R", *_unabsorbed_pair(leaf), wb.EPS_IDEM, d),
    "rel_S": lambda leaf, d: rel_holds("S", *_unabsorbed_pair(leaf), wb.EPS_IDEM, d),
    "dd_scalar_mul": lambda leaf, d: dd_scalar_mul(leaf(lambda n: F(n + 1, 2)), _b_one(d), d),
    "eps_part": lambda leaf, d: eps_part(_b_one(d), leaf(lambda n: F(1, n + 1)), d),
    # eps_d's idempotent was checked at 4096: its rescaled scale is checked
    # at the operation's depth, and reads [2048, 4096] no more
    "dd_scalar_mul eps_d": lambda leaf, d: dd_scalar_mul(leaf(lambda n: F(n + 1, 2)),
                                                         eps_d(), d),
    "eps_part eps_d": lambda leaf, d: eps_part(eps_d(), leaf(lambda n: F(1, n + 1)), d),
    "Idempotent.b": lambda leaf, d: Idempotent.b(leaf(lambda n: F(n + 1)), d),
    "upper_lower_limit": lambda leaf, d: extsum.upper_lower_limit(
        leaf(lambda n: F(min(n, 5))), depth=d),
    # a divergent flat sum has no idempotent to rescale at another depth
    "scalar_mul_flat": lambda leaf, d: extsum.scalar_mul_flat(
        leaf(lambda n: F(n + 2, n + 1)), extsum.geom(2), d),
}


class TestHalfWindowReads:
    """Every caller that reads only a verdict evaluates each leaf on
    ``[depth//2, depth]`` alone, each index once; public ``compare`` still
    reads ``[0, depth]`` for its least witness."""

    DEPTH = 1024

    @pytest.mark.parametrize("caller", HALF_WINDOW_CALLERS)
    def test_verdict_only_callers_read_the_half_window(self, caller):
        reads = []

        def leaf(value):
            mine = []
            reads.append(mine)
            return make(lambda n: mine.append(n) or value(n))

        HALF_WINDOW_CALLERS[caller](leaf, self.DEPTH)
        assert reads and all(sorted(r) == list(range(512, 1025)) for r in reads)

    def test_public_compare_reads_the_whole_window(self):
        reads = []
        a = make(lambda n: reads.append(n) or F(n + 1))
        assert sf.compare(a, 0, self.DEPTH) == sf.CompareResult(Verdict.GREATER, 0)
        assert sorted(reads) == list(range(1025))
