import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import ceil, floor, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperline import extsum as es
from hyperline import goldbach as gb
from hyperline import seqfield as sf
from hyperline import wattenberg as wb
from hyperline.errors import ConvergenceUnknown, InvalidPermutation
from hyperline.extsum import (BoundedPermutation, SeriesSpec, alternating,
                              flat_sum, geom, harmonic_series, parse_series,
                              partial_sums, pser, rearranged,
                              rearranged_flat_sum, scalar_mul_flat,
                              split_parts, upper_lower_limit, upper_lower_sum)
from hyperline.errors import NotConvergentAtDepth, UnlimitedValue
from hyperline.intervals import Interval, grid_bits
from hyperline.seqfield import ClassTag, Verdict, classify, make, shadow
from hyperline.wattenberg import (dd_add, dd_eq, dd_neg, dd_scalar_mul, embed,
                                  eps_d, idem_eq, wst)

F = Fraction

ONES = SeriesSpec(lambda n: F(1), "nonneg", None, "ones")
PLUS_MINUS = SeriesSpec(lambda n: F(1) if n % 2 == 0 else F(-1), "split",
                        None, "alternating-unit")


def alternating_geometric():
    """Terms (-1/2)^n from n = 0; converges to 2/3."""
    return SeriesSpec(lambda n: F(-1, 2) ** n, "split",
                      lambda k: F(1, 2) ** k, "alt-geom")


class TestPartialSums:
    def test_all_ones_is_omega(self):
        assert partial_sums(ONES).prefix(5) == [1, 2, 3, 4, 5]

    def test_harmonic_terms_give_harmonic_numbers(self):
        sums = partial_sums(harmonic_series())
        assert sums.prefix(3) == sf.HARMONIC.prefix(3)

    def test_split_halves_cancel_exactly(self):
        plus, minus = split_parts(PLUS_MINUS)
        total = partial_sums(plus) + partial_sums(minus)
        assert total.prefix(12) == [0] * 12

    def test_split_reindexes_compactly(self):
        plus, minus = split_parts(PLUS_MINUS)
        assert partial_sums(plus).prefix(4) == [1, 2, 3, 4]
        assert partial_sums(minus).prefix(4) == [-1, -2, -3, -4]

    def test_split_reads_each_term_once(self):
        # the cursor files each value with its sign; the halves reuse it
        reads = {}

        def term(n):
            reads[n] = reads.get(n, 0) + 1
            return F(-1, 2) ** n

        plus, minus = split_parts(SeriesSpec(term, "split", None, "counted"))
        assert [plus.term_at(j) for j in range(5)] == [F(1, 4) ** j for j in range(5)]
        assert [minus.term_at(j) for j in range(5)] == \
            [-F(1, 2) * F(1, 4) ** j for j in range(5)]
        assert reads == {n: 1 for n in range(10)}


    def test_raising_term_leaves_the_tables_unchanged(self):
        # a negative term in a nonnegative series raises at index 5
        spec = SeriesSpec(lambda n: F(1, 2) if n < 5 else F(-1), "nonneg",
                          None, "turns")
        sums = partial_sums(spec)
        for read in (lambda n: sums.at(n), lambda n: sums.bracket(n, 3)):
            read(2)
            for _ in range(2):
                with pytest.raises(ValueError, match="negative term at index 5"):
                    read(9)
        assert sums.prefix(5) == [F(n + 1, 2) for n in range(5)]
        assert [sums.bracket(n, 3) for n in range(5)] == \
            [(4 * (n + 1), 5 * (n + 1), n) for n in range(5)]


class TestFlatSum:
    def test_geometric_half(self):
        result = flat_sum(geom(F(1, 2)))
        assert result.value.sign == -1
        assert idem_eq(result.value.delta, wb.EPS_IDEM)
        assert dd_eq(result.value, dd_add(embed(1), dd_neg(eps_d())))
        assert result.eta_interval.contains(1)

    def test_nonpos_mirrors(self):
        spec = SeriesSpec(lambda n: -F(1, 2) ** (n + 1), "nonpos",
                          lambda k: F(1, 2) ** (k + 1), "neg-geom")
        result = flat_sum(spec)
        assert result.value.sign == 1
        assert dd_eq(result.value, dd_add(embed(-1), eps_d()))
        assert result.eta_interval.contains(-1)

    def test_split_sum_form(self):
        result = flat_sum(alternating_geometric())
        assert result.value.sign == -1
        assert dd_eq(result.value, dd_add(embed(F(2, 3)), dd_neg(eps_d())))
        assert result.eta_interval.contains(F(2, 3))

    @pytest.mark.parametrize("spec", [
        geom(F(1, 3)), pser(2), pser(120),
        SeriesSpec(lambda n: F(1, 3) if n == 0 else F(0), "nonneg",
                   lambda k: F(0), "one-term")], ids=lambda spec: spec.label)
    def test_eta_interval_on_dyadic_grid(self, spec):
        for eta_terms in (1, 7, 128):
            partial = sum((spec.term_at(n) for n in range(eta_terms)), F(0))
            slack = spec.tail_bound(eta_terms - 1)
            eta = flat_sum(spec, eta_terms=eta_terms).eta_interval
            assert eta.lo <= partial - slack and partial + slack <= eta.hi
            assert eta.width <= 4 * slack
            if slack == 0:
                assert eta.lo == eta.hi == partial
            else:
                for end in (eta.lo, eta.hi):
                    assert end.denominator & (end.denominator - 1) == 0
                    assert end.denominator < 2 / slack

    @pytest.mark.parametrize("spec", [pser(2), geom(F(1, 2))], ids=lambda spec: spec.label)
    @pytest.mark.parametrize("eta_terms", [0, -6])
    def test_refuses_eta_terms_below_one(self, spec, eta_terms):
        with pytest.raises(ValueError, match="eta_terms must be >= 1"):
            flat_sum(spec, eta_terms=eta_terms)

    def test_tail_bound_checked_on_whole_prefix(self):
        # nonincreasing at 63 and 127, rising at 10
        bound = lambda k: F(1) if k == 10 else F(1, 2 ** k)
        spec = SeriesSpec(lambda n: F(1, 2 ** (n + 1)), "nonneg", bound, "bumpy")
        with pytest.raises(ValueError, match="not nonincreasing"):
            flat_sum(spec)

    def test_refuses_a_negative_tail_bound(self):
        # it used to end in "empty interval [7/4, 0]"
        spec = SeriesSpec(lambda n: F(1, 2 ** (n + 1)), "nonneg", lambda k: F(-1),
                          "below-zero")
        with pytest.raises(ValueError, match="^below-zero: tail bound is negative$"):
            flat_sum(spec)

    def test_refuses_a_float_term(self):
        # 0.5 ** (n + 1) is exact in binary, but a float is refused all the same
        spec = SeriesSpec(lambda n: 0.5 ** (n + 1), "nonneg",
                          lambda k: F(1, 2 ** (k + 1)), "halves")
        with pytest.raises(TypeError, match="^halves: term 0.5 at index 0 is a float"):
            spec.term_at(0)
        with pytest.raises(TypeError, match="halves: term"):
            flat_sum(spec)
        assert SeriesSpec(lambda n: n, "nonneg").term_at(3) == 3

    def test_eta_interval_refuses_a_float_tail_bound(self):
        bound = lambda k: F(1, 2 ** (k + 1)) if k < 5 else 0.5 ** (k + 1)
        spec = SeriesSpec(lambda n: F(1, 2 ** (n + 1)), "nonneg", bound, "halves")
        with pytest.raises(TypeError, match="^halves: tail bound .* at index 5 is a float"):
            flat_sum(spec)

    def test_partial_sums_refuse_a_float_tail_bound(self):
        # the freeze check reads the bound at 1, 2, 4, ...: scale 2 freezes
        # at 2, before the float, and scale 20 reaches it
        bound = lambda k: F(1, 2 ** (k + 1)) if k < 4 else 0.5 ** (k + 1)
        sums = partial_sums(SeriesSpec(lambda n: F(1, 2 ** (n + 1)), "nonneg", bound,
                                       "halves"))
        assert sums.bracket(6, 2) == (3, 7, 3)
        with pytest.raises(TypeError, match="tail bound .* at index 4 is a float"):
            sums.bracket(6, 20)

    def test_split_parts_refuse_a_float_tail_bound(self):
        # a zero term reads the bound, to see whether every later term is 0
        spec = SeriesSpec(lambda n: F(0) if n == 2 else F(-1, 2) ** n, "split",
                          lambda k: 0.0 if k == 2 else F(1, 2 ** k), "gap")
        plus, minus = split_parts(spec)
        assert plus.term_at(0) == 1
        with pytest.raises(TypeError, match="^gap: tail bound 0.0 at index 2 is a float"):
            plus.term_at(2)

    def test_divergent_keeps_exact_embed(self):
        result = flat_sum(ONES)
        assert result.divergent
        assert result.eta_interval is None
        assert result.value.sign == 0
        assert result.value.h.at(4) == 5

    def test_harmonic_needs_bigger_budget(self):
        with pytest.raises(ConvergenceUnknown):
            flat_sum(harmonic_series())
        deep = flat_sum(harmonic_series(), depth=2 ** 14,
                        divergence_probe=10)
        assert deep.divergent

    def test_shadow_consistency(self):
        for spec, limit in ((geom(F(1, 2)), 1), (pser(2), None),
                            (alternating_geometric(), F(2, 3))):
            result = flat_sum(spec)
            interval = wst(result.value, F(1, 50))
            direct = sum((spec.term_at(n) for n in range(400)), F(0))
            assert interval.contains(direct) or \
                abs(direct - interval.mid) <= F(1, 25)
            if limit is not None:
                assert result.eta_interval.contains(limit)


def linear_probe(spec, depth, probe):
    """The per-index exact probe: every exact partial sum from index 0 on,
    up to the first that reaches the probe."""
    sums = partial_sums(spec)
    for n in range(depth + 1):
        value = sums.at(n)
        if (spec.pattern == "nonneg" and value >= probe) or \
                (spec.pattern == "nonpos" and value <= -probe):
            return True
    return False


def _probe_verdict(spec, depth, probe):
    try:
        return flat_sum(spec, depth, divergence_probe=probe).divergent
    except ConvergenceUnknown:
        return False


@st.composite
def _uncertified_one_signed(draw):
    """A one-signed series without a certificate: cyclic coefficients, zero
    ones included, times r^n, from rational terms or from pairs."""
    pattern = draw(st.sampled_from(["nonneg", "nonpos"]))
    sign = -1 if pattern == "nonpos" else 1
    coeffs = draw(st.lists(st.sampled_from([0, 1, 2, F(1, 3), F(2, 7), F(1, 64), F(5, 2)]),
                           min_size=1, max_size=7))
    r = draw(st.sampled_from([F(1), F(1), F(3, 2), F(1, 2), F(9, 10), F(21, 20)]))

    def term(n):
        return sign * coeffs[n % len(coeffs)] * r ** n

    if draw(st.booleans()):
        return SeriesSpec(term, pattern, None, "drawn")
    return SeriesSpec.from_pairs(lambda n: term(n).as_integer_ratio(), pattern, None, "drawn")


class TestDivergenceProbe:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_uncertified_one_signed(), st.integers(0, 300), st.data())
    def test_matches_the_per_index_exact_probe(self, spec, depth, data):
        # a probe at the sum at a drawn index puts the first witness anywhere,
        # exact hits included
        j = data.draw(st.integers(0, depth + 20), label="j")
        probe = data.draw(st.sampled_from([1, 40, max(1, ceil(abs(partial_sums(spec).at(j))))]),
                          label="probe")
        assert _probe_verdict(spec, depth, probe) == linear_probe(spec, depth, probe)

    @pytest.mark.parametrize("spec,hit", [
        (geom(1), 63),
        (SeriesSpec(lambda n: F(1, 3), "nonneg", None, "thirds"), 191),
        (SeriesSpec(lambda n: F(-1, 3), "nonpos", None, "-thirds"), 191),
    ], ids=lambda v: v.label if isinstance(v, SeriesSpec) else str(v))
    def test_exact_hit(self, spec, hit):
        # the partial sum at `hit` is exactly 64 in absolute value
        assert abs(partial_sums(spec).at(hit)) == 64
        assert flat_sum(spec, hit).divergent
        assert linear_probe(spec, hit, 64)
        with pytest.raises(ConvergenceUnknown, match=f"probe 64, depth {hit - 1}"):
            flat_sum(spec, hit - 1)
        assert not linear_probe(spec, hit - 1, 64)

    @pytest.mark.parametrize("depth,reads", [(190, 0), (191, 192)])
    def test_exact_sums_only_where_a_bracket_straddles(self, monkeypatch, depth, reads):
        # at scale 9 the thirds' bracket at 191 is (32640, 32832), around
        # 64 * 2^9 = 32768, and at 190 below it
        counted = []
        term_at = SeriesSpec.term_at
        monkeypatch.setattr(SeriesSpec, "term_at",
                            lambda spec, n: counted.append(n) or term_at(spec, n))
        assert _probe_verdict(SeriesSpec(lambda n: F(1, 3), "nonneg", None, "thirds"),
                              depth, 64) is (depth == 191)
        assert len(counted) == reads

    def test_harmonic_at_the_cap_builds_no_exact_sum(self, monkeypatch):
        # it read and kept all 50001 exact sums, about 0.5 GB
        monkeypatch.setattr(SeriesSpec, "term_at", None)
        with pytest.raises(ConvergenceUnknown, match="depth 50000"):
            flat_sum(harmonic_series(), 50000)

    def test_divergent_series_stops_at_an_early_witness(self):
        # geom(3/2) crosses 64 by index 7: the doubling floors 8 terms
        reads = []
        spec = geom(F(3, 2))
        pair = spec.pair
        spec.pair = lambda n: reads.append(n) or pair(n)
        assert flat_sum(spec, 4096).divergent
        assert max(reads) == 7


class TestUpperLowerSums:
    def test_geometric(self):
        upper, lower = upper_lower_sum(geom(F(1, 2)))
        assert dd_eq(upper, dd_add(embed(1), eps_d()))
        assert dd_eq(lower, dd_add(embed(1), dd_neg(eps_d())))

    def test_alternating_geometric(self):
        upper, lower = upper_lower_sum(alternating_geometric())
        assert dd_eq(upper, dd_add(embed(F(2, 3)), eps_d()))
        assert dd_eq(lower, dd_add(embed(F(2, 3)), dd_neg(eps_d())))

    def test_scalar_law(self):
        upper, _ = upper_lower_sum(geom(F(1, 2)))
        scaled = dd_scalar_mul(2, upper)
        assert dd_eq(scaled, dd_add(embed(2), eps_d()))

    def test_requires_certificate(self):
        with pytest.raises(ConvergenceUnknown):
            upper_lower_sum(ONES)

    def test_partials_bounded_by_upper(self):
        # Every finite partial cut of a nondecreasing series sits below the
        # upper sum; the lower sum majorizes them all as well (it is the sup
        # of the whole tail minus only an infinitesimal), so the two-sided
        # "lower <= partial" ordering cannot hold and is not asserted.
        spec = geom(F(1, 2))
        upper, lower = upper_lower_sum(spec)
        assert wb.dd_cmp(lower, upper).verdict is Verdict.LESS
        sums = partial_sums(spec)
        for depth in (1, 2, 3):  # gaps 2^-(d+1) stay above the probe floor
            mid = embed(make(sums.at(depth)))
            assert wb.dd_cmp(mid, upper).verdict is Verdict.LESS
            assert wb.dd_cmp(mid, lower).verdict is Verdict.LESS
        # beyond the probe floor the real gap 2^-201 needs a larger budget
        deep = embed(make(sums.at(200)))
        assert wb.dd_cmp(deep, lower).verdict is Verdict.GREATER
        assert wb.dd_cmp(deep, lower, probes=2 ** 210).verdict is Verdict.LESS


class TestUpperLowerLimits:
    def test_vanishing_sequence(self):
        upper, lower = upper_lower_limit(sf.RECIPROCAL_SUCC,
                                         tail_bound=lambda k: F(1, k + 1))
        assert dd_eq(upper, eps_d())
        assert dd_eq(lower, dd_neg(eps_d()))

    def test_eventually_constant_is_exact(self):
        a = make(lambda n: F(7) if n > 3 else F(n))
        upper, lower = upper_lower_limit(a)
        assert upper.sign == 0 and lower.sign == 0
        assert dd_eq(upper, embed(7))

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            upper_lower_limit(make(F(7)), depth=0)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            upper_lower_limit(make(F(7)), depth=-2)

    def test_oscillation_unknown(self):
        with pytest.raises(ConvergenceUnknown):
            upper_lower_limit(make(lambda n: F((-1) ** n)))

    def test_bogus_certificate_rejected(self):
        with pytest.raises(ValueError):
            upper_lower_limit(make(lambda n: F(n % 7)),
                              tail_bound=lambda k: F(1, k + 1))

    def test_float_certificate_rejected(self):
        with pytest.raises(TypeError, match="tail bound 1.0 at index 0 is a float"):
            upper_lower_limit(sf.RECIPROCAL_SUCC, tail_bound=lambda k: 1 / (k + 1), depth=64)


def _block_permutation(block: int, seed: int) -> BoundedPermutation:
    cache = {}

    def mapping(i):
        b = i // block
        if b not in cache:
            perm = list(range(block))
            random.Random(seed * 1000003 + b).shuffle(perm)
            cache[b] = perm
        return b * block + cache[b][i % block]

    return BoundedPermutation(mapping, block)


class TestRearrangement:
    def test_identity(self):
        perm = BoundedPermutation(lambda i: i, 0)
        result = rearranged_flat_sum(geom(F(1, 2)), perm)
        assert dd_eq(result.value, flat_sum(geom(F(1, 2))).value)

    def test_adjacent_swap(self):
        perm = BoundedPermutation(lambda i: i + 1 if i % 2 == 0 else i - 1, 1)
        result = rearranged_flat_sum(geom(F(1, 2)), perm, depth=1024)
        assert dd_eq(result.value, dd_add(embed(1), dd_neg(eps_d())), 1024)

    def test_block_reversal(self):
        perm = BoundedPermutation(lambda i: (i // 4) * 4 + (3 - i % 4), 3)
        result = rearranged_flat_sum(geom(F(1, 2)), perm, depth=1024)
        assert dd_eq(result.value, flat_sum(geom(F(1, 2))).value, 1024)

    def test_sandwich_inequality(self):
        # permuted partials interleave with shifted original partials
        spec = geom(F(1, 2))
        perm = _block_permutation(4, seed=11)
        orig = partial_sums(spec)
        moved = partial_sums(rearranged(spec, perm))
        for n in (5, 17, 100):
            assert moved.at(n) <= orig.at(n + 4)
            assert orig.at(n) <= moved.at(n + 4)

    def test_tail_bound_covers_moved_head(self):
        # geom(1/100) sums to 1/99; reversing blocks of 100 moves term 0 past
        # index k < 99, so bound(0) alone misses it; the frozen brackets rest
        # on the bound
        spec = geom(F(1, 100))
        perm = BoundedPermutation(lambda i: (i // 100) * 100 + 99 - i % 100, 99)
        moved = rearranged(spec, perm)
        for k in (0, 1, 50, 98, 99, 150):
            tail = F(1, 99) - sum(moved.term_at(n) for n in range(k + 1))
            assert tail <= moved.tail_bound(k)
        sums = partial_sums(moved)
        for n in (150, 250):
            lo, hi, _ = sums.bracket(n, 13)
            assert lo <= sums.at(n) * 2 ** 13 <= hi

    def test_invalid_permutation_rejected(self):
        not_injective = BoundedPermutation(lambda i: 0, 2)
        with pytest.raises(InvalidPermutation):
            rearranged_flat_sum(geom(F(1, 2)), not_injective, depth=16)
        too_far = BoundedPermutation(lambda i: i + 2 if i % 2 == 0 else i - 2, 1)
        with pytest.raises(InvalidPermutation):
            rearranged_flat_sum(geom(F(1, 2)), too_far, depth=16)

    def test_nonneg_only(self):
        perm = BoundedPermutation(lambda i: i, 0)
        with pytest.raises(InvalidPermutation):
            rearranged_flat_sum(alternating_geometric(), perm)


class TestScalarMulFlat:
    def test_identity_scalar(self):
        base = flat_sum(geom(F(1, 2)))
        result = scalar_mul_flat(1, geom(F(1, 2)))
        assert dd_eq(result.value, base.value)
        assert result.eta_interval.contains(1)

    def test_constant_scalar_class_equal(self):
        result = scalar_mul_flat(3, geom(F(1, 2)))
        assert dd_eq(result.value, dd_add(embed(3), dd_neg(eps_d())))
        assert result.eta_interval.contains(3)

    def test_omega_scalar(self):
        result = scalar_mul_flat(sf.OMEGA, geom(F(1, 2)))
        assert result.value.sign == -1
        assert result.value.delta.kind is wb.IdemKind.B
        assert sf.arch_compare(result.value.delta.scale, sf.OMEGA) \
            is sf.ArchClass.SAME
        assert result.eta_interval is None

    def test_commutes_with_flat_sum(self):
        for c in (2, F(3, 2), 5):
            left = scalar_mul_flat(c, pser(2))
            right = dd_scalar_mul(c, flat_sum(pser(2)).value)
            assert dd_eq(left.value, right)

    def test_termwise_route_agrees_for_constants(self):
        c = F(3)
        spec = geom(F(1, 2))
        scaled_terms = SeriesSpec(lambda n: c * spec.term(n), "nonneg",
                                  lambda k: c * spec.tail_bound(k), "3*geom")
        assert dd_eq(flat_sum(scaled_terms).value,
                     scalar_mul_flat(c, spec).value)


class TestSplitConsistency:
    def test_flat_sum_is_sum_of_halves(self):
        spec = alternating_geometric()
        plus, minus = split_parts(spec)
        left = flat_sum(spec).value
        right = dd_add(flat_sum(plus).value, flat_sum(minus).value)
        assert dd_eq(left, right)


class TestSeriesDsl:
    def test_geom(self):
        spec = parse_series("geom(1/2)")
        assert spec.term_at(0) == F(1, 2)
        assert spec.pattern == "nonneg"

    def test_pser(self):
        spec = parse_series("pser(2)")
        assert spec.term_at(2) == F(1, 9)

    def test_harmonic(self):
        assert parse_series("harmonic").label == "harmonic"

    def test_alt_nested(self):
        spec = parse_series("alt(pser(2))")
        assert spec.term_at(0) == 1
        assert spec.term_at(1) == -F(1, 4)
        assert spec.pattern == "split"

    def test_powers_recip(self):
        spec = parse_series("powers_recip")
        assert spec.term_at(0) == F(1, 3)
        assert spec.term_at(1) == F(1, 7)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_series("wat(1)")
        with pytest.raises(ValueError):
            parse_series("geom")

    @pytest.mark.parametrize("text", ["harmonic(3)", "powers_recip(2)", "harmonic()",
                                      "alt(powers_recip(1/2))"])
    def test_refuses_an_argument_it_does_not_take(self, text):
        # they used to be dropped: powers_recip(2) ran as powers_recip
        with pytest.raises(ValueError, match="takes no argument"):
            parse_series(text)


BRACKET_SERIES = ["geom(1/3)", "geom(2/5)", "geom(-1/3)", "pser(2)", "pser(3)",
                  "alt(geom(1/2))", "alt(pser(2))", "powers_recip"]
series_names = st.sampled_from(BRACKET_SERIES)


def flat_h(text):
    """The hyperreal part of a flat sum: the partial sums, or the sum of the
    two halves' partial sums for a split series."""
    return flat_sum(parse_series(text)).value.h


def _tag_of(p, q, probes):
    p = abs(p)
    if p * probes < q:
        return ClassTag.INFINITESIMAL
    if p > probes * q:
        return ClassTag.UNLIMITED
    return ClassTag.APPRECIABLE


def linear_classify(h, depth, probes, scale):
    """The bracketed classify scan at every index of [depth//2, depth],
    ignoring run starts and monotonicity."""
    one = 1 << scale

    def tag_at(n):
        lo, hi, _ = h.bracket(n, scale)
        tag = _tag_of(max(lo, -hi, 0), one, probes)
        if tag is _tag_of(max(-lo, hi), one, probes):
            return tag
        value = h.at(n)
        return _tag_of(value.numerator, value.denominator, probes)

    tag = tag_at(depth)
    for n in range(depth - 1, depth // 2 - 1, -1):
        if tag_at(n) is not tag:
            return ClassTag.UNDETERMINED
    return tag


def linear_shadow(h, tolerance, depth):
    """The bracketed shadow scan at every index from depth down."""
    k = grid_bits(tolerance / 8)
    fine = k + depth.bit_length() + 3
    if linear_classify(h, depth, sf.DEFAULT_PROBES, fine) is ClassTag.UNLIMITED:
        raise UnlimitedValue("unlimited")
    max_spread = (tolerance.numerator << k) // (2 * tolerance.denominator)

    def cell(n):
        lo, hi, _ = h.bracket(n, fine)
        return lo >> (fine - k), -(-hi >> (fine - k))

    lo, hi = cell(depth)
    w = depth
    for n in range(depth - 1, -1, -1):
        cell_lo, cell_hi = cell(n)
        new_lo, new_hi = min(lo, cell_lo), max(hi, cell_hi)
        if new_hi - new_lo > max_spread:
            break
        lo, hi, w = new_lo, new_hi, n
    if 2 * w > depth:
        raise NotConvergentAtDepth("no window")
    return Interval(F(hi, 1 << k) - tolerance, F(lo, 1 << k) + tolerance)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except (UnlimitedValue, NotConvergentAtDepth) as exc:
        return type(exc)


def _finite(xs, pattern):
    """The series xs[0] + xs[1] + ... with zeros after, and its exact tail."""
    return SeriesSpec(lambda n: xs[n] if n < len(xs) else F(0), pattern,
                      lambda k: sum((abs(x) for x in xs[k + 1:]), F(0)), "finite")


_ratios = st.fractions(min_value=0, max_value=F(15, 16), max_denominator=64)
_sizes = st.sampled_from([F(1, 1000), F(1), F(5), F(100)])


@st.composite
def scanned_sums(draw):
    """Partial sums as flat_sum builds them: one-signed series with or
    without a tail bound (nonpositive ones with zero terms), and split
    series through their two halves."""
    kind = draw(st.sampled_from(["nonneg", "nonpos", "split"]))
    if kind == "split":
        r = draw(_ratios)
        spec = draw(st.sampled_from([
            geom(-r), alternating(geom(r)), alternating(pser(2)),
            parse_series("alt(pser(3))"), alternating_geometric(),
            _finite(draw(st.lists(st.fractions(-4, 4, max_denominator=16),
                                  max_size=40)), "split")]))
        plus, minus = split_parts(spec)
        return partial_sums(plus) + partial_sums(minus)
    sign = 1 if kind == "nonneg" else -1
    size = draw(_sizes)
    if draw(st.booleans()):
        # size * c_n * r^(n+1) with c_n in [0, 1], some zero; r = 1 diverges
        r = draw(st.one_of(_ratios, st.just(F(1))))
        coeffs = draw(st.lists(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)]),
                               min_size=1, max_size=5))
        bound = None
        if r < 1 and draw(st.booleans()):
            bound = lambda k: size * r ** (k + 2) / (1 - r)
        spec = SeriesSpec(lambda n: sign * size * coeffs[n % len(coeffs)] * r ** (n + 1),
                          kind, bound, "random")
    elif sign > 0:
        xs = draw(st.lists(st.sampled_from([F(0), F(0), F(1, 3), size]), max_size=200))
        spec = draw(st.sampled_from([
            pser(2), parse_series("powers_recip"), geom(draw(_ratios)),
            rearranged(geom(draw(_ratios)), _block_permutation(4, seed=3)),
            _finite(xs, "nonneg")]))
    else:
        xs = draw(st.lists(st.sampled_from([F(0), F(0), F(-1, 3), -size]), max_size=200))
        spec = _finite(xs, "nonpos")
    return partial_sums(spec)


class TestBrackets:
    """The partial sums' dyadic brackets and the scans that read them."""

    @given(first=series_names, second=series_names, n=st.integers(0, 300),
           k=st.integers(0, 80))
    @settings(deadline=None)
    def test_bracket_holds(self, first, second, n, k):
        a, b = flat_h(first), flat_h(second)
        for c in (a, b, a + b, a - b):
            lo, hi, _ = c.bracket(n, k)
            assert lo <= c.at(n) * 2 ** k <= hi

    @given(first=series_names, second=series_names, n=st.integers(0, 300),
           k=st.integers(0, 80))
    @settings(deadline=None)
    def test_bracket_runs_hold(self, first, second, n, k):
        # every index of [start, n] has the bracket read at n
        a, b = flat_h(first), flat_h(second)
        for c in (a, b, a + b, a - b):
            lo, hi, start = c.bracket(n, k)
            assert 0 <= start <= n
            assert all(c.bracket(m, k)[:2] == (lo, hi) for m in range(start, n))

    def test_partial_sum_bracket_width(self):
        sums = partial_sums(pser(2))
        for n in (0, 5, 99):
            lo, hi, _ = sums.bracket(n, 40)
            assert hi - lo == n + 1

    def test_bracket_tables_are_race_free(self):
        # eight threads fill one table (and the split cursor) from different
        # starting indices, with frequent thread switches
        reference = flat_h("alt(geom(1/3))")
        want = [reference.bracket(n, 40) for n in range(600)]
        fresh = flat_h("alt(geom(1/3))")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda s: [fresh.bracket(n, 40)
                                                  for n in range(s, 600)], s)
                           for s in range(0, 400, 50)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for s, got in zip(range(0, 400, 50), results):
            assert got == want[s:]

    def test_bracket_freezes_at_the_certified_tail(self):
        # geom(1/3): T(i) = (1/3)^(i+2) * 3/2 < 2^-40 first at i = 24, and
        # the first checked index past it is 32
        sums = partial_sums(geom(F(1, 3)))
        low = sum((F(1, 3) ** (j + 1) * 2 ** 40).__floor__() for j in range(33))
        assert sums.bracket(32, 40) == (low, low + 33, 32)
        for n in (33, 100, 2048):
            assert sums.bracket(n, 40) == (low, low + 34, 33)
            assert low <= sums.at(n) * 2 ** 40 <= low + 34

    def test_freeze_needs_a_tail_below_one_unit(self):
        # geom(1/2): T(i) = 2^-(i+1) is one unit at scale 5 at i = 4, not
        # below it, so the table runs on to the next checked index, 8
        sums = partial_sums(geom(F(1, 2)))
        for n, width in ((4, 5), (8, 9), (9, 10), (600, 10)):
            lo, hi, _ = sums.bracket(n, 5)
            assert hi - lo == width

    def test_negative_half_freezes_one_unit_lower(self):
        # geom(-1/3)'s negative half holds the terms -(1/3)^(2j+1) with tail
        # bound T(2j); T(2j) < 2^-40 first at j = 12, checked at j = 16
        _, minus = split_parts(geom(F(-1, 3)))
        sums = partial_sums(minus)
        low = sum((-F(1, 3) ** (2 * j + 1) * 2 ** 40).__floor__() for j in range(17))
        assert sums.bracket(16, 40) == (low, low + 17, 16)
        for n in (17, 100, 2048):
            assert sums.bracket(n, 40) == (low - 1, low + 17, 17)
            assert low - 1 <= sums.at(n) * 2 ** 40 <= low + 17

    def test_cut_off_floors_few_terms(self):
        # flat_sum + wst of geom(1/3) reads one scale, f = 30 + 12 + 3, and
        # freezes it at index 32 instead of flooring all 2049 terms
        calls = []
        inner = geom(F(1, 3))

        def term(n):
            calls.append(n)
            return inner.term(n)

        result = flat_sum(SeriesSpec(term, inner.pattern, inner.tail_bound,
                                     inner.label), depth=2048)
        assert len(calls) == 128  # the eta interval's exact terms
        del calls[:]
        assert wst(result.value, F(1, 10 ** 8), 2048).contains(F(1, 2))
        assert calls.count(0) == 1 and len(calls) <= 64

    def test_powers_recip_never_freezes_at_scan_scales(self):
        # the i-th perfect power is at most (i+2)^2, so T(i) > 2/(i+3), above
        # 2^-(bits(depth)+3), the coarsest scale shadow and classify read
        depth = 4096
        spec = parse_series("powers_recip")
        fine = depth.bit_length() + 3
        assert spec.tail_bound(depth) >= F(1, 2 ** fine)
        sums = partial_sums(spec)
        lo, hi, _ = sums.bracket(depth, fine)
        assert hi - lo == depth + 1
        lo, hi, _ = sums.bracket(depth, 2)  # a coarse scale does freeze
        assert hi - lo < depth + 1

    @given(name=series_names, depth=st.integers(1, 200),
           probes=st.sampled_from([1, 2, 3, 64, 4096]))
    @settings(deadline=None)
    def test_bracketed_classify_matches_exact(self, name, depth, probes):
        h = flat_h(name)
        exact = sf.Hyperreal(h.at)
        assert exact.bracket is None
        assert classify(h, depth, probes) is classify(exact, depth, probes)

    @given(name=series_names, depth=st.integers(1, 300),
           tolerance=st.fractions(min_value=F(1, 10 ** 9), max_value=2,
                                  max_denominator=10 ** 9))
    @settings(deadline=None)
    def test_bracketed_shadow_soundness(self, name, depth, tolerance):
        h = flat_h(name)
        try:
            interval = shadow(h, tolerance, depth)
        except NotConvergentAtDepth:
            return
        half = tolerance / 2
        for n in range(depth // 2, depth + 1):
            assert interval.lo <= h.at(n) - half and h.at(n) + half <= interval.hi
        assert interval.width <= 2 * tolerance
        k = 0
        while F(1, 2 ** k) > tolerance / 8:
            k += 1
        for end in (interval.lo, interval.hi):
            assert (tolerance.denominator << k) % end.denominator == 0

    @given(h=scanned_sums(), depth=st.integers(1, 300),
           probes=st.sampled_from([1, 3, 64, 4096]),
           tolerance=st.fractions(min_value=F(1, 10 ** 9), max_value=2,
                                  max_denominator=10 ** 9))
    @settings(deadline=None)
    def test_skipping_scans_match_the_linear_scan(self, h, depth, probes, tolerance):
        # runs crossed in one step and bisection find what reading every
        # index finds: the same tag, interval or exception
        scale = probes.bit_length() + depth.bit_length() + 8
        assert classify(h, depth, probes) is linear_classify(h, depth, probes, scale)
        assert _outcome(shadow, h, tolerance, depth) == \
            _outcome(linear_shadow, h, tolerance, depth)

    def test_classify_reads_two_brackets_of_a_nonnegative_sum(self):
        sums = partial_sums(geom(F(1, 3)))
        reads, bracket = [], sums.bracket

        def counted(n, k):
            reads.append(n)
            return bracket(n, k)

        def unreadable(n):
            pytest.fail(f"exact value read at index {n}")

        sums.bracket, sums.gen = counted, unreadable
        assert classify(sums, 2048) is ClassTag.APPRECIABLE
        assert len(reads) <= 2

    def test_monotone_classify_reads_below_a_late_run(self):
        # the sum crosses the 1/64 probe at index 60 and freezes at 64, so
        # the run [65, 100] does not cover the window [50, 100]
        spec = _finite([F(0)] * 60 + [F(1, 32)], "nonneg")
        assert classify(partial_sums(spec), 100) is ClassTag.UNDETERMINED
        assert classify(partial_sums(spec), 128) is ClassTag.APPRECIABLE

    def test_shadow_bisects_powers_recip(self):
        # its table never freezes at scan scales, but its sums are monotone
        depth, tolerance = 4096, F(1, 200)
        sums = flat_h("powers_recip")
        reads, bracket = [], sums.bracket

        def counted(n, k):
            reads.append(n)
            return bracket(n, k)

        sums.bracket = counted
        interval = shadow(sums, tolerance, depth)
        assert len(reads) <= 2 * depth.bit_length() + 2
        assert interval == linear_shadow(sums, tolerance, depth) == \
            Interval(F(199, 200), F(51331, 51200))

    def test_only_nonnegative_sums_are_monotone(self):
        # a zero term of a nonpositive series raises the upper bracket end
        nonpos = partial_sums(SeriesSpec(lambda n: F(-1) if n == 0 else F(0),
                                         "nonpos", None, "zeros"))
        assert not nonpos.monotone
        assert [nonpos.bracket(n, 0)[1] for n in range(3)] == [0, 1, 2]
        plus, minus = split_parts(geom(F(-1, 3)))
        assert partial_sums(plus).monotone and not partial_sums(minus).monotone
        assert partial_sums(pser(2)).monotone
        assert not (partial_sums(pser(2)) + partial_sums(pser(3))).monotone

    @pytest.mark.parametrize("name,limit", [("geom(1/3)", F(1, 2)),
                                            ("alt(geom(1/2))", F(1, 3)),
                                            ("geom(-1/3)", F(-1, 4))])
    def test_wst_holds_the_limit(self, name, limit):
        tol = F(1, 10 ** 7)
        interval = wst(flat_sum(parse_series(name)).value, tol)
        assert interval.contains(limit) and interval.width <= 2 * tol

    def test_all_zero_split_series_ends(self):
        # every term of alt(geom(0)) is 0: the cursor stops at the first, as
        # its tail bound is 0, instead of scanning for a negative term
        inner = parse_series("alt(geom(0))")

        def term(n):
            if n > 100:
                pytest.fail("the cursor ran past a tail certified zero")
            return inner.term_at(n)

        spec = SeriesSpec(term, inner.pattern, inner.tail_bound, inner.label)
        plus, minus = split_parts(spec)
        assert [minus.term_at(j) for j in range(3)] == [0, 0, 0]
        assert [plus.term_at(j) for j in range(3)] == [0, 0, 0]
        assert minus.tail_bound(5) == 0 and plus.tail_bound(0) == 0
        result = flat_sum(spec, depth=16)
        assert result.eta_interval.lo == result.eta_interval.hi == 0
        assert wst(result.value, F(1, 10 ** 6), 16).contains(0)

    def test_zero_terms_before_a_nonzero_tail_do_not_end(self):
        # a zero term whose tail bound is positive leaves the cursor running
        spec = SeriesSpec(lambda n: F(0) if n < 3 else F(-1, 2) ** n, "split",
                          lambda k: F(1, 2) ** k, "late")
        plus, minus = split_parts(spec)
        assert minus.term_at(0) == F(-1, 8)
        assert plus.term_at(3) == F(1, 16)


# ---------------------------------------------------------------------------
# The pair path against a Fraction reference: each series below comes with
# its terms, tail bound and sign pattern computed in Fractions here, and
# split halves, eta intervals and brackets are recomputed from those.

def _ref_geom(r):
    a = abs(r)
    bound = (lambda k: a ** (k + 2) / (1 - a)) if a < 1 else None
    return (lambda n: r ** (n + 1)), bound, "nonneg" if r >= 0 else "split"


def _ref_pser(k):
    bound = (lambda m: F(1, (k - 1) * (m + 1) ** (k - 1))) if k >= 2 else None
    return (lambda n: F(1, (n + 1) ** k)), bound, "nonneg"


def _ref_alt(ref):
    term, bound, _ = ref
    return (lambda n: abs(term(n)) * (-1) ** n), bound, "split"


def _ref_rearranged(ref, perm):
    term, bound, pattern = ref
    d = perm.displacement
    shifted = None
    if bound is not None:
        shifted = lambda k: bound(k - d) if k >= d else bound(0) + abs(term(0))
    return (lambda n: term(perm.mapping(n))), shifted, pattern


_SMALL_POWERS = sorted({m ** e for m in range(2, 600) for e in range(2, 19)
                        if m ** e <= 360_000})


def _ref_powers():
    def bound(k):
        s = isqrt(_SMALL_POWERS[k])
        return F(1, s) + F(1, s + 1)

    return (lambda n: F(1, _SMALL_POWERS[n] - 1)), bound, "nonneg"


def _ref_halves(ref):
    """The two halves as split_parts defines them: the nonnegative and the
    negative terms in order, each with the bound at its original index; a
    zero term whose bound is zero ends both."""
    term, bound, _ = ref
    filed, state = ([], []), {"next": 0}

    def entry(negative, j):
        mine = filed[negative]
        while len(mine) <= j and state["next"] is not None:
            n = state["next"]
            value = term(n)
            filed[value < 0].append((n, value))
            ended = value == 0 and bound is not None and bound(n) == 0
            state["next"] = None if ended else n + 1
        return mine[j] if j < len(mine) else None

    def half(negative):
        def h_term(j):
            found = entry(negative, j)
            return F(0) if found is None else found[1]

        def h_bound(k):
            found = entry(negative, k)
            return F(0) if found is None else bound(found[0])

        return h_term, None if bound is None else h_bound, "nonpos" if negative else "nonneg"

    return half(False), half(True)


def _ref_eta(ref, eta_terms):
    """The eta interval in Fractions, or the message it is refused with."""
    term, bound, _ = ref
    partial = sum((F(term(n)) for n in range(eta_terms)), F(0))
    bounds = [F(bound(n)) for n in range(eta_terms)]
    if any(later > earlier for earlier, later in zip(bounds, bounds[1:])):
        return "tail bound is not nonincreasing"
    slack = bounds[-1]
    if slack < 0:
        return "tail bound is negative"
    if slack == 0:
        return Interval.point(partial)
    k = grid_bits(slack)
    return Interval(F(floor((partial - slack) * 2 ** k), 2 ** k),
                    F(ceil((partial + slack) * 2 ** k), 2 ** k))


def _ref_bracket(ref, n, k):
    """partial_sums' bracket at (n, k): the first i of 1, 2, 4, ... <= n
    with 0 <= T(i) < 2^-k freezes a one-signed table for every read past i."""
    term, bound, pattern = ref
    floors = [floor(F(term(j)) * 2 ** k) for j in range(n + 1)]
    if pattern != "split" and bound is not None:
        i = 1
        while i < n:
            if 0 <= bound(i) < F(1, 2 ** k):
                lo = sum(floors[:i + 1]) - (pattern == "nonpos")
                return lo, lo + i + 2, i + 1
            i *= 2
    lo = sum(floors)
    return lo, lo + n + 1, n


def _eta_outcome(spec, eta_terms):
    try:
        interval = es._eta_interval(spec, eta_terms)
    except ValueError as exc:
        return str(exc).split(": ", 1)[1]
    return str(interval.lo), str(interval.hi)


def _bytes(outcome):
    return outcome if isinstance(outcome, str) else (str(outcome.lo), str(outcome.hi))


_PAIR_RATIOS = st.fractions(min_value=F(-15, 16), max_value=F(15, 16),
                            max_denominator=40)


@st.composite
def _user_specs(draw):
    """A user SeriesSpec from Fraction and int terms, zero terms included:
    cyclic coefficients times r^(n+1) with a tail bound that may rise once
    (a broken certificate), or finitely many terms with their exact tail,
    which is 0 past the last.  A split one has terms of both signs in every
    cycle, so each half keeps finding terms."""
    pattern = draw(st.sampled_from(["nonneg", "nonpos", "split"]))
    sign = -1 if pattern == "nonpos" else 1
    values = st.sampled_from([0, 0, 1, 2, F(1, 3), F(2, 7)])
    if draw(st.booleans()):
        xs = [sign * x for x in draw(st.lists(values, max_size=150))]
        if pattern == "split":
            xs = [x * draw(st.sampled_from([1, -1])) for x in xs]
        ref = _finite(xs, pattern)
        return ref, (ref.term, ref.tail_bound, pattern)
    coeffs = draw(st.lists(values, min_size=1, max_size=6))
    if pattern == "split":
        coeffs += [1] + [-c for c in coeffs if c] + [-1]
    r = draw(st.fractions(min_value=F(1, 9), max_value=F(7, 8), max_denominator=16))
    top = max(abs(c) for c in coeffs)
    bump = draw(st.one_of(st.none(), st.integers(1, 126)))
    integral = draw(st.booleans())

    def term(n):
        c = sign * coeffs[n % len(coeffs)]
        return c if integral and (c == 0 or n == 0) else c * r ** (n + 1)

    def bound(k):
        return top * r ** (k + 1) / (1 - r) * (2 if k == bump else 1)

    return SeriesSpec(term, pattern, bound, "user"), (term, bound, pattern)


def _scaled(spec, g):
    """The same series with every pair, tail pairs included, scaled by g:
    pairs need not be reduced."""
    pair, tail = spec.pair, spec.tail_pair
    return SeriesSpec.from_pairs(
        lambda n: tuple(g * x for x in pair(n)), spec.pattern,
        None if tail is None else lambda k: tuple(g * x for x in tail(k)), spec.label)


@st.composite
def _paired_series(draw):
    """A series and its Fraction reference."""
    kind = draw(st.sampled_from(["geom", "pser", "harmonic", "alt", "rearranged",
                                 "powers", "user", "plus", "minus"]))
    if kind == "geom":
        r = draw(_PAIR_RATIOS)
        spec, ref = geom(r), _ref_geom(r)
    elif kind == "pser":
        k = draw(st.integers(1, 5))
        spec, ref = pser(k), _ref_pser(k)
    elif kind == "harmonic":
        spec, ref = harmonic_series(), _ref_pser(1)
    elif kind == "alt":
        r = draw(_PAIR_RATIOS)
        k = draw(st.integers(2, 4))
        spec, ref = draw(st.sampled_from([(alternating(geom(r)), _ref_alt(_ref_geom(r))),
                                          (alternating(pser(k)), _ref_alt(_ref_pser(k)))]))
    elif kind == "rearranged":
        r = draw(st.fractions(min_value=0, max_value=F(15, 16), max_denominator=40))
        perm = _block_permutation(draw(st.integers(1, 5)), draw(st.integers(0, 9)))
        spec, ref = rearranged(geom(r), perm), _ref_rearranged(_ref_geom(r), perm)
    elif kind == "powers":
        spec, ref = gb.powers_reciprocal_series(), _ref_powers()
    else:
        spec, ref = draw(st.one_of(
            _user_specs(),
            _PAIR_RATIOS.map(lambda r: (geom(r), _ref_geom(r))),
            st.integers(2, 4).map(lambda k: (alternating(pser(k)), _ref_alt(_ref_pser(k))))))
        if kind != "user" and ref[2] == "split":
            plus, minus = split_parts(spec)
            ref_plus, ref_minus = _ref_halves(ref)
            spec, ref = (plus, ref_plus) if kind == "plus" else (minus, ref_minus)
    g = draw(st.sampled_from([1, 1, 2, 6]))
    return (spec if g == 1 else _scaled(spec, g)), ref


class TestPairPath:
    """Every read of a series goes through its integer pairs; these pin the
    pair path to the Fraction reference above."""

    @given(paired=_paired_series(), n=st.one_of(st.integers(0, 8), st.integers(0, 400)))
    @settings(deadline=None)
    def test_rational_faces(self, paired, n):
        spec, (term, bound, pattern) = paired
        assert spec.pattern == pattern
        value = spec.term_at(n)
        assert type(value) is F and str(value) == str(F(term(n)))
        p, q = spec.pair(n)
        assert q > 0 and F(p, q) == value
        assert (spec.tail_bound is None) == (bound is None) == (spec.tail_pair is None)
        if bound is not None:
            b, d = spec.tail_pair(n)
            assert d > 0 and F(b, d) == bound(n)
            assert str(spec.tail_bound(n)) == str(F(bound(n)))

    @given(paired=_paired_series(), eta_terms=st.sampled_from([1, 2, 7, 64, 128]))
    @settings(deadline=None)
    def test_eta_interval_bytes(self, paired, eta_terms):
        spec, ref = paired
        if ref[1] is None:
            return
        assert _eta_outcome(spec, eta_terms) == _bytes(_ref_eta(ref, eta_terms))
        if spec.pattern == "split":
            plus, minus = split_parts(spec)
            for half, ref_half in zip((plus, minus), _ref_halves(ref)):
                assert _eta_outcome(half, eta_terms) == _bytes(_ref_eta(ref_half, eta_terms))

    @given(paired=_paired_series(), k=st.sampled_from([0, 1, 5, 12, 23, 45, 80]),
           reads=st.lists(st.integers(0, 300), min_size=1, max_size=6))
    @settings(deadline=None)
    def test_bracket_triples(self, paired, k, reads):
        spec, ref = paired
        halves = zip(split_parts(spec), _ref_halves(ref)) if spec.pattern == "split" \
            else [(spec, ref)]
        for part, ref_part in halves:
            sums = partial_sums(part)
            for n in reads:
                assert sums.bracket(n, k) == _ref_bracket(ref_part, n, k)

    def test_user_float_bound_still_refused_through_halves(self):
        spec = SeriesSpec(lambda n: F(-1, 2) ** n, "split",
                          lambda k: F(1, 2 ** k) if k < 3 else 2.0 ** -k, "floaty")
        plus, _ = split_parts(spec)
        with pytest.raises(TypeError, match="^floaty: tail bound .* at index 4 is a float"):
            es._eta_interval(plus, 8)

    @pytest.mark.parametrize("make,tol,depth", [
        (lambda: geom(F(1, 3)), F(1, 10 ** 8), 2048),
        (gb.powers_reciprocal_series, F(9, 1000), 4096),
    ], ids=["geom(1/3)", "powers_recip"])
    def test_flat_sum_and_wst_never_read_term_at(self, monkeypatch, make, tol, depth):
        def refuse(spec, n):
            raise AssertionError(f"term_at({n}) read on {spec.label}")

        monkeypatch.setattr(SeriesSpec, "term_at", refuse)
        result = flat_sum(make(), depth=depth)
        interval = wst(result.value, tol, depth)
        assert interval.width <= 2 * tol
