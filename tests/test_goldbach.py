import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperline import goldbach as gb
from hyperline import wattenberg as wb
from hyperline.errors import DepthTooSmall
from hyperline.goldbach import (SieveReport, SieveStep, euler_sieve, flat_identity,
                                goldbach_report, is_perfect_power, partial_sum,
                                perfect_powers, powers_reciprocal_series, tail_bound)
from hyperline.intervals import Interval
from hyperline.wattenberg import idem_eq, wst

F = Fraction


def brute_force_powers(limit):
    found = set()
    m = 2
    while m * m <= limit:
        value = m * m
        while value <= limit:
            found.add(value)
            value *= m
        m += 1
    return sorted(found)


class TestPerfectPowers:
    def test_examples(self):
        assert perfect_powers(40) == [4, 8, 9, 16, 25, 27, 32, 36]
        assert perfect_powers(4) == [4]
        assert perfect_powers(3) == []

    def test_sixteen_counted_once(self):
        powers = perfect_powers(20)
        assert powers.count(16) == 1

    def test_exhaustive_oracle_equivalence(self):
        # equality of the full sorted lists at 10^5 settles every limit below
        assert perfect_powers(10 ** 5) == brute_force_powers(10 ** 5)

    def test_every_limit_below_5000(self):
        everything = brute_force_powers(5000)
        for limit in range(5000):
            assert perfect_powers(limit) == everything[:bisect_right(everything, limit)]

    def test_limits_at_power_and_square_boundaries(self):
        limits = {2 ** k + d for k in range(2, 31) for d in (-1, 1)}
        limits |= {m * m + d for m in (2, 3, 8, 31, 32, 1000, 4097) for d in (-1, 0, 1)}
        limits |= {(j + 2) ** 2 for j in (0, 1, 2, 30, 4096, 5000)}
        for limit in sorted(limits):
            assert perfect_powers(limit) == brute_force_powers(limit), limit

    def test_is_perfect_power_agrees(self):
        powers = set(perfect_powers(3000))
        for k in range(3000 + 1):
            assert is_perfect_power(k) == (k in powers)

    @pytest.mark.parametrize("k,expected", [(3 ** 1000, True),
                                            (3 ** 1000 + 1, False),
                                            (2 ** 1279 - 1, False)])
    def test_is_perfect_power_beyond_float_range(self, k, expected):
        assert is_perfect_power(k) is expected


def reference_sieve(depth, steps):
    """The set-and-sum sieve: the next base is the least integer no earlier
    base's powers cover, and the residual is 1 plus the covered terms less
    the contributions, each summed over a table."""
    covered, covered_values, sieve_steps = set(), [], []
    candidate = 2
    for _ in range(steps):
        while candidate <= depth and candidate in covered:
            candidate += 1
        if candidate > depth:
            raise DepthTooSmall(f"only {len(sieve_steps)} bases fit below {depth}")
        m, value, largest_exp = candidate, candidate, 0
        while value <= depth:
            covered.add(value)
            covered_values.append(value)
            largest_exp += 1
            value *= m
        sieve_steps.append(SieveStep(m, F(1, m - 1), F(1, (m - 1) * m ** (largest_exp - 1))))
    contributions = sum((s.contribution for s in sieve_steps), F(0))
    residual = 1 + sum((F(1, v) for v in covered_values), F(0)) - contributions
    slack = sum((s.tail for s in sieve_steps), F(0))
    return SieveReport(sieve_steps, [s.base for s in sieve_steps],
                       Interval(residual, residual + slack), depth)


def _outcome(sieve, depth, steps):
    try:
        return sieve(depth, steps).to_dict()
    except DepthTooSmall as exc:
        return str(exc)


@st.composite
def sieve_arguments(draw):
    """A depth and steps, some with more steps than non-powers up to depth."""
    depth = draw(st.one_of(st.integers(1, 400), st.integers(401, 10 ** 6),
                           st.sampled_from([10 ** 12, 10 ** 18, 10 ** 30])))
    tight = draw(st.booleans()) and depth <= 400
    low = max(1, depth - depth // 10 - 3) if tight else 1
    return depth, draw(st.integers(low, depth if tight else min(depth, 60)))


class TestPowersReciprocalSeries:
    # the j-th perfect power is at most (j + 2)^2
    POWERS = brute_force_powers(5002 ** 2)

    def check(self, spec, j):
        assert spec.term_at(j) == F(1, self.POWERS[j] - 1)
        assert spec.pair(j) == (1, self.POWERS[j] - 1)
        assert spec.tail_bound(j) == tail_bound(self.POWERS[j])

    def test_reads_in_order_cross_every_growth(self):
        spec = powers_reciprocal_series()
        for j in range(5001):
            self.check(spec, j)

    @pytest.mark.parametrize("reads", [
        [5000, 0, 4096, 17],
        [2 ** i for i in range(13)] + [5000],
        [20, 21, 22, 23, 60, 61, 62, 63, 250, 251, 2499, 2500],
    ], ids=["down", "doubling", "boundaries"])
    def test_reads_out_of_order(self, reads):
        spec = powers_reciprocal_series()
        for j in reads:
            self.check(spec, j)
        for j in range(max(reads) + 1):
            self.check(spec, j)

    def test_enumerates_only_as_far_as_needed(self, monkeypatch):
        # the freeze check reads the bound at 1, 2, 4, ..., 4096: growing by
        # 4 alone enumerated up to 4^13 = 67,108,864 for 4097 powers
        limits = []
        enumerate_up_to = gb.perfect_powers

        def recorded(limit):
            limits.append(limit)
            return enumerate_up_to(limit)

        monkeypatch.setattr(gb, "perfect_powers", recorded)
        spec = powers_reciprocal_series()
        for i in range(13):
            spec.tail_pair(2 ** i)
        assert max(limits) < 2 * 4098 ** 2
        assert all(later >= 4 * earlier for earlier, later in zip(limits, limits[1:]))


def reference_partial_sum(limit):
    """partial_sum as one product tree over every perfect power, the squares
    summed one by one too."""
    return gb._sum_reciprocals(k - 1 for k in perfect_powers(limit))


class TestPartialSum:
    def test_matches_the_product_tree_at_every_small_limit(self):
        for limit in range(4, 2 * 10 ** 4 + 1):
            assert partial_sum(limit) == reference_partial_sum(limit), limit

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.integers(4, 10 ** 7),
                     st.tuples(st.integers(2, 3162), st.integers(-1, 1))
                     .map(lambda mo: max(4, mo[0] ** 2 + mo[1]))))
    def test_matches_the_product_tree(self, limit):
        assert partial_sum(limit) == reference_partial_sum(limit)

    def test_odd_powers_are_the_non_squares(self):
        for limit in (0, 7, 8, 64, 10 ** 5):
            odd = gb._odd_powers(limit)
            assert sorted(odd) == [k for k in brute_force_powers(limit) if isqrt(k) ** 2 != k]

    def test_first_terms(self):
        assert partial_sum(4) == F(1, 3)
        assert partial_sum(9) == F(1, 3) + F(1, 7) + F(1, 8)
        assert partial_sum(9) == F(101, 168)

    def test_monotone_and_below_one(self):
        previous = F(0)
        for limit in (4, 10, 50, 200, 1000, 5000):
            value = partial_sum(limit)
            assert previous <= value < 1
            previous = value

    def test_residual_within_tail_bound(self):
        for limit in (10, 100, 1000, 10 ** 4, 10 ** 5):
            residual = 1 - partial_sum(limit)
            assert 0 < residual <= tail_bound(limit)

    def test_tail_bound_exact_on_every_limit(self):
        # the whole sum is exactly 1, so 1 - partial_sum(L) is the tail;
        # both sides change only at perfect powers (squares included), so
        # checking there covers every L in [4, 2*10^5)
        total = F(0)
        for k in perfect_powers(2 * 10 ** 5 - 1):
            total += F(1, k - 1)
            assert 0 < 1 - total <= tail_bound(k), k

    @pytest.mark.parametrize("limit", [2 * 10 ** 5, 2 * 10 ** 5 + 1, 10 ** 6 - 1, 10 ** 7,
                                       10 ** 10, 10 ** 18, 10 ** 30, 3 ** 100])
    def test_tail_bound_proof_slack(self, limit):
        # tail_bound's proof: the bound exceeds the tail by at least
        # 1/(s+1) - 1/(2 s^2) - 22/(7 t^2), which is positive past 2*10^5
        s, t = isqrt(limit), gb._integer_root(limit, 3)
        assert t ** 3 <= limit < (t + 1) ** 3
        assert F(1, s + 1) - F(1, 2 * s * s) - F(22, 7 * t * t) > 0

    def test_tail_bound_against_brute_force_window(self):
        # enumerate the actual tail over (limit, 100*limit]; it must stay
        # under the certified bound
        limit = 1000
        window = [k for k in perfect_powers(100 * limit) if k > limit]
        window_sum = sum(F(1, k - 1) for k in window)
        assert window_sum < tail_bound(limit)

    def test_report_fields(self):
        doc = goldbach_report(10 ** 4)
        total = F(doc["partial_sum"])
        assert F(doc["abs_err_vs_1"]) == abs(1 - total)
        assert F(doc["tail_bound"]) == tail_bound(10 ** 4)


class TestEulerSieve:
    def test_first_six_bases(self):
        report = euler_sieve(2000, 6)
        assert report.removed_bases == [2, 3, 5, 6, 7, 10]
        contributions = [s.contribution for s in report.steps]
        assert contributions == [1, F(1, 2), F(1, 4), F(1, 5), F(1, 6), F(1, 9)]

    def test_base_two_tail(self):
        report = euler_sieve(1000, 1)
        # powers of two up to 1000: 2..512, nine of them
        assert report.steps[0].tail == F(1, 2 ** 8)

    def test_bases_skip_perfect_powers(self):
        report = euler_sieve(5000, 25)
        for base in report.removed_bases:
            assert not is_perfect_power(base)

    def test_residual_contains_one(self):
        report = euler_sieve(2000, 12)
        assert report.residual.contains(1)
        assert report.residual.lo <= 1 <= report.residual.hi

    def test_residual_identity(self):
        # the directly-computed residual equals 1 minus the exact coverage gaps
        depth, steps = 500, 8
        report = euler_sieve(depth, steps)
        expected = F(1)
        for step in report.steps:
            largest = 1
            while step.base ** (largest + 1) <= depth:
                largest += 1
            expected -= F(1, (step.base - 1) * step.base ** largest)
        assert report.residual.lo == expected

    def test_tiling_of_covered_range(self):
        # with all bases below 30 chosen, every k in [2, 30] is m^i for
        # exactly one recorded base m
        report = euler_sieve(1000, 23)
        assert report.removed_bases[-1] == 30
        for k in range(2, 31):
            hits = 0
            for m in report.removed_bases:
                value = m
                while value <= k:
                    if value == k:
                        hits += 1
                        break
                    value *= m
            assert hits == 1, k

    def test_contribution_exactness(self):
        # each contribution is the closed geometric sum 1/(m-1); the covered
        # terms plus the recorded tail over-approximate it
        depth = 3000
        report = euler_sieve(depth, 10)
        for step in report.steps:
            covered = F(0)
            value = step.base
            while value <= depth:
                covered += F(1, value)
                value *= step.base
            gap = step.contribution - covered
            assert 0 < gap <= step.tail

    def test_deep_sieve_allocates_only_the_covered_powers(self):
        # no table of [0, depth], nor of the covered powers: only the steps
        tracemalloc.start()
        try:
            report = euler_sieve(10 ** 18, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.removed_bases[:8] == [2, 3, 5, 6, 7, 10, 11, 12]
        assert peak < 1 << 20

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sieve_arguments())
    def test_matches_the_set_and_sum_sieve(self, arguments):
        depth, steps = arguments
        assert _outcome(euler_sieve, depth, steps) == _outcome(reference_sieve, depth, steps)

    @pytest.mark.parametrize("depth,steps", [(4, 3), (10, 10), (16, 12), (1000, 969),
                                             (10 ** 4, 20), (2 * 10 ** 4, 20),
                                             (10 ** 6, 3000)])
    def test_matches_the_set_and_sum_sieve_at_fixed_cases(self, depth, steps):
        assert _outcome(euler_sieve, depth, steps) == _outcome(reference_sieve, depth, steps)

    def test_keeps_no_table_of_covered_powers(self, monkeypatch):
        # the walk reads is_perfect_power once per integer it passes, and
        # nothing else: the bases up to 30 skip 4, 8, 9, 16, 25 and 27
        seen = []
        monkeypatch.setattr(gb, "is_perfect_power",
                            lambda k: seen.append(k) or k in (4, 8, 9, 16, 25, 27))
        report = euler_sieve(1000, 23)
        assert report.removed_bases[-1] == 30
        assert seen == list(range(2, 31))

    def test_depth_too_small(self):
        with pytest.raises(DepthTooSmall):
            euler_sieve(10, 10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            euler_sieve(10, 0)
        with pytest.raises(ValueError):
            euler_sieve(5, 6)

    def test_json_shape(self):
        doc = euler_sieve(100, 3).to_dict()
        assert doc["removed_bases"] == [2, 3, 5]
        assert doc["steps"][0] == {"base": 2, "contribution": "1",
                                   "tail_bound": "1/32"}
        assert len(doc["residual"]) == 2


class TestFlatIdentity:
    def test_canonical_form(self):
        result = flat_identity(10 ** 4)
        assert result.value.sign == -1
        assert idem_eq(result.value.delta, wb.EPS_IDEM)
        assert not result.divergent

    def test_eta_interval_contains_one(self):
        result = flat_identity(10 ** 4)
        assert result.eta_interval.contains(1)

    def test_wst_contains_one(self):
        result = flat_identity(10 ** 4)
        interval = wst(result.value, F(1, 100), depth=2048)
        assert interval.contains(1)

    def test_full_scale_identity(self):
        result = flat_identity(10 ** 6)
        assert result.value.sign == -1
        assert idem_eq(result.value.delta, wb.EPS_IDEM)
        assert result.eta_interval.contains(1)
        interval = wst(result.value, F(1, 100), depth=4096)
        assert interval.contains(1)
