"""Property battery for the Student-t statistics layer.

The adaptive sweep planner stops protocols on CI half-widths computed
at very small n, so the stats layer is load-bearing: this suite checks
the *distributional* claims (t-interval coverage on synthetic normal
draws), the comparison identities (Welch symmetry and scale
invariance, paired-narrower-than-unpaired under positive correlation),
and the documented degenerate-input sentinels.  CI runs it under
``HYPOTHESIS_PROFILE=ci`` for derandomized, bounded examples.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.stats import (
    WelchResult,
    ci_half_width,
    confidence_interval,
    confidence_interval_95,
    mean,
    paired_difference_ci,
    stddev,
    student_t_cdf,
    t_critical,
    unpaired_difference_ci,
    welch_t_test,
)

#: Two-sided 95 % critical values, Student-t (df -> t*), textbook table.
T_TABLE = {
    1: 12.7062047362,
    2: 4.3026527297,
    3: 3.1824463053,
    4: 2.7764451052,
    5: 2.5705818356,
    9: 2.2621571628,
    29: 2.0452296421,
    99: 1.9842169517,
}

Z_95 = 1.9599639845


class TestTCritical:
    def test_matches_textbook_table(self):
        for df, expected in T_TABLE.items():
            assert t_critical(df) == pytest.approx(expected, abs=1e-8)

    def test_approaches_z_for_large_df(self):
        assert t_critical(100000) == pytest.approx(Z_95, abs=1e-3)

    @given(st.integers(min_value=1, max_value=500))
    def test_always_wider_than_z(self, df):
        assert t_critical(df) > Z_95

    @given(st.integers(min_value=1, max_value=200))
    def test_monotone_decreasing_in_df(self, df):
        assert t_critical(df) > t_critical(df + 1)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.integers(min_value=1, max_value=100),
    )
    def test_cdf_symmetry(self, t, df):
        assert student_t_cdf(t, df) + student_t_cdf(-t, df) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_critical_value_inverts_cdf(self):
        for df in (1, 2, 5, 17):
            t_star = t_critical(df)
            assert student_t_cdf(t_star, df) == pytest.approx(
                0.975, abs=1e-10
            )

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            t_critical(0)
        with pytest.raises(ValueError):
            t_critical(5, confidence=1.0)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)


class TestCoverage:
    def test_t_interval_covers_true_mean_95pct(self):
        """The whole point of the t fix: on n=5 normal draws the
        interval must cover the true mean ~95 % of the time.  2,000
        seeded trials; the binomial 3-sigma band around 0.95 is ~1.5
        percentage points, so [0.93, 0.97] cannot flake."""
        rng = random.Random(12345)
        true_mean, true_sd, n, trials = 10.0, 3.0, 5, 2000
        covered = 0
        for _ in range(trials):
            sample = [rng.gauss(true_mean, true_sd) for _ in range(n)]
            low, high = confidence_interval_95(sample)
            covered += int(low <= true_mean <= high)
        assert 0.93 <= covered / trials <= 0.97

    def test_z_interval_undercovers_at_small_n(self):
        """The regression the fix exists for: the old z=1.96 interval
        demonstrably under-covers at n=5 (~88 % here), outside the
        band the t interval is required to hit above."""
        rng = random.Random(12345)
        true_mean, true_sd, n, trials = 10.0, 3.0, 5, 2000
        covered = 0
        for _ in range(trials):
            sample = [rng.gauss(true_mean, true_sd) for _ in range(n)]
            center = mean(sample)
            half = 1.96 * stddev(sample) / math.sqrt(n)
            covered += int(center - half <= true_mean <= center + half)
        assert covered / trials < 0.93


class TestOldVsNewRegression:
    """Pin the z -> t change numerically so it cannot silently revert."""

    SAMPLE = (1.0, 2.0, 3.0)

    def test_new_half_width_uses_t(self):
        half = ci_half_width(self.SAMPLE)
        expected = T_TABLE[2] * stddev(self.SAMPLE) / math.sqrt(3)
        assert half == pytest.approx(expected, rel=1e-10)

    def test_new_interval_strictly_wider_than_old_z(self):
        old_half = 1.96 * stddev(self.SAMPLE) / math.sqrt(3)
        low, high = confidence_interval_95(self.SAMPLE)
        assert (high - low) / 2 == pytest.approx(
            old_half * T_TABLE[2] / 1.96, rel=1e-9
        )
        assert (high - low) / 2 > old_half

    def test_exact_pinned_values(self):
        low, high = confidence_interval_95(self.SAMPLE)
        # t*(df=2) = 4.30265, s = 1, n = 3: 2 +/- 2.48414.
        assert low == pytest.approx(-0.48414, abs=1e-4)
        assert high == pytest.approx(4.48414, abs=1e-4)


@st.composite
def correlated_pairs(draw):
    """Two positively correlated samples: a shared per-index base term
    dominating independent noise two orders of magnitude smaller."""
    base = draw(st.lists(
        st.floats(min_value=-100.0, max_value=100.0),
        min_size=3, max_size=12, unique=True,
    ))
    spread = max(base) - min(base)
    if spread < 1.0:
        base = [value * (2.0 / max(spread, 1e-6)) for value in base]
        spread = max(base) - min(base)
    amplitude = 0.005 * spread
    noise = st.floats(min_value=-amplitude, max_value=amplitude)
    a = [value + draw(noise) for value in base]
    b = [value + draw(noise) for value in base]
    return a, b


class TestPairing:
    @given(correlated_pairs())
    def test_paired_never_wider_than_unpaired(self, samples):
        a, b = samples
        p_low, p_high = paired_difference_ci(a, b)
        u_low, u_high = unpaired_difference_ci(a, b)
        assert (p_high - p_low) <= (u_high - u_low) + 1e-9

    def test_paired_interval_centers_on_mean_difference(self):
        a = [10.0, 12.0, 14.0, 16.0]
        b = [9.0, 11.5, 13.0, 15.5]
        low, high = paired_difference_ci(a, b)
        diffs = [x - y for x, y in zip(a, b)]
        assert (low + high) / 2 == pytest.approx(mean(diffs))
        assert (low, high) == paired_difference_ci(a, b)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            paired_difference_ci([1.0, 2.0], [1.0])


class TestWelch:
    @given(
        st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=10),
        st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=10),
    )
    def test_symmetric(self, a, b):
        forward = welch_t_test(a, b)
        backward = welch_t_test(b, a)
        assert forward.statistic == pytest.approx(
            -backward.statistic, rel=1e-12, abs=1e-12
        )
        assert forward.df == pytest.approx(backward.df, rel=1e-12, abs=0)
        assert forward.p_value == pytest.approx(
            backward.p_value, rel=1e-12, abs=1e-12
        )

    @given(
        st.lists(st.integers(-10 ** 6, 10 ** 6).map(lambda v: v / 1000.0),
                 min_size=2, max_size=8),
        st.lists(st.integers(-10 ** 6, 10 ** 6).map(lambda v: v / 1000.0),
                 min_size=2, max_size=8),
        st.integers(min_value=-20, max_value=20),
    )
    # libm's pow(s, 2) is not correctly rounded here: s ** 2 != s * s.
    @example(a=[0.0, 0.001], b=[-0.164, -3.366], exponent=1)
    def test_scale_invariant(self, a, b, exponent):
        """Multiplying both samples by c > 0 changes nothing.  Every
        IEEE operation commutes exactly with a power-of-two scale (no
        rounding, only exponent shifts), so equality here is exact --
        any drift means the formula itself lost its invariance."""
        scale = 2.0 ** exponent
        plain = welch_t_test(a, b)
        scaled = welch_t_test(
            [scale * x for x in a], [scale * x for x in b]
        )
        assert scaled == plain

    def test_known_value(self):
        a = [20.1, 20.4, 19.8, 20.3]
        b = [19.0, 18.8, 19.2, 18.9]
        result = welch_t_test(a, b)
        assert result.statistic > 5
        assert result.p_value < 0.01


class TestSentinels:
    """n=1 / n=2 / zero-variance inputs return documented sentinels."""

    def test_single_sample_interval_degenerate(self):
        assert confidence_interval_95([4.2]) == (4.2, 4.2)
        assert confidence_interval([4.2], 0.99) == (4.2, 4.2)
        assert ci_half_width([4.2]) == 0.0

    def test_two_sample_interval_finite(self):
        low, high = confidence_interval_95([1.0, 3.0])
        assert low < 2.0 < high
        assert math.isfinite(low) and math.isfinite(high)

    def test_zero_variance_interval_degenerate(self):
        assert confidence_interval_95([5.0, 5.0, 5.0]) == (5.0, 5.0)

    def test_welch_insufficient_samples_sentinel(self):
        sentinel = WelchResult(statistic=0.0, df=0.0, p_value=1.0)
        assert welch_t_test([1.0], [1.0, 2.0]) == sentinel
        assert welch_t_test([1.0, 2.0], [3.0]) == sentinel
        assert welch_t_test([], [1.0, 2.0]) == sentinel

    def test_welch_zero_variance_equal_means(self):
        result = welch_t_test([2.0, 2.0], [2.0, 2.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_welch_zero_variance_unequal_means(self):
        result = welch_t_test([3.0, 3.0], [2.0, 2.0])
        assert math.isinf(result.statistic) and result.statistic > 0
        assert result.p_value == 0.0
        flipped = welch_t_test([2.0, 2.0], [3.0, 3.0])
        assert math.isinf(flipped.statistic) and flipped.statistic < 0
        assert flipped.p_value == 0.0

    def test_single_pair_degenerate(self):
        low, high = paired_difference_ci([5.0], [3.0])
        assert low == high == 2.0

    def test_unpaired_single_sample_degenerate(self):
        low, high = unpaired_difference_ci([5.0], [3.0, 3.0])
        assert low == high == 2.0

    def test_empty_still_raises(self):
        # Empty input is a caller bug, not a degenerate measurement.
        with pytest.raises(ValueError):
            confidence_interval_95([])
