"""Metric formulas against arithmetic and quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from quack.errors import InputError
from quack.metrics import (
    crps_normal,
    evaluate_forecast,
    log_likelihood,
    mean_crps,
    percentage_losses,
    point_losses,
)


class TestPointLosses:
    def test_perfect_predictions(self):
        y = np.array([1.0, -2.0, 0.5])
        assert point_losses(y, y) == (0.0, 0.0, 0.0)

    def test_unit_errors(self):
        mse, rmse, mae = point_losses(np.array([1.0, -1.0]), np.zeros(2))
        assert (mse, rmse, mae) == (1.0, 1.0, 1.0)

    def test_three_four_errors(self):
        mse, rmse, mae = point_losses(np.array([3.0, 4.0]), np.zeros(2))
        assert mse == pytest.approx(12.5, abs=1e-12)
        assert rmse == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert mae == pytest.approx(3.5, abs=1e-12)

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.default_rng(0)
        mse, rmse, _ = point_losses(rng.normal(size=50), rng.normal(size=50))
        assert abs(rmse - math.sqrt(mse)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            point_losses(np.zeros(3), np.zeros(2))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        f, y = rng.normal(size=20), rng.normal(size=20)
        perm = rng.permutation(20)
        assert point_losses(f, y) == pytest.approx(
            point_losses(f[perm], y[perm]), abs=1e-12
        )


class TestPercentageLosses:
    def test_perfect_nonzero(self):
        y = np.array([1.0, 2.0, -3.0])
        out = percentage_losses(y, y)
        assert (out.mape, out.smape, out.wape) == (0.0, 0.0, 0.0)
        assert out.mape_skipped == 0 and out.smape_skipped == 0

    def test_single_pair_arithmetic(self):
        out = percentage_losses(np.array([1.0]), np.array([2.0]))
        assert out.mape == pytest.approx(0.5, abs=1e-12)
        assert out.smape == pytest.approx(1.0 / 1.5, abs=1e-12)
        assert out.wape == pytest.approx(0.5, abs=1e-12)

    def test_absolute_denominator(self):
        # y=-2, f=-1: term = 1 / ((2+1)/2), positive regardless of sign.
        out = percentage_losses(np.array([-1.0]), np.array([-2.0]))
        assert out.smape == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_smape_bounded_by_two(self):
        rng = np.random.default_rng(9)
        out = percentage_losses(rng.normal(size=100), rng.normal(size=100))
        assert 0.0 <= out.smape <= 2.0

    def test_mixed_sign_targets_no_skips(self):
        out = percentage_losses(np.array([1.0, -1.0]), np.array([1.0, -1.0]))
        assert (out.mape, out.smape, out.wape) == (0.0, 0.0, 0.0)
        assert out.mape_skipped == 0 and out.smape_skipped == 0

    def test_zero_target_skipped_and_counted(self):
        out = percentage_losses(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        assert out.mape == pytest.approx(0.5, abs=1e-12)
        assert out.mape_skipped == 1

    def test_zero_smape_denominator_skipped(self):
        # Both forecast and target ~zero: the term is undefined, skip it.
        out = percentage_losses(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert out.smape_skipped == 1
        assert out.smape == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_all_zero_targets_wape_error(self):
        with pytest.raises(InputError):
            percentage_losses(np.array([1.0]), np.array([0.0]))


def _crps_quadrature(mean, sd, y):
    cdf = lambda z: norm.cdf(z, loc=mean, scale=sd)
    left, _ = quad(lambda z: cdf(z) ** 2, mean - 12 * sd, y, limit=200)
    right, _ = quad(lambda z: (cdf(z) - 1.0) ** 2, y, mean + 12 * sd, limit=200)
    return left + right


class TestCrps:
    def test_at_mean_unit_sd(self):
        expected = math.sqrt(2.0 / math.pi) - 1.0 / math.sqrt(math.pi)
        assert crps_normal(0.0, 1.0, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_point_mass_limit(self):
        assert crps_normal(1.0, 0.0, 3.5) == 2.5
        assert crps_normal(1.0, 1e-14, 3.5) == pytest.approx(2.5, abs=1e-9)

    def test_against_quadrature_oracle(self):
        for omega in (-3.0, -1.0, 0.0, 1.0, 3.0):
            for sd in (0.1, 1.0, 10.0):
                mean = 0.7
                y = mean + omega * sd
                assert crps_normal(mean, sd, y) == pytest.approx(
                    _crps_quadrature(mean, sd, y), abs=1e-6
                )

    def test_translation_equivariance(self):
        base = crps_normal(0.3, 0.8, 1.1)
        assert crps_normal(0.3 + 5.0, 0.8, 1.1 + 5.0) == pytest.approx(base, abs=1e-12)

    def test_scale_equivariance(self):
        base = crps_normal(0.3, 0.8, 1.1)
        for a in (0.5, 2.0, 10.0):
            assert crps_normal(a * 0.3, a * 0.8, a * 1.1) == pytest.approx(
                a * base, rel=1e-10
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert crps_normal(rng.normal(), rng.uniform(0.01, 5), rng.normal()) >= 0.0

    def test_mean_crps(self):
        means = np.array([0.0, 1.0])
        sds = np.array([1.0, 2.0])
        ys = np.array([0.5, 0.0])
        expected = 0.5 * (crps_normal(0.0, 1.0, 0.5) + crps_normal(1.0, 2.0, 0.0))
        assert mean_crps(means, sds, ys) == pytest.approx(expected, abs=1e-12)


class TestLogLikelihood:
    def test_single_point_at_mean(self):
        ll_mean, ll_total = log_likelihood(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        assert ll_total == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
        assert ll_mean == ll_total

    def test_single_point_unit_error(self):
        _, ll_total = log_likelihood(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        assert ll_total == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, abs=1e-12)

    def test_against_per_point_density_oracle(self):
        rng = np.random.default_rng(3)
        means = rng.normal(size=10)
        variances = rng.uniform(0.1, 2.0, size=10)
        ys = rng.normal(size=10)
        expected = sum(
            norm.logpdf(y, loc=m, scale=math.sqrt(v))
            for m, v, y in zip(means, variances, ys)
        )
        ll_mean, ll_total = log_likelihood(means, variances, ys)
        assert ll_total == pytest.approx(expected, abs=1e-10)
        assert ll_mean == pytest.approx(expected / 10.0, abs=1e-10)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(InputError):
            log_likelihood(np.array([0.0]), np.array([0.0]), np.array([0.0]))


class TestEvaluateForecast:
    def test_assembles_consistent_row(self):
        rng = np.random.default_rng(4)
        means = rng.normal(size=25)
        variances = rng.uniform(0.2, 1.5, size=25)
        ys = rng.normal(size=25)
        ev = evaluate_forecast(means, variances, ys)
        mse, rmse, mae = point_losses(means, ys)
        assert (ev.mse, ev.rmse, ev.mae) == (mse, rmse, mae)
        assert abs(ev.rmse - math.sqrt(ev.mse)) < 1e-12
        assert ev.mcrps >= 0.0
        assert ev.ll_mean == pytest.approx(ev.ll_total / 25.0, abs=1e-12)
        assert ev.as_dict()["smape"] == ev.smape


def _signed(lo, hi):
    """Floats with lo <= |value| <= hi, of either sign."""
    return st.tuples(st.floats(lo, hi), st.booleans()).map(lambda p: p[0] if p[1] else -p[0])


# (target, mean - target, variance) per test point: targets and errors
# bounded away from zero, so MAPE, sMAPE and every relative check are
# well defined, and variances above 1 / (2 pi), so every log-likelihood
# term is negative and no sum cancels.
_POINTS = st.lists(
    st.tuples(_signed(0.1, 3.0), _signed(0.05, 2.0), st.floats(0.2, 4.0)),
    min_size=1, max_size=30,
)


def _arrays(points):
    targets, errors, variances = (np.array(column) for column in zip(*points))
    return targets + errors, variances, targets


class TestEvaluationInvariance:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(points=_POINTS, data=st.data())
    def test_permuting_test_points(self, points, data):
        # Only the summation order changes, so every field agrees to 1e-12.
        means, variances, targets = _arrays(points)
        perm = np.array(data.draw(st.permutations(range(len(points)))))
        base = evaluate_forecast(means, variances, targets).as_dict()
        permuted = evaluate_forecast(means[perm], variances[perm], targets[perm]).as_dict()
        for name, value in base.items():
            if isinstance(value, int):
                assert permuted[name] == value, name
            else:
                assert math.isclose(permuted[name], value, rel_tol=1e-12, abs_tol=0.0), name

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(points=_POINTS, shift=st.floats(-10.0, 10.0))
    def test_shifting_means_and_targets(self, points, shift):
        # The errors are recomputed from shifted values and round differently;
        # MAPE, sMAPE and WAPE divide by the targets and are not shift-invariant.
        means, variances, targets = _arrays(points)
        base = evaluate_forecast(means, variances, targets)
        shifted = evaluate_forecast(means + shift, variances, targets + shift)
        for name in ("mse", "rmse", "mae", "mcrps", "ll_mean", "ll_total"):
            value, moved = getattr(base, name), getattr(shifted, name)
            assert math.isclose(moved, value, rel_tol=1e-9, abs_tol=0.0), name
