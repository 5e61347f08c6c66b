"""Forecast evaluation: six point losses and two probabilistic scores.

Point losses compare posterior means against targets; the probabilistic
scores (analytic Gaussian CRPS and log likelihood) consume the full
posterior.  sMAPE uses the absolute denominator (|y| + |f|) / 2, keeping
every term in [0, 2]; standardized targets cross zero, where a signed
denominator makes the statistic blow up and flip sign.  Points whose
denominator magnitude falls below 1e-12 are skipped and counted, as are
zero targets for MAPE.

Everything is pure and permutation-invariant over the test set.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError

_DENOM_EPS = 1e-12
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


@dataclass
class Evaluation:
    """One row of the comparison table plus skip tallies."""

    smape: float
    wape: float
    mape: float
    rmse: float
    mae: float
    mse: float
    mcrps: float
    ll_mean: float
    ll_total: float
    mape_skipped: int = 0
    smape_skipped: int = 0

    METRIC_FIELDS = ("smape", "wape", "mape", "rmse", "mae", "mse", "mcrps", "ll_total")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


class PercentageLosses(NamedTuple):
    mape: float
    smape: float
    wape: float
    mape_skipped: int
    smape_skipped: int


def _check_lengths(preds, targets) -> tuple[np.ndarray, np.ndarray]:
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape or preds.ndim != 1 or preds.shape[0] < 1:
        raise InputError(
            f"predictions shape {preds.shape} and targets shape {targets.shape} "
            "must be equal-length 1-d vectors"
        )
    return preds, targets


def point_losses(preds, targets) -> tuple[float, float, float]:
    """(mse, rmse, mae) of the mean predictions."""
    preds, targets = _check_lengths(preds, targets)
    err = preds - targets
    mse = float(np.mean(err * err))
    return mse, math.sqrt(mse), float(np.mean(np.abs(err)))


def percentage_losses(preds, targets) -> PercentageLosses:
    """(mape, smape, wape) plus counts of skipped undefined points.

    MAPE averages |(y - f) / y| over points with y != 0; sMAPE averages
    |y - f| / ((|y| + |f|) / 2) over points where the denominator is not
    ~zero; WAPE is sum|y - f| / sum|y| and requires sum|y| > 0.
    """
    preds, targets = _check_lengths(preds, targets)
    abs_err = np.abs(targets - preds)

    mape_keep = np.abs(targets) >= _DENOM_EPS
    mape_skipped = int(np.count_nonzero(~mape_keep))
    if not np.any(mape_keep):
        raise InputError("MAPE undefined: all targets are zero")
    mape = float(np.mean(abs_err[mape_keep] / np.abs(targets[mape_keep])))

    denom = (np.abs(targets) + np.abs(preds)) / 2.0
    smape_keep = denom >= _DENOM_EPS
    smape_skipped = int(np.count_nonzero(~smape_keep))
    if not np.any(smape_keep):
        raise InputError("sMAPE undefined: all denominators are zero")
    smape = float(np.mean(abs_err[smape_keep] / denom[smape_keep]))

    target_mass = float(np.sum(np.abs(targets)))
    if target_mass <= 0.0:
        raise InputError("WAPE undefined: targets have zero absolute sum")
    wape = float(np.sum(abs_err)) / target_mass
    return PercentageLosses(mape, smape, wape, mape_skipped, smape_skipped)


def crps_normal(mean: float, sd: float, target: float) -> float:
    """Closed-form CRPS of a Gaussian forecast against one observation.

        sd * (w (2 Phi(w) - 1) + 2 phi(w) - 1/sqrt(pi)),  w = (y - mean)/sd

    Degenerate forecasts (sd <= 0) return |y - mean|, the point-mass
    limit.  Scale- and translation-equivariant.
    """
    if sd <= 0.0:
        return abs(target - mean)
    w = (target - mean) / sd
    phi = _INV_SQRT_2PI * math.exp(-0.5 * w * w)
    # 2 Phi(w) - 1 = erf(w / sqrt 2)
    return sd * (w * math.erf(w * _SQRT_HALF) + 2.0 * phi - _INV_SQRT_PI)


def mean_crps(means, sds, targets) -> float:
    """Average CRPS over the test set."""
    means, targets = _check_lengths(means, targets)
    sds = np.asarray(sds, dtype=float)
    if sds.shape != means.shape:
        raise InputError(f"sds shape {sds.shape} does not match means {means.shape}")
    return float(
        np.mean([crps_normal(m, s, t) for m, s, t in zip(means, sds, targets)])
    )


def log_likelihood(means, variances, targets) -> tuple[float, float]:
    """Gaussian log density of each target under its posterior.

    Per-point term: -log(2 pi var)/2 - (mean - y)^2 / (2 var).  Returns
    (ll_mean, ll_total); the total is the plain sum, the mean divides by
    the test-set size.
    """
    means, targets = _check_lengths(means, targets)
    variances = np.asarray(variances, dtype=float)
    if variances.shape != means.shape:
        raise InputError(
            f"variances shape {variances.shape} does not match means {means.shape}"
        )
    if np.any(variances <= 0.0):
        raise InputError("log likelihood requires strictly positive variances")
    terms = -0.5 * np.log(2.0 * math.pi * variances) - (means - targets) ** 2 / (
        2.0 * variances
    )
    total = float(np.sum(terms))
    return total / means.shape[0], total


def evaluate_forecast(means, variances, targets) -> Evaluation:
    """Assemble the full metric row from posteriors and targets."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    mse, rmse, mae = point_losses(means, targets)
    pct = percentage_losses(means, targets)
    mcrps = mean_crps(means, np.sqrt(variances), targets)
    ll_mean, ll_total = log_likelihood(means, variances, targets)
    return Evaluation(
        smape=pct.smape, wape=pct.wape, mape=pct.mape,
        rmse=rmse, mae=mae, mse=mse, mcrps=mcrps,
        ll_mean=ll_mean, ll_total=ll_total,
        mape_skipped=pct.mape_skipped, smape_skipped=pct.smape_skipped,
    )
