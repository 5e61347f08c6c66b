"""Synthetic series generation, standardization, windowing and CSV output.

A generated series is a continuous piecewise-linear trend (slope sign
alternating per segment, starting upward), two superposed sine waves and
seeded Gaussian noise.  Time steps are documented 1-based (t = 1..T);
arrays are stored 0-based, so documented index t maps to values[t - 1].
The generation formula itself uses t = 0..T-1.

Windowing slices a series into lookback windows of length w (columns of
X) each paired with the next value as target.  Consecutive training
windows overlap by a configurable number of points; test windows advance
one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InputError


@dataclass
class Series:
    """Observations plus the statistics recorded at standardization."""

    values: np.ndarray
    mean: float | None = None
    sd: float | None = None

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass
class GenSpec:
    """Generator knobs.  ``sine2_period = None`` resolves to
    n_steps / n_trend_changes."""

    n_steps: int = 240
    n_trend_changes: int = 4
    slope: float = 0.02
    sine1_period: float = 10.0
    sine1_amplitude: float = 1.0
    sine2_period: float | None = None
    sine2_amplitude: float = 0.5
    noise_sd: float = 0.5
    seed: int = 0


@dataclass
class WindowedDataset:
    """Design matrix of lookback windows with next-value targets.

    Column j of X is values[starts[j] : starts[j] + w]; y[j] is
    values[starts[j] + w].  ``starts`` are 0-based.
    """

    X: np.ndarray
    y: np.ndarray
    stride: int
    starts: np.ndarray


def generate(spec: GenSpec) -> Series:
    """Build the synthetic series: trend + two sines + seeded noise.

    The trend runs over ``n_trend_changes`` segments of floor(T / k)
    steps (last segment absorbs the remainder), continuous at joins,
    slope alternating +slope / -slope starting upward.  Regenerating
    with the same spec is bit-identical.
    """
    if spec.n_steps < 2:
        raise ConfigError(f"n_steps must be >= 2, got {spec.n_steps}")
    if spec.n_trend_changes < 1:
        raise ConfigError(f"n_trend_changes must be >= 1, got {spec.n_trend_changes}")
    if spec.noise_sd < 0:
        raise ConfigError(f"noise_sd must be >= 0, got {spec.noise_sd}")
    total = spec.n_steps
    t = np.arange(total, dtype=float)
    seg_len = total // spec.n_trend_changes
    if seg_len < 1:
        raise ConfigError(
            f"n_steps={total} too short for {spec.n_trend_changes} trend segments"
        )
    trend = np.empty(total)
    base = 0.0
    for k in range(spec.n_trend_changes):
        lo = k * seg_len
        hi = total if k == spec.n_trend_changes - 1 else (k + 1) * seg_len
        slope = spec.slope if k % 2 == 0 else -spec.slope
        trend[lo:hi] = base + slope * (t[lo:hi] - lo)
        base = base + slope * (hi - lo)
    period2 = spec.sine2_period
    if period2 is None:
        period2 = total / spec.n_trend_changes
    values = (
        trend
        + spec.sine1_amplitude * np.sin(2.0 * np.pi * t / spec.sine1_period)
        + spec.sine2_amplitude * np.sin(2.0 * np.pi * t / period2)
        + np.random.default_rng(spec.seed).normal(0.0, spec.noise_sd, total)
    )
    return Series(values=values)


def standardize(series: Series) -> Series:
    """Center to zero mean and scale to unit (population) sd.

    The statistics are recorded on the returned series (``quack generate``
    writes them beside the standardized values).
    """
    values = np.asarray(series.values, dtype=float)
    if values.shape[0] < 2:
        raise InputError(f"need at least 2 observations, got {values.shape[0]}")
    mean = float(values.mean())
    sd = float(values.std())
    if sd < 1e-12 * max(1.0, abs(mean)):
        raise DataError("series variance is zero; cannot standardize")
    return Series(values=(values - mean) / sd, mean=mean, sd=sd)


def make_windows(
    series: Series, w: int, overlap: int, first: int = 0, last: int | None = None
) -> WindowedDataset:
    """Slice [first, last] (0-based, inclusive) into windows plus targets.

    Window starts advance by w - overlap; a window is kept only if its
    target index start + w still lies within the range.
    """
    values = np.asarray(series.values, dtype=float)
    total = values.shape[0]
    if last is None:
        last = total - 1
    if w < 1:
        raise InputError(f"window length must be >= 1, got {w}")
    if not 0 <= overlap < w:
        raise InputError(f"overlap must satisfy 0 <= overlap < w, got {overlap}")
    if not 0 <= first <= last < total:
        raise InputError(
            f"range [{first}, {last}] is not within the series of length {total}"
        )
    stride = w - overlap
    starts = np.arange(first, last - w + 1, stride)
    if starts.size == 0:
        raise DataError(
            f"range [{first}, {last}] too short for a single window of length {w}"
        )
    X = np.column_stack([values[s : s + w] for s in starts])
    y = values[starts + w]
    return WindowedDataset(X=X, y=y, stride=stride, starts=starts)


def split(
    series: Series, w: int, train_frac: float = 0.75, train_overlap: int = 2
) -> tuple[WindowedDataset, WindowedDataset]:
    """Head/tail split into training and test window sets.

    Training windows cover the first floor(train_frac * T) points with
    the configured overlap.  Test windows continue at stride 1, the
    first test target being the step immediately after the last training
    target, and run to the end of the series.
    """
    if not 0.0 < train_frac < 1.0:
        raise InputError(f"train_frac must be in (0, 1), got {train_frac}")
    total = len(series)
    head = int(np.floor(train_frac * total))
    if head < w + 1:
        raise DataError(
            f"training segment of {head} points too short for window length {w}"
        )
    train = make_windows(series, w, train_overlap, first=0, last=head - 1)
    first_test_target = int(train.starts[-1]) + w + 1
    test_first = first_test_target - w
    if first_test_target > total - 1:
        raise DataError("no points remain after the training segment")
    test = make_windows(series, w, overlap=w - 1, first=test_first, last=total - 1)
    return train, test


def save_csv(series: Series, path) -> None:
    """Write one value per line with a header, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value\n")
        for v in series.values:
            fh.write(f"{v:.17g}\n")
