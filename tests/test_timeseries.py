"""Series generation, standardization, windowing, splitting and CSV output."""

import csv

import numpy as np
import pytest

from quack.errors import ConfigError, DataError, InputError
from quack.timeseries import (
    GenSpec,
    Series,
    generate,
    make_windows,
    save_csv,
    split,
    standardize,
)


class TestGenerate:
    def test_pure_linear_ramp(self):
        spec = GenSpec(
            n_steps=50, n_trend_changes=1, slope=0.05,
            sine1_amplitude=0.0, sine2_amplitude=0.0, noise_sd=0.0,
        )
        series = generate(spec)
        assert np.array_equal(series.values, 0.05 * np.arange(50))

    def test_pure_sinusoid(self):
        spec = GenSpec(
            n_steps=40, n_trend_changes=1, slope=0.0,
            sine1_period=10.0, sine1_amplitude=1.0, sine2_amplitude=0.0, noise_sd=0.0,
        )
        series = generate(spec)
        t = np.arange(40)
        assert np.abs(series.values - np.sin(2 * np.pi * t / 10.0)).max() < 1e-12

    def test_noiseless_matches_closed_form(self):
        spec = GenSpec(n_steps=240, noise_sd=0.0)
        series = generate(spec)
        t = np.arange(240, dtype=float)
        seg = 240 // 4
        trend = np.empty(240)
        base = 0.0
        for k in range(4):
            sl = spec.slope if k % 2 == 0 else -spec.slope
            lo, hi = k * seg, (k + 1) * seg if k < 3 else 240
            trend[lo:hi] = base + sl * (t[lo:hi] - lo)
            base += sl * (hi - lo)
        expected = (
            trend
            + np.sin(2 * np.pi * t / 10.0)
            + 0.5 * np.sin(2 * np.pi * t / 60.0)
        )
        assert np.abs(series.values - expected).max() <= 1e-12

    def test_trend_continuous_at_joins(self):
        spec = GenSpec(
            n_steps=120, n_trend_changes=4, slope=0.1,
            sine1_amplitude=0.0, sine2_amplitude=0.0, noise_sd=0.0,
        )
        steps = np.diff(generate(spec).values)
        assert np.abs(np.abs(steps) - 0.1).max() < 1e-12  # every step is +-slope

    def test_deterministic_per_seed(self):
        a = generate(GenSpec(seed=11)).values
        b = generate(GenSpec(seed=11)).values
        c = generate(GenSpec(seed=12)).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_default_shape(self):
        assert len(generate(GenSpec())) == 240

    def test_too_few_steps(self):
        with pytest.raises(ConfigError):
            generate(GenSpec(n_steps=1))


class TestStandardize:
    def test_constant_series_rejected(self):
        with pytest.raises(DataError):
            standardize(Series(values=np.full(10, 3.3)))

    def test_standard_series_unchanged(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=500)
        vals = (vals - vals.mean()) / vals.std()
        out = standardize(Series(values=vals))
        assert np.abs(out.values - vals).max() < 1e-12

    def test_two_points(self):
        out = standardize(Series(values=np.array([0.0, 2.0])))
        assert np.array_equal(out.values, np.array([-1.0, 1.0]))
        assert out.mean == 1.0 and out.sd == 1.0

    def test_moments(self):
        out = standardize(generate(GenSpec(seed=5)))
        assert abs(out.values.mean()) < 1e-9
        assert abs(out.values.std() - 1.0) < 1e-9


class TestMakeWindows:
    def test_hand_enumerated_stride3(self):
        # 1-based indices 1..13 with w=5, overlap=2: starts 1,4,7 and
        # targets 6,9,12 -> 0-based starts 0,3,6 and targets 5,8,11.
        series = Series(values=np.arange(20, dtype=float))
        ds = make_windows(series, w=5, overlap=2, first=0, last=12)
        assert np.array_equal(ds.starts, np.array([0, 3, 6]))
        assert np.array_equal(ds.y, np.array([5.0, 8.0, 11.0]))
        assert ds.stride == 3

    def test_stride_one_count(self):
        series = Series(values=np.arange(30, dtype=float))
        w, first, last = 4, 2, 20
        ds = make_windows(series, w=w, overlap=w - 1, first=first, last=last)
        assert ds.stride == 1
        assert ds.y.shape[0] == last - w - first + 1

    def test_alignment_against_raw_series(self):
        rng = np.random.default_rng(7)
        series = Series(values=rng.normal(size=60))
        ds = make_windows(series, w=6, overlap=3)
        for j, start in enumerate(ds.starts):
            assert np.array_equal(ds.X[:, j], series.values[start : start + 6])
            assert ds.y[j] == series.values[start + 6]

    def test_overlap_validation(self):
        series = Series(values=np.arange(20, dtype=float))
        with pytest.raises(InputError):
            make_windows(series, w=5, overlap=5)

    def test_empty_result(self):
        series = Series(values=np.arange(20, dtype=float))
        with pytest.raises(DataError):
            make_windows(series, w=5, overlap=0, first=0, last=4)


class TestSplit:
    def test_boundary_contract(self):
        series = Series(values=np.arange(100, dtype=float))
        train, test = split(series, w=5, train_frac=0.7, train_overlap=2)
        last_train_target = train.starts[-1] + 5
        first_test_target = test.starts[0] + 5
        assert first_test_target == last_train_target + 1
        assert (test.starts + 5).min() > last_train_target

    def test_default_240_layout(self):
        series = Series(values=np.arange(240, dtype=float))
        train, test = split(series, w=5, train_frac=0.75, train_overlap=2)
        # 0-based train targets end at 179 (documented index 180)
        assert train.starts[-1] + 5 == 179
        assert train.y.shape[0] == 59
        assert test.stride == 1
        assert np.array_equal(test.starts + 5, np.arange(180, 240))
        assert test.y.shape[0] == 60

    def test_test_set_runs_to_conclusion(self):
        series = Series(values=np.arange(64, dtype=float))
        _, test = split(series, w=4, train_frac=0.5, train_overlap=1)
        assert test.starts[-1] + 4 == 63

    def test_too_short(self):
        with pytest.raises(DataError):
            split(Series(values=np.arange(8, dtype=float)), w=5, train_frac=0.5)


class TestCsv:
    def test_save_load_round_trip(self, tmp_path):
        series = standardize(generate(GenSpec(seed=3)))
        path = tmp_path / "series.csv"
        save_csv(series, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value"]
        loaded = np.array([float(value) for (value,) in rows[1:]])
        assert np.array_equal(loaded, series.values)
