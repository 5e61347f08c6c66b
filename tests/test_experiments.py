"""Run files: the streamed tuning trace, the series file and the file-I/O boundary.

``experiments`` writes every run file; the tuner and the series module
only compute, which the boundary test checks by making ``open`` raise.
"""

import builtins
import csv
import dataclasses
import io
import re

import numpy as np
import pytest

from quack import bayesopt, experiments, gpr, timeseries
from quack.config import load_config


def _cfg(**changes):
    return dataclasses.replace(load_config(env={}), **changes)


class TestRunTune:
    def test_objective_failure_persists_partial_trace(self, tmp_path, monkeypatch):
        cfg = _cfg(n0=8, n_query=2)
        mll = gpr.mll
        calls = [0]

        def failing_mll(*args):
            calls[0] += 1
            if calls[0] == 5:
                raise RuntimeError("boom")
            return mll(*args)

        monkeypatch.setattr(gpr, "mll", failing_mll)
        with pytest.raises(RuntimeError):
            experiments.run_tune(cfg, experiments.build_series(cfg), tmp_path)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0].startswith("phase,")
        assert len(lines) == 1 + 4  # header plus completed trials

    def test_first_trial_failure_leaves_header_only_trace(self, tmp_path, monkeypatch):
        def failing_mll(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(gpr, "mll", failing_mll)
        cfg = _cfg(n0=8, n_query=2)
        with pytest.raises(RuntimeError):
            experiments.run_tune(cfg, experiments.build_series(cfg), tmp_path)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("phase,")

    def test_trace_file_format(self, tmp_path):
        cfg = _cfg(n0=3, n_query=2)
        result = experiments.run_tune(cfg, experiments.build_series(cfg), tmp_path)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "phase,theta_alpha,theta_noise_var,theta_mean_const,value,timestamp"
        assert len(lines) == 1 + 3 + 2
        for line, trial in zip(lines[1:], result.trace.trials):
            fields = line.split(",")
            assert len(fields) == 6
            assert fields[0] == trial.phase
            # 17 significant digits read back bit-exactly
            assert np.array_equal([float(f) for f in fields[1:4]], trial.theta)
            assert float(fields[4]) == trial.value
            assert re.fullmatch(r"\d+\.\d{6}", fields[5])


class TestRunPredict:
    @pytest.mark.parametrize("clamped", [False, True])
    def test_zero_noise_at_a_training_window(self, tmp_path, monkeypatch, clamped):
        # Period 4 against the training stride 3: every test window is a
        # training window.  At noise_var = 0 the latent variance there is
        # about jitter / 4, or exactly 0 where predict_batch clamps it; the
        # predictive variance adds the noise the fit factored.
        values = np.tile([0.5, -1.0, 1.5, 0.25], 15)
        series = timeseries.Series(values=values)
        cfg = _cfg(kernel="rbf")
        train, test = timeseries.split(series, cfg.window, cfg.train_frac, cfg.train_overlap)
        assert all(np.any(np.all(train.X == x[:, None], axis=0)) for x in test.X.T)
        if clamped:
            predict_batch = gpr.predict_batch

            def clamping_predict_batch(model, X):
                means, _ = predict_batch(model, X)
                return means, np.zeros_like(means)

            monkeypatch.setattr(gpr, "predict_batch", clamping_predict_batch)
        theta = {"l_r": 1.0, "noise_var": 0.0, "mean_const": 0.0}
        evaluation = experiments.run_predict(cfg, theta, series, tmp_path)
        assert np.isfinite(evaluation.ll_total)
        with open(tmp_path / "predictions.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == test.X.shape[1]
        assert all(float(row["var_predictive"]) >= gpr.JITTER_LADDER[0] for row in rows)


class TestRunGenerate:
    def test_series_round_trips_bit_exactly(self, tmp_path):
        cfg = _cfg(gen=timeseries.GenSpec(seed=3))
        series_path, _ = experiments.run_generate(cfg, tmp_path)
        with open(series_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value"]
        loaded = np.array([float(value) for (value,) in rows[1:]])
        expected = timeseries.standardize(timeseries.generate(cfg.gen)).values
        assert np.array_equal(loaded, expected)


class TestFileBoundary:
    def test_tuner_and_series_do_no_file_io(self, monkeypatch):
        def objective(theta):
            return -float(np.sum((theta - 0.3) ** 2))

        space = bayesopt.SearchSpace(dims=(("a", 0.0, 1.0), ("b", -1.0, 1.0)))
        expected = bayesopt.tune(objective, space, n0=4, n_query=2, seed=5)

        def no_open(*args, **kwargs):
            raise AssertionError("file opened")

        monkeypatch.setattr(builtins, "open", no_open)
        monkeypatch.setattr(io, "open", no_open)  # behind Path.open and write_text
        trace = bayesopt.tune(objective, space, n0=4, n_query=2, seed=5)
        series = timeseries.standardize(timeseries.generate(timeseries.GenSpec(seed=2)))
        train, test = timeseries.split(series, w=5)
        monkeypatch.undo()
        assert np.array_equal(trace.incumbent_theta, expected.incumbent_theta)
        assert train.X.shape[0] == test.X.shape[0] == 5
