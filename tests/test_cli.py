"""Config loading, CLI subcommands, output files and determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quack import cli, experiments, kernels, metrics
from quack.config import ExperimentConfig, load_config, snapshot
from quack.errors import ConfigError, NumericalError
from quack.qkernel import QUBIT_CEILING
from quack.timeseries import GenSpec

FAST_BO = "n0 = 4\nn_query = 2\nrestarts = 4\n"

# The documented process exit codes.
EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL = 2, 3, 4


def _predictions(run_dir):
    """The rows of a run's predictions.csv, each a dict of floats."""
    with open(run_dir / "predictions.csv", newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def _overcommits_always():
    """Whether Linux grants every allocation (``vm.overcommit_memory = 1``)."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() == "1"
    except OSError:
        return False


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
_POSITIVE = st.floats(1e-6, 1e6)


@st.composite
def valid_configs(draw):
    """An ``ExperimentConfig`` that validates, with every key drawn."""
    window = draw(st.integers(1, QUBIT_CEILING))
    overlap = draw(st.integers(1, 8))
    qubits = draw(st.lists(st.integers(overlap + 1, QUBIT_CEILING), min_size=1, max_size=4,
                           unique=True))
    gen = GenSpec(
        n_steps=draw(st.integers(2 * window, 10_000)),
        n_trend_changes=draw(st.integers(0, 50)),
        slope=draw(_FINITE),
        sine1_period=draw(_POSITIVE),
        sine1_amplitude=draw(_FINITE),
        sine2_period=draw(st.none() | _POSITIVE),
        sine2_amplitude=draw(_FINITE),
        noise_sd=draw(st.floats(0.0, 1e3)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    cfg = ExperimentConfig(
        gen=gen,
        window=window,
        train_overlap=draw(st.integers(0, window - 1)),
        train_frac=draw(st.floats(1e-6, 1.0, exclude_max=True)),
        kernel=draw(st.sampled_from(kernels.KERNEL_KINDS)),
        matern_nu=draw(st.sampled_from(kernels.MATERN_NUS)),
        matern_all=draw(st.booleans()),
        n0=draw(st.integers(2, 500)),
        n_query=draw(st.integers(1, 500)),
        restarts=draw(st.integers(1, 64)),
        seed_bo=draw(st.integers(0, 2**31 - 1)),
        out_dir=draw(st.text("abcxyz_-/.0189", min_size=1, max_size=12)),
        landscape_alpha=draw(st.floats(0.0, 1.0)),
        landscape_grid=draw(st.integers(2, 200)),
        ablate_n_steps=draw(st.integers(2 * max(qubits), 10_000)),
        ablate_train_overlap=overlap,
        ablate_qubits=tuple(qubits),
    )
    cfg.validate()
    return cfg


def _as_text(value) -> str:
    """A snapshot value as a config file or environment writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


class TestConfig:
    def test_default_experiment_profile(self):
        cfg = load_config(env={})
        assert cfg.gen.n_steps == 240
        assert cfg.gen.n_trend_changes == 4
        assert cfg.gen.sine1_period == 10.0 and cfg.gen.sine1_amplitude == 1.0
        assert cfg.gen.sine2_amplitude == 0.5 and cfg.gen.noise_sd == 0.5
        assert cfg.window == 5 and cfg.train_overlap == 2
        assert cfg.n0 == 25 and cfg.n_query == 25
        assert experiments.search_space_for(cfg).dims == (
            ("alpha", 0.0, 1.0), ("noise_var", 0.0, 1.0), ("mean_const", -1.0, 1.0)
        )
        assert cfg.ablate_n_steps == 480 and cfg.ablate_train_overlap == 4
        assert cfg.ablate_qubits == (5, 6, 7, 8, 9, 10)

    def test_file_values_and_comments(self, tmp_path):
        path = _write_config(
            tmp_path,
            "# comment\nwindow = 6\ngen.n_steps = 300  # inline\nkernel = rbf\n",
        )
        cfg = load_config(path, env={})
        assert cfg.window == 6 and cfg.gen.n_steps == 300 and cfg.kernel == "rbf"

    def test_env_overrides_file(self, tmp_path):
        path = _write_config(tmp_path, "window = 6\n")
        cfg = load_config(path, env={"QUACK_WINDOW": "7", "QUACK_GEN_NOISE_SD": "0.1"})
        assert cfg.window == 7 and cfg.gen.noise_sd == 0.1

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cfg=valid_configs())
    def test_file_and_environment_round_trip(self, cfg):
        texts = {key: _as_text(value) for key, value in snapshot(cfg).items()}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.cfg"
            path.write_text("".join(f"{key} = {text}\n" for key, text in texts.items()))
            assert load_config(path, env={}) == cfg
        env = {"QUACK_" + key.replace(".", "_").upper(): text for key, text in texts.items()}
        assert load_config(env=env) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_config(tmp_path, "wndow = 6\n")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_tuning_box_is_not_configurable(self, tmp_path, capsys):
        # The noise and mean intervals are constants of the search space.
        path = _write_config(tmp_path, "bounds.noise_lo = 0.1\n")
        with pytest.raises(ConfigError, match="unknown config key 'bounds.noise_lo'"):
            load_config(path, env={})
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "tune"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown config key" in err and err.count("\n") == 1
        assert not out.exists()

    def test_bad_value_rejected(self, tmp_path):
        path = _write_config(tmp_path, "window = five\n")
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_seed_data_drives_generator_seed(self, tmp_path):
        path = _write_config(tmp_path, "seed_data = 42\n")
        cfg = load_config(path, env={})
        assert cfg.gen.seed == 42

    def test_validate_window_vs_steps(self):
        cfg = ExperimentConfig()
        cfg.gen.n_steps = 9
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_zero_restarts_rejected(self, tmp_path):
        cfg = ExperimentConfig()
        cfg.restarts = 0
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg_path = _write_config(tmp_path, "restarts = 0\n")
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "tune"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "text, command",
        [
            ("matern_nu = 1.0\n", "compare"),
            ("kernel = spline\n", "tune"),
            ("landscape.alpha = 1.5\n", "landscape"),
            ("ablate.qubits = 0\n", "ablate"),
            ("ablate.qubits = 5,30\n", "ablate"),
            ("ablate.qubits = 4,5\n", "ablate"),  # 4 <= ablate.train_overlap
            ("ablate.qubits = 5,9\nablate.n_steps = 17\n", "ablate"),
            ("ablate.qubits = 5,5\n", "ablate"),
            ("ablate.qubits =\n", "ablate"),
            ("qubit_ceiling = 30\n", "ablate"),  # the ceiling is not a config key
            ("ablate.train_overlap = -1\n", "ablate"),
        ],
        ids=["matern_nu", "kernel", "landscape_alpha", "qubits_zero", "qubits_ceiling",
             "qubits_overlap", "qubits_n_steps", "qubits_duplicate", "qubits_empty",
             "qubit_ceiling_key", "negative_ablate_overlap"],
    )
    def test_invalid_value_exits_before_tuning(self, tmp_path, text, command):
        with pytest.raises(ConfigError):
            load_config(_write_config(tmp_path, text), env={}).validate()
        out = tmp_path / "out"
        code = cli.main(["--config", str(tmp_path / "exp.cfg"), "--out", str(out), command])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, env, command",
        [
            (["--seed-bo", "-1"], {}, "tune"),
            (["--seed-data", "-1"], {}, "generate"),
            ([], {"QUACK_SEED_DATA": "-3"}, "generate"),
        ],
        ids=["seed_bo_flag", "seed_data_flag", "seed_data_env"],
    )
    def test_negative_seed_exits_before_output(self, tmp_path, monkeypatch, capsys, flags, env,
                                               command):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), *flags, command]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("QUACK_GEN_SLOPE", "nan"),
            ("QUACK_GEN_NOISE_SD", "inf"),
            ("QUACK_GEN_SINE1_PERIOD", "0"),
            ("QUACK_GEN_SINE2_PERIOD", "0"),
        ],
        ids=["slope_nan", "noise_sd_inf", "sine1_period_zero", "sine2_period_zero"],
    )
    def test_degenerate_float_exits_before_compare(self, tmp_path, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigError):
            load_config().validate()
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "compare"]) == EXIT_CONFIG
        assert not out.exists()

    def test_search_space_follows_kernel_bounds(self):
        cfg = ExperimentConfig()
        tail = (("noise_var", 0.0, 1.0), ("mean_const", -1.0, 1.0))
        expected = {
            "iqp": (("alpha", 0.0, 1.0),),
            "rbf": (("l_r", 0.1, 30.0),),
            "matern": (("l_m", 0.1, 30.0),),
            "rq": (("beta", 0.1, 10.0), ("l_q", 0.1, 30.0)),
            "periodic": (("p", 5.0, 35.0), ("l_p", 0.1, 30.0)),
        }
        for kind, dims in expected.items():
            space = experiments.search_space_for(dataclasses.replace(cfg, kernel=kind))
            assert space.dims == dims + tail
        with pytest.raises(ConfigError):
            experiments.search_space_for(dataclasses.replace(cfg, kernel="spline"))

    def test_snapshot_round_trips_to_json(self):
        text = json.dumps(snapshot(load_config(env={})))
        assert json.loads(text)["gen.n_steps"] == 240


class TestGenerateCommand:
    def test_writes_240_rows_and_stats(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "generate"])
        assert code == 0
        rows = (tmp_path / "series.csv").read_text().strip().splitlines()
        assert rows[0] == "value" and len(rows) == 241
        stats = json.loads((tmp_path / "series_stats.json").read_text())
        assert set(stats) == {"mean", "sd", "n_steps"}

    def test_ablation_length_series(self, tmp_path):
        cfg_path = _write_config(tmp_path, "gen.n_steps = 480\n")
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "generate"])
        assert code == 0
        rows = (tmp_path / "series.csv").read_text().strip().splitlines()
        assert len(rows) == 481

    def test_idempotent_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["--out", str(a), "--seed-data", "3", "generate"])
        cli.main(["--out", str(b), "--seed-data", "3", "generate"])
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()


STARTUP_PROBE = """
import sys
import quack.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy_modules(), scipy_modules()
code = quack.cli.main(["--config", sys.argv[1], "--out", sys.argv[2], "tune"])
assert code == 0, code
assert not scipy_modules(), scipy_modules()
"""


def test_cli_start_up_loads_no_scipy(tmp_path):
    # A fresh interpreter: importing scipy was most of quack's start-up, and
    # quack needs none of it.
    cfg_path = _write_config(tmp_path, "n0 = 3\nn_query = 2\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUACK_")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(cfg_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert (tmp_path / "out" / "tune_iqp" / "tuned.json").exists()


class TestTuneCommand:
    def test_trace_counts_and_phase_order(self, tmp_path):
        cfg_path = _write_config(tmp_path, FAST_BO)
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "tune"])
        assert code == 0
        lines = (tmp_path / "tune_iqp" / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 + 2
        phases = [line.split(",")[0] for line in lines[1:]]
        assert phases == ["sobol"] * 4 + ["query"] * 2
        tuned = json.loads((tmp_path / "tune_iqp" / "tuned.json").read_text())
        assert set(tuned["theta"]) == {"alpha", "noise_var", "mean_const"}
        assert 0.0 <= tuned["theta"]["alpha"] <= 1.0
        assert tuned["tuner"] == {"refactors": 0}

    def test_unallocatable_budget_exits_2_without_traceback(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, "n_query = 10000000\n")
        for command in ("tune", "predict"):
            code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), command])
            assert code == EXIT_CONFIG, command
            err = capsys.readouterr().err
            assert err.startswith("error: tuning budget") and err.count("\n") == 1, command
            # the budget fails before any run directory is made
            assert not (tmp_path / "tune_iqp").exists(), command
            assert not (tmp_path / "predict_iqp").exists(), command

    def test_single_sobol_trial_exits_2_before_tuning(self, tmp_path, capsys):
        # The first query's surrogate needs 2 trials; with n0 = 1 a tune
        # would spend one objective call, fail and leave tune_iqp/trace.csv.
        cfg_path = _write_config(tmp_path, "n0 = 1\nn_query = 2\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg_path), "--out", str(out), "tune"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: n0=1 ") and err.count("\n") == 1
        assert not out.exists()


class TestPredictCommand:
    def test_band_and_counts(self, tmp_path):
        cfg_path = _write_config(tmp_path, FAST_BO)
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "predict"])
        assert code == 0
        lines = (tmp_path / "predict_iqp" / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "index,target,mean,var_latent,var_predictive,lower95,upper95"
        assert len(lines) - 1 == 60  # c' on the default 240-step split
        for line in lines[1:]:
            _, _, mean, _, var_pred, lo, hi = line.split(",")
            half = experiments.Z95 * np.sqrt(float(var_pred))
            assert float(hi) - float(mean) == pytest.approx(half, abs=1e-9)
            assert float(mean) - float(lo) == pytest.approx(half, abs=1e-9)

    def test_record_evaluation_recomputable(self, tmp_path):
        cfg_path = _write_config(tmp_path, FAST_BO)
        cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "predict"])
        record = json.loads((tmp_path / "predict_iqp" / "record.json").read_text())
        rows = _predictions(tmp_path / "predict_iqp")
        means = np.array([p["mean"] for p in rows])
        variances = np.array([p["var_predictive"] for p in rows])
        targets = np.array([p["target"] for p in rows])
        recomputed = metrics.evaluate_forecast(means, variances, targets).as_dict()
        for name, value in record["evaluation"].items():
            assert recomputed[name] == pytest.approx(value, abs=1e-12)

    def test_reuses_tuned_file(self, tmp_path):
        cfg_path = _write_config(tmp_path, FAST_BO)
        cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "tune"])
        code = cli.main([
            "--config", str(cfg_path), "--out", str(tmp_path), "predict",
            "--tuned", str(tmp_path / "tune_iqp" / "tuned.json"),
        ])
        assert code == 0

    def test_noiseless_sinusoid_rbf_covers_targets(self, tmp_path):
        cfg_path = _write_config(
            tmp_path,
            FAST_BO
            + "kernel = rbf\ngen.noise_sd = 0\ngen.slope = 0\n"
            + "gen.n_trend_changes = 1\ngen.sine2_amplitude = 0\n",
        )
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "predict"])
        assert code == 0
        for p in _predictions(tmp_path / "predict_rbf"):
            assert p["lower95"] - 1e-9 <= p["target"] <= p["upper95"] + 1e-9


class TestCompareCommand:
    def test_table_shape_and_flags(self, tmp_path):
        cfg_path = _write_config(tmp_path, FAST_BO)
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "compare"])
        assert code == 0
        table = (tmp_path / "compare" / "table.csv").read_text().strip().splitlines()
        assert table[0] == "kernel," + ",".join(metrics.Evaluation.METRIC_FIELDS)
        assert len(table) == 6  # header + five kernels
        kinds = [line.split(",")[0] for line in table[1:]]
        assert kinds == list(kernels.KERNEL_KINDS)
        values = {
            line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in table[1:]
        }
        flags = (tmp_path / "compare" / "flags.csv").read_text().strip().splitlines()
        for col, name in enumerate(metrics.Evaluation.METRIC_FIELDS):
            col_vals = {kind: values[kind][col] for kind in kinds}
            best = (max if name == "ll_total" else min)(col_vals, key=col_vals.get)
            flagged = {
                line.split(",")[0]: line.split(",")[1:][col] for line in flags[1:]
            }
            assert flagged[best] == "best"

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = _write_config(tmp_path, FAST_BO)
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["--config", str(cfg_path), "--out", str(a), "compare"])
        cli.main(["--config", str(cfg_path), "--out", str(b), "compare"])
        assert (a / "compare" / "table.csv").read_bytes() == (b / "compare" / "table.csv").read_bytes()

    def test_kernel_failure_recorded_run_continues(self, tmp_path, monkeypatch):
        cfg = load_config(env={})
        cfg.n0, cfg.n_query, cfg.restarts = 4, 2, 4
        real_tune = experiments.run_tune

        def failing_tune(cfg, series, out_dir):
            if cfg.kernel == "rq":
                raise RuntimeError("synthetic failure")
            return real_tune(cfg, series, out_dir)

        monkeypatch.setattr(experiments, "run_tune", failing_tune)
        rows = experiments.run_compare(cfg, tmp_path)
        by_kind = {row.label: row for row in rows}
        assert by_kind["rq"].error == "synthetic failure"
        assert by_kind["rq"].evaluation is None
        assert all(by_kind[k].evaluation is not None for k in ("iqp", "rbf", "matern", "periodic"))
        table = (tmp_path / "table.csv").read_text().strip().splitlines()
        assert len(table) == 6
        rq_line = [l for l in table if l.startswith("rq,")][0]
        assert set(rq_line.split(",")[1:]) == {"nan"}
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert failures == {"rq": "synthetic failure"}


class TestLandscapeCommand:
    def test_grid_properties(self, tmp_path):
        code = cli.main(["--out", str(tmp_path), "landscape", "--alpha", "0.243"])
        assert code == 0
        lines = (tmp_path / "landscape" / "landscape.csv").read_text().strip().splitlines()
        assert lines[0] == "x1,x2,value"
        table = {}
        for line in lines[1:]:
            x1, x2, v = (float(f) for f in line.split(","))
            table[(x1, x2)] = v
        assert table[(0.0, 0.0)] == 1.0
        for (x1, x2), v in table.items():
            assert abs(table[(x2, x1)] - v) < 1e-10
            assert -1e-12 <= v <= 1.0 + 1e-12


class TestAblateCommand:
    def test_rows_and_finiteness(self, tmp_path):
        cfg_path = _write_config(
            tmp_path, FAST_BO + "ablate.qubits = 5,6\nablate.n_steps = 120\n"
        )
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "ablate"])
        assert code == 0
        lines = (tmp_path / "ablate" / "ablate.csv").read_text().strip().splitlines()
        assert lines[0] == "qubits,ll_total,mae"
        assert [line.split(",")[0] for line in lines[1:]] == ["5", "6"]
        for line in lines[1:]:
            _, ll, mae = line.split(",")
            assert np.isfinite(float(ll)) and np.isfinite(float(mae))

    def test_size_failure_recorded_sweep_continues(self, tmp_path, monkeypatch):
        cfg = load_config(env={})
        cfg.n0, cfg.n_query, cfg.restarts = 4, 2, 4
        cfg.ablate_qubits, cfg.ablate_n_steps = (5, 6, 7), 120
        real_tune_and_predict = experiments.tune_and_predict

        def failing_tune_and_predict(cfg, series, tune_dir, predict_dir):
            if cfg.window == 6:
                raise RuntimeError("synthetic failure")
            return real_tune_and_predict(cfg, series, tune_dir, predict_dir)

        monkeypatch.setattr(experiments, "tune_and_predict", failing_tune_and_predict)
        rows = experiments.run_ablate(cfg, tmp_path)
        assert [row.label for row in rows] == ["5", "6", "7"]
        assert rows[1].error == "synthetic failure" and rows[1].evaluation is None
        assert rows[0].error is None and rows[2].error is None
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert failures == {"6": "synthetic failure"}
        lines = (tmp_path / "ablate.csv").read_text().strip().splitlines()
        assert lines[2] == "6,nan,nan"
        for line, row in zip((lines[1], lines[3]), (rows[0], rows[2])):
            label, ll, mae = line.split(",")
            assert label == row.label
            assert float(ll) == row.evaluation.ll_total and float(mae) == row.evaluation.mae
        for w in (5, 7):
            assert (tmp_path / f"qubits_{w}" / "record.json").is_file()

    def test_failure_without_message_is_recorded(self, tmp_path, monkeypatch):
        def failing_tune_and_predict(cfg, series, tune_dir, predict_dir):
            raise RuntimeError()

        monkeypatch.setattr(experiments, "tune_and_predict", failing_tune_and_predict)
        cfg = load_config(env={})
        cfg.ablate_qubits = (5,)
        rows = experiments.run_ablate(cfg, tmp_path)
        assert rows[0].error == "RuntimeError()"
        assert json.loads((tmp_path / "failures.json").read_text()) == {"5": "RuntimeError()"}


class TestRunRecords:
    """Each run's record.json carries the config that run used."""

    TINY_BO = "n0 = 4\nn_query = 2\nrestarts = 2\n"

    def test_ablate_record_is_the_sizes_config(self, tmp_path):
        cfg_path = _write_config(
            tmp_path,
            self.TINY_BO + "ablate.qubits = 5,6\nablate.n_steps = 120\nablate.train_overlap = 3\n",
        )
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "ablate"]) == 0
        for w in (5, 6):
            run_dir = tmp_path / "ablate" / f"qubits_{w}"
            config = json.loads((run_dir / "record.json").read_text())["config"]
            assert config["kernel"] == "iqp"
            assert config["window"] == w
            assert config["train_overlap"] == 3
            assert config["gen.n_steps"] == 120
            # the last target is the last step of the 120-step series the run used
            assert _predictions(run_dir)[-1]["index"] == 120

    def test_compare_records_are_the_kinds_configs(self, tmp_path):
        cfg_path = _write_config(tmp_path, self.TINY_BO)
        args = ["--config", str(cfg_path), "--out", str(tmp_path), "compare", "--matern-all"]
        assert cli.main(args) == 0
        root = tmp_path / "compare"
        for kind in kernels.KERNEL_KINDS:
            if kind == "matern":
                continue
            record = json.loads((root / kind / "record.json").read_text())
            assert record["config"]["kernel"] == kind
        for nu in kernels.MATERN_NUS:
            record = json.loads((root / "matern" / f"nu_{nu}" / "record.json").read_text())
            assert record["config"]["kernel"] == "matern"
            assert record["config"]["matern_nu"] == nu

    def test_matern_all_names_the_selected_nu(self, tmp_path):
        cfg_path = _write_config(tmp_path, self.TINY_BO)
        args = ["--config", str(cfg_path), "--out", str(tmp_path), "compare", "--matern-all"]
        assert cli.main(args) == 0
        root = tmp_path / "compare" / "matern"
        records = {
            nu: json.loads((root / f"nu_{nu}" / "record.json").read_text())
            for nu in kernels.MATERN_NUS
        }
        ll_totals = {nu: record["evaluation"]["ll_total"] for nu, record in records.items()}
        selected = json.loads((root / "selected.json").read_text())
        assert selected["matern_nu"] == max(ll_totals, key=ll_totals.get)
        assert selected["ll_total"] == max(ll_totals.values())


class TestTunedFile:
    """Every unusable --tuned file exits 2 with a one-line message."""

    def _predict(self, tmp_path, capsys, tuned):
        cfg_path = _write_config(tmp_path, FAST_BO)
        code = cli.main([
            "--config", str(cfg_path), "--out", str(tmp_path), "predict", "--tuned", str(tuned),
        ])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return code

    def test_missing_file(self, tmp_path, capsys):
        assert self._predict(tmp_path, capsys, tmp_path / "absent.json") == EXIT_CONFIG

    def test_malformed_json(self, tmp_path, capsys):
        tuned = tmp_path / "tuned.json"
        tuned.write_text('{"kind": "iqp", "theta": ')
        assert self._predict(tmp_path, capsys, tuned) == EXIT_CONFIG

    def test_missing_theta(self, tmp_path, capsys):
        tuned = tmp_path / "tuned.json"
        tuned.write_text(json.dumps({"kind": "iqp"}))
        assert self._predict(tmp_path, capsys, tuned) == EXIT_CONFIG

    def test_theta_names_mismatch(self, tmp_path, capsys):
        tuned = tmp_path / "tuned.json"
        theta = {"l_r": 1.0, "noise_var": 0.1, "mean_const": 0.0}
        tuned.write_text(json.dumps({"kind": "iqp", "theta": theta}))
        assert self._predict(tmp_path, capsys, tuned) == EXIT_CONFIG


class TestExitCodes:
    def test_config_error(self, tmp_path):
        cfg_path = _write_config(tmp_path, "window = 0\n")
        assert cli.main(["--config", str(cfg_path), "generate"]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert cli.main(["--config", str(missing), "generate"]) == EXIT_CONFIG

    def test_bad_kernel_kind(self, tmp_path):
        cfg_path = _write_config(tmp_path, FAST_BO)
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "tune", "--kernel", "spline"])
        assert code == EXIT_CONFIG

    def test_flat_series_is_a_data_error(self, tmp_path, capsys):
        cfg_path = _write_config(
            tmp_path,
            "gen.noise_sd = 0\ngen.slope = 0\ngen.sine1_amplitude = 0\ngen.sine2_amplitude = 0\n",
        )
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "generate"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(
        _overcommits_always(), reason="arrays of tens of TiB may be mapped and then filled"
    )
    @pytest.mark.parametrize(
        "text, command",
        [
            ("gen.n_steps = 10000000000000\n", "generate"),  # 72.8 TiB
            ("landscape.grid = 1000000\n", "landscape"),  # 36.4 TiB
        ],
        ids=["n_steps", "landscape_grid"],
    )
    def test_unallocatable_array_exits_2_without_traceback(self, tmp_path, capsys, text,
                                                           command):
        # Far beyond any host's memory and swap, so numpy's allocation fails
        # at once; a mid-size request could be granted and then killed.
        cfg_path = _write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg_path), "--out", str(out), command]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    def test_numerical_error(self, tmp_path, capsys, monkeypatch):
        def failing_generate(cfg, out_dir):
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr(experiments, "run_generate", failing_generate)
        code = cli.main(["--out", str(tmp_path), "generate"])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: synthetic breakdown\n"
