"""Acceptance suite: one test per stated criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Criterion 6 is split into its three clauses; clause (b) is a
known-red criterion on this generator (IQP's test log likelihood trails
Matern's on 12/12 measured data seeds; see the analysis in the project
notes) and is asserted as stated rather than weakened.

The tuner-quality check compares the comparison runs' tuned incumbents
with ``golden/tuner.json``.  A change that is meant to move them
regenerates that file, and says why, with::

    OPENBLAS_NUM_THREADS=1 python3 tests/test_acceptance.py
"""

import importlib.util
import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

if __name__ == "__main__":  # run as a script: import quack from the source tree
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles
from quack import cli, experiments, gpr, kernels, metrics, qkernel, timeseries
from quack.bayesopt import SearchSpace, sobol_init, tune
from quack.config import load_config
from quack.qkernel import IqpParams


def _load_tool(name):
    """The module of ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_runs = _load_tool("diff_runs")
tuner_record = _load_tool("tuner_record")


def _passed(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


# --------------------------------------------------------------------------
# 1. Kernel oracle equivalence


def _fidelity(x, x2, params):
    """quack's fidelity of one pair of windows, through the cross-kernel path."""
    return qkernel.cross_gram(x[:, None], x2[:, None], params)[0, 0]


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for n in range(1, 7):
        for _ in range(50):
            x = rng.normal(size=n)
            x2 = rng.normal(size=n)
            params = IqpParams(rng.uniform(0.0, 1.0), n)
            fast = _fidelity(x, x2, params)
            dense = oracles.kernel(x, x2, params)
            assert abs(fast - dense) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    _passed(1, "kernel oracle equivalence")


# --------------------------------------------------------------------------
# 2. Kernel properties


def test_criterion_2_kernel_properties():
    rng = np.random.default_rng(102)
    for _ in range(500):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        params = IqpParams(rng.uniform(0.0, 1.0), 5)
        k_xy = _fidelity(x, y, params)
        assert k_xy == _fidelity(y, x, params)  # symmetry, exact
        assert abs(_fidelity(x, x, params) - 1.0) < 1e-10
        assert 0.0 <= k_xy <= 1.0 + 1e-12
    for _ in range(20):
        X = rng.normal(size=(5, 30))
        gram = qkernel.gram_matrix(X, IqpParams(rng.uniform(0.0, 1.0), 5))
        assert np.linalg.eigvalsh(gram).min() >= -3e-7
    X = rng.normal(size=(5, 30))
    assert np.array_equal(qkernel.gram_matrix(X, IqpParams(0.0, 5)), np.ones((30, 30)))
    assert np.array_equal(qkernel.diagonal_phases(X[:, 0], 0.0), np.zeros(32))
    _passed(2, "kernel properties")


# --------------------------------------------------------------------------
# 3. GPR oracle equivalence


def test_criterion_3_gpr_oracle_equivalence():
    rng = np.random.default_rng(103)
    kinds = ("rbf", "matern", "rq", "periodic", "iqp")
    defaults = {
        "rbf": {"l_r": 1.5},
        "matern": {"nu": 2.5, "l_m": 1.8},
        "rq": {"beta": 1.1, "l_q": 1.4},
        "periodic": {"p": 9.0, "l_p": 1.2},
        "iqp": {"alpha": 0.45},
    }
    for trial in range(100):
        kind = kinds[trial % len(kinds)]
        c = int(rng.integers(1, 9))
        w = int(rng.integers(2, 6))
        X = rng.normal(size=(w, c))
        y = rng.normal(size=c)
        hp = gpr.GprHyperparams(
            mean_const=float(rng.uniform(-1, 1)),
            noise_var=float(rng.uniform(0.1, 1.0)),
            kernel=kernels.KernelModel(kind, dict(defaults[kind])),
        )
        xq = rng.normal(size=w)
        model = gpr.fit(X, y, hp)
        (mean,), (var,) = gpr.predict_batch(model, xq[:, None])
        mean_ref, var_ref = oracles.gpr_predict(X, y, hp, xq)
        mll_ref = oracles.gpr_mll(X, y, hp)
        assert abs(mean - mean_ref) < 1e-8
        assert abs(var - max(var_ref, 0.0)) < 1e-8
        assert abs(gpr.mll(X, y, hp) - mll_ref) < 1e-8
    _passed(3, "gpr oracle equivalence")


# --------------------------------------------------------------------------
# 4. CRPS oracle


def _crps_quadrature(mean, sd, y):
    cdf = lambda z: norm.cdf(z, loc=mean, scale=sd)
    left, _ = quad(lambda z: cdf(z) ** 2, mean - 12 * sd, y, limit=200)
    right, _ = quad(lambda z: (cdf(z) - 1.0) ** 2, y, mean + 12 * sd, limit=200)
    return left + right


def test_criterion_4_crps_oracle():
    for omega in (-3.0, -1.0, 0.0, 1.0, 3.0):
        for sd in (0.1, 1.0, 10.0):
            mean = 0.25
            y = mean + omega * sd
            analytic = metrics.crps_normal(mean, sd, y)
            assert abs(analytic - _crps_quadrature(mean, sd, y)) < 1e-6
    exact = math.sqrt(2.0 / math.pi) - 1.0 / math.sqrt(math.pi)
    assert abs(metrics.crps_normal(0.0, 1.0, 0.0) - exact) < 1e-9
    _passed(4, "crps oracle")


# --------------------------------------------------------------------------
# 5. BO sanity


def test_criterion_5_bo_sanity():
    space = SearchSpace(dims=(("a", 0.0, 1.0), ("b", 0.0, 1.0), ("c", 0.0, 1.0)))
    center = np.array([0.3, 0.7, 0.5])

    def objective(theta):
        return -float(np.sum((theta - center) ** 2))

    started = time.perf_counter()
    beat_sobol = 0
    near_optimum = 0
    for seed in range(10):
        trace = tune(objective, space, n0=25, n_query=25, seed=seed)
        sobol_best = max(objective(p) for p in sobol_init(space, 50, seed))
        beat_sobol += trace.incumbent_value >= sobol_best
        near_optimum += np.linalg.norm(trace.incumbent_theta - center) < 0.15
    elapsed = time.perf_counter() - started
    assert beat_sobol >= 8, f"beat pure Sobol on only {beat_sobol}/10 seeds"
    assert near_optimum >= 7, f"within 0.15 of optimum on only {near_optimum}/10 seeds"
    assert elapsed < 60.0, f"BO sanity took {elapsed:.1f}s"
    _passed(5, "bo sanity")


# --------------------------------------------------------------------------
# 6. Benchmark comparison (5 data seeds, full 50-evaluation budget)


COMPARISON_KINDS = ("iqp", "rbf", "matern")
COMPARISON_SEEDS = range(5)


def _comparison_runs() -> dict:
    """data seed -> kind -> (TuneResult, Evaluation) at the default config,
    as ``tools/tuner_record.py`` tunes them.

    The run files go to a temporary directory that is removed afterwards.
    """
    with tempfile.TemporaryDirectory() as tmp:
        runs = tuner_record.comparison_runs(
            COMPARISON_SEEDS, COMPARISON_KINDS, Path(tmp), predict=True
        )
    for per_kind in runs.values():
        for tuned, _ in per_kind.values():
            assert len(tuned.trace.trials) == 50  # n0 + n_query objective calls
    return runs


@pytest.fixture(scope="module")
def comparison_runs():
    started = time.perf_counter()
    runs = _comparison_runs()
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"comparison runs took {elapsed:.0f}s"
    return runs


def test_criterion_6a_iqp_tracks_rbf(comparison_runs):
    for seed, per_kind in comparison_runs.items():
        iqp = per_kind["iqp"][1]
        rbf = per_kind["rbf"][1]
        for name in ("smape", "mae", "rmse", "mcrps"):
            iqp_v = getattr(iqp, name)
            rbf_v = getattr(rbf, name)
            rel = abs(iqp_v - rbf_v) / abs(rbf_v)
            assert rel <= 0.20, f"seed {seed}: {name} off by {rel:.1%}"
    _passed("6a", "iqp within 20% of rbf on smape/mae/rmse/mcrps")


def test_criterion_6b_iqp_ll_vs_matern(comparison_runs):
    wins = sum(
        per_kind["iqp"][1].ll_total >= per_kind["matern"][1].ll_total
        for per_kind in comparison_runs.values()
    )
    assert wins >= 3, (
        f"IQP ll_total >= Matern on {wins}/5 seeds; known-red on this generator "
        "(see decisions notes: gap exists at training-MLL level on 12/12 seeds)"
    )
    _passed("6b", "iqp ll_total >= matern on majority of seeds")


def test_criterion_6c_tuned_alpha_interior(comparison_runs):
    hits = sum(
        0.05 < per_kind["iqp"][0].theta["alpha"] < 0.6
        for per_kind in comparison_runs.values()
    )
    assert hits >= 4, f"alpha interior on only {hits}/5 seeds"
    _passed("6c", "tuned alpha in (0.05, 0.6)")


# --------------------------------------------------------------------------
# Tuner quality: the comparison runs' incumbents against the recorded ones

TUNER_RECORD = Path(__file__).parent / "golden" / "tuner.json"


def test_tuner_quality_against_record(comparison_runs):
    # The tuner may move incumbents either way, but not lose on balance:
    # the median change stays above -0.05 nats and no entry drops by 1.5.
    recorded = json.loads(TUNER_RECORD.read_text())
    got = {"seeds": list(COMPARISON_SEEDS), **tuner_record.incumbents(comparison_runs)}
    changes = [change for change, _, _ in tuner_record.changes(got, recorded)]
    assert len(changes) == len(COMPARISON_SEEDS) * len(COMPARISON_KINDS)
    assert statistics.median(changes) >= -0.05, f"incumbent changes {changes}"
    assert min(changes) >= -1.5, f"incumbent changes {changes}"
    _passed("tuner", "incumbents against the recorded tuner table")


# --------------------------------------------------------------------------
# 7. Fidelity landscape


def test_criterion_7_fidelity_landscape(tmp_path):
    code = cli.main(["--out", str(tmp_path), "landscape", "--alpha", "0.243"])
    assert code == 0
    lines = (tmp_path / "landscape" / "landscape.csv").read_text().strip().splitlines()
    values = {}
    for line in lines[1:]:
        x1, x2, v = (float(f) for f in line.split(","))
        values[(x1, x2)] = v
    assert values[(0.0, 0.0)] == 1.0
    for (x1, x2), v in values.items():
        assert abs(values[(x2, x1)] - v) < 1e-10
    axis = np.array(sorted({x1 for x1, _ in values}))

    def nearest(target):
        return float(axis[np.argmin(np.abs(axis - target))])

    for sign in (+1.0, -1.0):
        near, far = nearest(sign * 0.5), nearest(sign * 2.0)
        assert values[(near, 0.0)] > values[(far, 0.0)]
        assert values[(0.0, near)] > values[(0.0, far)]
    _passed(7, "fidelity landscape")


# --------------------------------------------------------------------------
# 8. Ablation harness


def test_criterion_8_ablation_harness(tmp_path):
    cfg = load_config(env={})
    rows = experiments.run_ablate(cfg, tmp_path)
    assert [int(row.label) for row in rows] == [5, 6, 7, 8, 9, 10]
    for row in rows:
        assert row.error is None, f"qubits={row.label} failed: {row.error}"
        assert np.isfinite(row.evaluation.ll_total) and np.isfinite(row.evaluation.mae)
    table = (tmp_path / "ablate.csv").read_text().strip().splitlines()
    assert len(table) == 7
    _passed(8, "ablation harness")


# --------------------------------------------------------------------------
# 9. Determinism


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("n0 = 6\nn_query = 3\nrestarts = 6\n")
    dirs = (tmp_path / "run_a", tmp_path / "run_b")
    for d in dirs:
        assert cli.main(["--config", str(cfg_path), "--out", str(d), "compare"]) == 0
    # every file of the run, tuned.json included; timings and trace
    # timestamps aside
    differing, total = diff_runs.diff_trees(*dirs)
    assert total == 22
    assert differing == []
    _passed(9, "determinism")


# --------------------------------------------------------------------------
# 10. Performance floor


def test_criterion_10_performance_floor():
    rng = np.random.default_rng(110)
    X = rng.normal(size=(10, 60))
    started = time.perf_counter()
    gram = qkernel.gram_matrix(X, IqpParams(0.3, 10))
    elapsed = time.perf_counter() - started
    assert gram.shape == (60, 60)
    assert elapsed < 60.0, f"60x60 gram at n=10 took {elapsed:.2f}s"
    _passed(10, "performance floor")


if __name__ == "__main__":
    TUNER_RECORD.parent.mkdir(exist_ok=True)
    record = tuner_record.incumbents(_comparison_runs())
    TUNER_RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {TUNER_RECORD}")
