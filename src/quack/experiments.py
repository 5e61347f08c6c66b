"""Experiment orchestration shared by the CLI subcommands.

Each run is deterministic given the config: the data seed fixes the
series, the BO seed fixes tuning, and all numeric output is printed with
17 significant digits, so repeated runs produce byte-identical numeric
files.  Wall-clock timings live in a separate ``timings`` field of the
run record and are the only non-reproducible values written.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bayesopt, gpr, kernels, metrics, timeseries
from .config import ExperimentConfig, snapshot
from .errors import ConfigError

# Two-sided 97.5% standard normal quantile for the 95% band.
Z95 = 1.959964

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def build_series(cfg: ExperimentConfig, n_steps: int | None = None) -> timeseries.Series:
    """Generate and standardize the configured series."""
    gen = dataclasses.replace(cfg.gen)
    if n_steps is not None:
        gen.n_steps = n_steps
    return timeseries.standardize(timeseries.generate(gen))


def search_space_for(cfg: ExperimentConfig) -> bayesopt.SearchSpace:
    """Tuning box of ``cfg.kernel``: kernel parameters, then noise, then mean.

    Kernel dimensions follow ``kernels.DEFAULT_BOUNDS``; Matern ``nu`` is
    discrete and fixed per run, so it is not tuned.
    """
    kind = cfg.kernel
    if kind not in kernels.DEFAULT_BOUNDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    kernel_dims = [
        (name, lo, hi) for name, (lo, hi) in kernels.DEFAULT_BOUNDS[kind].items() if name != "nu"
    ]
    dims = kernel_dims + [
        ("noise_var", cfg.noise_lo, cfg.noise_hi),
        ("mean_const", cfg.mean_lo, cfg.mean_hi),
    ]
    return bayesopt.SearchSpace(dims=tuple(dims))


def hyperparams_from_theta(
    names: tuple[str, ...], theta, cfg: ExperimentConfig
) -> gpr.GprHyperparams:
    """Unpack a tuner point into GP hyperparameters for ``cfg.kernel``."""
    values = dict(zip(names, np.asarray(theta, dtype=float)))
    noise_var = values.pop("noise_var")
    mean_const = values.pop("mean_const")
    if cfg.kernel == "matern":
        values["nu"] = cfg.matern_nu
    model = kernels.KernelModel(kind=cfg.kernel, params={k: float(v) for k, v in values.items()})
    return gpr.GprHyperparams(mean_const=float(mean_const), noise_var=float(noise_var), kernel=model)


@dataclass
class TuneResult:
    theta: dict[str, float]
    incumbent_value: float
    trace: bayesopt.TuneTrace
    seconds: float


def run_tune(
    cfg: ExperimentConfig, series: timeseries.Series, out_dir: Path | None = None
) -> TuneResult:
    """Maximize the training MLL over the hyperparameter box of ``cfg.kernel``."""
    train, _ = timeseries.split(series, cfg.window, cfg.train_frac, cfg.train_overlap)
    space = search_space_for(cfg)

    def objective(theta):
        hp = hyperparams_from_theta(space.names, theta, cfg)
        return gpr.mll(train.X, train.y, hp)

    trace_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / "trace.csv"
    started = time.perf_counter()
    trace = bayesopt.tune(
        objective, space, cfg.n0, cfg.n_query, cfg.seed_bo,
        restarts=cfg.restarts, trace_path=trace_path,
    )
    seconds = time.perf_counter() - started
    theta = {name: float(v) for name, v in zip(space.names, trace.incumbent_theta)}
    result = TuneResult(
        theta=theta, incumbent_value=trace.incumbent_value, trace=trace, seconds=seconds
    )
    if out_dir is not None:
        payload = {
            "kind": cfg.kernel,
            "theta": theta,
            "incumbent_value": trace.incumbent_value,
            "n0": cfg.n0,
            "n_query": cfg.n_query,
            "seed_bo": cfg.seed_bo,
            "tuner": dataclasses.asdict(trace.counts),
            "timings": {"tune_s": seconds},
        }
        (out_dir / "tuned.json").write_text(json.dumps(payload, indent=2) + "\n")
    return result


@dataclass
class PredictResult:
    theta: dict[str, float]
    target_indices: np.ndarray  # 1-based time index of each test target
    targets: np.ndarray
    means: np.ndarray
    var_latent: np.ndarray
    var_predictive: np.ndarray
    evaluation: metrics.Evaluation
    seconds: float


def run_predict(
    cfg: ExperimentConfig,
    theta: dict[str, float],
    series: timeseries.Series,
    out_dir: Path | None = None,
) -> PredictResult:
    """Fit on the training windows and walk the test range at stride 1."""
    train, test = timeseries.split(series, cfg.window, cfg.train_frac, cfg.train_overlap)
    space = search_space_for(cfg)
    theta_vec = np.array([theta[name] for name in space.names])
    hp = hyperparams_from_theta(space.names, theta_vec, cfg)
    started = time.perf_counter()
    model = gpr.fit(train.X, train.y, hp)
    means, var_latent = gpr.predict_batch(model, test.X)
    seconds = time.perf_counter() - started
    var_predictive = var_latent + hp.noise_var
    evaluation = metrics.evaluate_forecast(means, var_predictive, test.y)
    result = PredictResult(
        theta=dict(theta),
        target_indices=test.starts + cfg.window + 1,
        targets=test.y, means=means,
        var_latent=var_latent, var_predictive=var_predictive,
        evaluation=evaluation, seconds=seconds,
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_predictions_csv(out_dir / "predictions.csv", result)
        (out_dir / "record.json").write_text(
            json.dumps(run_record(cfg, result), indent=2) + "\n"
        )
    return result


def _write_predictions_csv(path: Path, result: PredictResult) -> None:
    half = Z95 * np.sqrt(result.var_predictive)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,target,mean,var_latent,var_predictive,lower95,upper95\n")
        for i in range(result.targets.shape[0]):
            row = (
                str(int(result.target_indices[i])),
                _fmt(result.targets[i]),
                _fmt(result.means[i]),
                _fmt(result.var_latent[i]),
                _fmt(result.var_predictive[i]),
                _fmt(result.means[i] - half[i]),
                _fmt(result.means[i] + half[i]),
            )
            fh.write(",".join(row) + "\n")


def run_record(cfg: ExperimentConfig, result: PredictResult) -> dict:
    """JSON-serializable record of one prediction run."""
    return {
        "kind": cfg.kernel,
        "config": snapshot(cfg),
        "theta": result.theta,
        "evaluation": result.evaluation.as_dict(),
        "timings": {"predict_s": result.seconds},
    }


def tune_and_predict(
    cfg: ExperimentConfig,
    series: timeseries.Series,
    tune_dir: Path | None = None,
    predict_dir: Path | None = None,
) -> tuple[TuneResult, PredictResult]:
    """:func:`run_tune`, then :func:`run_predict` at the tuned incumbent."""
    tuned = run_tune(cfg, series, tune_dir)
    return tuned, run_predict(cfg, tuned.theta, series, predict_dir)


@dataclass
class SweepRow:
    """One unit of a sweep: a kernel of ``compare`` or a window length of ``ablate``.

    ``evaluation`` and ``theta`` are those of the unit's best run by test
    ``ll_total``, and ``matern_nu`` is that run's smoothness when the
    kernel is Matern.  A unit whose run raised has no evaluation and its
    ``error`` set.
    """

    label: str
    evaluation: metrics.Evaluation | None
    theta: dict[str, float] | None
    error: str | None = None
    matern_nu: float | None = None


def _sweep(
    units: list[tuple[str, list[tuple[ExperimentConfig, str]]]],
    series: timeseries.Series,
    out_dir: Path | None,
) -> list[SweepRow]:
    """Tune and predict every run of every unit, one row per unit.

    ``units`` pairs each label with its runs: a config and the run's
    directory under ``out_dir``.  A unit keeps its best run by test
    ``ll_total``.  A unit that raises is recorded with its error and the
    sweep continues; ``failures.json`` maps each such label to its error.
    """
    rows: list[SweepRow] = []
    for label, runs in units:
        try:
            row = None
            for run_cfg, rel in runs:
                run_dir = out_dir / rel if out_dir is not None else None
                tuned, pred = tune_and_predict(run_cfg, series, run_dir, run_dir)
                if row is None or pred.evaluation.ll_total > row.evaluation.ll_total:
                    nu = run_cfg.matern_nu if run_cfg.kernel == "matern" else None
                    row = SweepRow(label, pred.evaluation, tuned.theta, matern_nu=nu)
        except Exception as exc:  # noqa: BLE001 - per-unit isolation is the contract
            row = SweepRow(label, None, None, error=str(exc) or repr(exc))
        rows.append(row)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        failures = {row.label: row.error for row in rows if row.error}
        if failures:
            (out_dir / "failures.json").write_text(json.dumps(failures, indent=2) + "\n")
    return rows


def _write_table(path: Path, first: str, rows: list[SweepRow], fields: tuple[str, ...]) -> None:
    """One line per row: its label, then the ``fields`` of its evaluation (nan if it failed)."""
    lines = [",".join((first, *fields))]
    for row in rows:
        if row.evaluation is None:
            cells = ["nan"] * len(fields)
        else:
            ev = row.evaluation.as_dict()
            cells = [_fmt(ev[name]) for name in fields]
        lines.append(",".join((row.label, *cells)))
    path.write_text("\n".join(lines) + "\n")


def run_compare(cfg: ExperimentConfig, out_dir: Path | None = None) -> list[SweepRow]:
    """Tune, predict and evaluate every kernel on the same series and split.

    Each run gets its own config, ``cfg`` with that run's kernel and
    Matern ``nu``.  A kernel that fails is recorded with its error and the
    run continues.  With ``matern_all`` the three Matern smoothness values
    are tuned separately, the best by test log likelihood is reported, and
    ``matern/selected.json`` names its ``nu``.
    """
    units = []
    for kind in kernels.KERNEL_KINDS:
        kind_cfg = dataclasses.replace(cfg, kernel=kind)
        if kind == "matern" and cfg.matern_all:
            runs = [
                (dataclasses.replace(kind_cfg, matern_nu=nu), f"{kind}/nu_{nu}")
                for nu in kernels.MATERN_NUS
            ]
        else:
            runs = [(kind_cfg, kind)]
        units.append((kind, runs))
    rows = _sweep(units, build_series(cfg), out_dir)
    if out_dir is not None:
        matern = rows[kernels.KERNEL_KINDS.index("matern")]
        if cfg.matern_all and matern.evaluation is not None:
            selected = {"matern_nu": matern.matern_nu, "ll_total": matern.evaluation.ll_total}
            (out_dir / "matern" / "selected.json").write_text(json.dumps(selected, indent=2) + "\n")
        fields = metrics.Evaluation.METRIC_FIELDS
        _write_table(out_dir / "table.csv", "kernel", rows, fields)
        flags = compare_flags(rows)
        flag_lines = [",".join(("kernel", *fields))]
        flag_lines += [",".join((row.label, *flags[row.label])) for row in rows]
        (out_dir / "flags.csv").write_text("\n".join(flag_lines) + "\n")
    return rows


def compare_flags(rows: list[SweepRow]) -> dict[str, list[str]]:
    """Best / second-best markers per metric column; LL ranks descending."""
    out = {row.label: [""] * len(metrics.Evaluation.METRIC_FIELDS) for row in rows}
    for col, name in enumerate(metrics.Evaluation.METRIC_FIELDS):
        scored = [
            (row.evaluation.as_dict()[name], row.label)
            for row in rows
            if row.evaluation is not None
        ]
        if not scored:
            continue
        reverse = name == "ll_total"
        ranked = sorted(scored, key=lambda pair: pair[0], reverse=reverse)
        out[ranked[0][1]][col] = "best"
        if len(ranked) > 1:
            out[ranked[1][1]][col] = "second"
    return out


def landscape_grid(cfg: ExperimentConfig, alpha: float, series: timeseries.Series) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity against the zero window over a 2-d slice of input space.

    The first two window coordinates sweep [series min, series max] (the
    exact origin is inserted if the grid misses it); remaining
    coordinates stay at zero.  Returns (axis values, value matrix).
    """
    w = cfg.window
    lo = float(series.values.min())
    hi = float(series.values.max())
    axis = np.linspace(lo, hi, cfg.landscape_grid)
    if not np.any(axis == 0.0):
        axis = np.sort(np.append(axis, 0.0))
    m = axis.shape[0]
    grid_points = np.zeros((w, m * m))
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    grid_points[0, :] = xs.ravel()
    if w > 1:
        grid_points[1, :] = ys.ravel()
    model = kernels.KernelModel(kind="iqp", params={"alpha": float(alpha)})
    reference = np.zeros((w, 1))
    values = kernels.cross(model, reference, grid_points)[0]
    return axis, values.reshape(m, m)


def run_landscape(cfg: ExperimentConfig, alpha: float, out_dir: Path | None = None) -> tuple[np.ndarray, np.ndarray]:
    series = build_series(cfg)
    axis, values = landscape_grid(cfg, alpha, series)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "landscape.csv", "w", encoding="utf-8") as fh:
            fh.write("x1,x2,value\n")
            for i, x1 in enumerate(axis):
                for j, x2 in enumerate(axis):
                    fh.write(f"{_fmt(x1)},{_fmt(x2)},{_fmt(values[i, j])}\n")
    return axis, values


def run_ablate(cfg: ExperimentConfig, out_dir: Path | None = None) -> list[SweepRow]:
    """Retune and re-predict the quantum model at each window length.

    Uses the ablation profile: longer series and wider window overlap so
    the larger windows keep enough training pairs.  Each size runs from
    its own config, ``cfg`` with the IQP kernel, that window, the
    ablation overlap and the ablation series length; its row's label is
    the window length.  Per-size failures are recorded and the sweep
    continues.
    """
    base = dataclasses.replace(
        cfg, kernel="iqp", train_overlap=cfg.ablate_train_overlap,
        gen=dataclasses.replace(cfg.gen, n_steps=cfg.ablate_n_steps),
    )
    units = [
        (str(w), [(dataclasses.replace(base, window=w), f"qubits_{w}")])
        for w in cfg.ablate_qubits
    ]
    rows = _sweep(units, build_series(base), out_dir)
    if out_dir is not None:
        _write_table(out_dir / "ablate.csv", "qubits", rows, ("ll_total", "mae"))
    return rows


def run_generate(cfg: ExperimentConfig, out_dir: Path) -> tuple[Path, Path]:
    """Write the standardized series CSV and its statistics sidecar."""
    raw = timeseries.generate(cfg.gen)
    std = timeseries.standardize(raw)
    out_dir.mkdir(parents=True, exist_ok=True)
    series_path = out_dir / "series.csv"
    stats_path = out_dir / "series_stats.json"
    timeseries.save_csv(std, series_path)
    stats_path.write_text(
        json.dumps({"mean": std.mean, "sd": std.sd, "n_steps": len(std)}, indent=2) + "\n"
    )
    return series_path, stats_path
