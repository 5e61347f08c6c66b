"""Experiment orchestration shared by the CLI subcommands; the only writer of run files.

One tune -> predict -> score flow: every ``run_*`` function writes its
run directory, which it takes as a required argument, and returns only
what its callers read (:func:`run_predict` the
:class:`~quack.metrics.Evaluation`; the posteriors stay in
``predictions.csv``).

Every CSV line is formatted by :func:`_line`, every JSON file written by
:func:`_write_json`.  Fixed seeds give byte-identical numeric files: the
data seed fixes the series, the BO seed fixes tuning, and floats are
printed with 17 significant digits.  Wall-clock values (``timings`` in
the JSON records, the last column of ``trace.csv``) are the only
non-reproducible output; ``timings`` also records the BLAS thread counts
(:func:`quack.blas.threads`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bayesopt, blas, gpr, kernels, metrics, timeseries
from .config import ExperimentConfig, snapshot
from .errors import ConfigError

# Two-sided 97.5% standard normal quantile for the 95% band.
Z95 = 1.959964

def _line(cells) -> str:
    """One CSV line: text as is, integers in decimal, floats to 17 significant digits."""
    return ",".join(
        c if isinstance(c, str) else str(int(c)) if isinstance(c, (int, np.integer))
        else f"{float(c):.17g}"
        for c in cells
    ) + "\n"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_line(header))
        fh.writelines(_line(row) for row in rows)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def build_series(cfg: ExperimentConfig, n_steps: int | None = None) -> timeseries.Series:
    """Generate and standardize the configured series."""
    gen = dataclasses.replace(cfg.gen)
    if n_steps is not None:
        gen.n_steps = n_steps
    return timeseries.standardize(timeseries.generate(gen))


# The GP dimensions every kind tunes after its kernel's: noise variance, then constant mean.
_NOISE_MEAN_DIMS = (("noise_var", 0.0, 1.0), ("mean_const", -1.0, 1.0))


def search_space_for(cfg: ExperimentConfig) -> bayesopt.SearchSpace:
    """Tuning box of ``cfg.kernel``: kernel parameters, then noise, then mean.

    Kernel dimensions follow ``kernels.DEFAULT_BOUNDS``; Matern ``nu`` is
    discrete and fixed per run, so it is not tuned.  The noise and mean
    intervals are the constant ``_NOISE_MEAN_DIMS``, the same for every kind.
    """
    kind = cfg.kernel
    if kind not in kernels.DEFAULT_BOUNDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    kernel_dims = tuple(
        (name, lo, hi) for name, (lo, hi) in kernels.DEFAULT_BOUNDS[kind].items() if name != "nu"
    )
    return bayesopt.SearchSpace(dims=kernel_dims + _NOISE_MEAN_DIMS)


def hyperparams(cfg: ExperimentConfig, theta: dict[str, float]) -> gpr.GprHyperparams:
    """GP hyperparameters of ``cfg.kernel`` at ``theta``, a tuner point keyed by dimension name."""
    values = {name: float(v) for name, v in theta.items()}
    noise_var = values.pop("noise_var")
    mean_const = values.pop("mean_const")
    if cfg.kernel == "matern":
        values["nu"] = cfg.matern_nu
    model = kernels.KernelModel(kind=cfg.kernel, params=values)
    return gpr.GprHyperparams(mean_const=mean_const, noise_var=noise_var, kernel=model)


@dataclass
class TuneResult:
    theta: dict[str, float]
    incumbent_value: float
    trace: bayesopt.TuneTrace


def run_tune(cfg: ExperimentConfig, series: timeseries.Series, out_dir: Path) -> TuneResult:
    """Maximize the training MLL over the hyperparameter box of ``cfg.kernel``.

    Streams every trial to ``out_dir/trace.csv`` and writes the incumbent
    to ``out_dir/tuned.json``.
    """
    train, _ = timeseries.split(series, cfg.window, cfg.train_frac, cfg.train_overlap)
    space = search_space_for(cfg)

    fh = None

    def objective(theta):
        # The trace is opened at the first call, once tune has allocated its
        # factor store, so a budget too large to allocate leaves no run
        # directory, and a first trial that raises leaves the header.
        nonlocal fh
        if fh is None:
            out_dir.mkdir(parents=True, exist_ok=True)
            fh = open(out_dir / "trace.csv", "w", encoding="utf-8")
            fh.write(_line(("phase", *(f"theta_{n}" for n in space.names), "value", "timestamp")))
            fh.flush()
        return gpr.mll(train.X, train.y, hyperparams(cfg, dict(zip(space.names, theta))))

    def on_trial(phase, theta, value):
        # Flushed per line so a partial trace survives an aborted run.
        fh.write(_line((phase, *theta, value, f"{time.time():.6f}")))
        fh.flush()

    started = time.perf_counter()
    try:
        trace = bayesopt.tune(
            objective, space, cfg.n0, cfg.n_query, cfg.seed_bo,
            restarts=cfg.restarts, on_trial=on_trial,
        )
    finally:
        if fh is not None:
            fh.close()
    seconds = time.perf_counter() - started
    theta = {name: float(v) for name, v in zip(space.names, trace.incumbent_theta)}
    _write_json(out_dir / "tuned.json", {
        "kind": cfg.kernel,
        "theta": theta,
        "incumbent_value": trace.incumbent_value,
        "n0": cfg.n0,
        "n_query": cfg.n_query,
        "seed_bo": cfg.seed_bo,
        "tuner": dataclasses.asdict(trace.counts),
        "timings": {"tune_s": seconds, "blas_threads": blas.threads()},
    })
    return TuneResult(theta=theta, incumbent_value=trace.incumbent_value, trace=trace)


def run_predict(
    cfg: ExperimentConfig, theta: dict[str, float], series: timeseries.Series, out_dir: Path
) -> metrics.Evaluation:
    """Fit on the training windows, walk the test range at stride 1 and score it.

    Writes the posteriors to ``out_dir/predictions.csv`` and the
    evaluation to ``out_dir/record.json``.
    """
    train, test = timeseries.split(series, cfg.window, cfg.train_frac, cfg.train_overlap)
    hp = hyperparams(cfg, theta)
    started = time.perf_counter()
    model = gpr.fit(train.X, train.y, hp)
    means, var_latent = gpr.predict_batch(model, test.X)
    seconds = time.perf_counter() - started
    # the noise the fit factored, so a clamped latent variance stays positive
    var_predictive = var_latent + (hp.noise_var + model.jitter)
    evaluation = metrics.evaluate_forecast(means, var_predictive, test.y)
    out_dir.mkdir(parents=True, exist_ok=True)
    half = Z95 * np.sqrt(var_predictive)
    _write_csv(
        out_dir / "predictions.csv",
        ("index", "target", "mean", "var_latent", "var_predictive", "lower95", "upper95"),
        # index: the 1-based time index of each test target
        zip(test.starts + cfg.window + 1, test.y, means, var_latent, var_predictive,
            means - half, means + half),
    )
    _write_json(out_dir / "record.json", {
        "kind": cfg.kernel,
        "config": snapshot(cfg),
        "theta": dict(theta),
        "evaluation": evaluation.as_dict(),
        "timings": {"predict_s": seconds, "blas_threads": blas.threads()},
    })
    return evaluation


def tune_and_predict(
    cfg: ExperimentConfig, series: timeseries.Series, tune_dir: Path, predict_dir: Path
) -> metrics.Evaluation:
    """:func:`run_tune` into ``tune_dir``, then :func:`run_predict` at the
    tuned incumbent into ``predict_dir``."""
    return run_predict(cfg, run_tune(cfg, series, tune_dir).theta, series, predict_dir)


@dataclass
class SweepRow:
    """One unit of a sweep: a kernel of ``compare`` or a window length of ``ablate``.

    ``evaluation`` is that of the unit's best run by test ``ll_total``,
    and ``matern_nu`` is that run's smoothness when the kernel is Matern.
    A unit whose run raised has no evaluation and its ``error`` set.
    """

    label: str
    evaluation: metrics.Evaluation | None
    error: str | None = None
    matern_nu: float | None = None


def _sweep(
    units: list[tuple[str, list[tuple[ExperimentConfig, str]]]],
    series: timeseries.Series,
    out_dir: Path,
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
                evaluation = tune_and_predict(run_cfg, series, out_dir / rel, out_dir / rel)
                if row is None or evaluation.ll_total > row.evaluation.ll_total:
                    nu = run_cfg.matern_nu if run_cfg.kernel == "matern" else None
                    row = SweepRow(label, evaluation, matern_nu=nu)
        except Exception as exc:  # noqa: BLE001 - per-unit isolation is the contract
            row = SweepRow(label, None, error=str(exc) or repr(exc))
        rows.append(row)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = {row.label: row.error for row in rows if row.error}
    if failures:
        _write_json(out_dir / "failures.json", failures)
    return rows


def _write_table(path: Path, first: str, rows: list[SweepRow], fields: tuple[str, ...]) -> None:
    """One line per row: its label, then the ``fields`` of its evaluation (nan if it failed)."""
    _write_csv(path, (first, *fields), [
        (row.label, *(row.evaluation.as_dict()[f] if row.evaluation else math.nan for f in fields))
        for row in rows
    ])


def run_compare(cfg: ExperimentConfig, out_dir: Path) -> list[SweepRow]:
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
    matern = rows[kernels.KERNEL_KINDS.index("matern")]
    if cfg.matern_all and matern.evaluation is not None:
        selected = {"matern_nu": matern.matern_nu, "ll_total": matern.evaluation.ll_total}
        _write_json(out_dir / "matern" / "selected.json", selected)
    fields = metrics.Evaluation.METRIC_FIELDS
    _write_table(out_dir / "table.csv", "kernel", rows, fields)
    flags = compare_flags(rows)
    _write_csv(out_dir / "flags.csv", ("kernel", *fields),
               ((row.label, *flags[row.label]) for row in rows))
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


def run_landscape(cfg: ExperimentConfig, alpha: float, out_dir: Path) -> Path:
    """Write the fidelity grid of :func:`landscape_grid` to ``out_dir/landscape.csv``."""
    axis, values = landscape_grid(cfg, alpha, build_series(cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "landscape.csv"
    _write_csv(path, ("x1", "x2", "value"), (
        (x1, x2, values[i, j]) for i, x1 in enumerate(axis) for j, x2 in enumerate(axis)
    ))
    return path


def run_ablate(cfg: ExperimentConfig, out_dir: Path) -> list[SweepRow]:
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
    _write_table(out_dir / "ablate.csv", "qubits", rows, ("ll_total", "mae"))
    return rows


def run_generate(cfg: ExperimentConfig, out_dir: Path) -> tuple[Path, Path]:
    """Write the standardized series CSV and its statistics sidecar."""
    std = build_series(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    series_path = out_dir / "series.csv"
    stats_path = out_dir / "series_stats.json"
    _write_csv(series_path, ("value",), ((v,) for v in std.values))
    _write_json(stats_path, {"mean": std.mean, "sd": std.sd, "n_steps": len(std)})
    return series_path, stats_path
