"""Command-line entry point.

Subcommands: generate, tune, predict, compare, landscape, ablate.  Exit
code 0 on success, else the ``exit_code`` of the package error raised
(see :mod:`quack.errors`); memory that cannot be allocated exits 2, as a
``ResourceError``.  Every run pins numpy's OpenBLAS to one thread
(:mod:`quack.blas`); a numpy without it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import blas, experiments
from .config import describe_schema, load_config
from .errors import ConfigError, QuackError, ResourceError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quack",
        description=(
            "Quantum-kernelized Gaussian process forecasting benchmark. "
            "Config keys (file or QUACK_* environment overrides):\n"
            + describe_schema()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", type=Path, default=None, help="key=value config file")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--seed-data", type=int, default=None, help="series generator seed")
    parser.add_argument("--seed-bo", type=int, default=None, help="tuner seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="write the standardized series and its stats")

    tune = sub.add_parser("tune", help="tune one kernel's hyperparameters")
    tune.add_argument("--kernel", default=None, help="iqp|rbf|matern|rq|periodic")

    predict = sub.add_parser("predict", help="fit with tuned hyperparameters and forecast")
    predict.add_argument("--kernel", default=None)
    predict.add_argument(
        "--tuned", type=Path, default=None,
        help="tuned.json from a tune run; tunes first when omitted",
    )

    compare = sub.add_parser("compare", help="benchmark all five kernels")
    compare.add_argument(
        "--matern-all", action="store_true",
        help="tune all three Matern smoothness values, report the best by test LL",
    )

    landscape = sub.add_parser("landscape", help="fidelity grid around the zero window")
    landscape.add_argument("--alpha", type=float, default=None, help="bandwidth (default from config)")

    sub.add_parser("ablate", help="sweep window lengths on the longer series")
    return parser


def _out_dir(args, cfg) -> Path:
    return args.out if args.out is not None else Path(cfg.out_dir)


def _tuned_theta(path: Path, cfg) -> dict:
    """The ``theta`` of a tune run's tuned.json, checked against ``cfg.kernel``'s box."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read tuned file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"tuned file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("theta"), dict):
        raise ConfigError(f"tuned file {path} has no 'theta' object")
    kind = cfg.kernel
    if payload.get("kind") not in (None, kind):
        raise ConfigError(
            f"tuned file is for kernel {payload.get('kind')!r}, expected {kind!r}"
        )
    theta = payload["theta"]
    names = experiments.search_space_for(cfg).names
    if set(theta) != set(names):
        raise ConfigError(
            f"tuned file {path} has theta names {sorted(theta)}, "
            f"expected {sorted(names)} for kernel {kind!r}"
        )
    for name, value in theta.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"tuned file {path}: theta {name!r} is not a number: {value!r}")
    return theta


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        blas.set_threads(1)
        cfg = load_config(args.config)
        if args.seed_data is not None:
            cfg.gen.seed = args.seed_data
        if args.seed_bo is not None:
            cfg.seed_bo = args.seed_bo
        if getattr(args, "kernel", None):
            cfg.kernel = args.kernel
        if getattr(args, "matern_all", False):
            cfg.matern_all = True
        cfg.validate()
        out = _out_dir(args, cfg)
        return _dispatch(args, cfg, out)
    except QuackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # numpy: "Unable to allocate 72.8 TiB for an array ..."
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return ResourceError.exit_code


def _dispatch(args, cfg, out: Path) -> int:
    if args.command == "generate":
        series_path, stats_path = experiments.run_generate(cfg, out)
        print(f"wrote {series_path} and {stats_path}")
        return 0

    if args.command == "tune":
        series = experiments.build_series(cfg)
        kind = cfg.kernel
        result = experiments.run_tune(cfg, series, out / f"tune_{kind}")
        print(f"tuned {kind}: value {result.incumbent_value:.6f}")
        for name, value in result.theta.items():
            print(f"  {name} = {value:.6f}")
        return 0

    if args.command == "predict":
        series = experiments.build_series(cfg)
        kind = cfg.kernel
        predict_dir = out / f"predict_{kind}"
        if args.tuned is not None:
            theta = _tuned_theta(args.tuned, cfg)
            ev = experiments.run_predict(cfg, theta, series, predict_dir)
        else:
            ev = experiments.tune_and_predict(cfg, series, out / f"tune_{kind}", predict_dir)
        print(
            f"{kind}: rmse {ev.rmse:.6f}  mae {ev.mae:.6f}  mcrps {ev.mcrps:.6f}  "
            f"ll_total {ev.ll_total:.6f}"
        )
        return 0

    if args.command == "compare":
        rows = experiments.run_compare(cfg, out / "compare")
        header = ["kernel"] + list(experiments.metrics.Evaluation.METRIC_FIELDS)
        print("  ".join(f"{h:>10}" for h in header))
        for row in rows:
            if row.evaluation is None:
                print(f"{row.label:>10}  failed: {row.error}")
                continue
            ev = row.evaluation.as_dict()
            cells = [f"{row.label:>10}"] + [
                f"{ev[name]:10.6f}" for name in experiments.metrics.Evaluation.METRIC_FIELDS
            ]
            print("  ".join(cells))
        return 0

    if args.command == "landscape":
        alpha = args.alpha if args.alpha is not None else cfg.landscape_alpha
        path = experiments.run_landscape(cfg, alpha, out / "landscape")
        print(f"wrote {path} (alpha={alpha})")
        return 0

    if args.command == "ablate":
        rows = experiments.run_ablate(cfg, out / "ablate")
        print("qubits  ll_total      mae")
        for row in rows:
            if row.evaluation is None:
                print(f"{row.label:>6}  failed: {row.error}")
            else:
                print(f"{row.label:>6}  {row.evaluation.ll_total:>10.4f}  {row.evaluation.mae:.6f}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
