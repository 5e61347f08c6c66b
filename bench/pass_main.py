"""One benchmark pass in its own process.

    python3 bench/pass_main.py setup
        Import quack and fit a tiny GP (one Gram matrix, one Cholesky):
        the fixed cost every CLI run pays.  The caller times the process.

    python3 bench/pass_main.py pass REPORT.json [--trace] -- QUACK_ARGS...
        Run ``quack.cli.main(QUACK_ARGS)`` here and write REPORT.json with
        the exit code, the process's peak RSS and, with ``--trace``, the
        per-layer metrics and whether every wrapped attribute was restored.

quack is imported from the ``src/`` directory on PYTHONPATH, which the
caller sets to the checkout's own sources.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _setup() -> int:
    import numpy as np

    from quack import GprHyperparams, KernelModel, fit

    X = np.linspace(-1.0, 1.0, 5 * 8).reshape(5, 8)
    hp = GprHyperparams(mean_const=0.0, noise_var=0.1, kernel=KernelModel("iqp", {"alpha": 0.3}))
    fit(X, X[0], hp)
    return 0


def _pass(report_path: str, trace: bool, quack_args: list[str]) -> int:
    from quack import bayesopt, cli, experiments, gpr, kernels, metrics, qkernel, timeseries

    import spans

    tracer = None
    if trace:
        tracer = spans.Tracer({
            "qkernel": qkernel, "kernels": kernels, "gpr": gpr, "bayesopt": bayesopt,
            "metrics": metrics, "timeseries": timeseries, "experiments": experiments,
        })
        tracer.install()
    started = time.perf_counter()
    try:
        code = cli.main(quack_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    report = {
        "exit": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["restored"] = tracer.restored()
        report["layers"] = tracer.metrics(wall_s)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        return _setup()
    if argv[:1] == ["pass"] and "--" in argv:
        split = argv.index("--")
        options = argv[1:split]
        return _pass(options[0], "--trace" in options[1:], argv[split + 1 :])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
