"""The benchmark's span tracer (bench/spans.py) sees quack's kernel layer.

The tracer wraps module attributes by name and reports zeros for names
that do not exist, so a renamed kernel function silently drops out of the
per-layer metrics.  This runs one traced IQP prediction and checks that
the cross-kernel spans and the overlap flop count see it.
"""

import types
from pathlib import Path

import numpy as np

from quack import bayesopt, experiments, gpr, kernels, metrics, qkernel, timeseries

_SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    """bench/spans.py as a module, compiled from its source so nothing is written under bench/."""
    module = types.ModuleType("bench_spans")
    module.__file__ = str(_SPANS_PATH)
    exec(compile(_SPANS_PATH.read_text(encoding="utf-8"), str(_SPANS_PATH), "exec"), vars(module))
    return module


def test_tracer_sees_iqp_prediction():
    spans = _load_spans()
    rng = np.random.default_rng(41)
    n, c, c2 = 4, 6, 11
    X = rng.normal(size=(n, c))
    hp = gpr.GprHyperparams(
        mean_const=0.0, noise_var=0.1, kernel=kernels.KernelModel("iqp", {"alpha": 0.4})
    )
    model = gpr.fit(X, rng.normal(size=c), hp)
    tracer = spans.Tracer({
        "qkernel": qkernel, "kernels": kernels, "gpr": gpr, "bayesopt": bayesopt,
        "metrics": metrics, "timeseries": timeseries, "experiments": experiments,
    })
    tracer.install()
    try:
        gpr.predict_batch(model, rng.normal(size=(n, c2)))
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert tracer.spans["gpr.predict_batch"][0] == 1
    assert tracer.spans["kernels.cross"][0] == 1
    assert tracer.spans["qkernel.cross_gram"][0] == 1
    assert tracer.counts["qkernel.overlap.flops_computed"] == 8 * c * c2 * 2**n
