"""Fixed-hyperparameter outputs against the committed golden set.

Each fit case fits one kernel at fixed hyperparameters and records the
training marginal log likelihood and, on the test windows, the posterior
means and latent variances; the landscape case records the fidelity grid
around the zero window.  The hyperparameters are fixed rather than tuned
because the tuner's search would turn a last-bit difference into a
different incumbent.

The test recomputes every case and compares it with ``golden/golden.json``
at ``TOLERANCE``, so it holds across BLAS thread counts and across changes
that only round differently.  A change that moves a value further
regenerates the file, and says why, with::

    OPENBLAS_NUM_THREADS=1 python3 tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":  # run as a script: import quack from the source tree
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quack import experiments, gpr, kernels, timeseries
from quack.config import load_config

GOLDEN = Path(__file__).parent / "golden" / "golden.json"

TOLERANCE = {"rtol": 1e-9, "atol": 1e-12}

MEAN_CONST = 0.1
NOISE_VAR = 0.2
IQP = ("iqp", {"alpha": 0.3})

# name -> (kernel kind, kernel parameters, window); window None is the
# default series and window, otherwise the ablation series at that window.
FITS = {
    "default/iqp": (*IQP, None),
    "default/rbf": ("rbf", {"l_r": 2.0}, None),
    "default/matern": ("matern", {"nu": 2.5, "l_m": 2.0}, None),
    "default/rq": ("rq", {"beta": 1.5, "l_q": 2.0}, None),
    "default/periodic": ("periodic", {"p": 10.0, "l_p": 2.0}, None),
    "ablate/iqp_8": (*IQP, 8),
    "ablate/iqp_14": (*IQP, 14),
    "ablate/iqp_16": (*IQP, 16),
}
LANDSCAPE = "landscape/alpha_0.243"
LANDSCAPE_ALPHA = 0.243
LANDSCAPE_GRID = 21


def compute(name: str) -> dict[str, np.ndarray]:
    """The recorded values of one case, computed with the current code."""
    cfg = load_config(env={})
    if name == LANDSCAPE:
        cfg.landscape_grid = LANDSCAPE_GRID
        axis, values = experiments.landscape_grid(
            cfg, LANDSCAPE_ALPHA, experiments.build_series(cfg)
        )
        return {"axis": axis, "value": values.ravel()}
    kind, params, window = FITS[name]
    if window is None:
        series = experiments.build_series(cfg)
        window, overlap = cfg.window, cfg.train_overlap
    else:
        series = experiments.build_series(cfg, n_steps=cfg.ablate_n_steps)
        overlap = cfg.ablate_train_overlap
    train, test = timeseries.split(series, window, cfg.train_frac, overlap)
    hp = gpr.GprHyperparams(MEAN_CONST, NOISE_VAR, kernels.KernelModel(kind, params))
    model = gpr.fit(train.X, train.y, hp)
    means, var_latent = gpr.predict_batch(model, test.X)
    mll = gpr.log_marginal(train.y - MEAN_CONST, model.chol, model.solve_cache)
    return {"mll": np.array([mll]), "mean": means, "var_latent": var_latent}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", [*FITS, LANDSCAPE])
def test_matches_golden(golden, name):
    want = golden[name]
    got = compute(name)
    assert set(got) == set(want)
    for field, values in got.items():
        np.testing.assert_allclose(values, want[field], **TOLERANCE, err_msg=f"{name} {field}")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = {name: compute(name) for name in [*FITS, LANDSCAPE]}
    payload = {name: {k: v.tolist() for k, v in case.items()} for name, case in cases.items()}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(cases)} cases)")
