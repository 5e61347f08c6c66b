"""Baseline covariance kernels and dispatch over kernel kinds.

Four classical kernels (RBF, Matern, rational quadratic, periodic) share
one interface with the quantum fidelity kernel from :mod:`quack.qkernel`:
:func:`gram` over one design and :func:`cross` between two.  All five are
correlation kernels: value 1 at x = x2, no output-scale prefactor, so the
prior variance is 1 for every kind.  The periodic kernel divides by
``l_p`` (not ``l_p**2``), implemented literally as specified; it is a
valid kernel either way.

Hyperparameter boxes (``DEFAULT_BOUNDS``): lengthscales in [0.1, 30],
rational quadratic weight in [0.1, 10], period in [5, 35], bandwidth in
[0, 1].  The noise and mean intervals of the tuning box are not kernel
parameters; they live in ``experiments._NOISE_MEAN_DIMS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qkernel
from .errors import InputError, ParameterError

KERNEL_KINDS = ("iqp", "rbf", "matern", "rq", "periodic")

MATERN_NUS = (0.5, 1.5, 2.5)

DEFAULT_BOUNDS: dict[str, dict[str, tuple[float, float]]] = {
    "iqp": {"alpha": (0.0, 1.0)},
    "rbf": {"l_r": (0.1, 30.0)},
    "matern": {"nu": (0.5, 2.5), "l_m": (0.1, 30.0)},
    "rq": {"beta": (0.1, 10.0), "l_q": (0.1, 30.0)},
    "periodic": {"p": (5.0, 35.0), "l_p": (0.1, 30.0)},
}


@dataclass
class KernelModel:
    """A tagged kernel: kind and named parameters.

    Construction validates that every parameter lies inside its box in
    ``DEFAULT_BOUNDS`` and that a Matern ``nu`` is one of {1/2, 3/2, 5/2}.
    """

    kind: str
    params: dict[str, float]

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        bounds = DEFAULT_BOUNDS[self.kind]
        expected = set(bounds)
        if set(self.params) != expected:
            raise ParameterError(
                f"{self.kind} kernel expects parameters {sorted(expected)}, "
                f"got {sorted(self.params)}"
            )
        for name, value in self.params.items():
            lo, hi = bounds[name]
            if not lo <= value <= hi:
                raise ParameterError(
                    f"{self.kind} parameter {name}={value} outside [{lo}, {hi}]"
                )
        if self.kind == "matern" and self.params["nu"] not in MATERN_NUS:
            raise ParameterError(
                f"matern nu must be one of {MATERN_NUS}, got {self.params['nu']}"
            )


def _matern_from_scaled(d: np.ndarray, nu: float) -> np.ndarray:
    """Vectorized Matern closed forms on pre-scaled distances d = ||x-x2||/l.

    Built in place, in the float order of ``(1.0 + s + 5.0 * d * d / 3.0)
    * np.exp(-s)``: beside ``d``, two arrays of its shape are live for
    nu = 1.5 and three for nu = 2.5.
    """
    if nu == 0.5:
        e = np.negative(d)
        return np.exp(e, out=e)
    s = np.multiply(d, math.sqrt(3.0 if nu == 1.5 else 5.0))
    e = np.negative(s)
    np.exp(e, out=e)
    s += 1.0
    if nu != 1.5:
        t = np.multiply(d, 5.0)
        t *= d
        t /= 3.0
        s += t
    s *= e
    return s


def _pairwise_sqdist(X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between columns, (c, c2), summed row by row of X and X2."""
    return sum((X[j][:, None] - X2[j]) ** 2 for j in range(X.shape[0]))


def _classical_matrix(model: KernelModel, X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    p = model.params
    if model.kind == "rbf":
        return np.exp(-_pairwise_sqdist(X, X2) / (2.0 * p["l_r"] ** 2))
    if model.kind == "matern":
        d = np.sqrt(_pairwise_sqdist(X, X2)) / p["l_m"]
        return _matern_from_scaled(d, p["nu"])
    if model.kind == "rq":
        beta = p["beta"]
        return (1.0 + _pairwise_sqdist(X, X2) / (2.0 * beta * p["l_q"] ** 2)) ** (-beta)
    s = sum(np.sin(math.pi * (X[j][:, None] - X2[j]) / p["p"]) ** 2 for j in range(X.shape[0]))
    return np.exp(-2.0 * s / p["l_p"])


def gram(model: KernelModel, X) -> np.ndarray:
    """Symmetric Gram matrix of the columns of a (w, c) design matrix.

    The quantum kind reuses one embedding per column.  Classical kinds use
    explicit differences, exactly antisymmetric and zero on the diagonal,
    so every result is exactly symmetric with unit diagonal.
    """
    X = np.asarray(X, dtype=float)
    if model.kind == "iqp":
        params = qkernel.IqpParams(alpha=model.params["alpha"], n=X.shape[0])
        return qkernel.gram_matrix(X, params)
    return _classical_matrix(model, X, X)


def cross(model: KernelModel, X, X2) -> np.ndarray:
    """Kernel matrix between the columns of X (c) and X2 (c2), shape (c, c2).

    The fidelity kernel embeds each column of X2 once, in chunks.
    """
    X = np.asarray(X, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    if X.shape[0] != X2.shape[0]:
        raise InputError(f"window lengths differ: {X.shape[0]} vs {X2.shape[0]}")
    if model.kind == "iqp":
        params = qkernel.IqpParams(alpha=model.params["alpha"], n=X.shape[0])
        return qkernel.cross_gram(X, X2, params)
    return _classical_matrix(model, X, X2)
