"""Exact Gaussian process regression via Cholesky factorization.

Given training windows X (columns), targets y, a constant prior mean m,
observation noise variance and a kernel, the posterior at a query x is
Gaussian with

    mean = m + k^T (K + sn2 I)^-1 (y - m 1)
    var  = 1 - k^T (K + sn2 I)^-1 k

computed from a single lower Cholesky factor.  The prior variance is 1
because every kernel kind is a correlation kernel.  The mean uses the
centered form (solve against y - m*1, add m back), which is the form
consistent with a constant-mean prior.

A jitter ladder 1e-10 / 1e-8 / 1e-6 / 1e-4 is added to the diagonal until
the factorization succeeds; fidelity Gram matrices are PSD but can be
numerically semi-definite (bandwidth -> 0 gives the rank-one all-ones
matrix).  Posterior variances are clamped at zero rather than raising:
the subtraction above can go negative by rounding.

fit() is single-threaded over the factorization; the fitted model is
immutable afterwards and safe to share, and predict_batch() is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import blas, kernels
from .errors import InputError, NumericalError, ParameterError

JITTER_LADDER = (1e-10, 1e-8, 1e-6, 1e-4)

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class GprHyperparams:
    """Constant mean, noise variance and kernel of one GP model."""

    mean_const: float
    noise_var: float
    kernel: kernels.KernelModel

    def __post_init__(self) -> None:
        if not np.isfinite(self.mean_const):
            raise ParameterError(f"mean constant must be finite, got {self.mean_const}")
        if not np.isfinite(self.noise_var) or self.noise_var < 0:
            raise ParameterError(f"noise variance must be >= 0, got {self.noise_var}")


@dataclass
class FittedGpr:
    """Training data plus the Cholesky factor and cached solve.

    ``chol`` is the lower factor of K + (noise_var + jitter) I;
    ``solve_cache`` is (K + (noise_var + jitter) I)^-1 (y - m 1).
    """

    X: np.ndarray
    y: np.ndarray
    hp: GprHyperparams
    chol: np.ndarray
    solve_cache: np.ndarray
    jitter: float


def fit(X, y, hp: GprHyperparams) -> FittedGpr:
    """Factor the regularized Gram matrix and cache the target solve.

    Parameters
    ----------
    X : array_like, shape (w, c)
        Training windows as columns.
    y : array_like, shape (c,)
        Targets, one per window.
    hp : GprHyperparams
        Mean constant, noise variance, kernel.

    Raises
    ------
    NumericalError
        If Cholesky fails at every rung of the jitter ladder.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise InputError(f"expected a (w, c) design matrix, got shape {X.shape}")
    if y.ndim != 1 or y.shape[0] != X.shape[1]:
        raise InputError(
            f"targets shape {y.shape} does not match {X.shape[1]} training windows"
        )
    if y.shape[0] < 1:
        raise InputError("at least one training pair is required")
    gram = kernels.gram(hp.kernel, X)
    chol, jitter, solve_cache = factor_and_solve(
        gram, hp.noise_var, y - hp.mean_const, hp.kernel.kind
    )
    return FittedGpr(X=X, y=y, hp=hp, chol=chol, solve_cache=solve_cache, jitter=jitter)


def factor_and_solve(
    gram: np.ndarray, noise_var: float, resid: np.ndarray, kind: str, first_rung: int = 0
) -> tuple[np.ndarray, float, np.ndarray]:
    """Climb the jitter ladder on gram + noise_var I and solve against resid.

    Returns the lower Cholesky factor of gram + (noise_var + jitter) I at
    the first rung from ``first_rung`` on that factors, that jitter, and
    the factor's solve against ``resid``.  ``kind`` only names the kernel
    in the error.

    One Fortran-ordered c x c buffer holds the regularized matrix and is
    factored in place, so a call allocates one matrix besides the caller's
    ``gram``, which it leaves unchanged.  Each rung copies ``gram`` into
    the buffer and sets its diagonal to (diag(gram) + noise_var) + jitter,
    the sums of gram + noise_var I + jitter I in the same order.

    Raises
    ------
    ValueError
        If the regularized matrix holds an inf or a NaN.
    NumericalError
        If Cholesky fails at every rung of the jitter ladder.
    """
    c = resid.shape[0]
    noisy_diag = np.diagonal(gram) + noise_var
    regularized = np.empty((c, c), order="F")
    for jitter in JITTER_LADDER[first_rung:]:
        regularized[...] = gram
        np.fill_diagonal(regularized, noisy_diag + jitter)
        if not np.isfinite(regularized).all():
            raise ValueError("array must not contain infs or NaNs")
        if blas.cholesky(regularized):
            solve = blas.solve_lower(regularized, np.array(resid, dtype=float))
            return regularized, jitter, blas.solve_lower(regularized, solve, transpose=True)
    noisy = gram + noise_var * np.eye(c)
    eigs = np.linalg.eigvalsh((noisy + noisy.T) / 2.0)
    raise NumericalError(
        "Cholesky failed after max jitter "
        f"{JITTER_LADDER[-1]:g}: eigenvalue range [{eigs.min():.3e}, "
        f"{eigs.max():.3e}] for kind={kind}"
    )


def log_marginal(resid: np.ndarray, chol: np.ndarray, solve: np.ndarray) -> float:
    """log N(resid; 0, L L^T) from the factor L and the solve L^-T L^-1 resid.

    The log-determinant is twice the sum of the log diagonal of L.
    """
    quad = float(resid @ solve)
    logdet_half = float(np.sum(np.log(np.diag(chol))))
    return -0.5 * quad - logdet_half - 0.5 * resid.shape[0] * _LOG_2PI


def predict_batch(model: FittedGpr, X_query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and latent variances at each column of X_query.

    A variance that rounds below zero is returned as exactly 0.0.
    """
    X_query = np.asarray(X_query, dtype=float)
    if X_query.ndim != 2 or X_query.shape[0] != model.X.shape[0]:
        raise InputError(
            f"query matrix shape {X_query.shape} does not match window length "
            f"{model.X.shape[0]}"
        )
    kmat = kernels.cross(model.hp.kernel, model.X, X_query)
    means = model.hp.mean_const + kmat.T @ model.solve_cache
    half = blas.solve_lower(model.chol, np.array(kmat, order="F"))
    variances = 1.0 - np.sum(half * half, axis=0)
    variances[variances < 0.0] = 0.0
    return means, variances


def mll(X, y, hp: GprHyperparams) -> float:
    """Marginal log likelihood log N(y; m 1, K + sn2 I), via :func:`fit`."""
    model = fit(X, y, hp)
    return log_marginal(model.y - hp.mean_const, model.chol, model.solve_cache)
