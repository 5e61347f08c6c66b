"""Gradient-free hyperparameter tuning by Bayesian optimization.

The tuner maximizes a black-box objective over a box: a Sobol batch of
``n0`` points seeds the search, then ``N`` query points are chosen one at
a time by maximizing log expected improvement under a Matern-5/2 GP
surrogate.  The objective itself is never differentiated; only the
acquisition is, analytically, through the closed-form Matern-5/2
posterior mean and variance at one point, inside a bound-constrained
quasi-Newton (L-BFGS-B) inner loop.

Surrogate inputs are normalized to the unit cube and values standardized
to zero mean / unit variance; its own lengthscale and noise are picked by
maximizing the surrogate marginal log likelihood over a fixed 128-point
Sobol grid, which keeps the whole pipeline deterministic for a given
seed.  All grid points share one distance matrix of the trials, so a
grid point costs one Gram, one Cholesky factorization and one solve; the
winner's factor and solve are the surrogate, with no refit, and the
acquisition reads its posterior from them directly.

The tune loop is inherently sequential; each proposal depends on all
prior results.  Sobol-phase evaluations and restarts are independent and
reduce by ordered argmax, so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize
from scipy.special import erfcx, ndtr
from scipy.stats import qmc

from . import gpr, kernels
from .errors import ConfigError, InputError

# Finite stand-in for log(0) when expected improvement is exactly zero.
LOG_EI_FLOOR = -1.0e300

# Switch from the erfcx tail to the asymptotic Mills-ratio series here.
_DEEP_TAIL = -30.0

_SURROGATE_GRID_SIZE = 128
_SURROGATE_LENGTHSCALE_BOUNDS = (0.05, 4.0)
_SURROGATE_NOISE_BOUNDS = (1e-6, 1e-1)

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SearchSpace:
    """Ordered box of named real intervals."""

    dims: tuple[tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        for name, lo, hi in self.dims:
            if not lo < hi:
                raise ConfigError(f"dimension {name!r} has empty interval [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.dims)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for _, lo, _ in self.dims])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, _, hi in self.dims])

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        return self.lower + np.asarray(u) * (self.upper - self.lower)

    def to_unit(self, theta: np.ndarray) -> np.ndarray:
        u = (np.asarray(theta) - self.lower) / (self.upper - self.lower)
        return np.clip(u, 0.0, 1.0)


@dataclass
class Trial:
    theta: np.ndarray
    value: float
    phase: str  # "sobol" or "query"


@dataclass
class TuneTrace:
    """Ordered record of evaluated points and the running best."""

    trials: list[Trial] = field(default_factory=list)
    incumbent_theta: np.ndarray | None = None
    incumbent_value: float = -math.inf

    def record(self, theta: np.ndarray, value: float, phase: str) -> None:
        self.trials.append(Trial(theta=np.asarray(theta, dtype=float), value=float(value), phase=phase))
        if value > self.incumbent_value:
            self.incumbent_value = float(value)
            self.incumbent_theta = np.asarray(theta, dtype=float).copy()


def _sobol_unit(d: int, count: int, seed: int, scramble: bool) -> np.ndarray:
    """First ``count`` Sobol points after skipping the index-0 point.

    Draws the next power of two >= count + 1 so the generator keeps its
    balance properties, then discards the head point (all zeros when
    unscrambled) and the unused tail.
    """
    engine = qmc.Sobol(d=d, scramble=scramble, seed=seed)
    total = 1 << max(1, math.ceil(math.log2(count + 1)))
    return engine.random(total)[1 : count + 1]


def sobol_init(space: SearchSpace, n0: int, seed: int) -> np.ndarray:
    """Space-filling batch of n0 points inside the box.

    Unscrambled when seed == 0 (the raw sequence, whose first post-skip
    point is the cube midpoint); otherwise the seed selects the scramble.
    Returns an (n0, d) array, rows in sequence order.
    """
    if n0 < 1:
        raise InputError(f"n0 must be >= 1, got {n0}")
    unit = _sobol_unit(space.dim, n0, seed=seed, scramble=seed != 0)
    return space.from_unit(unit)


def _log_h(delta: float) -> tuple[float, float]:
    """log h and Phi / h at delta, where h = delta Phi(delta) + phi(delta).

    log EI = log sd + log h((mean - f*) / sd), and Phi / h is the factor
    the acquisition gradient needs, since h' = Phi.  Above -1 both come
    directly.  Below, phi(delta) is factored out: h = phi(delta) g with
    g = 1 - |delta| M and M = Phi(delta) / phi(delta) the Mills ratio, so
    Phi / h = M / g, with M from erfcx.  Below the deep-tail switch, where
    the subtraction in g would lose precision, the asymptotic Mills-ratio
    series gives g = t p(t) with t = 1 / delta^2 and M = (1 - g) / |delta|,
    so M / g = (1 - g) |delta| / p.
    """
    if delta > -1.0:
        cdf = float(ndtr(delta))
        h = delta * cdf + _INV_SQRT_2PI * math.exp(-0.5 * delta * delta)
        return math.log(h), cdf / h
    a = -delta
    if delta >= _DEEP_TAIL:
        mills = _SQRT_HALF_PI * float(erfcx(a / math.sqrt(2.0)))
        g = 1.0 - a * mills
        log_g, ratio = math.log(g), mills / g
    else:
        t = 1.0 / (delta * delta)
        p = 1.0 - t * (3.0 - t * (15.0 - t * (105.0 - 945.0 * t)))
        log_g, ratio = math.log(p) - 2.0 * math.log(a), (1.0 - t * p) * a / p
    return -0.5 * delta * delta - 0.5 * math.log(2.0 * math.pi) + log_g, ratio


def log_ei(mean: float, sd: float, incumbent: float) -> float:
    """Numerically stable log of the expected improvement E[max(0, g - incumbent)]
    for g ~ N(mean, sd^2), which degenerates to max(0, mean - incumbent) at sd = 0.

    Monotone in EI (same argmax).  Uses the direct logarithm where the
    standardized improvement exceeds -1 and a tail formulation below,
    staying finite far into the tail instead of underflowing.  Returns a
    finite large-negative sentinel where EI is exactly zero.
    """
    if sd < 0:
        raise InputError(f"sd must be >= 0, got {sd}")
    if sd == 0.0:
        return math.log(mean - incumbent) if mean > incumbent else LOG_EI_FLOOR
    return math.log(sd) + _log_h((mean - incumbent) / sd)[0]


@dataclass
class Surrogate:
    """Matern-5/2 GP over the unit cube on standardized objective values.

    It is the winner of the surrogate grid as scored: ``units`` holds the
    trials' unit-cube points as rows, ``chol`` the lower Cholesky factor
    of K + (noise_var + jitter) I and ``solve`` that factor's solve
    against the standardized values.  All three are None for the
    degenerate all-equal-values fallback, where the posterior is the
    prior: zero mean, unit sd (standardized units).
    """

    value_mean: float
    value_sd: float
    lengthscale: float
    noise_var: float
    units: np.ndarray | None = None
    chol: np.ndarray | None = None
    solve: np.ndarray | None = None

    def standardize_value(self, value: float) -> float:
        return (value - self.value_mean) / self.value_sd


def _surrogate_grid() -> tuple[np.ndarray, np.ndarray]:
    """Fixed (lengthscale, noise) candidates: 128 unscrambled Sobol points,
    log-uniform across both boxes."""
    unit = _sobol_unit(2, _SURROGATE_GRID_SIZE, seed=0, scramble=False)
    lo_l, hi_l = _SURROGATE_LENGTHSCALE_BOUNDS
    lo_n, hi_n = _SURROGATE_NOISE_BOUNDS
    lengthscales = np.exp(np.log(lo_l) + unit[:, 0] * (np.log(hi_l) - np.log(lo_l)))
    noises = np.exp(np.log(lo_n) + unit[:, 1] * (np.log(hi_n) - np.log(lo_n)))
    return lengthscales, noises


def fit_surrogate(trials: list[Trial], space: SearchSpace) -> Surrogate:
    """Fit the Matern-5/2 surrogate to the trials seen so far.

    Scores every point of the fixed grid by its marginal log likelihood
    and keeps the first best one, with its factor and solve.  The
    distance matrix of the trials is computed once; each grid point then
    builds its Gram from it and climbs the Cholesky jitter ladder of
    :func:`gpr.factor_and_solve`.  Requires at least two trials.
    All-equal values (zero spread) fall back to a prior-only surrogate
    with unit lengthscale.
    """
    if len(trials) < 2:
        raise InputError(f"surrogate needs >= 2 trials, got {len(trials)}")
    thetas = np.array([t.theta for t in trials])
    values = np.array([t.value for t in trials])
    value_mean = float(values.mean())
    value_sd = float(values.std())
    if value_sd < 1e-12:
        return Surrogate(
            value_mean=value_mean, value_sd=1.0,
            lengthscale=1.0, noise_var=_SURROGATE_NOISE_BOUNDS[0],
        )
    unit = np.array([space.to_unit(t) for t in thetas])
    zvals = (values - value_mean) / value_sd
    dist = np.sqrt(kernels._pairwise_sqdist(unit.T, unit.T))
    best, best_score = None, -math.inf
    for lengthscale, noise_var in zip(*_surrogate_grid()):
        gram = kernels._matern_from_scaled(dist / lengthscale, 2.5)
        chol, _, solve = gpr.factor_and_solve(gram, noise_var, zvals, "matern")
        score = gpr.log_marginal(zvals, chol, solve)
        if best is None or score > best_score:
            best, best_score = (float(lengthscale), float(noise_var), chol, solve), score
    lengthscale, noise_var, chol, solve = best
    return Surrogate(
        value_mean=value_mean, value_sd=value_sd, lengthscale=lengthscale,
        noise_var=noise_var, units=unit, chol=chol, solve=solve,
    )


def _acquisition_with_grad(surrogate: Surrogate, incumbent_std: float):
    """Negated log-EI on [0,1]^d and its exact gradient.

    Per proposal it keeps the training units x_i, the cached solve
    alpha = (K + sn2 I)^-1 z and L^-1 (one triangular solve against I).
    At a point u, with s_i = sqrt(5) |u - x_i| / l, the Matern-5/2
    posterior and its gradient are

        k_i = (1 + s_i + s_i^2 / 3) exp(-s_i)
        grad k_i = -5 / (3 l^2) (1 + s_i) exp(-s_i) (u - x_i)
        mean = k . alpha,      grad mean = sum_i alpha_i grad k_i
        var = 1 - |L^-1 k|^2,  grad sd = -sum_i (K^-1 k)_i grad k_i / sd

    and with delta = (mean - f*) / sd and h = delta Phi(delta) + phi(delta),

        grad log EI = grad sd / sd + (Phi / h)(delta) (grad mean - delta grad sd) / sd.

    log h and Phi / h come from the same formula as :func:`log_ei`.  A
    clamped variance (sd = 0) leaves log(mean - f*), with gradient
    grad mean / (mean - f*), or the floor with gradient 0.  The
    prior-only surrogate is flat: its gradient is zero everywhere.
    """
    if surrogate.chol is None:
        value = log_ei(0.0, 1.0, incumbent_std)
        return lambda u: (-value, np.zeros(u.shape[0]))
    train = surrogate.units
    alpha = surrogate.solve
    chol_inv = solve_triangular(surrogate.chol, np.eye(alpha.shape[0]), lower=True)
    s_scale = 5.0 / surrogate.lengthscale**2
    grad_scale = -s_scale / 3.0

    def fun(u: np.ndarray) -> tuple[float, np.ndarray]:
        diff = u - train
        s = np.sqrt(np.einsum("ij,ij->i", diff, diff) * s_scale)
        e = np.exp(-s)
        k = (1.0 + s + s * s / 3.0) * e
        slope = (1.0 + s) * e  # grad k_i = grad_scale * slope_i * (u - x_i)
        improvement = float(k @ alpha) - incumbent_std
        half = chol_inv @ k
        var = 1.0 - float(half @ half)
        if var <= 0.0:
            if improvement <= 0.0:
                return -LOG_EI_FLOOR, np.zeros(u.shape[0])
            grad = (grad_scale / improvement) * ((slope * alpha) @ diff)
            return -math.log(improvement), -grad
        sd = math.sqrt(var)
        delta = improvement / sd
        log_h, ratio = _log_h(delta)
        # grad log EI = grad_scale / sd * sum_i slope_i weight_i (u - x_i)
        weight = ratio * alpha - ((1.0 - ratio * delta) / sd) * (half @ chol_inv)
        grad = (grad_scale / sd) * ((slope * weight) @ diff)
        return -(math.log(sd) + log_h), -grad

    return fun


def propose_next(
    surrogate: Surrogate,
    space: SearchSpace,
    incumbent: float,
    restarts: int = 16,
    seed: int = 0,
) -> np.ndarray:
    """Maximize log expected improvement over the box.

    Multi-start L-BFGS-B from a fresh scrambled Sobol batch; ties and the
    best endpoint resolve by first occurrence, so a fixed seed yields a
    fixed proposal.  If every start fails outright, the first start point
    with the best acquisition value is returned instead.
    """
    incumbent_std = surrogate.standardize_value(incumbent)
    starts = _sobol_unit(space.dim, restarts, seed=seed, scramble=True)
    objective = _acquisition_with_grad(surrogate, incumbent_std)
    bounds = [(0.0, 1.0)] * space.dim
    best_val = math.inf
    best_u = None
    for start in starts:
        try:
            result = minimize(
                objective, start, jac=True, method="L-BFGS-B",
                bounds=bounds, options={"maxiter": 100},
            )
        except (ValueError, FloatingPointError):
            continue
        if not np.all(np.isfinite(result.x)) or not np.isfinite(result.fun):
            continue
        if result.fun < best_val:
            best_val = float(result.fun)
            best_u = np.clip(result.x, 0.0, 1.0)
    if best_u is None:
        best_u = starts[int(np.argmin([objective(start)[0] for start in starts]))]
    return space.from_unit(best_u)


class TraceWriter:
    """Streams one line per trial: phase, theta components, value, timestamp.

    Lines are flushed as written so a partial trace survives an aborted
    run.  The timestamp is the last field, letting consumers strip it
    when comparing runs.
    """

    def __init__(self, path, space: SearchSpace):
        self._fh = open(path, "w", encoding="utf-8")
        names = ",".join(f"theta_{n}" for n in space.names)
        self._fh.write(f"phase,{names},value,timestamp\n")
        self._fh.flush()

    def write(self, phase: str, theta: np.ndarray, value: float) -> None:
        comps = ",".join(f"{t:.17g}" for t in theta)
        self._fh.write(f"{phase},{comps},{value:.17g},{time.time():.6f}\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _restart_seed(seed: int, step: int) -> int:
    return seed * 1_000_003 + step + 1


def tune(
    objective,
    space: SearchSpace,
    n0: int,
    n_query: int,
    seed: int,
    restarts: int = 16,
    trace_path=None,
) -> TuneTrace:
    """Run the full tuner: n0 Sobol evaluations, then n_query BO steps.

    The objective is called exactly n0 + n_query times.  An exception
    inside the objective aborts the run; trials already completed remain
    in the trace file (when ``trace_path`` is given), which is flushed
    line by line.

    Returns the trace with the incumbent (argmax) recorded.
    """
    if n_query < 0:
        raise InputError(f"n_query must be >= 0, got {n_query}")
    trace = TuneTrace()
    writer = TraceWriter(trace_path, space) if trace_path is not None else None
    try:
        for theta in sobol_init(space, n0, seed):
            value = float(objective(theta))
            trace.record(theta, value, "sobol")
            if writer:
                writer.write("sobol", theta, value)
        for step in range(n_query):
            surrogate = fit_surrogate(trace.trials, space)
            theta = propose_next(
                surrogate, space, trace.incumbent_value,
                restarts=restarts, seed=_restart_seed(seed, step),
            )
            value = float(objective(theta))
            trace.record(theta, value, "query")
            if writer:
                writer.write("query", theta, value)
    finally:
        if writer:
            writer.close()
    return trace
