"""Gradient-free hyperparameter tuning by Bayesian optimization.

The tuner maximizes a black-box objective over a box: a Sobol batch of
``n0`` points seeds the search, then ``N`` query points are chosen one at
a time by maximizing log expected improvement under a Matern-5/2 GP
surrogate.  Neither the objective nor the acquisition is differentiated:
the acquisition is maximized over batches of points scored at once.

Surrogate inputs are normalized to the unit cube and values standardized
to zero mean / unit variance; its own lengthscale and noise are picked by
maximizing the surrogate marginal log likelihood over a fixed 128-point
Sobol grid, which keeps the whole pipeline deterministic for a given
seed.  The tuner keeps each grid point's inverse Cholesky factor L^-1
across steps (:class:`SurrogateFactors`), so a new trial appends one row
per grid point, O(G m^2) for G grid points and m trials, instead of G
fresh factorizations; a score needs only L^-1 z and the diagonal of L^-1.
The winner's L^-1 and solve are the surrogate, and the acquisition reads
its posterior from them directly.

Each proposal screens 1023 scrambled Sobol points with one vectorized
log-EI call, as BoTorch's ``optimize_acqf`` screens raw samples (Balandat
et al., NeurIPS 2020), then zooms in on the best ``restarts`` of them:
the same points, shrunk into a small box around each, are scored again.

Sobol points (d <= 4) come from the Joe & Kuo (2008) direction numbers
and Matousek's (1998) linear matrix scramble with a digital shift; they
equal scipy's ``qmc.Sobol`` points bit for bit without importing
``scipy.stats``, which would double every process's start-up time.

The tune loop is inherently sequential; each proposal depends on all
prior results.  Sobol-phase evaluations and zooms are independent and
reduce by ordered argmax, so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blas, gpr, kernels
from .errors import ConfigError, InputError, ResourceError

# Finite stand-in for log(0) when expected improvement is exactly zero.
LOG_EI_FLOOR = -1.0e300

# Switch from the erfcx tail to the asymptotic Mills-ratio series here.
_DEEP_TAIL = -30.0

# W. J. Cody's rational Chebyshev approximations of erf on [0, 0.46875]
# and of erfcx on [0.46875, 4] and in 1 / x^2 beyond (Math. Comp. 23,
# 1969, as in his CALERF): numerator and denominator coefficients, highest
# power first, the denominators monic.
_CODY_ERF = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_CODY_ERFCX = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_CODY_ASYMPTOTIC = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)

_SOBOL_BITS = 30
_SOBOL_MAX_DIM = 4
# (primitive polynomial, initial direction numbers) of dimensions 1..3.
_JOE_KUO = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)))
# Place values of a direction number's bits, top bit first.
_BIT_WEIGHTS = 1 << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)

_SURROGATE_GRID_SIZE = 128
_SURROGATE_LENGTHSCALE_BOUNDS = (0.05, 4.0)
_SURROGATE_NOISE_BOUNDS = (1e-6, 1e-1)

# A grid point is refactored when an appended pivot d^2 falls below this
# fraction of its exact lower bound, noise_var + jitter.
_PIVOT_FLOOR = 0.5

# Scrambled Sobol points scored per proposal by the screen and by each zoom.
_SCREEN_SIZE = 1023

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


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
class TunerCounts:
    """Work the tuner did beside the objective; deterministic for a seed.

    ``refactors`` counts the surrogate grid points refactored from
    scratch at a higher jitter rung.
    """

    refactors: int = 0


@dataclass
class TuneTrace:
    """Ordered record of evaluated points, the running best and the work counts."""

    trials: list[Trial] = field(default_factory=list)
    incumbent_theta: np.ndarray | None = None
    incumbent_value: float = -math.inf
    counts: TunerCounts = field(default_factory=TunerCounts)

    def record(self, theta: np.ndarray, value: float, phase: str) -> None:
        self.trials.append(Trial(theta=np.asarray(theta, dtype=float), value=float(value), phase=phase))
        if value > self.incumbent_value:
            self.incumbent_value = float(value)
            self.incumbent_theta = np.asarray(theta, dtype=float).copy()


def _direction_numbers() -> np.ndarray:
    """Read-only direction numbers v[j, b]: bit b of a point's index XORs
    in v[:, b].  Dimension j >= 1 grows the initial numbers of Joe & Kuo
    (SIAM J. Sci. Comput. 30, 2008) by its primitive polynomial's recurrence.
    """
    rows = [[1] * _SOBOL_BITS]
    for poly, initial in _JOE_KUO:
        degree = poly.bit_length() - 1
        m = list(initial)
        for b in range(degree, _SOBOL_BITS):
            new = m[b - degree] ^ (m[b - degree] << degree)
            for k in range(1, degree):
                if (poly >> (degree - k)) & 1:
                    new ^= m[b - k] << k
            m.append(new)
        rows.append(m)
    v = np.array(rows, dtype=np.uint32) * _BIT_WEIGHTS
    v.flags.writeable = False
    return v


_DIRECTIONS = _direction_numbers()


def _sobol(d: int, total: int, seed: int, scramble: bool) -> np.ndarray:
    """The first ``total`` Sobol points, equal bit for bit to
    ``scipy.stats.qmc.Sobol(d, scramble=scramble, seed=seed).random(total)``.

    Gray-code order, by doubling: the first 2^(b+1) points are the first
    2^b, then those reversed and XORed with direction b.  The scramble
    (Matousek, J. Complexity 14, 1998) draws from
    ``np.random.default_rng(seed)`` in scipy's order a digital shift, then
    per dimension a lower-triangular bit matrix with unit diagonal that
    multiplies every direction number over GF(2).
    """
    if not 1 <= d <= _SOBOL_MAX_DIM:
        raise InputError(f"Sobol points need 1..{_SOBOL_MAX_DIM} dimensions, got {d}")
    directions = _DIRECTIONS[:d]
    shift = np.zeros(d, dtype=np.uint32)
    if scramble:
        rng = np.random.default_rng(seed)
        shift = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) @ _BIT_WEIGHTS[::-1]
        draws = rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32)
        lower = np.tril(draws, -1) + np.eye(_SOBOL_BITS, dtype=np.uint32)
        rows = lower @ _BIT_WEIGHTS  # row p of each matrix as an integer
        parity = np.bitwise_count(rows[:, :, None] & directions[:, None, :]) & 1
        directions = _BIT_WEIGHTS @ parity  # parity of row p is bit p, top first
    points = np.zeros((1, d), dtype=np.uint32)
    for b in range((total - 1).bit_length()):
        points = np.concatenate([points, points[::-1] ^ directions[:, b]])
    return (points[:total] ^ shift) * (1.0 / (1 << _SOBOL_BITS))


def _sobol_unit(d: int, count: int, seed: int, scramble: bool) -> np.ndarray:
    """First ``count`` Sobol points after skipping the index-0 point.

    Draws the next power of two >= count + 1 so the generator keeps its
    balance properties, then discards the head point (all zeros when
    unscrambled) and the unused tail.
    """
    total = 1 << max(1, math.ceil(math.log2(count + 1)))
    return _sobol(d, total, seed, scramble)[1 : count + 1]


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


def _ratio(coefficients, x: np.ndarray) -> np.ndarray:
    """The rational function of ``coefficients`` (see ``_CODY_ERF``) at ``x``, by Horner's rule."""
    (a0, a1, *numerator), (_, b1, *denominator) = coefficients
    num, den = a0 * x + a1, x + b1
    for a, b in zip(numerator, denominator):
        num *= x
        num += a
        den *= x
        den += b
    num /= den
    return num


def _erfcx(y: np.ndarray) -> np.ndarray:
    """erfcx(y) = exp(y^2) erfc(y) at each entry of the 1-d array ``y`` >= 0.

    Cody's approximations (``_CODY_ERF``), relative error below 1e-14: up
    to 0.46875 from erf, above from the two rational functions of erfcx.
    """
    out = np.empty(y.shape)
    near = y <= 0.46875
    if near.any():
        y_near = y[near]
        z = y_near * y_near
        out[near] = (1.0 - y_near * _ratio(_CODY_ERF, z)) * np.exp(z)
    mid = ~near & (y <= 4.0)
    if mid.any():
        out[mid] = _ratio(_CODY_ERFCX, y[mid])
    far = y > 4.0
    if far.any():
        y_far = y[far]
        z = (1.0 / y_far) ** 2
        out[far] = (_INV_SQRT_PI - z * _ratio(_CODY_ASYMPTOTIC, z)) / y_far
    return out


def _log_h(delta: np.ndarray) -> np.ndarray:
    """log h at each entry of the 1-d array ``delta``, where
    h = delta Phi(delta) + phi(delta), so log EI = log sd + log h((mean - f*) / sd).

    With a = |delta|, the Mills ratio M = Phi(-a) / phi(a) is
    sqrt(pi / 2) erfcx(a / sqrt 2).  Above -1, h comes directly, with
    Phi(delta) = phi(delta) M for delta <= 0 and 1 - phi(delta) M above.
    Below, phi(delta) is factored out: h = phi(delta) g with g = 1 - a M.
    Below the deep-tail switch, where the subtraction in g would lose
    precision, the asymptotic Mills-ratio series gives g = t p(t) with
    t = 1 / delta^2.  Each branch is computed on its own elements only.
    """
    log_h = np.empty(delta.shape)
    a = np.abs(delta)
    mills = _SQRT_HALF_PI * _erfcx(a * _SQRT_HALF)
    direct = delta > -1.0
    if direct.any():
        d = delta[direct]
        phi = _INV_SQRT_2PI * np.exp(-0.5 * d * d)
        below = phi * mills[direct]  # Phi(-a)
        cdf = np.where(d > 0.0, 1.0 - below, below)
        log_h[direct] = np.log(d * cdf + phi)
    deep = delta < _DEEP_TAIL
    tail = ~(direct | deep)
    if tail.any():
        a_tail = a[tail]
        g = 1.0 - a_tail * mills[tail]
        log_h[tail] = -0.5 * a_tail * a_tail - 0.5 * _LOG_2PI + np.log(g)
    if deep.any():
        a = -delta[deep]
        t = 1.0 / (a * a)
        p = 1.0 - t * (3.0 - t * (15.0 - t * (105.0 - 945.0 * t)))
        log_h[deep] = -0.5 * a * a - 0.5 * _LOG_2PI + (np.log(p) - 2.0 * np.log(a))
    return log_h


def log_ei(mean, sd, incumbent: float):
    """Numerically stable log of the expected improvement E[max(0, g - incumbent)]
    for g ~ N(mean, sd^2), which degenerates to max(0, mean - incumbent) at sd = 0.

    Monotone in EI (same argmax).  Uses the direct logarithm where the
    standardized improvement exceeds -1 and a tail formulation below,
    staying finite far into the tail instead of underflowing.  Returns a
    finite large-negative sentinel where EI is exactly zero.  ``mean`` and
    ``sd`` may be arrays (broadcast together); scalars give a float.
    """
    improvement, sd = np.broadcast_arrays(
        np.asarray(mean, dtype=float) - incumbent, np.asarray(sd, dtype=float)
    )
    if np.any(sd < 0):
        raise InputError(f"sd must be >= 0, got {sd.min()}")
    out = np.full(sd.shape, LOG_EI_FLOOR)
    spread = sd > 0.0
    out[spread] = np.log(sd[spread]) + _log_h(improvement[spread] / sd[spread])
    gain = ~spread & (improvement > 0.0)
    out[gain] = np.log(improvement[gain])
    return float(out) if out.ndim == 0 else out


@dataclass
class Surrogate:
    """Matern-5/2 GP over the unit cube on standardized objective values.

    It is the winner of the surrogate grid as scored: ``units`` holds the
    trials' unit-cube points as rows, ``chol_inv`` the inverse L^-1 of
    the lower Cholesky factor of K + (noise_var + jitter) I and ``solve``
    (K + (noise_var + jitter) I)^-1 z for the standardized values z.
    """

    value_mean: float
    value_sd: float
    lengthscale: float
    noise_var: float
    units: np.ndarray
    chol_inv: np.ndarray
    solve: np.ndarray

    def standardize_value(self, value: float) -> float:
        return (value - self.value_mean) / self.value_sd

    def posterior_unit(self, unit_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Standardized posterior mean and sd at each row of ``unit_points``.

        The mean is k . solve and the variance 1 - |L^-1 k|^2, clamped at 0.
        """
        units = self.units
        sqdist = sum((unit_points[:, j, None] - units[:, j]) ** 2 for j in range(units.shape[1]))
        k = kernels._matern_from_scaled(np.sqrt(sqdist) / self.lengthscale, 2.5)
        half = k @ self.chol_inv.T
        var = 1.0 - np.einsum("ij,ij->i", half, half)
        return k @ self.solve, np.sqrt(np.maximum(var, 0.0))


def _surrogate_grid() -> tuple[np.ndarray, np.ndarray]:
    """Fixed (lengthscale, noise) candidates: 128 unscrambled Sobol points,
    log-uniform across both boxes.  Read-only."""
    unit = _sobol_unit(2, _SURROGATE_GRID_SIZE, seed=0, scramble=False)
    lo_l, hi_l = _SURROGATE_LENGTHSCALE_BOUNDS
    lo_n, hi_n = _SURROGATE_NOISE_BOUNDS
    lengthscales = np.exp(np.log(lo_l) + unit[:, 0] * (np.log(hi_l) - np.log(lo_l)))
    noises = np.exp(np.log(lo_n) + unit[:, 1] * (np.log(hi_n) - np.log(lo_n)))
    lengthscales.flags.writeable = noises.flags.writeable = False
    return lengthscales, noises


_GRID_LENGTHSCALES, _GRID_NOISES = _surrogate_grid()


class SurrogateFactors:
    """Inverse Cholesky factors of every surrogate grid point, grown by rows.

    For grid point g, ``chol_inv[g, :m, :m]`` is L^-1, the inverse lower
    Cholesky factor of K_g + (noise_g + jitter_g) I over the first m unit
    points, K_g the Matern-5/2 Gram at lengthscale l_g.  Appending a point
    with kernel column k costs one batched matvec, l = L^-1 k: with
    d^2 = 1 + noise_g + jitter_g - |l|^2 the new row of L^-1 is
    [-l^T L^-1 / d, 1 / d].  In exact arithmetic d^2 >= noise_g + jitter_g;
    a grid point whose d^2 falls below ``_PIVOT_FLOOR`` times that bound
    is refactored from scratch by :func:`gpr.factor_and_solve` at the next
    jitter rung, and keeps that rung from then on.  Every point starts at
    the first rung.  Refactors are counted in ``counts``.
    """

    def __init__(self, dim: int, capacity: int, counts: TunerCounts):
        self.lengthscales, self.noises = _GRID_LENGTHSCALES, _GRID_NOISES
        grid = self.lengthscales.shape[0]
        self.rungs = np.zeros(grid, dtype=int)
        self.ridge = self.noises + gpr.JITTER_LADDER[0]  # noise_g + jitter_g
        self.chol_inv = np.zeros((grid, capacity, capacity))  # the largest array: fail first
        self.units = np.empty((capacity, dim))
        self.size = 0
        self.counts = counts

    def extend(self, units: np.ndarray) -> None:
        """Append the rows of ``units`` past the ``size`` already factored."""
        if units.shape[0] > self.units.shape[0]:
            raise InputError(
                f"{units.shape[0]} trials exceed the factor capacity {self.units.shape[0]}"
            )
        for u in units[self.size:]:
            self._append(u)

    def _append(self, u: np.ndarray) -> None:
        m = self.size
        dist = np.sqrt(np.sum((self.units[:m] - u) ** 2, axis=1))
        k = kernels._matern_from_scaled(dist / self.lengthscales[:, None], 2.5)
        inv = self.chol_inv[:, :m, :m]
        proj = np.matmul(inv, k[:, :, None])[:, :, 0]
        pivot = 1.0 + self.ridge - np.einsum("gi,gi->g", proj, proj)
        refactor = pivot < _PIVOT_FLOOR * self.ridge
        d = np.sqrt(np.where(refactor, 1.0, pivot))
        self.chol_inv[:, m, :m] = np.matmul(proj[:, None, :], inv)[:, 0, :] / -d[:, None]
        self.chol_inv[:, m, m] = 1.0 / d
        self.units[m] = u
        self.size = m + 1
        for g in np.flatnonzero(refactor):
            self._refactor(int(g))

    def _refactor(self, g: int) -> None:
        m = self.size
        units = self.units[:m]
        dist = np.sqrt(kernels._pairwise_sqdist(units.T, units.T))
        gram = kernels._matern_from_scaled(dist / self.lengthscales[g], 2.5)
        chol, jitter, _ = gpr.factor_and_solve(
            gram, self.noises[g], np.zeros(m), "matern", first_rung=int(self.rungs[g]) + 1
        )
        self.rungs[g] = gpr.JITTER_LADDER.index(jitter)
        self.ridge[g] = self.noises[g] + jitter
        self.chol_inv[g, :m, :m] = blas.solve_lower(chol, np.eye(m, order="F"))
        self.counts.refactors += 1

    def scores(self, zvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each grid point's marginal log likelihood of ``zvals``, and L^-1 z.

        log N(z; 0, L L^T) = -|L^-1 z|^2 / 2 + sum log diag(L^-1) - (m / 2) log 2 pi.
        """
        m = self.size
        inv = self.chol_inv[:, :m, :m]
        half = np.matmul(inv, zvals)
        logdet_half = np.sum(np.log(np.diagonal(inv, axis1=1, axis2=2)), axis=1)
        quad = np.einsum("gi,gi->g", half, half)
        return -0.5 * quad + logdet_half - 0.5 * m * _LOG_2PI, half


def fit_surrogate(trials: list[Trial], space: SearchSpace, factors: SurrogateFactors) -> Surrogate:
    """Fit the Matern-5/2 surrogate to the trials seen so far.

    Scores every point of the fixed grid by its marginal log likelihood
    and keeps the first best one, with its inverse factor and solve.
    ``factors`` carries the grid's inverse factors from earlier calls on
    a prefix of these trials and is extended by the new ones.  Requires
    at least two trials.  Values with no spread are fitted like any
    others, with unit scale: z = 0, so the posterior mean is zero and the
    proposal goes where the sd is largest.
    """
    if len(trials) < 2:
        raise InputError(f"surrogate needs >= 2 trials, got {len(trials)}")
    values = np.array([t.value for t in trials])
    value_mean = float(values.mean())
    value_sd = float(values.std())
    if value_sd < 1e-12:
        value_sd = 1.0
    unit = space.to_unit([t.theta for t in trials])
    zvals = (values - value_mean) / value_sd
    factors.extend(unit)
    scores, half = factors.scores(zvals)
    best = int(np.argmax(scores))
    chol_inv = factors.chol_inv[best, : len(trials), : len(trials)].copy()
    return Surrogate(
        value_mean=value_mean, value_sd=value_sd,
        lengthscale=float(factors.lengthscales[best]),
        noise_var=float(factors.noises[best]),
        units=unit, chol_inv=chol_inv, solve=half[best] @ chol_inv,
    )


def propose_next(
    surrogate: Surrogate,
    space: SearchSpace,
    incumbent: float,
    restarts: int,
    seed: int,
) -> np.ndarray:
    """Maximize log expected improvement over the box, gradient-free.

    Scores ``_SCREEN_SIZE`` scrambled Sobol points with one vectorized
    log-EI call.  Then, for each of the best ``restarts`` of them in rank
    order (ties to the earlier point), maps the same points into the box
    of half-width r = ``_SCREEN_SIZE`` ** (-1 / d) around it, clipped to
    the unit cube, and scores them with one more call.  r is about the
    screen's spacing, so a zoom resolves the cell around its centre.  The
    best point seen wins, ties to the first in screen-then-zoom order, so
    a fixed seed yields a fixed proposal.
    """
    incumbent_std = surrogate.standardize_value(incumbent)
    screen = _sobol_unit(space.dim, _SCREEN_SIZE, seed=seed, scramble=True)
    screened = log_ei(*surrogate.posterior_unit(screen), incumbent_std)
    best = int(np.argmax(screened))
    best_u, best_value = screen[best], screened[best]
    radius = _SCREEN_SIZE ** (-1.0 / space.dim)
    for centre in screen[np.argsort(-screened, kind="stable")[:restarts]]:
        lower, upper = np.maximum(centre - radius, 0.0), np.minimum(centre + radius, 1.0)
        zoom = lower + screen * (upper - lower)
        zoomed = log_ei(*surrogate.posterior_unit(zoom), incumbent_std)
        best = int(np.argmax(zoomed))
        if zoomed[best] > best_value:
            best_u, best_value = zoom[best], zoomed[best]
    return space.from_unit(best_u)


def _restart_seed(seed: int, step: int) -> int:
    return seed * 1_000_003 + step + 1


def tune(
    objective,
    space: SearchSpace,
    n0: int,
    n_query: int,
    seed: int,
    restarts: int = 2,
    on_trial=None,
) -> TuneTrace:
    """Run the full tuner: n0 Sobol evaluations, then n_query BO steps.

    The objective is called exactly n0 + n_query times.  The surrogate
    grid's inverse factors are kept across steps, so each step appends
    one row per grid point.  ``restarts`` is the number of zooms per
    proposal (see :func:`propose_next`).  ``on_trial(phase, theta, value)``, when
    given, is called after each evaluation, so a caller can stream the
    trials.  An exception inside the objective aborts the run; the
    trials completed before it have already been passed to ``on_trial``.

    Returns the trace with the incumbent (argmax) and the work counts.
    Raises ``ResourceError`` when the budget's factor store, about
    ``_SURROGATE_GRID_SIZE`` * (n0 + n_query)^2 floats, cannot be allocated.
    """
    if n_query < 0:
        raise InputError(f"n_query must be >= 0, got {n_query}")
    trace = TuneTrace()
    try:
        factors = SurrogateFactors(space.dim, n0 + n_query - 1, trace.counts) if n_query else None
    except (MemoryError, ValueError) as exc:  # numpy: MemoryError, or "array is too big"
        raise ResourceError(
            f"tuning budget n0={n0} + n_query={n_query} is too large: "
            f"its surrogate factor store cannot be allocated ({exc})"
        ) from exc

    def evaluate(theta: np.ndarray, phase: str) -> None:
        value = float(objective(theta))
        trace.record(theta, value, phase)
        if on_trial is not None:
            on_trial(phase, theta, value)

    for theta in sobol_init(space, n0, seed):
        evaluate(theta, "sobol")
    for step in range(n_query):
        surrogate = fit_surrogate(trace.trials, space, factors)
        evaluate(propose_next(
            surrogate, space, trace.incumbent_value,
            restarts=restarts, seed=_restart_seed(seed, step),
        ), "query")
    return trace
