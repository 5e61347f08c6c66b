"""Tuner components: Sobol batches, (log) expected improvement, surrogate,
acquisition maximization and the full loop."""

import math

import numpy as np
import pytest
from scipy.stats import norm, qmc

from oracles import expected_improvement, log_expected_improvement
from quack import bayesopt, experiments, gpr
from quack.bayesopt import (
    LOG_EI_FLOOR,
    SearchSpace,
    SurrogateFactors,
    Trial,
    TunerCounts,
    fit_surrogate,
    log_ei,
    propose_next,
    sobol_init,
    tune,
)
from quack.config import load_config
from quack.errors import ConfigError, InputError, ResourceError

UNIT3 = SearchSpace(dims=(("a", 0.0, 1.0), ("b", 0.0, 1.0), ("c", 0.0, 1.0)))


class TestSearchSpace:
    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigError):
            SearchSpace(dims=(("a", 1.0, 1.0),))

    def test_unit_round_trip(self):
        space = SearchSpace(dims=(("a", -2.0, 3.0), ("b", 0.1, 30.0)))
        theta = np.array([0.5, 7.0])
        assert np.abs(space.from_unit(space.to_unit(theta)) - theta).max() < 1e-12


class TestSobolInit:
    def test_first_point_is_midpoint(self):
        # Unscrambled sequence, index-0 all-zeros point skipped.
        points = sobol_init(UNIT3, 1, seed=0)
        assert np.array_equal(points, np.array([[0.5, 0.5, 0.5]]))

    def test_points_inside_box(self):
        space = SearchSpace(dims=(("a", -1.0, 1.0), ("b", 5.0, 35.0)))
        points = sobol_init(space, 33, seed=9)
        assert np.all(points >= space.lower) and np.all(points <= space.upper)

    def test_deterministic_per_seed(self):
        assert np.array_equal(sobol_init(UNIT3, 16, seed=5), sobol_init(UNIT3, 16, seed=5))
        assert not np.array_equal(sobol_init(UNIT3, 16, seed=5), sobol_init(UNIT3, 16, seed=6))

    def test_lower_star_discrepancy_than_random(self):
        space = SearchSpace(dims=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))
        sobol_disc = qmc.discrepancy(sobol_init(space, 64, seed=0), method="L2-star")
        rng = np.random.default_rng(0)
        random_discs = [
            qmc.discrepancy(rng.random((64, 2)), method="L2-star") for _ in range(100)
        ]
        assert sobol_disc < np.mean(random_discs)


class TestSobolOracle:
    """The in-repo generator against scipy's ``qmc.Sobol``, bit for bit.

    Seeds go through the legacy ``seed=`` keyword, as the tuner's stream
    was recorded with it; scipy's ``rng=`` draws a different stream.
    """

    SEEDS = (0, 7, 2**31 - 2, bayesopt._restart_seed(2**31 - 2, 49))

    @pytest.mark.parametrize("scramble", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_scipy(self, d, scramble):
        for seed in self.SEEDS:
            for total in (2**k for k in range(1, 13)):
                expected = qmc.Sobol(d=d, scramble=scramble, seed=seed).random(total)
                assert np.array_equal(bayesopt._sobol(d, total, seed, scramble), expected), (
                    seed, total,
                )

    @pytest.mark.filterwarnings("ignore:The balance properties")
    def test_totals_between_powers_of_two(self):
        for total in (3, 100, 1023):
            expected = qmc.Sobol(d=3, scramble=True, seed=11).random(total)
            assert np.array_equal(bayesopt._sobol(3, total, 11, True), expected)

    def test_screen_and_grid_points(self):
        seed = bayesopt._restart_seed(5, 3)
        screen = qmc.Sobol(d=4, scramble=True, seed=seed).random(bayesopt._SCREEN_SIZE + 1)[1:]
        assert np.array_equal(bayesopt._sobol_unit(4, bayesopt._SCREEN_SIZE, seed, True), screen)
        grid = qmc.Sobol(d=2, scramble=False).random(256)[1 : bayesopt._SURROGATE_GRID_SIZE + 1]
        lo, hi = bayesopt._SURROGATE_LENGTHSCALE_BOUNDS
        assert np.array_equal(
            bayesopt._GRID_LENGTHSCALES,
            np.exp(np.log(lo) + grid[:, 0] * (np.log(hi) - np.log(lo))),
        )

    def test_grid_and_directions_are_read_only(self):
        for table in (bayesopt._DIRECTIONS, bayesopt._GRID_LENGTHSCALES, bayesopt._GRID_NOISES):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_dimension_range(self):
        with pytest.raises(InputError):
            bayesopt._sobol_unit(5, 3, seed=0, scramble=False)


class TestExpectedImprovement:
    """The closed-form oracle that :class:`TestLogEi` checks log-EI against."""

    def test_zero_sd_at_incumbent(self):
        assert expected_improvement(1.0, 0.0, 1.0) == 0.0

    def test_zero_sd_below_incumbent(self):
        assert expected_improvement(0.5, 0.0, 1.0) == 0.0

    def test_at_incumbent_unit_sd(self):
        assert expected_improvement(2.0, 1.0, 2.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-12
        )

    def test_one_above_unit_sd(self):
        expected = norm.cdf(1.0) + norm.pdf(1.0)
        assert expected_improvement(1.0, 1.0, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(17)
        mean, sd, inc = 0.3, 0.8, 0.6
        draws = rng.normal(mean, sd, 4_000_000)
        mc = np.maximum(0.0, draws - inc).mean()
        assert expected_improvement(mean, sd, inc) == pytest.approx(mc, abs=2e-3)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            assert (
                expected_improvement(rng.normal(), rng.uniform(0, 2), rng.normal()) >= 0.0
            )

    def test_negative_sd_rejected(self):
        # quack's one EI entry point is log_ei
        with pytest.raises(InputError):
            log_ei(0.0, -1.0, 0.0)


class TestLogEi:
    def test_exp_log_ei_matches_ei(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            mean, sd, inc = rng.normal(), rng.uniform(1e-3, 3.0), rng.normal()
            ei = expected_improvement(mean, sd, inc)
            if ei > 1e-300:
                assert math.exp(log_ei(mean, sd, inc)) == pytest.approx(ei, rel=1e-10)

    def test_deep_tail_matches_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for delta in (-1.5, -5.0, -10.0, -30.0, -50.0, -200.0):
            d = mpmath.mpf(delta)
            ref = float(mpmath.log(d * mpmath.ncdf(d) + mpmath.npdf(d)))
            got = log_ei(delta, 1.0, 0.0)
            assert got == pytest.approx(ref, rel=1e-9)

    def test_no_underflow_far_out(self):
        value = log_ei(-30.0, 1.0, 0.0)
        assert np.isfinite(value) and value < -100.0

    def test_exact_zero_ei_sentinel(self):
        assert log_ei(0.5, 0.0, 1.0) == LOG_EI_FLOOR
        assert np.isfinite(LOG_EI_FLOOR)

    def test_vectorized_matches_extended_precision(self):
        # One array call across every branch: delta > -1, the erfcx tail
        # [-30, -1], the series below -30, and sd = 0 on either side of f*.
        pytest.importorskip("mpmath")
        incumbent = 0.4
        deltas = (3.0, 0.0, -0.99, -1.0, -1.5, -5.0, -10.0, -29.9, -30.0, -50.0, -200.0)
        means, sds = [], []
        for sd in (0.3, 1.0, 2.5):
            for delta in deltas:
                means.append(incumbent + delta * sd)
                sds.append(sd)
        means += [incumbent + 0.25, incumbent, incumbent - 0.25]
        sds += [0.0, 0.0, 0.0]
        got = log_ei(np.array(means), np.array(sds), incumbent)
        assert got.shape == (len(means),)
        for value, mean, sd in zip(got, means, sds):
            ref = log_expected_improvement(mean, sd, incumbent)
            if math.isinf(ref):
                assert value == LOG_EI_FLOOR
            else:
                assert value == pytest.approx(ref, rel=1e-9)
            assert value == log_ei(mean, sd, incumbent)

    def test_same_argmax_as_ei_on_grid(self):
        means = np.linspace(-2.0, 2.0, 201)
        incumbent, sd = 0.4, 0.7
        eis = [expected_improvement(m, sd, incumbent) for m in means]
        logs = [log_ei(m, sd, incumbent) for m in means]
        assert int(np.argmax(eis)) == int(np.argmax(logs))


class TestErfcx:
    """The erfcx behind log EI, and log h from it, against mpmath at 50 digits."""

    def test_matches_extended_precision(self):
        mpmath = pytest.importorskip("mpmath")
        # Cody's range edges, and the arguments at _log_h's switches at
        # delta = -1 and -30
        edges = np.array([0.46875, 4.0, 1.0 / math.sqrt(2.0), 30.0 / math.sqrt(2.0)])
        y = np.concatenate([np.linspace(0.0, 30.0, 1201), edges])
        y = np.unique(np.concatenate([y, np.nextafter(y, np.inf), np.nextafter(y, -np.inf)]))
        y = y[y >= 0.0]
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.erfc(v) * mpmath.exp(v * v)) for v in map(mpmath.mpf, y)])
        rel = np.abs(bayesopt._erfcx(y) - ref) / ref
        assert rel.max() <= 1e-14, y[np.argmax(rel)]

    def test_log_h_matches_extended_precision_across_the_switches(self):
        mpmath = pytest.importorskip("mpmath")
        switches = np.array([-30.0, -1.0, -0.46875 * math.sqrt(2.0), 0.0])
        delta = np.concatenate([np.linspace(-30.0, 40.0, 1401), switches])
        delta = np.unique(np.concatenate([delta, np.nextafter(delta, np.inf)]))
        with mpmath.workdps(50):
            ref = np.array([
                float(mpmath.log(d * mpmath.ncdf(d) + mpmath.npdf(d)))
                for d in map(mpmath.mpf, delta)
            ])
        # relative, and absolute where log h crosses 0
        err = np.abs(bayesopt._log_h(delta) - ref) / np.maximum(np.abs(ref), 1.0)
        assert err.max() <= 1e-14, delta[np.argmax(err)]


def _quadratic_trials(space, n=40, seed=0):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(space.lower, space.upper, size=(n, space.dim))
    values = [-np.sum((t - 0.4) ** 2) for t in thetas]
    return [Trial(theta=t, value=v, phase="sobol") for t, v in zip(thetas, values)]


def _fit(trials, space):
    """The surrogate of ``trials`` on fresh grid factors, as the tuner's first step fits it."""
    return fit_surrogate(trials, space, SurrogateFactors(space.dim, len(trials), TunerCounts()))


def _matern52(units, u, lengthscale):
    """Matern-5/2 kernel between the rows of ``units`` and the point(s) ``u``."""
    d = np.sqrt(np.sum((units - u) ** 2, axis=-1)) / lengthscale
    return (1.0 + math.sqrt(5.0) * d + 5.0 * d * d / 3.0) * np.exp(-math.sqrt(5.0) * d)


def _reference_posterior(surrogate, u):
    """Reference mean and sd at a unit point, by the operations of a GP
    posterior: k from the kernel formula, mean k . solve, variance
    1 - |L^-1 k|^2 (clamped at 0)."""
    k = _matern52(surrogate.units, u, surrogate.lengthscale)
    half = surrogate.chol_inv @ k
    return float(k @ surrogate.solve), math.sqrt(max(1.0 - float(half @ half), 0.0))


class TestSurrogate:
    def test_degenerate_values_fall_back(self):
        # No spread: unit scale, the mean as centre, z = 0, and a fitted surrogate.
        trials = [
            Trial(theta=np.array([0.2, 0.2, 0.2]), value=1.0, phase="sobol"),
            Trial(theta=np.array([0.8, 0.8, 0.8]), value=1.0, phase="sobol"),
        ]
        surrogate = _fit(trials, UNIT3)
        assert surrogate.value_mean == 1.0 and surrogate.value_sd == 1.0
        assert surrogate.units is not None and surrogate.chol_inv is not None
        assert surrogate.solve is not None and not np.any(surrogate.solve)

    def test_posterior_mean_interpolates_trials(self):
        trials = _quadratic_trials(UNIT3, n=30)
        surrogate = _fit(trials, UNIT3)
        noise_sd = math.sqrt(surrogate.noise_var)
        units = np.array([UNIT3.to_unit(t.theta) for t in trials])
        means = np.array([_reference_posterior(surrogate, u)[0] for u in units])
        zvals = (np.array([t.value for t in trials]) - surrogate.value_mean) / surrogate.value_sd
        assert np.abs(means - zvals).max() <= 3.0 * noise_sd

    def test_posterior_unit_matches_reference(self):
        surrogate = _fit(_quadratic_trials(UNIT3, n=30, seed=5), UNIT3)
        points = bayesopt._sobol_unit(3, 63, seed=8, scramble=True)
        means, sds = surrogate.posterior_unit(points)
        reference = np.array([_reference_posterior(surrogate, u) for u in points])
        assert _close(means, reference[:, 0]) and _close(sds, reference[:, 1])

    def test_normalized_inputs_in_unit_cube(self):
        space = SearchSpace(dims=(("a", -5.0, 5.0), ("b", 0.1, 30.0)))
        trials = [
            Trial(theta=np.array([-5.0, 0.1]), value=0.0, phase="sobol"),
            Trial(theta=np.array([5.0, 30.0]), value=1.0, phase="sobol"),
            Trial(theta=np.array([0.0, 10.0]), value=0.5, phase="sobol"),
        ]
        surrogate = _fit(trials, space)
        assert np.all(surrogate.units >= 0.0) and np.all(surrogate.units <= 1.0)

    def test_needs_two_trials(self):
        with pytest.raises(InputError):
            _fit([Trial(np.zeros(3), 0.0, "sobol")], UNIT3)


def _log_ei_at(surrogate, u, incumbent_std):
    return log_ei(*_reference_posterior(surrogate, u), incumbent_std)


_TRIALS = _quadratic_trials(UNIT3, n=30, seed=5)
_SURROGATE = _fit(_TRIALS, UNIT3)


def _close(a, b, tol=1e-8):
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))


class TestSurrogateGrid:
    @pytest.mark.parametrize("m", [25, 40, 49])
    def test_winner_matches_direct_inversion(self, m):
        # Per grid point: the regularized Gram from the kernel formula and
        # its MLL by a dense solve and slogdet, with no Cholesky factor.
        trials = _quadratic_trials(UNIT3, n=m, seed=m)
        values = np.array([t.value for t in trials])
        zvals = (values - values.mean()) / values.std()
        unit = np.array([UNIT3.to_unit(t.theta) for t in trials])
        lengthscales, noises = bayesopt._GRID_LENGTHSCALES, bayesopt._GRID_NOISES
        regularized, mlls = [], []
        for l, nv in zip(lengthscales, noises):
            a = _matern52(unit[:, None, :], unit[None, :, :], l)
            a += (nv + gpr.JITTER_LADDER[0]) * np.eye(m)
            sign, logdet = np.linalg.slogdet(a)
            assert sign > 0
            quad = float(zvals @ np.linalg.solve(a, zvals))
            regularized.append(a)
            mlls.append(-0.5 * quad - 0.5 * logdet - 0.5 * m * math.log(2.0 * math.pi))
        best = int(np.argmax(mlls))
        surrogate = _fit(trials, UNIT3)
        assert (surrogate.lengthscale, surrogate.noise_var) == (lengthscales[best], noises[best])
        inv = surrogate.chol_inv
        assert _close(inv @ regularized[best] @ inv.T, np.eye(m))
        assert _close(regularized[best] @ surrogate.solve, zvals)


def _direct_scores(unit, zvals, ridge):
    """Every grid point's MLL by dense slogdet and solve, with no factor."""
    lengthscales = bayesopt._GRID_LENGTHSCALES
    m = zvals.shape[0]
    regularized = np.stack([
        _matern52(unit[:, None, :], unit[None, :, :], l) + r * np.eye(m)
        for l, r in zip(lengthscales, ridge)
    ])
    sign, logdet = np.linalg.slogdet(regularized)
    assert np.all(sign > 0)
    quad = np.einsum("i,gi->g", zvals, np.linalg.solve(regularized, zvals[None, :, None])[..., 0])
    return -0.5 * quad - 0.5 * logdet - 0.5 * m * math.log(2.0 * math.pi), regularized


@pytest.fixture(scope="module")
def tuned_trials(tmp_path_factory):
    """kind -> the 50 trials (unit points, values) of a default tune."""
    out = {}
    for kind in ("iqp", "rbf", "matern"):
        cfg = load_config(env={})
        cfg.kernel = kind
        run_dir = tmp_path_factory.mktemp(f"tune_{kind}")
        tuned = experiments.run_tune(cfg, experiments.build_series(cfg), run_dir)
        space = experiments.search_space_for(cfg)
        unit = np.array([space.to_unit(t.theta) for t in tuned.trace.trials])
        out[kind] = (unit, np.array([t.value for t in tuned.trace.trials]))
    return out


class TestSurrogateFactors:
    @pytest.mark.parametrize("kind", ["iqp", "rbf", "matern"])
    def test_every_grid_score_matches_direct_inversion(self, tuned_trials, kind):
        unit, values = tuned_trials[kind]
        factors = SurrogateFactors(unit.shape[1], 49, TunerCounts())
        for m in range(2, 50):
            factors.extend(unit[:m])
            zvals = (values[:m] - values[:m].mean()) / values[:m].std()
            scores, _ = factors.scores(zvals)
            direct, _ = _direct_scores(unit[:m], zvals, factors.ridge)
            assert _close(scores, direct), f"m={m}"
        assert factors.counts.refactors == 0

    def test_small_pivot_refactors_at_next_rung(self, tuned_trials):
        unit, values = tuned_trials["iqp"]
        m = 30
        factors = SurrogateFactors(unit.shape[1], m, TunerCounts())
        factors.extend(unit[: m - 1])
        g = int(np.argmax(factors.lengthscales))
        # A tenfold inverse factor makes |l|^2 about 100 times its true value
        # for a point next to a trial, so d^2 = 1 + noise + jitter - |l|^2 < 0.
        factors.chol_inv[g, : m - 1, : m - 1] *= 10.0
        near = np.clip(unit[0] + 1e-3, 0.0, 1.0)
        factors.extend(np.vstack([unit[: m - 1], near]))
        assert factors.counts.refactors == 1
        assert factors.rungs[g] == 1 and np.count_nonzero(factors.rungs) == 1
        assert factors.ridge[g] == factors.noises[g] + gpr.JITTER_LADDER[1]
        points = np.vstack([unit[: m - 1], near])
        zvals = (values[:m] - values[:m].mean()) / values[:m].std()
        scores, _ = factors.scores(zvals)
        direct, regularized = _direct_scores(points, zvals, factors.ridge)
        assert _close(scores, direct)
        inv = factors.chol_inv[g, :m, :m]
        assert _close(inv @ regularized[g] @ inv.T, np.eye(m))

    def test_fit_surrogate_extends_the_given_factors(self):
        trials = _quadratic_trials(UNIT3, n=20, seed=3)
        factors = SurrogateFactors(3, 20, TunerCounts())
        fit_surrogate(trials[:12], UNIT3, factors)
        grown = fit_surrogate(trials, UNIT3, factors)
        fresh = _fit(trials, UNIT3)
        assert factors.size == 20
        assert (grown.lengthscale, grown.noise_var) == (fresh.lengthscale, fresh.noise_var)
        assert np.array_equal(grown.chol_inv, fresh.chol_inv)
        assert np.array_equal(grown.solve, fresh.solve)


def _screen_reference(surrogate, incumbent, seed):
    """The screen's points and their log-EI at the reference posterior."""
    screen = bayesopt._sobol_unit(3, bayesopt._SCREEN_SIZE, seed=seed, scramble=True)
    incumbent_std = surrogate.standardize_value(incumbent)
    return screen, np.array([_log_ei_at(surrogate, u, incumbent_std) for u in screen])


class TestProposeNext:
    def test_proposal_at_least_best_screened_value(self):
        # the zooms only add candidates to the screen; on this surrogate
        # they find a strictly better point
        incumbent = max(t.value for t in _TRIALS)
        proposal = propose_next(_SURROGATE, UNIT3, incumbent, restarts=2, seed=2)
        _, reference = _screen_reference(_SURROGATE, incumbent, seed=2)
        incumbent_std = _SURROGATE.standardize_value(incumbent)
        assert _log_ei_at(_SURROGATE, UNIT3.to_unit(proposal), incumbent_std) > reference.max()

    def test_single_zoom_stays_within_r_of_top_point(self):
        # One restart: level k lies within r^k of the previous level's best
        # point, so the proposal lies within r + r^2 + ... of the top
        # screened point (test_each_level_stays_in_its_box checks each box).
        incumbent = max(t.value for t in _TRIALS)
        proposal = propose_next(_SURROGATE, UNIT3, incumbent, restarts=1, seed=4)
        screen, reference = _screen_reference(_SURROGATE, incumbent, seed=4)
        top = screen[int(np.argmax(reference))]
        radius = bayesopt._SCREEN_SIZE ** (-1 / 3)
        reach = sum(radius**level for level in range(1, bayesopt._ZOOM_LEVELS + 1))
        assert np.all(np.abs(UNIT3.to_unit(proposal) - top) <= reach * (1.0 + 1e-12))

    def test_ties_go_to_the_first_screened_point(self, monkeypatch):
        # Log EI at the floor everywhere, as where EI is exactly zero: every
        # zoom level ties with the screen, so the first screened point wins
        # (screen, restart, level order).
        monkeypatch.setattr(
            bayesopt, "log_ei", lambda mean, sd, incumbent: np.full(np.shape(mean), LOG_EI_FLOOR)
        )
        incumbent = max(t.value for t in _TRIALS)
        proposal = propose_next(_SURROGATE, UNIT3, incumbent, restarts=2, seed=2)
        screen = bayesopt._sobol_unit(3, bayesopt._SCREEN_SIZE, seed=2, scramble=True)
        assert np.array_equal(UNIT3.to_unit(proposal), screen[0])

    def test_zoom_levels_per_restart(self, monkeypatch):
        # restarts counts the screened points zoomed in on, each through
        # every level; each call scores as many points as the screen
        sizes = []
        real_posterior = bayesopt.Surrogate.posterior_unit

        def recording_posterior(surrogate, unit_points):
            sizes.append(unit_points.shape[0])
            return real_posterior(surrogate, unit_points)

        monkeypatch.setattr(bayesopt.Surrogate, "posterior_unit", recording_posterior)
        incumbent = max(t.value for t in _TRIALS)
        for restarts in (1, 2, 5):
            sizes.clear()
            propose_next(_SURROGATE, UNIT3, incumbent, restarts=restarts, seed=2)
            assert sizes == [bayesopt._SCREEN_SIZE] * (1 + restarts * bayesopt._ZOOM_LEVELS)

    @pytest.mark.parametrize("seed", [2, 4, 7])
    def test_each_level_stays_in_its_box(self, monkeypatch, seed):
        # Level k lies in the unit cube within r^k of the previous level's
        # best point (the k-th screened point for level 1), and the
        # proposal is the best point of every scored batch.
        batches = []
        real_posterior = bayesopt.Surrogate.posterior_unit

        def recording_posterior(surrogate, unit_points):
            mean, sd = real_posterior(surrogate, unit_points)
            batches.append((unit_points.copy(), log_ei(mean, sd, incumbent_std)))
            return mean, sd

        monkeypatch.setattr(bayesopt.Surrogate, "posterior_unit", recording_posterior)
        incumbent = max(t.value for t in _TRIALS)
        incumbent_std = _SURROGATE.standardize_value(incumbent)
        restarts, levels = 3, bayesopt._ZOOM_LEVELS
        proposal = UNIT3.to_unit(propose_next(_SURROGATE, UNIT3, incumbent, restarts, seed))
        assert len(batches) == 1 + restarts * levels
        (screen, screened), zooms = batches[0], batches[1:]
        radius = bayesopt._SCREEN_SIZE ** (-1 / 3)
        for rank, top in enumerate(np.argsort(-screened, kind="stable")[:restarts]):
            centre = screen[top]
            for level in range(1, levels + 1):
                points, scores = zooms[rank * levels + level - 1]
                assert np.all(points >= 0.0) and np.all(points <= 1.0)
                assert np.all(np.abs(points - centre) <= radius**level * (1.0 + 1e-12))
                centre = points[int(np.argmax(scores))]
        best = max(scores.max() for _, scores in batches)
        assert _log_ei_at(_SURROGATE, proposal, incumbent_std) >= best - 1e-9 * abs(best)
        assert any(np.any(np.all(points == proposal, axis=1)) for points, _ in batches)

    def test_all_equal_values_fit_like_any_other(self):
        # No spread: unit scale and z = 0, so the posterior mean is zero
        # everywhere and the proposal goes where the sd is largest.
        trials = [Trial(theta=np.full(3, x), value=-3.7, phase="sobol") for x in (0.2, 0.5, 0.8)]
        surrogate = _fit(trials, UNIT3)
        assert surrogate.value_sd == 1.0
        screen, reference = _screen_reference(surrogate, -3.7, seed=3)
        for u in screen:
            mean, sd = _reference_posterior(surrogate, u)
            assert abs(mean) <= 1e-12
            assert math.isfinite(sd) and sd <= 1.0
        proposal = propose_next(surrogate, UNIT3, -3.7, restarts=4, seed=3)
        incumbent_std = surrogate.standardize_value(-3.7)
        assert _log_ei_at(surrogate, UNIT3.to_unit(proposal), incumbent_std) >= reference.max()

    def test_recovers_1d_quadratic_maximizer(self):
        space = SearchSpace(dims=(("a", 0.0, 1.0),))
        grid = np.linspace(0.0, 1.0, 101)
        trials = [
            Trial(theta=np.array([g]), value=-((g - 0.3) ** 2), phase="sobol")
            for g in grid
        ]
        surrogate = _fit(trials, space)
        incumbent = max(t.value for t in trials)
        proposal = propose_next(surrogate, space, incumbent, restarts=16, seed=1)
        assert abs(proposal[0] - 0.3) < 1e-3

    def test_proposal_inside_box(self):
        space = SearchSpace(dims=(("a", -2.0, -1.0), ("b", 10.0, 20.0)))
        rng = np.random.default_rng(23)
        trials = [
            Trial(
                theta=rng.uniform(space.lower, space.upper),
                value=float(rng.normal()),
                phase="sobol",
            )
            for _ in range(12)
        ]
        surrogate = _fit(trials, space)
        for seed in range(5):
            proposal = propose_next(surrogate, space, 0.5, restarts=4, seed=seed)
            assert np.all(proposal >= space.lower) and np.all(proposal <= space.upper)

    def test_deterministic_per_seed(self):
        trials = _quadratic_trials(UNIT3, n=25)
        surrogate = _fit(trials, UNIT3)
        first = propose_next(surrogate, UNIT3, -0.01, restarts=8, seed=3)
        second = propose_next(surrogate, UNIT3, -0.01, restarts=8, seed=3)
        assert np.array_equal(first, second)


class TestTune:
    def test_tiny_budget_counts(self):
        def objective(theta):
            return -float(np.sum((theta - 0.3) ** 2))

        trace = tune(objective, UNIT3, n0=4, n_query=3, seed=1, restarts=2)
        assert trace.counts == TunerCounts()

    def test_trace_length_and_phases(self):
        def objective(theta):
            return -float(np.sum(theta**2))

        trace = tune(objective, UNIT3, n0=6, n_query=3, seed=2)
        assert len(trace.trials) == 9
        phases = [t.phase for t in trace.trials]
        assert phases == ["sobol"] * 6 + ["query"] * 3

    def test_no_queries_returns_best_sobol(self):
        calls = []

        def objective(theta):
            value = -float(np.sum((theta - 0.5) ** 2))
            calls.append(value)
            return value

        trace = tune(objective, UNIT3, n0=8, n_query=0, seed=0)
        assert len(calls) == 8
        assert trace.incumbent_value == max(calls)

    @pytest.mark.parametrize("n0", [0, 1])
    def test_queries_on_fewer_than_two_trials_raise_before_any_call(self, n0):
        calls = []
        with pytest.raises(InputError, match="n0 must be >= 2"):
            tune(calls.append, UNIT3, n0=n0, n_query=2, seed=0)
        assert calls == []

    @pytest.mark.parametrize("n_query", [10**7, 10**9])
    def test_unallocatable_budget_is_a_resource_error(self, n_query):
        # At 10**7 the factor store would be about 1e17 bytes, far beyond any
        # host's memory, so numpy's allocation fails at once; at 10**9 it is
        # past numpy's largest array ("array is too big").  Nothing is held.
        calls = []
        with pytest.raises(ResourceError, match=f"n_query={n_query} "):
            tune(calls.append, UNIT3, n0=4, n_query=n_query, seed=0)
        assert calls == []

    def test_incumbent_nondecreasing_and_in_box(self):
        def objective(theta):
            return -float(np.sum((theta - 0.3) ** 2))

        trace = tune(objective, UNIT3, n0=10, n_query=6, seed=4)
        best = -math.inf
        for trial in trace.trials:
            assert np.all(trial.theta >= 0.0) and np.all(trial.theta <= 1.0)
            best = max(best, trial.value)
            assert trace.incumbent_value >= trial.value
        assert trace.incumbent_value == best

    def test_quadratic_convergence_beats_random_search(self):
        center = np.array([0.3, 0.7, 0.5])

        def objective(theta):
            return -float(np.sum((theta - center) ** 2))

        trace = tune(objective, UNIT3, n0=25, n_query=25, seed=0)
        assert np.linalg.norm(trace.incumbent_theta - center) < 0.15
        rng = np.random.default_rng(1234)
        random_best = max(
            -float(np.sum((p - center) ** 2)) for p in rng.random((100_000, 3))
        )
        assert trace.incumbent_value >= random_best

    def test_on_trial_sees_every_evaluation_in_order(self):
        def objective(theta):
            return -float(np.sum((theta - 0.4) ** 2))

        seen = []
        trace = tune(objective, UNIT3, n0=5, n_query=3, seed=3,
                     on_trial=lambda *args: seen.append(args))
        assert len(seen) == 5 + 3
        for (phase, theta, value), trial in zip(seen, trace.trials):
            assert phase == trial.phase
            assert np.array_equal(theta, trial.theta)
            assert value == trial.value
