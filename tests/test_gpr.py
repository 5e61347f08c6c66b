"""GP regression against a direct matrix-inversion oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

import oracles
from quack import gpr, kernels
from quack.errors import InputError, NumericalError, ParameterError
from quack.gpr import GprHyperparams, fit, mll, predict_batch

JITTER0 = gpr.JITTER_LADDER[0]


def _hp(kind="rbf", mean=0.0, noise=0.1, **params):
    defaults = {
        "rbf": {"l_r": 1.5},
        "matern": {"nu": 2.5, "l_m": 1.5},
        "rq": {"beta": 1.0, "l_q": 1.5},
        "periodic": {"p": 10.0, "l_p": 1.0},
        "iqp": {"alpha": 0.5},
    }
    merged = {**defaults[kind], **params}
    return GprHyperparams(mean_const=mean, noise_var=noise, kernel=kernels.KernelModel(kind, merged))


def _predict_one(model, xq):
    """Posterior mean and variance at one query window, a (w, 1) batch."""
    means, variances = predict_batch(model, np.asarray(xq, dtype=float)[:, None])
    return means[0], variances[0]


class TestFit:
    def test_single_point_cholesky(self):
        model = fit(np.array([[0.0]]), np.array([1.0]), _hp(noise=0.0))
        assert model.chol[0, 0] == pytest.approx(math.sqrt(1.0 + model.jitter), abs=1e-15)

    def test_all_ones_plus_identity(self):
        # Bandwidth zero makes the fidelity Gram the all-ones matrix.
        X = np.random.default_rng(0).normal(size=(4, 3))
        hp = _hp("iqp", noise=1.0, alpha=0.0)
        model = fit(X, np.array([0.2, -0.1, 0.4]), hp)
        target = np.ones((3, 3)) + (1.0 + model.jitter) * np.eye(3)
        assert np.abs(model.chol @ model.chol.T - target).max() < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 20))
        y = rng.normal(size=20)
        hp = _hp(noise=0.3)
        model = fit(X, y, hp)
        target = kernels.gram(hp.kernel, X) + (0.3 + model.jitter) * np.eye(20)
        rel = np.linalg.norm(model.chol @ model.chol.T - target) / np.linalg.norm(target)
        assert rel < 1e-8

    def test_shape_validation(self):
        with pytest.raises(InputError):
            fit(np.zeros((3, 2)), np.zeros(3), _hp())

    def test_negative_noise_rejected(self):
        with pytest.raises(ParameterError):
            _hp(noise=-0.1)


class TestPredict:
    def test_noiseless_interpolation(self):
        X = np.array([[0.5], [1.0]])
        y = np.array([2.5])
        model = fit(X, y, _hp(noise=0.0))
        mean, var = _predict_one(model, X[:, 0])
        assert mean == pytest.approx(2.5, abs=1e-8)
        assert var == pytest.approx(0.0, abs=1e-8)

    def test_single_point_closed_form(self):
        # c=1: mean = rho y / (1 + s), var = 1 - rho^2 / (1 + s).
        X = np.array([[0.0], [0.0]])
        y = np.array([1.5])
        noise = 0.4
        hp = _hp(noise=noise)
        model = fit(X, y, hp)
        xq = np.array([1.0, 0.5])
        rho = oracles.evaluate(hp.kernel, X[:, 0], xq)
        mean, var = _predict_one(model, xq)
        assert mean == pytest.approx(rho * 1.5 / (1.0 + noise), abs=1e-9)
        assert var == pytest.approx(1.0 - rho**2 / (1.0 + noise), abs=1e-9)

    def test_matches_direct_inverse_oracle(self):
        rng = np.random.default_rng(2)
        kinds = ["rbf", "matern", "rq", "periodic", "iqp"]
        for trial in range(40):
            kind = kinds[trial % len(kinds)]
            c = int(rng.integers(1, 9))
            w = int(rng.integers(2, 6))
            X = rng.normal(size=(w, c))
            y = rng.normal(size=c)
            hp = _hp(kind, mean=rng.uniform(-1, 1), noise=rng.uniform(0.1, 1.0))
            model = fit(X, y, hp)
            xq = rng.normal(size=w)
            mean, var = _predict_one(model, xq)
            mean_ref, var_ref = oracles.gpr_predict(X, y, hp, xq)
            assert mean == pytest.approx(mean_ref, abs=1e-8)
            assert var == pytest.approx(max(var_ref, 0.0), abs=1e-8)

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 15))
        model = fit(X, rng.normal(size=15), _hp(noise=0.2))
        for _ in range(50):
            xq = rng.normal(size=4)
            prior = oracles.evaluate(model.hp.kernel, xq, xq)
            assert _predict_one(model, xq)[1] <= prior + 1e-10

    def test_more_data_never_increases_variance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.normal(size=(3, 12))
            y = rng.normal(size=12)
            hp = _hp(noise=0.3)
            xq = rng.normal(size=3)
            small = _predict_one(fit(X[:, :8], y[:8], hp), xq)[1]
            large = _predict_one(fit(X, y, hp), xq)[1]
            assert large <= small + 1e-8

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4, 10))
        model = fit(X, rng.normal(size=10), _hp(noise=0.2))
        Xq = rng.normal(size=(4, 7))
        means, variances = predict_batch(model, Xq)
        for j in range(7):
            mean, var = _predict_one(model, Xq[:, j])
            assert means[j] == pytest.approx(mean, abs=1e-12)
            assert variances[j] == pytest.approx(var, abs=1e-12)

    def test_query_dimension_mismatch(self):
        model = fit(np.zeros((3, 2)), np.zeros(2), _hp(noise=0.5))
        with pytest.raises(InputError):
            predict_batch(model, np.zeros((4, 1)))

    def test_negative_variance_clamped_to_zero(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(3, 6))
        model = fit(X, rng.normal(size=6), _hp(noise=0.05))
        Xq = np.concatenate([X[:, :1], rng.normal(size=(3, 4))], axis=1)
        means, variances = predict_batch(model, Xq)
        real_cross = kernels.cross

        def doubled_first_column(*args):
            kmat = real_cross(*args).copy()
            kmat[:, 0] *= 2.0  # quadruples k^T (K + sn2 I)^-1 k at a training window
            return kmat

        monkeypatch.setattr(kernels, "cross", doubled_first_column)
        clamped_means, clamped = predict_batch(model, Xq)
        # the patched raw variance is 1 - 4 (1 - variances[0]) < 0
        assert 0.0 < variances[0] < 0.75
        assert clamped[0] == 0.0
        assert np.array_equal(clamped[1:], variances[1:])
        assert np.array_equal(clamped_means[1:], means[1:])


class TestMll:
    def test_standard_normal_at_mean(self):
        value = mll(np.array([[0.0]]), np.array([0.7]), _hp(mean=0.7, noise=0.0))
        assert value == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-6)

    def test_variance_two_at_zero(self):
        value = mll(np.array([[0.0]]), np.array([0.0]), _hp(mean=0.0, noise=1.0))
        assert value == pytest.approx(-0.5 * math.log(4 * math.pi), abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            kind = ["rbf", "matern", "iqp"][trial % 3]
            c = int(rng.integers(1, 6))
            X = rng.normal(size=(3, c))
            y = rng.normal(size=c)
            hp = _hp(kind, mean=rng.uniform(-1, 1), noise=rng.uniform(0.1, 1.0))
            assert mll(X, y, hp) == pytest.approx(oracles.gpr_mll(X, y, hp), abs=1e-8)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(4, 9))
        y = rng.normal(size=9)
        hp = _hp(noise=0.25)
        perm = rng.permutation(9)
        assert abs(mll(X, y, hp) - mll(X[:, perm], y[perm], hp)) < 1e-10


class TestDirectInversionProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["rbf", "matern", "rq", "periodic", "iqp"]),
        nu=st.sampled_from(kernels.MATERN_NUS),
        c=st.integers(1, 8),
        w=st.integers(1, 4),
        noise_var=st.floats(1e-3, 1.0),
        mean=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_posterior_and_mll_match_solve_and_slogdet(
        self, kind, nu, c, w, noise_var, mean, seed
    ):
        # Every entry from the per-pair kernel oracle; the posterior and the
        # MLL from np.linalg.solve and slogdet of K + (noise + jitter) I.
        rng = np.random.default_rng(seed)
        X, y, Xq = rng.normal(size=(w, c)), rng.normal(size=c), rng.normal(size=(w, 3))
        hp = _hp(kind, mean=mean, noise=noise_var, **({"nu": nu} if kind == "matern" else {}))
        model = fit(X, y, hp)
        assert model.jitter == JITTER0

        def k(A, B):
            return np.array([[oracles.evaluate(hp.kernel, a, b) for b in B.T] for a in A.T])

        big_k = k(X, X) + (noise_var + JITTER0) * np.eye(c)
        resid = y - mean
        kq = k(X, Xq)
        means, variances = predict_batch(model, Xq)
        assert np.allclose(means, mean + kq.T @ np.linalg.solve(big_k, resid), rtol=0, atol=1e-8)
        var_ref = np.diag(k(Xq, Xq)) - np.einsum("ij,ij->j", kq, np.linalg.solve(big_k, kq))
        assert np.allclose(variances, np.maximum(var_ref, 0.0), rtol=0, atol=1e-8)
        sign, logdet = np.linalg.slogdet(big_k)
        assert sign > 0
        quad = resid @ np.linalg.solve(big_k, resid)
        mll_ref = -0.5 * quad - 0.5 * logdet - 0.5 * c * math.log(2 * math.pi)
        assert mll(X, y, hp) == pytest.approx(mll_ref, abs=1e-8)


def _low_rank_gram(c, scale, seed=1):
    """B B^T for a (c, 3) B: rank 3, so a small ridge may not factor it."""
    b = np.random.default_rng(seed).normal(size=(c, 3)) * scale
    return b @ b.T


def _random_gram(c, seed=0):
    a = np.random.default_rng(seed).normal(size=(c, c + 5))
    return a @ a.T / (c + 5)


def _ladder_by_formula(gram, noise_var, resid, first_rung=0):
    """The jitter ladder as gram + noise I + jitter I, one fresh sum per rung.

    numpy's Cholesky runs the same LAPACK library as quack's; scipy bundles
    another OpenBLAS build, whose factors may differ in the last bits.
    """
    c = resid.shape[0]
    noisy = gram + noise_var * np.eye(c)
    for jitter in gpr.JITTER_LADDER[first_rung:]:
        try:
            chol = np.linalg.cholesky(noisy + jitter * np.eye(c))
        except np.linalg.LinAlgError:
            continue
        return chol, jitter, cho_solve((chol, True), resid)
    raise AssertionError("no rung factored")


class TestFactorAndSolve:
    @pytest.mark.parametrize(
        "gram, noise_var, first_rung, jitter",
        [
            (_random_gram(30), 0.1, 0, 1e-10),
            (_random_gram(30), 0.37, 2, 1e-6),
            (_low_rank_gram(40, 1000.0), 0.0, 0, 1e-8),  # the first rung fails
            (_low_rank_gram(40, 1000.0), 0.0, 1, 1e-8),
            (_low_rank_gram(40, 1000.0), 0.05, 3, 1e-4),
        ],
    )
    def test_bit_equal_to_formula_and_leaves_gram(self, gram, noise_var, first_rung, jitter):
        resid = np.random.default_rng(2).normal(size=gram.shape[0])
        before = gram.copy()
        chol, got_jitter, solve = gpr.factor_and_solve(gram, noise_var, resid, "x", first_rung)
        expected = _ladder_by_formula(gram, noise_var, resid, first_rung)
        assert np.array_equal(gram, before)
        assert got_jitter == expected[1] == jitter
        assert np.array_equal(chol, expected[0])
        assert np.array_equal(solve, expected[2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_raises_value_error(self, bad):
        gram = _random_gram(6)
        gram[4, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            gpr.factor_and_solve(gram, 0.1, np.ones(6), "x")

    def test_exhausted_ladder_raises_numerical_error(self):
        with pytest.raises(NumericalError, match="kind=x"):
            gpr.factor_and_solve(_low_rank_gram(40, 1e6), 0.0, np.ones(40), "x")

    def test_one_matrix_of_memory(self):
        # Peak traced memory over one c x c float matrix: the factor is
        # made in one buffer, beside a bool finiteness mask of 1/8 of it;
        # the sum-per-rung formula peaks at 3 matrices.
        c = 355
        gram = _random_gram(c)
        resid = np.ones(c)
        tracemalloc.start()
        try:
            gpr.factor_and_solve(gram, 0.1, resid, "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * c * c * 8
