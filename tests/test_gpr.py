"""GP regression against a direct matrix-inversion oracle."""

import math

import numpy as np
import pytest

import oracles
from quack import gpr, kernels
from quack.errors import InputError, ParameterError
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


def _oracle_predict(X, y, hp, xq):
    """Posterior by explicit inversion of the regularized Gram matrix."""
    big_k = kernels.gram(hp.kernel, X) + (hp.noise_var + JITTER0) * np.eye(y.shape[0])
    inv = np.linalg.inv(big_k)
    kvec = np.array([oracles.evaluate(hp.kernel, X[:, j], xq) for j in range(X.shape[1])])
    mean = hp.mean_const + kvec @ inv @ (y - hp.mean_const)
    var = oracles.evaluate(hp.kernel, xq, xq) - kvec @ inv @ kvec
    return mean, var


def _oracle_mll(X, y, hp):
    big_k = kernels.gram(hp.kernel, X) + (hp.noise_var + JITTER0) * np.eye(y.shape[0])
    resid = y - hp.mean_const
    c = y.shape[0]
    sign, logdet = np.linalg.slogdet(big_k)
    assert sign > 0
    return -0.5 * resid @ np.linalg.inv(big_k) @ resid - 0.5 * logdet - 0.5 * c * math.log(2 * math.pi)


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
            mean_ref, var_ref = _oracle_predict(X, y, hp, xq)
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
        real_cross_and_diag = kernels.cross_and_diag

        def small_first_kappa(*args):
            kmat, kappa = real_cross_and_diag(*args)
            kappa = kappa.copy()
            kappa[0] = 1e-3  # below k^T (K + sn2 I)^-1 k at a training window
            return kmat, kappa

        monkeypatch.setattr(kernels, "cross_and_diag", small_first_kappa)
        clamped_means, clamped = predict_batch(model, Xq)
        # rbf: kappa = 1, so the patched raw variance is 1e-3 - (1 - variances[0]) < 0
        assert 0.0 < variances[0] < 1.0 - 1e-3
        assert clamped[0] == 0.0
        assert np.array_equal(clamped[1:], variances[1:])
        assert np.array_equal(clamped_means, means)


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
            assert mll(X, y, hp) == pytest.approx(_oracle_mll(X, y, hp), abs=1e-8)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(4, 9))
        y = rng.normal(size=9)
        hp = _hp(noise=0.25)
        perm = rng.permutation(9)
        assert abs(mll(X, y, hp) - mll(X[:, perm], y[perm], hp)) < 1e-10
