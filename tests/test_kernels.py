"""Classical baseline kernels and the kind dispatch."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import evaluate
from quack import kernels, qkernel
from quack.errors import InputError, ParameterError
from quack.kernels import KernelModel, gram


def _pair(kind, x, x2, **params):
    """quack's kernel value for one pair of windows, through the cross-kernel path."""
    x, x2 = np.asarray(x, dtype=float), np.asarray(x2, dtype=float)
    return kernels.cross(KernelModel(kind, params), x[:, None], x2[:, None])[0, 0]


def rbf(x, x2, l_r):
    return _pair("rbf", x, x2, l_r=l_r)


def matern(x, x2, nu, l_m):
    return _pair("matern", x, x2, nu=nu, l_m=l_m)


def rq(x, x2, beta, l_q):
    return _pair("rq", x, x2, beta=beta, l_q=l_q)


def periodic(x, x2, p, l_p):
    return _pair("periodic", x, x2, p=p, l_p=l_p)


class TestRbf:
    def test_identical_inputs(self):
        x = np.array([0.3, -1.0, 2.0])
        assert rbf(x, x, 1.7) == 1.0

    def test_distance_sqrt2_lengthscales(self):
        # d = l * sqrt(2) makes the exponent exactly -1.
        l_r = 0.9
        x = np.array([l_r * math.sqrt(2.0), 0.0])
        assert rbf(x, np.zeros(2), l_r) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_unit_distance_window5(self):
        x = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert rbf(x, np.zeros(5), 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_nonpositive_lengthscale(self):
        with pytest.raises(ParameterError):
            KernelModel("rbf", {"l_r": 0.0})


class TestMatern:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_unit_value_at_zero_distance(self, nu):
        x = np.array([0.4, 0.4])
        assert matern(x, x, nu, 2.0) == 1.0

    def test_nu_half_is_exponential(self):
        x = np.array([1.0, 0.0])
        assert matern(x, np.zeros(2), 0.5, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_nu_five_half_closed_form(self):
        x = np.array([1.0])
        expected = (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0))
        assert matern(x, np.zeros(1), 2.5, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.523994, abs=1e-6)

    def test_unsupported_nu(self):
        with pytest.raises(ParameterError):
            KernelModel("matern", {"nu": 2.0, "l_m": 1.0})


class TestRq:
    def test_identical_inputs(self):
        x = np.array([5.0, -3.0])
        assert rq(x, x, 1.0, 1.0) == 1.0

    def test_unit_exponent(self):
        x = np.array([math.sqrt(2.0), 0.0])
        assert rq(x, np.zeros(2), 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_beta_two(self):
        x = np.array([2.0, 0.0])
        assert rq(x, np.zeros(2), 2.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_nonpositive_params(self):
        with pytest.raises(ParameterError):
            KernelModel("rq", {"beta": -1.0, "l_q": 1.0})

    def test_limit_to_rbf(self):
        # RQ approaches RBF as the weighting parameter grows (beyond the
        # tuning box, so on the reference formulas).
        x = np.array([0.7, -0.4, 1.1])
        x2 = np.array([-0.2, 0.5, 0.3])
        assert abs(oracles.rq(x, x2, 1e6, 1.3) - oracles.rbf(x, x2, 1.3)) < 1e-4


class TestPeriodic:
    def test_identical_inputs(self):
        x = np.array([1.0, 2.0])
        assert periodic(x, x, 7.0, 2.0) == 1.0

    def test_full_period_difference(self):
        p = 6.0
        x = np.array([p, 2.0 * p])
        assert periodic(x, np.zeros(2), p, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_period(self):
        p, l_p = 8.0, 2.0
        x = np.array([p / 2.0])
        assert periodic(x, np.zeros(1), p, l_p) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_nonpositive_params(self):
        with pytest.raises(ParameterError):
            KernelModel("periodic", {"p": 5.0, "l_p": 0.0})


class TestStationarity:
    @pytest.mark.parametrize(
        "model",
        [
            KernelModel("rbf", {"l_r": 1.4}),
            KernelModel("matern", {"nu": 1.5, "l_m": 2.0}),
            KernelModel("rq", {"beta": 0.8, "l_q": 1.1}),
        ],
    )
    def test_translation_invariance(self, model):
        rng = np.random.default_rng(21)
        x, x2 = rng.normal(size=4), rng.normal(size=4)
        shift = np.full(4, 3.7)
        base = _pair(model.kind, x, x2, **model.params)
        assert abs(_pair(model.kind, x + shift, x2 + shift, **model.params) - base) < 1e-12



class TestClassicalGramProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        w=st.integers(1, 10),
        c=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
        u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    )
    def test_exactly_symmetric_with_unit_diagonal(self, w, c, seed, scale, u):
        # The Gram is used as computed, with no mirror pass and no diagonal fill.
        X = scale * np.random.default_rng(seed).normal(size=(w, c))
        cases = [(kind, {}) for kind in ("rbf", "rq", "periodic")]
        cases += [("matern", {"nu": nu}) for nu in kernels.MATERN_NUS]
        for kind, fixed in cases:
            box = {k: b for k, b in kernels.DEFAULT_BOUNDS[kind].items() if k not in fixed}
            params = {k: lo + t * (hi - lo) for (k, (lo, hi)), t in zip(box.items(), u)}
            gm = gram(KernelModel(kind, {**params, **fixed}), X)
            assert np.array_equal(gm, gm.T), kind
            assert np.array_equal(np.diag(gm), np.ones(c)), kind

    def test_periodic_gram_sums_row_by_row(self):
        # 5 lags, 355 windows: the running sum, one row's differences and
        # their sines are the c x c arrays live at once, 3 c^2 floats.  A
        # (w, c, c) array of differences would peak at about 15 c^2.
        c = 355
        X = np.random.default_rng(26).normal(size=(5, c))
        model = KernelModel("periodic", {"p": 10.0, "l_p": 1.0})
        tracemalloc.start()
        try:
            gram(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * c * c + 16 * 1024


class TestKernelModel:
    def test_out_of_bounds_rejected(self):
        with pytest.raises(ParameterError):
            KernelModel("rbf", {"l_r": 50.0})

    def test_matern_nu_discrete(self):
        with pytest.raises(ParameterError):
            KernelModel("matern", {"nu": 1.0, "l_m": 1.0})

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            KernelModel("linear", {})

    def test_wrong_param_names(self):
        with pytest.raises(ParameterError):
            KernelModel("rbf", {"lengthscale": 1.0})


class TestDispatch:
    def test_iqp_self(self):
        x = np.array([0.2, -0.9, 1.4])
        assert _pair("iqp", x, x, alpha=0.4) == pytest.approx(1.0, abs=1e-10)

    def test_rbf_zero_distance(self):
        x = np.array([1.0, 1.0])
        assert _pair("rbf", x, x, l_r=3.0) == 1.0

    def test_periodic_half_period(self):
        assert _pair("periodic", np.array([4.0]), np.zeros(1), p=8.0, l_p=2.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    @pytest.mark.parametrize(
        "model",
        [
            KernelModel("iqp", {"alpha": 0.3}),
            KernelModel("rbf", {"l_r": 2.0}),
            KernelModel("matern", {"nu": 2.5, "l_m": 1.5}),
            KernelModel("rq", {"beta": 1.2, "l_q": 2.5}),
            KernelModel("periodic", {"p": 9.0, "l_p": 1.0}),
        ],
    )
    def test_gram_matches_scalar_evaluate(self, model):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(4, 6))
        gm = gram(model, X)
        assert np.array_equal(gm, gm.T)
        assert np.array_equal(np.diag(gm), np.ones(6))
        for i in range(6):
            for j in range(6):
                assert gm[i, j] == pytest.approx(
                    evaluate(model, X[:, i], X[:, j]), abs=1e-10
                )

    @pytest.mark.parametrize(
        "model",
        [
            KernelModel("iqp", {"alpha": 0.3}),
            KernelModel("rbf", {"l_r": 2.0}),
            KernelModel("periodic", {"p": 9.0, "l_p": 1.0}),
            KernelModel("rq", {"beta": 2.0, "l_q": 1.5}),
        ],
    )
    def test_cross_matches_scalar_evaluate(self, model):
        rng = np.random.default_rng(31)
        X, X2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 5))
        cm = kernels.cross(model, X, X2)
        assert cm.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert cm[i, j] == pytest.approx(
                    evaluate(model, X[:, i], X2[:, j]), abs=1e-10
                )

    @pytest.mark.parametrize(
        "model",
        [KernelModel("rbf", {"l_r": 1.0}), KernelModel("iqp", {"alpha": 0.5})],
        ids=["rbf", "iqp"],
    )
    def test_cross_length_mismatch(self, model):
        with pytest.raises(InputError):
            kernels.cross(model, np.zeros((3, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize(
        "n, c2",
        [
            (5, 7),  # one chunk
            (14, 1),  # a single query
            (14, 9),  # an 8-column chunk and a 1-column remainder
            (14, 17),  # two chunks, the second with the remainder
        ],
    )
    def test_cross_matches_unchunked_product(self, n, c2):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(n, 4))
        X2 = rng.normal(size=(n, c2))
        model = KernelModel("iqp", {"alpha": 0.45})
        kmat = kernels.cross(model, X, X2)
        params = qkernel.IqpParams(0.45, n)
        # one product over unchunked states; chunking may round differently
        # on another BLAS, so compare at a tolerance
        whole = qkernel.embed_columns(X, params).conj() @ qkernel.embed_columns(X2, params).T
        assert kmat.shape == (4, c2)
        assert kmat == pytest.approx(np.abs(whole) ** 2, abs=1e-12)
