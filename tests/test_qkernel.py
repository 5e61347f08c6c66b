"""Fidelity kernel: closed-form examples, dense-oracle agreement, invariants."""

import numpy as np
import pytest

from oracles import embed_dense
from quack import qkernel
from quack.errors import InputError, ResourceError
from quack.qkernel import IqpParams, diagonal_phases, embed_columns, gram_matrix


def embed(x, params):
    """quack's statevector of one window: a one-column design."""
    return embed_columns(np.asarray(x, dtype=float)[:, None], params)[0]


def kernel(x, x2, params):
    """quack's fidelity of one pair of windows, through the cross-kernel path."""
    x, x2 = np.asarray(x, dtype=float), np.asarray(x2, dtype=float)
    return qkernel.cross_gram(x[:, None], x2[:, None], params)[0, 0]


class TestDiagonalPhases:
    def test_zero_input_gives_zero_phases(self):
        assert np.array_equal(diagonal_phases(np.zeros(4), 0.7), np.zeros(16))

    def test_zero_alpha_gives_zero_phases(self):
        rng = np.random.default_rng(3)
        assert np.array_equal(diagonal_phases(rng.normal(size=3), 0.0), np.zeros(8))

    def test_two_qubit_enumeration(self):
        # z in {+-1}^2 enumerated by hand: phase = z1 + z2 + z1 z2 at alpha=1.
        # Little-endian index order: 00, 10, 01, 11.
        phases = diagonal_phases(np.array([1.0, 1.0]), 1.0)
        assert phases == pytest.approx([3.0, -1.0, -1.0, -1.0], abs=0)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 5):
            x = rng.normal(size=n)
            alpha = rng.uniform(0.0, 1.0)
            phases = diagonal_phases(x, alpha)
            for b in range(2**n):
                z = [1.0 - 2.0 * ((b >> j) & 1) for j in range(n)]
                linear = sum(x[j] * z[j] for j in range(n))
                pairwise = sum(
                    x[j] * x[jp] * z[j] * z[jp] for j in range(n) for jp in range(j)
                )
                assert phases[b] == pytest.approx(
                    alpha * linear + alpha**2 * pairwise, abs=1e-12
                )

    def test_rejects_bad_alpha(self):
        with pytest.raises(InputError):
            diagonal_phases(np.ones(2), 1.5)


class TestEmbed:
    def test_alpha_zero_returns_ground_state_exactly(self):
        state = embed(np.random.default_rng(0).normal(size=5), IqpParams(0.0, 5))
        expected = np.zeros(32, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(state, expected)

    def test_single_qubit_closed_form(self):
        x1, alpha = 0.8, 0.37
        state = embed(np.array([x1]), IqpParams(alpha, 1))
        a = alpha * x1
        expected = np.array(
            [np.exp(1j * a) * np.cos(a), 1j * np.exp(-1j * a) * np.sin(a)]
        )
        assert np.abs(state - expected).max() < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            state = embed(rng.normal(size=n), IqpParams(rng.uniform(0, 1), n))
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_qubit_ceiling(self):
        n = qkernel.QUBIT_CEILING + 1
        with pytest.raises(ResourceError):
            embed(np.zeros(n), IqpParams(0.1, n))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            embed(np.zeros(3), IqpParams(0.1, 4))


class TestDenseOracle:
    def test_fast_path_matches_dense_simulation(self):
        rng = np.random.default_rng(42)
        for n in range(1, 7):
            for _ in range(5):
                x = rng.normal(size=n)
                params = IqpParams(rng.uniform(0, 1), n)
                fast = embed(x, params)
                dense = embed_dense(x, params)
                assert np.abs(fast - dense).max() < 1e-10


class TestBlockPath:
    def test_blocks_match_dense_oracle(self):
        rng = np.random.default_rng(21)
        for n in range(1, 9):
            X = rng.normal(size=(n, 6))
            params = IqpParams(rng.uniform(0, 1), n)
            states = embed_columns(X, params)
            assert states.shape == (6, 2**n)
            for j in range(6):
                assert np.abs(states[j] - embed_dense(X[:, j], params)).max() < 1e-10

    @pytest.mark.parametrize(
        "n, c",
        [
            # more columns than one block holds at 5 qubits
            (5, qkernel._BLOCK_AMPLITUDES // 2**5 + 3),
            # blocks of two windows at 14 qubits; the third starts a new block
            (14, 3),
        ],
    )
    def test_columns_bit_equal_to_single_column_calls(self, n, c):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(n, c))
        params = IqpParams(0.63, n)
        states = embed_columns(X, params)
        for j in range(c):
            assert np.array_equal(states[j], embed(X[:, j], params))

    def test_zero_columns(self):
        assert embed_columns(np.zeros((3, 0)), IqpParams(0.5, 3)).shape == (0, 8)

    def test_rejects_bad_designs(self):
        params = IqpParams(0.5, 3)
        with pytest.raises(InputError):
            embed_columns(np.zeros(3), params)
        with pytest.raises(InputError):
            embed_columns(np.zeros((4, 2)), params)
        with pytest.raises(InputError):
            embed_columns(np.array([[0.0], [np.nan], [1.0]]), params)
        n = qkernel.QUBIT_CEILING + 1
        with pytest.raises(ResourceError):
            embed_columns(np.zeros((n, 2)), IqpParams(0.5, n))


class TestKernel:
    def test_self_similarity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=4)
            assert kernel(x, x, IqpParams(0.6, 4)) == pytest.approx(1.0, abs=1e-10)

    def test_alpha_zero_all_pairs_one(self):
        rng = np.random.default_rng(6)
        params = IqpParams(0.0, 3)
        for _ in range(10):
            assert kernel(rng.normal(size=3), rng.normal(size=3), params) == 1.0

    def test_single_qubit_closed_form_oracle(self):
        # Overlap of the two hand-derived single-qubit states.
        alpha, xa, xb = 0.5, 1.0, -1.0
        a, b = alpha * xa, alpha * xb
        overlap = np.exp(1j * (a - b)) * np.cos(a) * np.cos(b) + np.exp(
            -1j * (a - b)
        ) * np.sin(a) * np.sin(b)
        expected = abs(overlap) ** 2
        got = kernel(np.array([xa]), np.array([xb]), IqpParams(alpha, 1))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(8)
        params = IqpParams(0.4, 5)
        for _ in range(50):
            x, y = rng.normal(size=5), rng.normal(size=5)
            assert kernel(x, y, params) == kernel(y, x, params)

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            params = IqpParams(rng.uniform(0, 1), n)
            v = kernel(rng.normal(size=n), rng.normal(size=n), params)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            kernel(np.zeros(2), np.zeros(3), IqpParams(0.1, 2))

    def test_bandwidth_limit_monotone(self):
        # Fixed random pairs: max |kernel - 1| shrinks monotonically as
        # alpha steps down through 0.5, 0.25, 0.1, 0.01.
        rng = np.random.default_rng(10)
        pairs = [(rng.normal(size=5), rng.normal(size=5)) for _ in range(10)]
        deviations = []
        for alpha in (0.5, 0.25, 0.1, 0.01):
            params = IqpParams(alpha, 5)
            deviations.append(max(abs(kernel(x, y, params) - 1.0) for x, y in pairs))
        assert deviations == sorted(deviations, reverse=True)
        assert deviations[-1] < 0.05


class TestGramMatrix:
    def test_single_column(self):
        gram = gram_matrix(np.array([[0.3], [1.2]]), IqpParams(0.5, 2))
        assert np.array_equal(gram, np.array([[1.0]]))

    def test_alpha_zero_all_ones_exact(self):
        X = np.random.default_rng(1).normal(size=(4, 6))
        gram = gram_matrix(X, IqpParams(0.0, 4))
        assert np.array_equal(gram, np.ones((6, 6)))

    def test_matches_dense_oracle_entrywise(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 6):
            X = rng.normal(size=(n, 5))
            params = IqpParams(0.7, n)
            gram = gram_matrix(X, params)
            for i in range(5):
                for j in range(5):
                    a = embed_dense(X[:, i], params)
                    b = embed_dense(X[:, j], params)
                    assert gram[i, j] == pytest.approx(
                        abs(np.vdot(a, b)) ** 2, abs=1e-10
                    )

    def test_exactly_symmetric_unit_diagonal(self):
        X = np.random.default_rng(4).normal(size=(5, 12))
        gram = gram_matrix(X, IqpParams(0.9, 5))
        assert np.array_equal(gram, gram.T)
        assert np.array_equal(np.diag(gram), np.ones(12))

    def test_psd(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            X = rng.normal(size=(5, 20))
            gram = gram_matrix(X, IqpParams(rng.uniform(0, 1), 5))
            assert np.linalg.eigvalsh(gram).min() >= -1e-8 * 20

    def test_cross_gram_consistent(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(3, 4))
        X2 = rng.normal(size=(3, 6))
        params = IqpParams(0.5, 3)
        cg = qkernel.cross_gram(X, X2, params)
        assert cg.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                assert cg[i, j] == pytest.approx(
                    kernel(X[:, i], X2[:, j], params), abs=1e-12
                )

    def test_cross_gram_chunked(self):
        # one reference state against query chunks of 8 + 9 columns
        rng = np.random.default_rng(14)
        x = rng.normal(size=14)
        X2 = rng.normal(size=(14, 17))
        params = IqpParams(0.5, 14)
        cg = qkernel.cross_gram(x[:, None], X2, params)
        assert cg.shape == (1, 17)
        for j in range(17):
            assert cg[0, j] == pytest.approx(kernel(x, X2[:, j], params), abs=1e-12)
