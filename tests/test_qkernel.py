"""Fidelity kernel: closed-form examples, dense-oracle agreement, invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import embed_dense, hadamard_transform
from quack import blas, qkernel
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
            # blocks of two windows at 14 qubits (transform groups 3, 3, 4,
            # 4); the third starts a new block
            (14, 3),
            # all phases direct
            (4, 3),
            (5, 3),
            # a block of one window; phase factors split 8 low, 8 high
            (16, 2),
            # three groups of four qubits, in a block of eight windows and a
            # block of one; phase factors split 6 low, 6 high
            (12, 9),
            # groups 3, 3, 3, 4; phase factors split 7 low, 6 high
            (13, 3),
            # groups 3, 4, 4, in a block of 16 windows and a block of one
            (11, 17),
            # two groups of four, in a block of 128 windows and a block of
            # two; phase factors split 4 low, 4 high
            (8, 130),
            # groups 3, 3, 4, in a block of 32 windows and a block of three
            (10, 35),
            # groups 3, 3, in a block of 512 windows and a block of two;
            # phase factors split 4 low, 2 high, not 3, 3
            (6, 514),
            # groups 3, 4, in a block of 256 windows and a block of two;
            # phase factors split 4 low, 3 high
            (7, 258),
            # groups 3, 3, 3, in a block of 64 windows and a block of two;
            # phase factors split 5 low, 4 high
            (9, 66),
            # factor inputs built once for blocks of 8 + 8 + 3 windows
            (12, 19),
            # ... for blocks of 2 + 2 + 1 windows
            (14, 5),
            # ... for three one-window blocks
            (16, 3),
            # transform by chunks, top groups 1 and 3
            (15, 2),
            (17, 2),
        ],
    )
    def test_columns_bit_equal_to_single_column_calls(self, n, c):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(n, c))
        params = IqpParams(0.63, n)
        states = embed_columns(X, params)
        for j in range(c):
            assert np.array_equal(states[j], embed(X[:, j], params))

    @pytest.mark.parametrize("n", range(1, 19))
    def test_transform_matches_axis_by_axis_reference(self, n):
        # every group split, from a lone remainder up to four groups of
        # four, scaled by 2^-n; from 15 qubits the low 14 bits by chunks (2
        # chunks and a 1-bit top group at 15, 4 at 16, 16 and a 4-bit top
        # group at 18); src is left unchanged
        rng = np.random.default_rng(n)
        rows = 3
        src = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
        kept = src.copy()
        out, scratch = np.empty_like(src), np.empty_like(src)
        qkernel._fwht(src, out, scratch)
        assert np.array_equal(src, kept)
        for row in range(rows):
            expected = 2.0**-n * hadamard_transform(src[row])
            assert np.abs(out[row] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_states_independent_of_blas_threads(self):
        rng = np.random.default_rng(24)
        try:
            for n in (1, 5, 8, 10, 11, 12, 13, 15, 16, 17):
                X = rng.normal(size=(n, 3))
                params = IqpParams(0.63, n)
                blas.set_threads(1)
                one = embed_columns(X, params)
                assert blas.set_threads(2) == {"numpy": 2}
                assert np.array_equal(embed_columns(X, params), one), n
        finally:
            blas.set_threads(1)

    def test_zero_columns(self):
        assert embed_columns(np.zeros((3, 0)), IqpParams(0.5, 3)).shape == (0, 8)

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 1.0])
    def test_phase_factors_match_exponential_of_phases(self, n, alpha):
        # one window, and a block of three whose factor inputs share one
        # store
        X = np.random.default_rng(n).normal(size=(n, 3))
        for rows in (1, 3):
            out, scratch = np.empty((2, rows, 2**n), dtype=complex)
            sums, per = np.empty(rows * 2**n), qkernel._inputs_per_window(n)
            if per == 0:
                qkernel._factor_inputs(X[:, :rows], alpha, out, sums)
            else:
                store = np.empty((rows, per), dtype=complex)
                inputs = qkernel._factor_inputs(X[:, :rows], alpha, store, sums)
                qkernel._phase_factors(*inputs, out, scratch)
            for row in range(rows):
                expected = np.exp(1j * diagonal_phases(X[:, row], alpha))
                assert np.abs(out[row] - expected).max() <= 1e-13, (rows, row)

    def test_phase_split_keeps_runs_of_16(self):
        # Above five qubits every complex multiply of the phase factors runs
        # along the 2^L >= 16 low amplitudes, and s_H fits where s_L was
        # (H <= L).  A numpy whose complex multiply rounds alike at every
        # run length cannot show a shorter run in the bit-equality cases.
        # The factor inputs and their sums (2^L floats) fit in a state.
        for n in range(6, qkernel.QUBIT_CEILING + 1):
            low = qkernel._low_qubits(n)
            assert 2**low >= 16 and n - low <= low, n
            assert qkernel._inputs_per_window(n) + 2 ** (low - 1) <= 2**n, n

    def test_ufunc_buffer_size_restored(self, monkeypatch):
        # The embedding shrinks numpy's ufunc buffer for its own calls only,
        # also when a call raises inside it: in the per-call build of the
        # factor inputs at 12 qubits, in a block's direct phase factors at 5,
        # or in a block's transform.
        X, X2 = np.random.default_rng(26).normal(size=(2, 12, 3))
        with np.errstate():
            np.setbufsize(4096)
            params = IqpParams(0.5, 12)
            embed_columns(X, params)
            gram_matrix(X, params)
            qkernel.cross_gram(X, X2, params)
            assert np.getbufsize() == 4096

            def boom(*args):
                raise RuntimeError("boom")

            for n, failing in ((12, "_linear_sums"), (12, "_exp_i"), (5, "_exp_i"), (12, "_fwht")):
                params = IqpParams(0.5, n)
                with monkeypatch.context() as patch:
                    patch.setattr(qkernel, failing, boom)
                    for call, args in (
                        (embed_columns, (X[:n], params)),
                        (gram_matrix, (X[:n], params)),
                        (qkernel.cross_gram, (X[:n], X2[:n], params)),
                    ):
                        with pytest.raises(RuntimeError):
                            call(*args)
                        assert np.getbufsize() == 4096, (n, failing, call.__name__)

    def test_no_state_sized_temporaries(self):
        # Peak traced memory over the states' bytes.  Embedding one window
        # needs the state, the phase block and the transform's scratch
        # block; the rest (array headers, 16-entry tables) is well under
        # 1 % of a 16-qubit state; the factor inputs and their sums live in
        # the states not yet written (a store of their own would add 4 %),
        # and numpy's ufunc buffer, whose default 8192 elements are 12.5 %
        # of it, is shrunk.  The Gram and cross kernel add only one-window
        # blocks to the training states: no conjugated copies.  A full
        # block of 1024 windows at 5 qubits peaks at 3.04 x the states; a
        # block-sized copy anywhere, in the phase factors or in the
        # transform, would add 1.0 x.
        rng = np.random.default_rng(23)
        params = IqpParams(0.5, 16)
        X, X2 = rng.normal(size=(16, 29)), rng.normal(size=(16, 20))
        small = rng.normal(size=(5, qkernel._BLOCK_AMPLITUDES // 2**5))
        for call, args, states, bound in (
            (embed_columns, (X[:, :1], params), 1, 3.01),
            (gram_matrix, (X, params), 29, 1.25),
            (qkernel.cross_gram, (X, X2, params), 29, 2.0),
            (embed_columns, (small, IqpParams(0.5, 5)), small.shape[1], 3.1),
        ):
            state_bytes = 2 ** args[0].shape[0] * np.dtype(complex).itemsize
            tracemalloc.start()
            try:
                call(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * states * state_bytes, (call.__name__, states)

    @pytest.mark.parametrize("n", [1, 5, 10, 15, 16, 18])
    def test_transform_allocates_no_block(self, n):
        # The stacked products write into out and scratch.  A product that
        # copied an operand would allocate a block; the embedding's peak
        # above shows that only at full blocks of 5 qubits, and this bounds
        # the transform alone at every block size.  From 15 qubits a copy of
        # one 2^14-amplitude chunk, 25 % of a 16-qubit row, shows too.
        rows = max(1, qkernel._BLOCK_AMPLITUDES // 2**n)
        src = np.ones((rows, 2**n), dtype=complex)
        out, scratch = np.empty_like(src), np.empty_like(src)
        tracemalloc.start()
        try:
            qkernel._fwht(src, out, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * src.nbytes

    def test_gram_allocates_no_second_matrix(self):
        # Besides the states, only the zherk product's complex c x c buffer,
        # which holds the result; a separate real |.|^2 array would add half
        # again.
        c = 355
        X = np.random.default_rng(25).normal(size=(5, c))
        params = IqpParams(0.5, 5)
        tracemalloc.start()
        try:
            gram_matrix(X, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = c * 2**5 * np.dtype(complex).itemsize
        assert peak <= states + 1.1 * c * c * np.dtype(complex).itemsize

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

    @pytest.mark.parametrize("n, c", [(1, 1), (5, 355), (12, 9)])
    def test_matches_full_overlap_product(self, n, c):
        X = np.random.default_rng(15).normal(size=(n, c))
        params = IqpParams(0.7, n)
        emb = embed_columns(X, params)
        full = np.abs(emb.conj() @ emb.T) ** 2
        assert np.abs(gram_matrix(X, params) - full).max() <= 1e-12

    def test_empty_designs_skip_the_blas(self, capfd):
        params = IqpParams(0.5, 3)
        empty, some = np.zeros((3, 0)), np.ones((3, 2))
        assert gram_matrix(empty, params).shape == (0, 0)
        assert qkernel.cross_gram(empty, some, params).shape == (0, 2)
        assert qkernel.cross_gram(some, empty, params).shape == (2, 0)
        assert qkernel.cross_gram(empty, empty, params).shape == (0, 0)
        assert capfd.readouterr() == ("", "")

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

    def test_cross_gram_makes_one_workspace_for_its_queries(self, monkeypatch):
        # one for the training design, one for every query chunk (8 + 8 + 1)
        made = []
        workspace = qkernel._workspace
        monkeypatch.setattr(qkernel, "_workspace", lambda n, c: made.append(c) or workspace(n, c))
        X, X2 = np.random.default_rng(15).normal(size=(2, 16, 17))
        qkernel.cross_gram(X[:, :2], X2, IqpParams(0.5, 16))
        assert made == [2, 8]

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


@st.composite
def designs(draw, max_columns: int):
    """A (n, c) design with n in 1..7, entries in [-3, 3] including exact zeros,
    and a bandwidth in [0, 1]."""
    n = draw(st.integers(1, 7))
    c = draw(st.integers(1, max_columns))
    entry = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    values = draw(st.lists(entry, min_size=n * c, max_size=n * c))
    return np.array(values).reshape(n, c), IqpParams(draw(st.floats(0.0, 1.0)), n)


class TestProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(design=designs(max_columns=4))
    def test_states(self, design):
        X, params = design
        states = embed_columns(X, params)
        for j in range(X.shape[1]):
            assert np.abs(states[j] - embed_dense(X[:, j], params)).max() < 1e-10
            assert abs(np.linalg.norm(states[j]) - 1.0) < 1e-10
            assert np.array_equal(states[j], embed(X[:, j], params))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(design=designs(max_columns=12))
    def test_gram(self, design):
        X, params = design
        gram = gram_matrix(X, params)
        assert np.array_equal(gram, gram.T)
        assert np.array_equal(np.diag(gram), np.ones(X.shape[1]))
        assert gram.min() >= 0.0 and gram.max() <= 1.0 + 1e-12
        assert np.linalg.eigvalsh(gram).min() >= -1e-10
