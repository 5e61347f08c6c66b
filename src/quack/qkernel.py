"""Fidelity kernel from a two-layer diagonal-phase (IQP-style) feature map.

A length-n real window ``x`` is encoded into an n-qubit state by

    |phi(x, alpha)> = U_z(x, alpha) H^n U_z(x, alpha) H^n |0...0>

where ``H^n`` is a Hadamard on every qubit and ``U_z`` is diagonal in the
computational basis with phase

    alpha * sum_j x_j z_j + alpha^2 * sum_{j'<j} x_j x_j' z_j z_j'

on the basis state whose Pauli-Z eigenvalues are ``z_j`` (+1 for bit 0,
-1 for bit 1).  The kernel value is the squared overlap (fidelity) of two
embedded states, which equals the all-zeros outcome probability of the
compute/uncompute circuit.

Bit convention: qubit ``j`` (1-indexed) owns bit position ``j - 1`` of the
amplitude index, little-endian, so amplitude index ``i`` has ``z_j = 1 -
2 * ((i >> (j - 1)) & 1)``.  Kernel values are convention-invariant; the
dense-oracle comparison is not, so both paths here share this convention.

Two evaluation paths are provided:

* the fast path (:func:`embed_columns`) applies the diagonal phases
  directly and uses an unnormalized fast Walsh-Hadamard transform,
  deferring the combined ``2^-n`` normalization to a single exact scaling
  at the end;
* the dense oracle (:func:`embed_dense`) materializes the ``2^n x 2^n``
  Hadamard and diagonal matrices and multiplies them.  It is exponentially
  slower and exists as an independent reference for tests.

The fast path is a block path.  It embeds the c columns of a (w, c) design
into one preallocated (c, 2^n) array, building the sign matrix once per
call and running the butterflies over blocks of whole rows of at most
``_BLOCK_AMPLITUDES`` amplitudes: a thousand windows at 5 qubits, one at
16, so each transform stays in cache.  :func:`embed` is the one-column
case.  :func:`cross_gram_and_diag` embeds its query columns in chunks, so
only one chunk of query states is live at a time.

Every floating-point operation is the one, in the same order, that an
embedding done one window at a time performs, so results are bit-for-bit
independent of how the columns are blocked:

* each column's linear phase ``z @ x`` is its own matrix-vector product;
  one matrix-matrix product over all columns would round differently;
* butterflies (stage by stage over bits 0, 1, ..., n-1), phase products
  and the scaling are elementwise;
* an overlap product never gets a lone query column from chunking, which
  would dispatch a matrix-vector kernel instead of the matrix-matrix one;
  where a single state is genuinely on one side, the operands are passed
  in the amplitude-major layout of column-stacked states;
* squared norms are summed over an amplitude-major copy, in the order
  numpy uses for column-stacked states.

Everything here is a pure function of its inputs; returned arrays are
never aliased to caller data and are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError

# 2^24 complex amplitudes ~ 256 MB; larger windows are refused.
DEFAULT_QUBIT_CEILING = 24

# Amplitudes per butterfly block (512 KiB of complex128): whole windows are
# grouped up to this size, and a wider window is a block on its own.
_BLOCK_AMPLITUDES = 2**15


@dataclass(frozen=True)
class IqpParams:
    """Feature-map parameters: bandwidth ``alpha`` in [0, 1], qubit count ``n``.

    The qubit count equals the window length of the encoded vectors.
    """

    alpha: float
    n: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"bandwidth alpha must lie in [0, 1], got {self.alpha}")
        if self.n < 1:
            raise InputError(f"qubit count must be >= 1, got {self.n}")


def _as_window(x, n: int | None = None, ndim: int = 1) -> np.ndarray:
    """``x`` as a finite float window (``ndim=1``) or (w, c) design (``ndim=2``)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim:
        expected = "a 1-d window" if ndim == 1 else "a (w, c) design matrix"
        raise InputError(f"expected {expected}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("window contains non-finite values")
    if n is not None and x.shape[0] != n:
        raise InputError(f"window length {x.shape[0]} does not match qubit count {n}")
    return x


def _zsigns(n: int) -> np.ndarray:
    """(2^n, n) matrix of Pauli-Z eigenvalues per basis state, little-endian."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


def _signs(params: IqpParams, qubit_ceiling: int) -> np.ndarray:
    """:func:`_zsigns` for ``params.n`` qubits, refusing more than the ceiling."""
    if params.n > qubit_ceiling:
        raise ResourceError(
            f"{params.n} qubits exceeds the ceiling of {qubit_ceiling} "
            f"({2**params.n} amplitudes)"
        )
    return _zsigns(params.n)


def _phases(s: np.ndarray, xx, alpha: float) -> np.ndarray:
    """Phases from ``s = z @ x`` and ``xx = x @ x``; see :func:`diagonal_phases`."""
    return alpha * s + alpha**2 * (s * s - xx) / 2.0


def diagonal_phases(x, alpha: float) -> np.ndarray:
    """Phase of the diagonal unitary on each of the 2^n basis states.

    Entry ``b`` is ``alpha * sum_j x_j z_j + alpha^2 * sum_{j'<j} x_j x_j'
    z_j z_j'`` with ``z_j`` the Pauli-Z eigenvalue of qubit ``j`` in basis
    state ``b``.  The pairwise sum is folded to ``(s^2 - sum_j x_j^2) / 2``
    with ``s = sum_j x_j z_j``, exact because ``z_j^2 = 1``.

    Parameters
    ----------
    x : array_like, shape (n,)
        Window to encode; must be finite.
    alpha : float
        Bandwidth coefficient in [0, 1].

    Returns
    -------
    numpy.ndarray, shape (2^n,)
        Real phases in amplitude-index order.
    """
    x = _as_window(x)
    params = IqpParams(alpha=float(alpha), n=x.shape[0])
    return _phases(_zsigns(params.n) @ x, x @ x, params.alpha)


def _fwht(src: np.ndarray, out: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard transform of each row of ``src``.

    Radix-2 butterflies over bit 0, 1, ..., n-1 of the amplitude index, in
    constant geometry: a stage adds and subtracts adjacent pairs and writes
    the sums to the first half of the row and the differences to the
    second half.  That rotates the index bits by one, so the next stage's
    pairs are again adjacent and after n stages every amplitude is back in
    place.  Each stage reads long strided runs and writes contiguous ones,
    alternating between ``out`` and a scratch block so the last stage
    writes ``out``; ``src`` is left unchanged.
    """
    size = src.shape[1]
    half = size // 2
    stages = size.bit_length() - 1
    scratch = np.empty_like(out)
    targets = (out, scratch) if stages % 2 == 1 else (scratch, out)
    for stage in range(stages):
        dst = targets[stage % 2]
        np.add(src[:, 0::2], src[:, 1::2], out=dst[:, :half])
        np.subtract(src[:, 0::2], src[:, 1::2], out=dst[:, half:])
        src = dst


def embed_columns(
    X, params: IqpParams, qubit_ceiling: int = DEFAULT_QUBIT_CEILING
) -> np.ndarray:
    """Statevectors of every column of a (w, c) design, fast block path.

    Applies phase multiplication and Walsh-Hadamard butterflies without
    intermediate normalization; the combined factor ``2^-n`` from both
    Hadamard layers is applied once at the end.  Being a pure power of
    two, that scaling is exact, so ``alpha = 0`` returns |0...0> exactly.

    Parameters
    ----------
    X : array_like, shape (n, c)
        Windows to encode, one per column.
    params : IqpParams
        Bandwidth and qubit count; ``params.n`` must equal the window length.
    qubit_ceiling : int
        Refuse windows longer than this (memory guard).

    Returns
    -------
    numpy.ndarray, complex, shape (c, 2^n)
        Unit-norm amplitudes of column ``j`` in row ``j``, little-endian
        basis order.
    """
    X = _as_window(X, params.n, ndim=2)
    return _embed(X, params.alpha, _signs(params, qubit_ceiling))


def _embed(X: np.ndarray, alpha: float, zs: np.ndarray) -> np.ndarray:
    """Block path of :func:`embed_columns` on a checked design and sign matrix."""
    size, n = zs.shape
    states = np.empty((X.shape[1], size), dtype=complex)
    step = max(1, _BLOCK_AMPLITUDES // size)
    for start in range(0, X.shape[1], step):
        block = states[start : start + step]
        s = np.empty((block.shape[0], size))
        xx = np.empty((block.shape[0], 1))
        for row in range(block.shape[0]):
            x = X[:, start + row]
            s[row] = zs @ x
            xx[row] = x @ x
        phase = np.exp(1j * _phases(s, xx, alpha))
        # H^n |0..0> is uniform; unnormalized it is the all-ones vector.
        _fwht(phase, block)
        block *= phase
        block *= 2.0 ** (-n)
    return states


def embed(x, params: IqpParams, qubit_ceiling: int = DEFAULT_QUBIT_CEILING) -> np.ndarray:
    """Statevector of one window: :func:`embed_columns` on a single column.

    Returns
    -------
    numpy.ndarray, complex, shape (2^n,)
        Unit-norm amplitudes, little-endian basis order.
    """
    x = _as_window(x, params.n)
    return _embed(x[:, None], params.alpha, _signs(params, qubit_ceiling))[0]


def embed_dense(x, params: IqpParams) -> np.ndarray:
    """Statevector via dense 2^n x 2^n matrices; slow reference path.

    Builds the full Hadamard matrix as an n-fold Kronecker product, the
    diagonal phase matrix from a naive double loop over qubit pairs, and
    multiplies the four layers onto |0...0>.  Independent of every
    shortcut taken by :func:`embed`; intended for small n only.
    """
    x = _as_window(x, params.n)
    n = params.n
    size = 2**n
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hn = np.array([[1.0]])
    for _ in range(n):
        # qubit 1 innermost so that bit 0 varies fastest
        hn = np.kron(h1, hn)
    phases = np.zeros(size)
    for b in range(size):
        z = [1.0 - 2.0 * ((b >> j) & 1) for j in range(n)]
        linear = sum(x[j] * z[j] for j in range(n))
        pairwise = 0.0
        for j in range(n):
            for jp in range(j):
                pairwise += x[j] * x[jp] * z[j] * z[jp]
        phases[b] = params.alpha * linear + params.alpha**2 * pairwise
    diag = np.diag(np.exp(1j * phases))
    unitary = diag @ hn @ diag @ hn
    start = np.zeros(size, dtype=complex)
    start[0] = 1.0
    return unitary @ start


def kernel(x, x2, params: IqpParams, qubit_ceiling: int = DEFAULT_QUBIT_CEILING) -> float:
    """Fidelity kernel value |<phi(x)|phi(x2)>|^2 in [0, 1]."""
    x = _as_window(x)
    x2 = _as_window(x2)
    if x.shape[0] != x2.shape[0]:
        raise InputError(f"window lengths differ: {x.shape[0]} vs {x2.shape[0]}")
    a = embed(x, params, qubit_ceiling)
    b = embed(x2, params, qubit_ceiling)
    return float(np.abs(np.vdot(a, b)) ** 2)


def _fidelities(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """|<a|b>|^2 for rows ``a`` of ``bra`` (conjugated) and rows ``b`` of ``ket``.

    With one row on either side numpy dispatches a matrix-vector product,
    whose rounding depends on the matrix's memory order; both operands are
    then passed amplitude-major, the order of column-stacked states.
    """
    if min(bra.shape[0], ket.shape[0]) == 1:
        product = np.ascontiguousarray(bra.T).T @ np.ascontiguousarray(ket.T)
    else:
        product = bra @ ket.T
    return np.abs(product) ** 2


def gram_matrix(
    X, params: IqpParams, qubit_ceiling: int = DEFAULT_QUBIT_CEILING
) -> np.ndarray:
    """Pairwise fidelity matrix of the columns of X.

    Each column is embedded exactly once; entries come from one pass over
    unordered pairs (upper triangle mirrored), so the result is exactly
    symmetric, and the diagonal is set to the exact self-fidelity 1.
    """
    emb = embed_columns(X, params, qubit_ceiling)
    c = emb.shape[0]
    gram = _fidelities(emb.conj(), emb)
    iu, ju = np.triu_indices(c, k=1)
    gram[ju, iu] = gram[iu, ju]
    np.fill_diagonal(gram, 1.0)
    return gram


def cross_gram_and_diag(
    X, X2, params: IqpParams, qubit_ceiling: int = DEFAULT_QUBIT_CEILING
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelities between columns of X and X2, and the self-fidelity of each X2 state.

    The columns of X2 are embedded once, in chunks, and each chunk serves
    both outputs.  The self-fidelity is the squared norm, squared, of the
    state as embedded: 1 up to rounding.

    Chunks are a multiple of 8 columns wide, so that they split the
    overlap product where OpenBLAS's matrix-matrix kernels split it
    anyway (groups of 4 query columns on x86-64), and a lone last column
    joins the chunk before it.  With OpenBLAS each fidelity is then
    rounded as in the product over all of X2 at once.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Fidelities of shape (c, c2) and self-fidelities of shape (c2,).
    """
    zs = _signs(params, qubit_ceiling)
    bra = _embed(_as_window(X, params.n, ndim=2), params.alpha, zs).conj()
    X2 = _as_window(X2, params.n, ndim=2)
    c2 = X2.shape[1]
    fidelity = np.empty((bra.shape[0], c2))
    diag = np.empty(c2)
    width = max(8, _BLOCK_AMPLITUDES // 2**params.n)
    bounds = list(range(0, c2, width)) + [c2]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        ket = _embed(X2[:, start:stop], params.alpha, zs)
        fidelity[:, start:stop] = _fidelities(bra, ket)
        # Summed over an amplitude-major (2^n, k) copy, as over column-stacked
        # states: numpy adds its rows one after another (pairwise if k = 1).
        norms2 = np.sum((np.abs(ket) ** 2).T.copy(), axis=0)
        diag[start:stop] = norms2**2
    return fidelity, diag
