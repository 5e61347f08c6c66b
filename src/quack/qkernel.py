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
2 * ((i >> (j - 1)) & 1)``.  Kernel values are convention-invariant;
amplitude-level comparisons with a dense simulation need the same one.

The embedding (:func:`embed_columns`) applies the diagonal phases
directly and uses an unnormalized fast Walsh-Hadamard transform, deferring
the combined ``2^-n`` normalization to a single exact scaling at the end.
It embeds the c columns of a (w, c) design into one preallocated
(c, 2^n) array and runs the butterflies over blocks of whole rows of at
most ``_BLOCK_AMPLITUDES`` amplitudes: a thousand windows at 5 qubits, one
at 16, so each transform stays in cache.  :func:`cross_gram_and_diag`
embeds its query columns in chunks, so only one chunk of query states is
live at a time.

What is exact and what is not:

* every step of the embedding is elementwise across columns, so a state
  is bit-for-bit the same whether its window is embedded alone or in a
  block of any size;
* the overlaps are BLAS matrix products, whose rounding depends on the
  BLAS, its thread count and the operand shapes, so chunked overlaps
  match one product over all query states at 1e-12, not bit for bit;
* pipeline outputs are checked against a committed golden set at the
  tolerance stated in ``tests/test_golden.py``.

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


def _linear_sums(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s = sum_j x_j z_j`` on every basis state, and ``x @ x``, per column x of X.

    ``s`` is built by sum doubling over the qubits: after qubit ``j``, the
    first ``2^(j+1)`` entries hold the sums over qubits 0..j, the lower half
    having added ``x_j`` and the upper half, whose bit ``j`` is set,
    subtracted it.  Every operation is elementwise across columns, so a
    column's sums do not depend on the other columns.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        ``s`` of shape (c, 2^n) and ``x @ x`` of shape (c, 1).
    """
    n, c = X.shape
    s = np.empty((c, 2**n))
    s[:, 0] = 0.0
    xx = np.zeros((c, 1))
    for j in range(n):
        h = 2**j
        x = X[j][:, None]
        np.subtract(s[:, :h], x, out=s[:, h : 2 * h])
        s[:, :h] += x
        xx += x * x
    return s, xx


def _phases(s: np.ndarray, xx, alpha: float) -> np.ndarray:
    """Phases from ``s`` and ``xx`` of :func:`_linear_sums`; see :func:`diagonal_phases`."""
    return alpha * s + alpha**2 * (s * s - xx) / 2.0


def diagonal_phases(x, alpha: float) -> np.ndarray:
    """Phase of the diagonal unitary on each of the 2^n basis states.

    Entry ``b`` is ``alpha * sum_j x_j z_j + alpha^2 * sum_{j'<j} x_j x_j'
    z_j z_j'`` with ``z_j`` the Pauli-Z eigenvalue of qubit ``j`` in basis
    state ``b``.  The pairwise sum is folded to ``(s^2 - sum_j x_j^2) / 2``
    with ``s = sum_j x_j z_j``, exact because ``z_j^2 = 1``.  These are the
    phases :func:`embed_columns` applies.

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
    s, xx = _linear_sums(x[:, None])
    return _phases(s, xx, params.alpha)[0]


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
    return _embed(X, params.alpha, qubit_ceiling)


def _embed(X: np.ndarray, alpha: float, qubit_ceiling: int) -> np.ndarray:
    """Block path of :func:`embed_columns` on a checked design, within the qubit ceiling."""
    n, c = X.shape
    if n > qubit_ceiling:
        raise ResourceError(
            f"{n} qubits exceeds the ceiling of {qubit_ceiling} ({2**n} amplitudes)"
        )
    size = 2**n
    states = np.empty((c, size), dtype=complex)
    step = max(1, _BLOCK_AMPLITUDES // size)
    for start in range(0, c, step):
        block = states[start : start + step]
        phase = np.exp(1j * _phases(*_linear_sums(X[:, start : start + step]), alpha))
        # H^n |0..0> is uniform; unnormalized it is the all-ones vector.
        _fwht(phase, block)
        block *= phase
        block *= 2.0 ** (-n)
    return states


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
    gram = np.abs(emb.conj() @ emb.T) ** 2
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

    Chunks hold at least 8 columns, so that wide windows still give the
    overlap product several query columns at once: at 16 qubits, the
    products of 120 queries against 29 training states took 0.22 s in
    1-column chunks and about 0.1 s in 8-column chunks (one OpenBLAS
    thread on a 2-CPU x86-64 host).

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Fidelities of shape (c, c2) and self-fidelities of shape (c2,).
    """
    bra = _embed(_as_window(X, params.n, ndim=2), params.alpha, qubit_ceiling).conj()
    X2 = _as_window(X2, params.n, ndim=2)
    c2 = X2.shape[1]
    fidelity = np.empty((bra.shape[0], c2))
    diag = np.empty(c2)
    width = max(8, _BLOCK_AMPLITUDES // 2**params.n)
    for start in range(0, c2, width):
        ket = _embed(X2[:, start : start + width], params.alpha, qubit_ceiling)
        fidelity[:, start : start + width] = np.abs(bra @ ket.T) ** 2
        diag[start : start + width] = np.sum(np.abs(ket) ** 2, axis=1) ** 2
    return fidelity, diag
