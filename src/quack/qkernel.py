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

The embedding (:func:`embed_columns`) builds ``exp(i * phase)`` as a
product of one- and two-qubit factors (:func:`_phase_factors`), so it
takes about ``16 (n - 3) + n^2 / 2`` complex exponentials per window
instead of ``2^n``, and uses an unnormalized fast Walsh-Hadamard
transform (:func:`_fwht`), deferring the combined ``2^-n`` normalization
to a single exact scaling of the phase factors.  The transform applies
the +-1 Hadamard matrices of groups of up to four qubits to a whole block
as stacked BLAS products.  It embeds the c columns of a (w, c) design into
one preallocated (c, 2^n) array and works on blocks of whole rows of at
most ``_BLOCK_AMPLITUDES`` amplitudes: a thousand windows at 5 qubits, one
at 16, so each transform stays in cache.  One phase block and one scratch
block serve every block of a call.  :func:`cross_gram` embeds its query
columns in chunks, so only one chunk of query states is live at a time.
Windows longer than ``QUBIT_CEILING`` are refused before anything is
allocated.

What is exact and what is not:

* every step of the embedding is elementwise across columns, and every
  complex multiply runs along the amplitude axis in runs of at least 16,
  so a state is bit-for-bit the same whether its window is embedded alone
  or in a block of any size;
* the transform's products of +-1 are exact, and each of its sums of at
  most 16 terms is rounded in the BLAS's order; its products have shapes
  that depend only on the qubit count, so a state does not depend on its
  block, nor (tested) on the BLAS thread count, but its last bits may
  differ between BLAS builds;
* the phase factors are products of rounded exponentials, so they match
  ``exp(1j * diagonal_phases(x, alpha))`` to about 1e-13, not bit for bit;
* the overlaps are BLAS products (``zherk`` for a Gram matrix, a matrix
  product for a cross kernel), whose rounding depends on the BLAS, its
  thread count and the operand shapes, so chunked overlaps match one
  product over all query states at 1e-12, not bit for bit;
* pipeline outputs are checked against a committed golden set at the
  tolerance stated in ``tests/test_golden.py``.

Everything here is a pure function of its inputs; returned arrays are
never aliased to caller data and are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard
from scipy.linalg.blas import zherk

from .errors import InputError, ResourceError

# Most qubits a window may have: a state of 2^24 complex amplitudes is 256 MB.
QUBIT_CEILING = 24

# Amplitudes per embedding block (512 KiB of complex128): whole windows are
# grouped up to this size, and a wider window is a block on its own.
_BLOCK_AMPLITUDES = 2**15


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The +-1 Hadamard matrices H_1, H_2, ..., H_16 (index g is 2^g x 2^g), and
# each as kron(H, I_2), for the float view of a block.
_HADAMARD = tuple(_read_only(hadamard(2**g, dtype=float)) for g in range(5))
_HADAMARD_PAIRS = tuple(_read_only(np.kron(h, np.eye(2))) for h in _HADAMARD)

# Qubits whose phases are exponentiated directly before the doubling starts;
# see _phase_factors.
_DIRECT_QUBITS = 4


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
    with ``s = sum_j x_j z_j``, exact because ``z_j^2 = 1``.  The embedding
    exponentiates only the first 16 of these and builds the rest of
    ``exp(i * phase)`` from one- and two-qubit factors; see
    :func:`_phase_factors`.

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


def _fwht(src: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Unnormalized fast Walsh-Hadamard transform of each row of ``src``.

    The index bits are split into groups of four from bit 0 up, the last
    group taking the remainder, and each group's +-1 Hadamard matrix ``H``
    (2^g x 2^g) is applied to the float view of the whole block by one
    stacked BLAS product.  The float view doubles the lowest axis, so the
    lowest group is ``(rows, 2^(n-g), 2^(g+1)) @ kron(H, I_2)``, in which
    ``I_2`` keeps the real and imaginary parts apart, and a group with
    ``b`` bits below it is ``H @ (rows, 2^(n-b-g), 2^g, 2^(b+1))``.  numpy
    runs such a product as one matrix product per row and stacked matrix,
    each of a shape that depends only on n, so a row's transform does not
    depend on its block, nor (tested) on the BLAS thread count.  The
    products of +-1 are exact and each output is a sum of at most 16
    terms, rounded in the BLAS's order.

    The products alternate between ``out`` and ``scratch`` (both shaped
    like ``src``) so the last one writes ``out``; ``src`` is left unchanged.
    """
    rows, size = src.shape
    n = size.bit_length() - 1
    groups = [4] * (n // 4) + [n % 4] * (n % 4 > 0)
    targets = (out, scratch) if len(groups) % 2 == 1 else (scratch, out)
    a = src.view(float)
    low = 0
    for step, g in enumerate(groups):
        b = targets[step % 2].view(float)
        if low == 0:
            shape = (rows, -1, 2 ** (g + 1))
            np.matmul(a.reshape(shape), _HADAMARD_PAIRS[g], out=b.reshape(shape))
        else:
            shape = (rows, 2 ** (n - low - g), 2**g, 2 ** (low + 1))
            np.matmul(_HADAMARD[g], a.reshape(shape), out=b.reshape(shape))
        a = b
        low += g


def _phase_factors(
    X: np.ndarray, alpha: float, out: np.ndarray, scratch: np.ndarray, spare: np.ndarray
) -> None:
    """``exp(i * phase)`` on every basis state, per column of X, into ``out``.

    The phases of the lowest ``_DIRECT_QUBITS`` qubits are exponentiated
    directly.  Each further qubit j doubles the filled prefix: with
    ``s_<j(b)`` the linear sum of :func:`_linear_sums` over the qubits
    below j, the lower half (z_j = +1) is multiplied by ``u_j(b) =
    exp(i alpha x_j (1 + alpha s_<j(b)))`` and the upper half (z_j = -1)
    is the lower one times ``conj(u_j)``.  ``u_j`` is itself built in
    ``scratch`` from its direct first ``2^_DIRECT_QUBITS`` entries by
    doubling with ``exp(+-i alpha^2 x_j x_k)`` over qubits k < j, and its
    conjugate goes to ``spare``.  That is about ``16 (n - 3) + n^2 / 2``
    exponentials per column instead of ``2^n``.

    Every multiply runs along the amplitude axis in runs of at least
    ``2^_DIRECT_QUBITS``.  numpy rounds a complex multiply differently in
    its SIMD body than in its scalar and broadcast paths; doubling from
    runs of one amplitude lets the path, and so a window's state, depend
    on how many columns are built at once.

    ``out``, ``scratch`` and ``spare`` are (c, 2^n) complex blocks; only
    ``out`` holds a result.
    """
    n = X.shape[0]
    base = min(n, _DIRECT_QUBITS)
    s, xx = _linear_sums(X[:base])
    np.exp(1j * _phases(s, xx, alpha), out=out[:, : 2**base])
    for j in range(base, n):
        h = 2**j
        x = X[j][:, None]
        u = scratch[:, :h]
        np.exp(1j * (alpha * x * (1.0 + alpha * s)), out=u[:, : 2**base])
        w = np.exp(1j * (alpha**2 * x * X[base:j].T))
        w_conj = w.conj()
        for k in range(base, j):
            hk = 2**k
            np.multiply(u[:, :hk], w_conj[:, k - base, None], out=u[:, hk : 2 * hk])
            u[:, :hk] *= w[:, k - base, None]
        u_conj = np.conjugate(u, out=spare[:, :h])
        np.multiply(out[:, :h], u_conj, out=out[:, h : 2 * h])
        out[:, :h] *= u


def embed_columns(X, params: IqpParams) -> np.ndarray:
    """Statevectors of every column of a (w, c) design, fast block path.

    Applies phase multiplication and the Walsh-Hadamard transform without
    intermediate normalization; the combined factor ``2^-n`` from both
    Hadamard layers scales the phase factors once, before the last
    multiply.  Being a pure power of two, that scaling is exact, so
    ``alpha = 0`` returns |0...0> exactly.

    Parameters
    ----------
    X : array_like, shape (n, c)
        Windows to encode, one per column.
    params : IqpParams
        Bandwidth and qubit count; ``params.n`` must equal the window length.

    Returns
    -------
    numpy.ndarray, complex, shape (c, 2^n)
        Unit-norm amplitudes of column ``j`` in row ``j``, little-endian
        basis order.

    Raises
    ------
    ResourceError
        If ``params.n`` exceeds ``QUBIT_CEILING``.
    """
    X = _as_window(X, params.n, ndim=2)
    return _embed(X, params.alpha)


def _embed(X: np.ndarray, alpha: float) -> np.ndarray:
    """Block path of :func:`embed_columns` on a checked design, within ``QUBIT_CEILING``."""
    n, c = X.shape
    if n > QUBIT_CEILING:
        raise ResourceError(
            f"{n} qubits exceeds the ceiling of {QUBIT_CEILING} ({2**n} amplitudes)"
        )
    size = 2**n
    states = np.empty((c, size), dtype=complex)
    step = max(1, _BLOCK_AMPLITUDES // size)
    phases = np.empty((min(c, step), size), dtype=complex)
    scratches = np.empty_like(phases)
    for start in range(0, c, step):
        block = states[start : start + step]
        phase, scratch = phases[: len(block)], scratches[: len(block)]
        # The block, not yet written, holds conj(u_j) while the phases are built.
        _phase_factors(X[:, start : start + step], alpha, phase, scratch, block)
        # H^n |0..0> is uniform; unnormalized it is the all-ones vector.
        _fwht(phase, block, scratch)
        phase *= 2.0 ** (-n)
        block *= phase
    return states


def gram_matrix(X, params: IqpParams) -> np.ndarray:
    """Pairwise fidelity matrix of the columns of X.

    Each column is embedded exactly once.  The overlaps of the upper
    triangle come from one Hermitian rank-k product (BLAS ``zherk``, half
    the work of a full product).  Their squared moduli are written into the
    front half of that product's own buffer, and the result is a c x c view
    of it, so no other c x c array is allocated.  The computed triangle is
    copied to the other one, so the result is exactly symmetric, and the
    diagonal is set to the exact self-fidelity 1.
    """
    emb = embed_columns(X, params)
    c = emb.shape[0]
    if c == 0:
        return np.empty((0, 0))
    # emb.T is the Fortran-ordered (2^n, c) view BLAS takes without a copy;
    # trans=2 forms its conjugate transpose times itself, the bra-ket overlaps.
    overlaps = zherk(1.0, emb.T, trans=2)
    # Column j of the Fortran-ordered product is floats [2cj, 2cj + 2c) of
    # its buffer, and its |.|^2 goes to floats [cj, cj + c).  For the block
    # of columns j..2j-1 that is [cj, 2cj): clear of the block's own floats
    # and over columns before j, already done.  So the columns go in blocks
    # 0, 1, 2-3, 4-7, ...
    floats = overlaps.reshape(-1, order="F").view(float)
    start = 0
    while start < c:
        stop = min(c, max(1, 2 * start))
        square = floats[c * start : c * stop].reshape(stop - start, c).T
        np.abs(overlaps[:, start:stop], out=square)
        np.square(square, out=square)
        start = stop
    # Row j holds |overlap(i, j)|^2 for i <= j; copy it to column j.
    gram = floats[: c * c].reshape(c, c)
    for j in range(1, c):
        gram[:j, j] = gram[j, :j]
    np.fill_diagonal(gram, 1.0)
    return gram


def cross_gram(X, X2, params: IqpParams) -> np.ndarray:
    """Fidelities between the columns of X (c) and X2 (c2), shape (c, c2).

    The columns of X2 are embedded once, in chunks of at least 8 columns,
    so that wide windows still give the overlap product several query
    columns at once: at 16 qubits, the products of 120 queries against 29
    training states took 0.22 s in 1-column chunks and about 0.1 s in
    8-column chunks (one OpenBLAS thread on a 2-CPU x86-64 host).  Each
    query chunk is conjugated in place, so the training states are never
    copied; a fidelity is symmetric in its two states.
    """
    ket = _embed(_as_window(X, params.n, ndim=2), params.alpha)
    X2 = _as_window(X2, params.n, ndim=2)
    c2 = X2.shape[1]
    fidelity = np.empty((ket.shape[0], c2))
    width = max(8, _BLOCK_AMPLITUDES // 2**params.n)
    for start in range(0, c2, width):
        bra = _embed(X2[:, start : start + width], params.alpha)
        np.conjugate(bra, out=bra)
        fidelity[:, start : start + width] = (np.abs(bra @ ket.T) ** 2).T
    return fidelity
