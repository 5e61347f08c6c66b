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
two-level product over a split of the qubits into low and high ones
(:func:`_phase_factors`): a row of low-qubit factors, doubled over the
high qubits by row vectors, then scaled row by row; the factors and row
vectors are built once per call (:func:`_factor_inputs`), in the tail of
the states not yet written.  That is about three passes over the state
in O(n) numpy calls per block, and about ``2^(n/2) (n/2 + 2)`` complex
exponentials per window instead of ``2^n``.  The Walsh-Hadamard
transform (:func:`_fwht`) applies Hadamard matrices of groups of up to
four qubits, scaled to carry the exact ``2^-n`` of both layers, to a
whole block as stacked BLAS products.  It embeds the c columns of a
(w, c) design into one preallocated (c, 2^n) array and works on blocks
of whole rows of at most ``_BLOCK_AMPLITUDES`` amplitudes: a thousand
windows at 5 qubits, one at 16.  A block of fewer qubits stays in cache
through its transform; a wider row takes its low 14 qubits chunk by
cache-sized chunk and only its other qubits over the whole row.  One
phase block and one scratch block (:func:`_workspace`) serve every block
of a call, and every query chunk of :func:`cross_gram`, which keeps one
chunk of query states live at a time.  Windows longer than
``QUBIT_CEILING`` are refused before anything is allocated.

What is exact and what is not:

* every step of the embedding is elementwise across columns, and every
  complex multiply runs along the amplitude axis in runs of at least 16,
  so a state is bit-for-bit the same whether its window is embedded alone
  or in a block of any size;
* the transform's products of +-2^-g are exact, and each of its sums of at
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

from . import blas
from .errors import InputError, ResourceError

# Most qubits a window may have: a state of 2^24 complex amplitudes is 256 MB.
QUBIT_CEILING = 24

# Amplitudes per embedding block (512 KiB of complex128): whole windows are
# grouped up to this size, and a wider window is a block on its own.
_BLOCK_AMPLITUDES = 2**15


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _scaled_hadamards(count: int) -> tuple[np.ndarray, ...]:
    """The Hadamard matrices of 1, 2, 4, ... rows, index g scaled by 2^-g.

    Sylvester doubling of the scaled matrices: entries +-2^-g, exact.
    """
    matrices = [np.ones((1, 1))]
    for _ in range(1, count):
        h = matrices[-1] / 2.0
        matrices.append(np.block([[h, h], [h, -h]]))
    return tuple(_read_only(h) for h in matrices)


# The Hadamard matrices H_1, H_2, ..., H_16 (index g is 2^g x 2^g) scaled by
# 2^-g, so a transform of n qubits carries the exact 2^-n of both Hadamard
# layers, and each as kron(H, I_2), for the float view of a block.
_HADAMARD = _scaled_hadamards(5)
_HADAMARD_PAIRS = tuple(_read_only(np.kron(h, np.eye(2))) for h in _HADAMARD)

# Phase factors (see _phase_factors): up to _DIRECT_QUBITS qubits are
# exponentiated directly; a wider window keeps at least _LOW_QUBITS low
# qubits, so every multiply runs along 16 amplitudes or more.  numpy allocates
# its ufunc buffer for every broadcast that cannot be coalesced, so an
# embedding cuts it to _UFUNC_BUFFER elements; its default 8192 complex are
# an eighth of a 16-qubit state.
_DIRECT_QUBITS = 5
_LOW_QUBITS = 4
_UFUNC_BUFFER = 256


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


def _linear_sums(X: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``s = sum_j x_j z_j`` on every basis state, into ``s``, per column x of X.

    ``s`` is built by sum doubling over the qubits: after qubit ``j``, the
    first ``2^(j+1)`` entries hold the sums over qubits 0..j, the lower half
    having added ``x_j`` and the upper half, whose bit ``j`` is set,
    subtracted it.  Every operation is elementwise across columns, so a
    column's sums do not depend on the other columns.

    ``s`` is a (c, 2^n) float array.  Returns ``x @ x`` of shape (c, 1),
    summed qubit by qubit for the same reason.
    """
    n, c = X.shape
    s[:, 0] = 0.0
    xx = np.zeros((c, 1))
    for j in range(n):
        h = 2**j
        x = X[j][:, None]
        np.subtract(s[:, :h], x, out=s[:, h : 2 * h])
        s[:, :h] += x
        xx += x * x
    return xx


def _phases(s: np.ndarray, xx, alpha: float, out: np.ndarray) -> np.ndarray:
    """Phases from ``s`` and ``xx`` of :func:`_linear_sums`, into ``out``.

    The phase of :func:`diagonal_phases`, ``alpha s + alpha^2 (s^2 - xx) /
    2``, is evaluated as ``s (alpha + alpha^2 s / 2) - alpha^2 xx / 2``, so
    no array of the shape of ``s`` is allocated.
    """
    half = alpha**2 / 2.0
    np.multiply(s, half, out=out)
    out += alpha
    out *= s
    out -= half * xx
    return out


def diagonal_phases(x, alpha: float) -> np.ndarray:
    """Phase of the diagonal unitary on each of the 2^n basis states.

    Entry ``b`` is ``alpha * sum_j x_j z_j + alpha^2 * sum_{j'<j} x_j x_j'
    z_j z_j'`` with ``z_j`` the Pauli-Z eigenvalue of qubit ``j`` in basis
    state ``b``.  The pairwise sum is folded to ``(s^2 - sum_j x_j^2) / 2``
    with ``s = sum_j x_j z_j``, exact because ``z_j^2 = 1``.  The embedding
    exponentiates these only on up to five qubits and builds ``exp(i *
    phase)`` from a split of the qubits above that; see
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
    s = np.empty((1, 2 ** x.shape[0]))
    xx = _linear_sums(x[:, None], s)
    return _phases(s, xx, params.alpha, np.empty_like(s))[0]


def _groups(n: int) -> list[int]:
    """``ceil(n / 4)`` near-equal groups of ``n`` bits, the smaller first."""
    count = -(-n // 4)
    return [n // count] * (count - n % count) + [n // count + 1] * (n % count)


def _products(arrays: list[np.ndarray], groups: list[int], low: int) -> None:
    """:func:`_fwht`'s ``groups``, from bit ``low`` up, ``arrays[i]`` into ``arrays[i + 1]``."""
    rows, size = arrays[0].shape
    n = size.bit_length() - 1
    a = arrays[0].view(float)
    for g, target in zip(groups, arrays[1:]):
        b = target.view(float)
        if low == 0:
            shape = (rows, -1, 2 ** (g + 1))
            np.matmul(a.reshape(shape), _HADAMARD_PAIRS[g], out=b.reshape(shape))
        else:
            shape = (rows, 2 ** (n - low - g), 2**g, 2 ** (low + 1))
            np.matmul(_HADAMARD[g], a.reshape(shape), out=b.reshape(shape))
        a = b
        low += g


def _fwht(src: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Fast Walsh-Hadamard transform of each row of ``src``, times ``2^-n``.

    The index bits are split into groups of at most four bits.  Each
    group's Hadamard matrix ``H`` (2^g x 2^g, entries ``+-2^-g``) is applied
    to the float view of the block by one stacked BLAS product.  The float
    view doubles the lowest axis, so the lowest group is ``(rows, 2^(n-g),
    2^(g+1)) @ kron(H, I_2)``, in which ``I_2`` keeps the real and imaginary
    parts apart, and a group with ``b`` bits below it is ``H @ (rows,
    2^(n-b-g), 2^g, 2^(b+1))``.  Rows of fewer than ``_BLOCK_AMPLITUDES``
    amplitudes (up to 14 qubits) take ``ceil(n / 4)`` near-equal groups,
    the smaller on the low bits (5 qubits: 2, 3; 14 qubits: 3, 3, 4, 4).
    A wider row would stream through memory once per group, so its low 14
    bits go first, in groups 3, 4, 4, 3 (6 % faster than 3, 3, 4, 4), on
    one contiguous chunk of ``_BLOCK_AMPLITUDES / 2`` amplitudes at a time
    (256 KiB, in cache with its parts of ``out`` and ``scratch``); its
    other ``n - 14`` bits follow over the whole row in near-equal groups
    (16 qubits: 2; 19: 2, 3).

    numpy runs a stacked product as one matrix product per row (or chunk)
    and stacked matrix, each of a shape that depends only on n, so a row's
    transform does not depend on its block, nor (tested) on the BLAS thread
    count.  The products of ``+-2^-g`` are exact and each output is a sum
    of at most 16 terms, rounded in the BLAS's order: exactly ``2^-n``
    times the output of the +-1 matrices.

    The products alternate between ``out`` and ``scratch`` (both shaped
    like ``src``) so the last one writes ``out``; ``src`` is left unchanged.
    """
    n = src.shape[1].bit_length() - 1
    bits = n if 2**n < _BLOCK_AMPLITUDES else _BLOCK_AMPLITUDES.bit_length() - 2
    groups = _groups(n) if bits == n else [3, 4, 4, 3, *_groups(n - bits)]
    pair = (out, scratch) if len(groups) % 2 == 1 else (scratch, out)
    targets = [pair[i % 2] for i in range(len(groups))]
    if bits == n:
        _products([src, *targets], groups, 0)
        return
    chunks = [a.reshape(-1, 2**bits) for a in (src, *targets[:4])]
    for k in range(len(chunks[0])):
        _products([a[k : k + 1] for a in chunks], groups[:4], 0)
    _products(targets[3:], groups[4:], bits)


def _exp_i(z: np.ndarray) -> None:
    """Replace each entry of ``z``, whose imaginary part holds an angle, by ``exp(i angle)``."""
    z.real = 0.0
    np.exp(z, out=z)


def _low_qubits(n: int) -> int:
    """Qubits in the low half of :func:`_phase_factors`'s split of ``n``."""
    return n if n <= _DIRECT_QUBITS else max(_LOW_QUBITS, -(-n // 2))


def _inputs_per_window(n: int) -> int:
    """Amplitudes of :func:`_factor_inputs`'s output per window, 0 if direct."""
    low = _low_qubits(n)
    return 0 if low == n else 2**low * (1 + n - low) + 2 ** (n - low)


def _factor_inputs(X: np.ndarray, alpha: float, store: np.ndarray, sums: np.ndarray):
    """The inputs of :func:`_phase_factors` for every column of X.

    Row j of the contiguous (c, :func:`_inputs_per_window`) complex
    ``store`` gets column j's ``exp(i f_L)`` (2^L), ``g`` (H, 2^L) and
    ``exp(i f_H)`` (2^H), returned as three views indexed by column first;
    all are exponentiated in one call.  The sums take ``c 2^L`` floats of
    ``sums``.  Without high qubits ``store`` is (c, 2^n) and gets only
    ``exp(i f_L)``, the phase factor.
    """
    n, c = X.shape
    low = _low_qubits(n)
    high, cols, rows = n - low, 2**low, 2 ** (n - low)
    f_low = store[:, :cols]
    g = store[:, cols : cols * (1 + high)].reshape(c, high, cols)
    f_high = store[:, cols * (1 + high) :]
    s = sums[: c * cols].reshape(c, cols)
    xx = _linear_sums(X[:low], s)
    _phases(s, xx, alpha, f_low.imag)
    if high:
        np.multiply(alpha**2 * X[low:].T[:, :, None], s[:, None, :], out=g.imag)
        s = sums[: c * rows].reshape(c, rows)
        xx = _linear_sums(X[low:], s)
        _phases(s, xx, alpha, f_high.imag)
    _exp_i(store)
    return f_low, g, f_high


def _phase_factors(
    f_low: np.ndarray, g: np.ndarray, f_high: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """``exp(i * phase)`` on every basis state of a block, into ``out``.

    Up to ``_DIRECT_QUBITS`` qubits the phases of :func:`_phases` are
    exponentiated directly, and :func:`_factor_inputs` writes them into the
    phase block.  Above that the qubits are split into the low ``L =
    max(_LOW_QUBITS, ceil(n / 2))`` and the high ``H = n - L``.  With ``s``
    and ``xx`` of :func:`_linear_sums` split the same way, ``s = s_L +
    s_H`` and ``xx = xx_L + xx_H``, the phase of the basis state with low
    bits ``b`` and high bits ``r`` is exactly

        f_L(b) + f_H(r) + alpha^2 s_H(r) s_L(b),

    ``f`` being :func:`_phases` of each half, because the pairwise sum is
    already folded to ``(s^2 - xx) / 2``.  ``f_low``, ``g`` and ``f_high``
    are this block's rows of :func:`_factor_inputs`, built once per call.
    Viewing a row of ``out`` as a (2^H, 2^L) matrix, ``exp(i f_L)`` is
    copied into its first row; each high qubit k then doubles the filled
    rows, the lower half (z_k = +1) multiplied by the row vector ``g_k =
    exp(i alpha^2 x_k s_L)`` and the upper half (z_k = -1) being the lower
    one times ``conj(g_k)``, which lives in the front of ``scratch``; last,
    row ``r`` is scaled by ``exp(i f_H(r))``.  That is about three passes
    over the state in O(H) numpy calls per block, and ``2^L + H 2^L +
    2^H`` exponentials per column instead of ``2^n``.  At five qubits the
    split would take 34 and two more passes, so five are still direct.

    Every multiply runs along the amplitude axis in runs of ``2^L >= 16``.
    numpy may round a complex multiply differently in its SIMD body than in
    its scalar and broadcast paths; runs of one amplitude would let the
    path, and so a window's state, depend on how many columns are built at
    once.
    """
    c, high, cols = g.shape
    g_conj = np.conjugate(g, out=scratch.reshape(-1)[: g.size].reshape(g.shape))
    block = out.reshape(c, -1, cols)
    block[:, 0] = f_low
    for k in range(high):
        h = 2**k
        np.multiply(block[:, :h], g_conj[:, k, None], out=block[:, h : 2 * h])
        block[:, :h] *= g[:, k, None]
    block *= f_high[:, :, None]


def _workspace(n: int, c: int) -> np.ndarray:
    """A phase block and a scratch block for calls of up to c columns of n qubits."""
    return np.empty((2, min(c, max(1, _BLOCK_AMPLITUDES // 2**n)), 2**n), dtype=complex)


def embed_columns(X, params: IqpParams) -> np.ndarray:
    """Statevectors of every column of a (w, c) design, fast block path.

    Applies phase multiplication and the Walsh-Hadamard transform; the
    transform carries the combined factor ``2^-n`` of both Hadamard layers.
    Being a pure power of two, that scaling is exact, so ``alpha = 0``
    returns |0...0> exactly.

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


def _embed(X: np.ndarray, alpha: float, work=None) -> np.ndarray:
    """Block path of :func:`embed_columns` on a checked design, within ``QUBIT_CEILING``.

    ``work`` is a :func:`_workspace` for at least c columns, made here if
    None.  ``np.errstate`` restores the ufunc buffer, also on a raise.
    """
    n, c = X.shape
    if n > QUBIT_CEILING:
        raise ResourceError(
            f"{n} qubits exceeds the ceiling of {QUBIT_CEILING} ({2**n} amplitudes)"
        )
    # The states before the blocks: the other order raised the peak RSS of
    # the 5..10-qubit ablation by 0.2 MB (glibc heap layout).
    states = np.empty((c, 2**n), dtype=complex)
    phases, scratches = _workspace(n, c) if work is None else work
    step, per = max(1, len(phases)), _inputs_per_window(n)
    with np.errstate():
        np.setbufsize(_UFUNC_BUFFER)
        if per:
            # The inputs go in the tail of the states, the sums in the front;
            # less than a state per window, the inputs are overwritten by the
            # blocks, written from the front, only once read.
            flat = states.reshape(-1)
            store = flat[c * (2**n - per) :].reshape(c, per)
            inputs = _factor_inputs(X, alpha, store, flat.view(float))
        for start in range(0, c, step):
            stop = start + step
            block = states[start:stop]
            phase, scratch = phases[: len(block)], scratches[: len(block)]
            if per:
                _phase_factors(*(a[start:stop] for a in inputs), phase, scratch)
            else:
                # The block, not yet written, holds the sums.
                _factor_inputs(X[:, start:stop], alpha, phase, block.reshape(-1).view(float))
            # H^n |0..0> is uniform; unnormalized it is the all-ones vector.
            _fwht(phase, block, scratch)
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
    overlaps = blas.upper_overlaps(emb)
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
    8-column chunks (one OpenBLAS thread on a 2-CPU x86-64 host).  One
    :func:`_workspace` serves every chunk.  Each query chunk is conjugated
    in place, so the training states are never copied; a fidelity is
    symmetric in its two states.
    """
    ket = _embed(_as_window(X, params.n, ndim=2), params.alpha)
    X2 = _as_window(X2, params.n, ndim=2)
    c2 = X2.shape[1]
    fidelity = np.empty((ket.shape[0], c2))
    width = max(8, _BLOCK_AMPLITUDES // 2**params.n)
    work = _workspace(params.n, min(c2, width))
    for start in range(0, c2, width):
        bra = _embed(X2[:, start : start + width], params.alpha, work)
        np.conjugate(bra, out=bra)
        fidelity[:, start : start + width] = (np.abs(bra @ ket.T) ** 2).T
    return fidelity
