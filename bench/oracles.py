"""Reference implementations the output checks compare quack against.

They are written from the model's definitions, independently of quack's
code paths, so that moving or rewriting quack's own reference code does
not change what the benchmark checks:

* :func:`dense_state`: the IQP statevector from explicit 2^n x 2^n
  matrices (Kronecker-product Hadamards, phases from a loop over qubit
  pairs).  Exponential; for n <= 8.
* :func:`iqp_states`: the same state, applying each Hadamard along one
  tensor axis of the (2,)*n amplitude array.  Used for the Gram matrices
  the likelihood recompute needs, up to 16 qubits.
* :func:`classical_gram`: the four classical kernels from their formulas.
* :func:`direct_mll`: the GP marginal log likelihood by a dense solve and
  ``slogdet``, with no Cholesky factor.
"""

from __future__ import annotations

import math

import numpy as np

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _z(b: int, j: int) -> float:
    """Pauli-Z eigenvalue of qubit j (bit j, little-endian) in basis state b."""
    return 1.0 - 2.0 * ((b >> j) & 1)


def dense_state(x, alpha: float) -> np.ndarray:
    """U_z H U_z H |0> with every operator a dense 2^n x 2^n matrix."""
    x = [float(v) for v in x]
    n = len(x)
    size = 2**n
    hadamards = np.array([[1.0]])
    for _ in range(n):
        hadamards = np.kron(_H, hadamards)
    phases = np.empty(size)
    for b in range(size):
        linear = sum(x[j] * _z(b, j) for j in range(n))
        pairs = sum(
            x[j] * x[k] * _z(b, j) * _z(b, k) for j in range(n) for k in range(j + 1, n)
        )
        phases[b] = alpha * linear + alpha * alpha * pairs
    diag = np.diag(np.exp(1j * phases))
    zero = np.zeros(size, dtype=complex)
    zero[0] = 1.0
    return diag @ (hadamards @ (diag @ (hadamards @ zero)))


def iqp_states(X, alpha: float) -> np.ndarray:
    """States of every column of a (n, c) design matrix, shape (c, 2^n)."""
    X = np.asarray(X, dtype=float)
    n, c = X.shape
    bits = (np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1
    z = 1.0 - 2.0 * bits  # (2^n, n)
    linear = X.T @ z.T  # (c, 2^n)
    # sum_{j<k} x_j x_k z_j z_k = ((z.x)^2 - |x|^2) / 2, as z_j^2 = 1
    pairs = (linear * linear - np.sum(X * X, axis=0)[:, None]) / 2.0
    diag = np.exp(1j * (alpha * linear + alpha * alpha * pairs))
    # H^n |0> is uniform; then one Hadamard along each qubit's tensor axis
    tensor = (2.0 ** (-n / 2) * diag).reshape((c,) + (2,) * n)
    for axis in range(1, n + 1):
        tensor = np.moveaxis(np.tensordot(_H, tensor, axes=([1], [axis])), 0, axis)
    return tensor.reshape(c, 2**n) * diag


def classical_gram(kind: str, params: dict, X) -> np.ndarray:
    """Gram matrix of the columns of X for a classical kind."""
    X = np.asarray(X, dtype=float)
    diff = X.T[:, None, :] - X.T[None, :, :]  # (c, c, w)
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    if kind == "rbf":
        return np.exp(-sq / (2.0 * params["l_r"] ** 2))
    if kind == "matern":
        d = np.sqrt(sq) / params["l_m"]
        nu = params["nu"]
        if nu == 0.5:
            return np.exp(-d)
        if nu == 1.5:
            return (1.0 + math.sqrt(3.0) * d) * np.exp(-math.sqrt(3.0) * d)
        return (1.0 + math.sqrt(5.0) * d + 5.0 * d * d / 3.0) * np.exp(-math.sqrt(5.0) * d)
    if kind == "rq":
        beta, l_q = params["beta"], params["l_q"]
        return (1.0 + sq / (2.0 * beta * l_q * l_q)) ** (-beta)
    if kind == "periodic":
        s = np.sum(np.sin(math.pi * diff / params["p"]) ** 2, axis=2)
        return np.exp(-2.0 * s / params["l_p"])
    raise ValueError(f"unknown classical kernel {kind!r}")


def gram(kind: str, params: dict, X) -> np.ndarray:
    """Gram matrix of the columns of X for any kernel kind."""
    if kind == "iqp":
        states = iqp_states(X, params["alpha"])
        return np.abs(states.conj() @ states.T) ** 2
    return classical_gram(kind, params, X)


def direct_mll(K: np.ndarray, y: np.ndarray, mean_const: float, diag_add: float) -> float:
    """log N(y; m 1, K + diag_add I) from a dense solve and slogdet."""
    A = K + diag_add * np.eye(K.shape[0])
    r = y - mean_const
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0:
        return -math.inf
    quad = float(r @ np.linalg.solve(A, r))
    return -0.5 * quad - 0.5 * logdet - 0.5 * len(y) * math.log(2.0 * math.pi)
