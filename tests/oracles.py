"""Reference implementations the tests compare quack against.

Each is written from the model's formulas, one pair of windows at a time,
and shares no code with quack's vectorized paths: the IQP state comes from
dense 2^n x 2^n matrices, the classical kernels from their scalar
definitions, the expected improvement from its closed form.  The GP
posterior and marginal likelihood come from an explicit inverse of the
regularized Gram matrix; only that training Gram is quack's
``kernels.gram``, which the kernel oracles above check.  They are slow
and meant for small inputs only.
"""

import math

import numpy as np

from quack import gpr, kernels
from quack.qkernel import IqpParams


def embed_dense(x, params) -> np.ndarray:
    """IQP statevector via dense 2^n x 2^n matrices.

    Builds the full Hadamard matrix as an n-fold Kronecker product, the
    diagonal phase matrix from a naive double loop over qubit pairs, and
    multiplies the four layers onto |0...0>.  Qubit ``j`` owns bit ``j`` of
    the amplitude index (little-endian), as in quack.
    """
    x = np.asarray(x, dtype=float)
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


def hadamard_transform(v) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n vector.

    Reshapes the vector to one axis of length 2 per index bit and replaces
    each axis's pair (a, b) by (a + b, a - b) in turn; the order of the
    axes does not change the transform.
    """
    v = np.asarray(v)
    n = v.shape[0].bit_length() - 1
    t = v.reshape((2,) * n)
    for axis in range(n):
        a, b = np.take(t, 0, axis=axis), np.take(t, 1, axis=axis)
        t = np.stack([a + b, a - b], axis=axis)
    return t.reshape(-1)


def kernel(x, x2, params) -> float:
    """IQP fidelity |<phi(x)|phi(x2)>|^2 of the dense statevectors."""
    return float(abs(np.vdot(embed_dense(x, params), embed_dense(x2, params))) ** 2)


def _distance2(x, x2) -> float:
    return float(np.sum((np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)) ** 2))


def rbf(x, x2, l_r: float) -> float:
    """exp(-||x - x2||^2 / (2 l_r^2))."""
    return math.exp(-_distance2(x, x2) / (2.0 * l_r * l_r))


def matern(x, x2, nu: float, l_m: float) -> float:
    """Matern kernel at nu in {1/2, 3/2, 5/2}, from its closed forms."""
    d = math.sqrt(_distance2(x, x2)) / l_m
    if nu == 0.5:
        return math.exp(-d)
    if nu == 1.5:
        return (1.0 + math.sqrt(3.0) * d) * math.exp(-math.sqrt(3.0) * d)
    if nu == 2.5:
        return (1.0 + math.sqrt(5.0) * d + 5.0 * d * d / 3.0) * math.exp(-math.sqrt(5.0) * d)
    raise ValueError(f"no closed form for nu={nu}")


def rq(x, x2, beta: float, l_q: float) -> float:
    """(1 + ||x - x2||^2 / (2 beta l_q^2))^(-beta)."""
    return (1.0 + _distance2(x, x2) / (2.0 * beta * l_q * l_q)) ** (-beta)


def periodic(x, x2, p: float, l_p: float) -> float:
    """exp(-2 sum_i sin^2(pi (x_i - x2_i) / p) / l_p)."""
    diff = np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)
    return math.exp(-2.0 * float(np.sum(np.sin(math.pi * diff / p) ** 2)) / l_p)


def evaluate(model, x, x2) -> float:
    """Any kernel kind of a ``KernelModel`` on one pair of windows."""
    p = model.params
    if model.kind == "iqp":
        return kernel(x, x2, IqpParams(alpha=p["alpha"], n=len(x)))
    if model.kind == "rbf":
        return rbf(x, x2, p["l_r"])
    if model.kind == "matern":
        return matern(x, x2, p["nu"], p["l_m"])
    if model.kind == "rq":
        return rq(x, x2, p["beta"], p["l_q"])
    if model.kind == "periodic":
        return periodic(x, x2, p["p"], p["l_p"])
    raise ValueError(f"unknown kernel kind {model.kind!r}")


def _regularized_gram(X, hp) -> np.ndarray:
    """K + (noise_var + first jitter rung) I, as ``gpr.fit`` first factors it."""
    c = X.shape[1]
    return kernels.gram(hp.kernel, X) + (hp.noise_var + gpr.JITTER_LADDER[0]) * np.eye(c)


def gpr_predict(X, y, hp, xq) -> tuple[float, float]:
    """GP posterior mean and latent variance at one query window ``xq``,
    by explicit inversion of the regularized Gram matrix."""
    inv = np.linalg.inv(_regularized_gram(X, hp))
    kvec = np.array([evaluate(hp.kernel, X[:, j], xq) for j in range(X.shape[1])])
    mean = hp.mean_const + kvec @ inv @ (y - hp.mean_const)
    var = evaluate(hp.kernel, xq, xq) - kvec @ inv @ kvec
    return mean, var


def gpr_mll(X, y, hp) -> float:
    """log N(y; mean_const 1, K + (noise_var + jitter) I) by explicit inversion."""
    big_k = _regularized_gram(X, hp)
    resid = y - hp.mean_const
    sign, logdet = np.linalg.slogdet(big_k)
    assert sign > 0
    c = y.shape[0]
    return -0.5 * resid @ np.linalg.inv(big_k) @ resid - 0.5 * logdet - 0.5 * c * math.log(2 * math.pi)


def expected_improvement(mean: float, sd: float, incumbent: float) -> float:
    """E[max(0, g - incumbent)] for g ~ N(mean, sd^2), the closed form

        sd * (delta Phi(delta) + phi(delta)),  delta = (mean - incumbent) / sd,

    and max(0, mean - incumbent) at sd = 0.  The reference for log-EI.
    """
    if sd == 0.0:
        return max(0.0, mean - incumbent)
    delta = (mean - incumbent) / sd
    cdf = 0.5 * math.erfc(-delta / math.sqrt(2.0))
    pdf = math.exp(-0.5 * delta * delta) / math.sqrt(2.0 * math.pi)
    return sd * (delta * cdf + pdf)


def log_expected_improvement(mean: float, sd: float, incumbent: float) -> float:
    """log E[max(0, g - incumbent)] for g ~ N(mean, sd^2) in 60-digit
    arithmetic (mpmath), from the closed form above; -inf where EI is 0.

    The float inputs are taken exactly, so only the result is rounded.
    """
    import mpmath

    with mpmath.workdps(60):
        gap = mpmath.mpf(mean) - mpmath.mpf(incumbent)
        if sd == 0.0:
            return float(mpmath.log(gap)) if gap > 0 else -math.inf
        delta = gap / mpmath.mpf(sd)
        h = delta * mpmath.ncdf(delta) + mpmath.npdf(delta)
        return float(mpmath.log(mpmath.mpf(sd)) + mpmath.log(h))
