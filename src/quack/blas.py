"""The LAPACK and BLAS routines quack calls, from numpy's bundled OpenBLAS.

numpy's PyPI wheels bundle an ILP64 OpenBLAS, ``libscipy_openblas64_`` in
``numpy.libs``, which numpy loads when it is imported.  This module finds
that library among the loaded ones (``RTLD_NOLOAD``, threadpoolctl's
technique) and calls, through ctypes, its Cholesky factorization
``dpotrf``, triangular solve ``dtrsm``, Hermitian rank-k product ``zherk``
and thread-count getter and setter.  Nothing is looked up until first
use; a numpy without the library, or a library without a routine, raises
:class:`~quack.errors.LibraryError`.

quack's BLAS products are small: a second OpenBLAS thread mostly spins on
a small host, and the last bits of a product may depend on the thread
count.  Importing this module changes nothing; the CLI calls
``set_threads(1)`` at start-up, and library callers may do the same.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path

import numpy as np

from .errors import LibraryError


@functools.cache
def _library() -> ctypes.CDLL:
    """numpy's loaded OpenBLAS."""
    libs = Path(np.__file__).parents[1] / "numpy.libs"
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_LAZY", 0)
    for path in sorted(libs.glob("*openblas64*")):
        try:
            # RTLD_NOLOAD: only the library numpy has already loaded.
            return ctypes.CDLL(str(path), mode=mode)
        except OSError:
            continue
    raise LibraryError(
        f"numpy's bundled OpenBLAS is not loaded from {libs}; quack needs a numpy "
        "build that bundles scipy-openblas (the PyPI wheels)"
    )


@functools.cache
def _function(symbol: str, restype=None):
    """The library's function ``symbol`` returning ``restype``."""
    function = getattr(_library(), symbol, None)
    if function is None:
        raise LibraryError(f"numpy's bundled OpenBLAS has no routine {symbol}")
    function.restype = restype
    return function


def _pointer(arg):
    """A Fortran argument: an array's data, an int as 64 bits or a float, by reference."""
    if isinstance(arg, np.ndarray):
        return ctypes.c_void_p(arg.ctypes.data)
    if isinstance(arg, int):
        return ctypes.byref(ctypes.c_int64(arg))
    if isinstance(arg, float):
        return ctypes.byref(ctypes.c_double(arg))
    return arg  # a one-character string, or a reference already


def _call(routine: str, *args) -> None:
    """Call the Fortran-interface ``routine``, ILP64: ``scipy_<routine>_64_``."""
    _function(f"scipy_{routine}_64_")(*map(_pointer, args))


def _check(a: np.ndarray, dtype, order: str = "F") -> None:
    """Refuse an array the library would misread: another dtype, or not ``order``-contiguous."""
    contiguous = a.flags.f_contiguous if order == "F" else a.flags.c_contiguous
    if a.dtype != dtype or not contiguous:
        raise ValueError(f"expected a {order}-ordered {np.dtype(dtype)} array")


def threads() -> dict[str, int]:
    """The effective thread count of numpy's OpenBLAS."""
    return {"numpy": int(_function("scipy_openblas_get_num_threads64_", ctypes.c_int)())}


def set_threads(count: int) -> dict[str, int]:
    """Set numpy's OpenBLAS to ``count`` threads; returns :func:`threads` afterwards."""
    _function("scipy_openblas_set_num_threads64_")(ctypes.c_int(int(count)))
    return threads()


def cholesky(a: np.ndarray) -> bool:
    """Factor the symmetric ``a`` in place into its lower Cholesky factor.

    ``a`` is a Fortran-ordered float matrix, of which ``dpotrf`` reads the
    lower triangle.  On success the strict upper triangle is set to 0, so
    ``a`` is the factor, and True is returned.  False means a leading minor
    is not positive definite; ``a`` is then partly overwritten.
    """
    _check(a, float)
    n = a.shape[0]
    info = ctypes.c_int64()
    _call("dpotrf", b"L", n, a, n, ctypes.byref(info))
    if info.value > 0:
        return False
    # The upper triangle of a[:-1, 1:], its diagonal included, is the strict
    # upper triangle of a.
    _call("dlaset", b"U", n - 1, n - 1, 0.0, 0.0, a[:, 1:], n)
    return True


def solve_lower(factor: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Overwrite ``b`` by ``L^-1 b``, or ``L^-T b`` if ``transpose``, and return it.

    ``L`` is the lower triangle of the Fortran-ordered float ``factor``
    (c x c); ``b`` is a Fortran-ordered float vector of length c or
    (c, k) matrix, solved by one ``dtrsm``.
    """
    _check(factor, float)
    _check(b, float)
    c = factor.shape[0]
    if b.shape[0] != c:
        raise ValueError(f"a ({c}, {c}) factor cannot solve for b of shape {b.shape}")
    k = b.shape[1] if b.ndim == 2 else 1
    _call("dtrsm", b"L", b"L", b"T" if transpose else b"N", b"N", c, k, 1.0, factor, c, b, c)
    return b


def upper_overlaps(states: np.ndarray) -> np.ndarray:
    """``<states[i]|states[j]>`` for ``i <= j``, in a Fortran-ordered (c, c) complex array.

    The rows of the C-ordered complex ``states`` (c, m) are the columns of
    a Fortran-ordered (m, c) matrix ``A``; one ``zherk`` writes the upper
    triangle of ``A^H A``.  The strict lower triangle is 0.
    """
    _check(states, complex, order="C")
    c, m = states.shape
    out = np.zeros((c, c), dtype=complex, order="F")
    _call("zherk", b"U", b"C", c, m, 1.0, states, m, 0.0, out, c)
    return out
