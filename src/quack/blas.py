"""The thread count of the OpenBLAS libraries bundled with numpy and scipy.

quack's BLAS products are small: a second OpenBLAS thread mostly spins on
a small host, and the last bits of a product may depend on the thread
count.  :func:`set_threads` sets both pools through their own setters,
threadpoolctl's technique: ``scipy_openblas_set_num_threads64_`` in
numpy's library, which runs matrix products such as ``cross_gram``'s,
and ``scipy_openblas_set_num_threads`` in scipy's, which runs ``zherk``
and the Cholesky.  A pool whose library or setter is not found is left
alone and reported as ``None``.  Importing this module changes nothing;
the CLI calls ``set_threads(1)`` at start-up, and library callers may do
the same.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path

import numpy
import scipy.linalg  # loads scipy's OpenBLAS, so that RTLD_NOLOAD finds it

# pool -> (package that bundles it in ``<package>.libs``, symbol pattern)
_POOLS = {
    "numpy": (numpy, "scipy_openblas_{}_num_threads64_"),
    "scipy": (scipy, "scipy_openblas_{}_num_threads"),
}


def _function(pool: str, verb: str):
    """The ``get`` or ``set`` function of a pool's loaded library, or None."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    package, pattern = _POOLS[pool]
    libs = Path(package.__file__).parents[1] / f"{pool}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            # RTLD_NOLOAD: only the library the package has already loaded.
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        function = getattr(lib, pattern.format(verb), None)
        if function is not None:
            return function
    return None


def threads() -> dict[str, int | None]:
    """The effective thread count of each pool, None where it cannot be read."""
    getters = {pool: _function(pool, "get") for pool in _POOLS}
    return {pool: None if get is None else int(get()) for pool, get in getters.items()}


def set_threads(count: int) -> dict[str, int | None]:
    """Set every pool found to ``count`` threads; returns :func:`threads` afterwards."""
    for pool in _POOLS:
        setter = _function(pool, "set")
        if setter is not None:
            setter(int(count))
    return threads()
