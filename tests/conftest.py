"""Session set-up and helpers shared by every test module."""

import tracemalloc

import pytest

from quack import blas


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite at one OpenBLAS thread, as the CLI runs."""
    blas.set_threads(1)


def traced_peak(call, *args) -> int:
    """Peak bytes traced by tracemalloc while ``call(*args)`` runs."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
