"""Session set-up shared by every test module."""

import pytest

from quack import blas


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite at one OpenBLAS thread, as the CLI runs."""
    blas.set_threads(1)
