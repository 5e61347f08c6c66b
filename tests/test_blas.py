"""The bindings to numpy's OpenBLAS and the CLI's one-thread pin."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import dtrsm, zherk

from quack import blas, cli, qkernel

SIZES = (1, 20, 59, 355)


def _spd(c: int, seed: int = 0) -> np.ndarray:
    a = np.random.default_rng(seed).normal(size=(c, c + 3))
    return a @ a.T / c + 1e-3 * np.eye(c)


def test_set_threads_reports_the_effective_counts():
    try:
        assert blas.set_threads(2) == {"numpy": 2}
        assert blas.threads() == {"numpy": 2}
    finally:
        assert blas.set_threads(1) == {"numpy": 1}


@pytest.mark.parametrize("c", SIZES)
def test_cholesky_equals_numpys(c):
    # numpy's own Cholesky calls the same dpotrf of the same library.
    # scipy bundles another OpenBLAS build, whose factor may differ in the
    # last bits.
    spd = _spd(c)
    factor = np.array(spd, order="F")
    assert blas.cholesky(factor)
    assert np.array_equal(factor, np.linalg.cholesky(spd))


def test_cholesky_reports_a_matrix_that_is_not_positive_definite():
    assert not blas.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]], order="F"))
    assert not blas.cholesky(np.ones((3, 3), order="F"))


@pytest.mark.parametrize("c", SIZES)
def test_solves_equal_scipys(c):
    factor = np.asfortranarray(np.linalg.cholesky(_spd(c)))
    rng = np.random.default_rng(c)
    vector, matrix = rng.normal(size=c), rng.normal(size=(c, 37))
    # scipy's solve_triangular takes a vector to LAPACK's dtrtrs, which
    # OpenBLAS solves by dtrsv; its cho_solve and dtrsm, like quack, by dtrsm.
    for transpose in (False, True):
        expected = dtrsm(1.0, factor, vector[:, None], lower=1, trans_a=int(transpose))[:, 0]
        got = blas.solve_lower(factor, vector.copy(), transpose=transpose)
        assert np.array_equal(got, expected)
    got = blas.solve_lower(factor, blas.solve_lower(factor, vector.copy()), transpose=True)
    assert np.array_equal(got, cho_solve((factor, True), vector))
    got = blas.solve_lower(factor, np.array(matrix, order="F"))
    assert np.array_equal(got, solve_triangular(factor, matrix, lower=True))
    got = blas.solve_lower(factor, np.eye(c, order="F"))
    assert np.array_equal(got, solve_triangular(factor, np.eye(c), lower=True))


@pytest.mark.parametrize("c, n", [(1, 5), (20, 5), (59, 5), (355, 5), (20, 16)])
def test_upper_overlaps_equal_scipys_zherk(c, n):
    X = np.random.default_rng(n).normal(size=(n, c))
    states = qkernel.embed_columns(X, qkernel.IqpParams(0.6, n))
    got = blas.upper_overlaps(states)
    assert got.flags.f_contiguous
    assert np.array_equal(got, zherk(1.0, states.T, trans=2))
    assert not np.tril(got, -1).any()


def test_bindings_refuse_a_wrong_layout():
    factor = np.asfortranarray(np.linalg.cholesky(_spd(4)))
    with pytest.raises(ValueError):
        blas.solve_lower(np.ascontiguousarray(factor.T), np.ones(4))
    with pytest.raises(ValueError):
        blas.solve_lower(factor, np.ones((4, 2)))
    with pytest.raises(ValueError):
        blas.cholesky(np.array(_spd(4), dtype=np.float32, order="F"))
    with pytest.raises(ValueError):
        blas.upper_overlaps(np.ones((2, 4), dtype=complex).T)


def test_missing_routine_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    blas._function.cache_clear()
    monkeypatch.setattr(blas, "_library", lambda: object())
    try:
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("gen.n_steps = 40\n")
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "generate"])
    finally:
        blas._function.cache_clear()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numpy's bundled OpenBLAS has no routine scipy_openblas_")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_runs_at_one_thread_whatever_the_environment(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("n0 = 3\nn_query = 1\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUACK_")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    env["OPENBLAS_NUM_THREADS"] = "2"
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "quack.cli", "--config", str(cfg_path), "--out", str(out),
         "predict"],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stderr == ""
    for name in ("tune_iqp/tuned.json", "predict_iqp/record.json"):
        timings = json.loads((out / name).read_text())["timings"]
        assert timings["blas_threads"] == {"numpy": 1}, name
