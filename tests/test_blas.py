"""The OpenBLAS thread helper and the CLI's one-thread pin."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quack import blas, cli

PINNABLE = None not in blas.threads().values()


@pytest.mark.skipif(not PINNABLE, reason="the OpenBLAS thread setters are not available")
def test_set_threads_reports_the_effective_counts():
    try:
        assert blas.set_threads(2) == {"numpy": 2, "scipy": 2}
        assert blas.threads() == {"numpy": 2, "scipy": 2}
    finally:
        assert blas.set_threads(1) == {"numpy": 1, "scipy": 1}


def test_missing_setter_is_left_alone_and_reported(tmp_path, monkeypatch, capsys):
    numpy_pool = blas._POOLS["numpy"]
    monkeypatch.setitem(blas._POOLS, "numpy", (numpy_pool[0], "no_such_symbol_{}"))
    assert blas.set_threads(1)["numpy"] is None
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("gen.n_steps = 40\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "generate"]) == 0
    assert "cannot set the BLAS thread count of numpy" in capsys.readouterr().err


@pytest.mark.skipif(not PINNABLE, reason="the OpenBLAS thread setters are not available")
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
        assert timings["blas_threads"] == {"numpy": 1, "scipy": 1}, name
