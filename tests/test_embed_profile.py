"""tools/embed_profile.py's per-call stage timings and their table."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from quack import qkernel

_SPEC = importlib.util.spec_from_file_location(
    "embed_profile", Path(__file__).resolve().parents[1] / "tools" / "embed_profile.py"
)
embed_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(embed_profile)


def test_format_gives_median_and_iqr_in_ms():
    rows = [
        {"qubits": 16, "windows": 1, "stage": "phase_factors",
         "times": [5e-3, 1e-3, 4e-3, 2e-3, 3e-3]},
        {"qubits": 16, "windows": 1, "stage": "transform", "times": [2.5e-4] * 5},
    ]
    lines = embed_profile.format_table(rows).splitlines()
    assert lines[0].split() == ["qubits", "windows", "stage", "median_ms", "iqr_ms"]
    assert len(lines) == 1 + len(rows)
    # inclusive quartiles of 1..5 ms: 2, 3 and 4
    assert lines[1].split() == ["16", "1", "phase_factors", "3.0000", "2.0000"]
    assert lines[2].split() == ["16", "1", "transform", "0.2500", "0.0000"]


def test_profile_times_every_stage_per_call():
    # one block at 3 qubits, whose inputs are built in its phase factors;
    # the objective's 29 windows at 16
    rows = embed_profile.profile([3, 16], repeats=5)
    assert [(r["qubits"], r["stage"]) for r in rows] == [
        (n, stage) for n in (3, 16) for stage in embed_profile.STAGES
    ]
    assert [r["windows"] for r in rows] == [2**15 // 8] * 4 + [29] * 4
    assert all(len(r["times"]) == 5 for r in rows)
    assert all(min(r["times"]) > 0 for r in rows if (r["qubits"], r["stage"]) != (3, "prepare"))


@pytest.mark.parametrize("n", [5, 12, 14, 16, 17])
def test_timed_steps_give_the_embedding(n):
    # the tool times _embed's steps one by one; a change to them must show
    # here, not go on being timed in its old form.  Past 5 qubits the
    # designs span several blocks (44 windows in blocks of 8 at 12 qubits,
    # 35 in blocks of 2 at 14, 29 of one window at 16); 17 qubits, one
    # window, takes the transform's chunked path.
    X = embed_profile.call_windows(n)
    states, _ = embed_profile.time_call(X)
    assert np.array_equal(states, qkernel._embed(X, embed_profile.ALPHA))


@pytest.mark.parametrize("flags", [["--repeats", "4"], ["--qubits", "0"], ["--qubits", "x"]])
def test_rejects_bad_arguments(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        embed_profile.main(flags)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
