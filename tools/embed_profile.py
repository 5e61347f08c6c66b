#!/usr/bin/env python3
"""Per-call timings of the four stages of the IQP embedding.

Usage:
    python3 tools/embed_profile.py [--qubits 5,12,14,16] [--repeats 21]

For each qubit count n, a design of ``DESIGN_WINDOWS[n]`` windows (the
objective's design sizes in the 12-16-qubit sweep), or else one block of
the embedding's own size (as many windows as fit in
``qkernel._BLOCK_AMPLITUDES`` amplitudes, at least one), is embedded by
the steps of ``qkernel._embed``, and each stage is timed on its own: the
per-call build of the factor inputs (``_factor_inputs``; up to five
qubits they are built per block, in the phase factors), and, summed over
the call's blocks, the phase factors (``_phase_factors``), the
Walsh-Hadamard transform (``_fwht``) and the final multiply.  Whole calls
are timed because the inputs are built once per call.  The tests check
that these steps give ``_embed``'s states bit for bit.  The BLAS runs on
one thread.  One untimed call warms the caches; then each of
``--repeats`` calls (at least 5) is timed stage by stage, and the table
gives each stage's median and interquartile range in milliseconds per
call.  The windows are standard normal, drawn from seed ``SEED``, at
bandwidth ``ALPHA``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quack import blas, qkernel  # noqa: E402

STAGES = ("prepare", "phase_factors", "transform", "multiply")
ALPHA = 0.63
SEED = 0
DESIGN_WINDOWS = {12: 44, 14: 35, 16: 29}


def time_call(X: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
    """States of the columns of X embedded in one call, and seconds per stage."""
    n, c = X.shape
    phases, scratches = qkernel._workspace(n, c)
    states = np.empty((c, 2**n), dtype=complex)
    per = qkernel._inputs_per_window(n)
    seconds = dict.fromkeys(STAGES, 0.0)
    with np.errstate():
        np.setbufsize(qkernel._UFUNC_BUFFER)
        begin = time.perf_counter()
        if per:
            flat = states.reshape(-1)
            store = flat[c * (2**n - per) :].reshape(c, per)
            inputs = qkernel._factor_inputs(X, ALPHA, store, flat.view(float))
        seconds["prepare"] = time.perf_counter() - begin
        for start in range(0, c, len(phases)):
            stop = start + len(phases)
            block = states[start:stop]
            phase, scratch = phases[: len(block)], scratches[: len(block)]
            marks = [time.perf_counter()]
            if per:
                qkernel._phase_factors(*(a[start:stop] for a in inputs), phase, scratch)
            else:
                sums = block.reshape(-1).view(float)
                qkernel._factor_inputs(X[:, start:stop], ALPHA, phase, sums)
            marks.append(time.perf_counter())
            qkernel._fwht(phase, block, scratch)
            marks.append(time.perf_counter())
            block *= phase
            marks.append(time.perf_counter())
            for i, stage in enumerate(STAGES[1:]):
                seconds[stage] += marks[i + 1] - marks[i]
    return states, seconds


def call_windows(n: int) -> np.ndarray:
    """``DESIGN_WINDOWS[n]``, or else a block's worth, of standard normal n-qubit windows."""
    rng = np.random.default_rng(SEED)
    return rng.normal(size=(n, DESIGN_WINDOWS.get(n, max(1, qkernel._BLOCK_AMPLITUDES // 2**n))))


def profile(qubits: list[int], repeats: int) -> list[dict]:
    """One row per qubit count and stage: ``qubits``, ``windows``, ``stage``
    and ``times``, the seconds of each timed call."""
    rows = []
    for n in qubits:
        X = call_windows(n)
        time_call(X)
        timings = [time_call(X)[1] for _ in range(repeats)]
        for stage in STAGES:
            rows.append({
                "qubits": n, "windows": X.shape[1], "stage": stage,
                "times": [t[stage] for t in timings],
            })
    return rows


def format_table(rows: list[dict]) -> str:
    """A header and one line per row: median and interquartile range in ms.

    Each row needs at least two times.
    """
    lines = [f"{'qubits':>6} {'windows':>7}  {'stage':<13} {'median_ms':>10} {'iqr_ms':>8}"]
    for row in rows:
        q1, median, q3 = statistics.quantiles(row["times"], n=4, method="inclusive")
        lines.append(
            f"{row['qubits']:>6} {row['windows']:>7}  {row['stage']:<13} "
            f"{1e3 * median:>10.4f} {1e3 * (q3 - q1):>8.4f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--qubits", default="5,12,14,16")
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    try:
        qubits = [int(q) for q in args.qubits.split(",")]
    except ValueError:
        parser.error(f"--qubits must be comma-separated integers, got {args.qubits!r}")
    if not all(1 <= q <= qkernel.QUBIT_CEILING for q in qubits):
        parser.error(f"every qubit count must lie in 1..{qkernel.QUBIT_CEILING}")
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    blas.set_threads(1)
    print(format_table(profile(qubits, args.repeats)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
