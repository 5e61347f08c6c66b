#!/usr/bin/env python3
"""Tuned incumbents of the comparison tunes, and their changes against a record.

Usage:
    python3 tools/tuner_record.py [--seeds 0,1,2,3,4] [--against RECORD]

For each data seed and each kernel kind (iqp, rbf, matern, rq, periodic,
as ``compare`` tunes them) the tool runs ``experiments.run_tune`` at the
default config with that data seed, at one OpenBLAS thread.  It prints
the incumbent MLLs as one JSON object: ``"seeds"``, then kind ->
incumbent per seed.  The acceptance suite's comparison runs and its
tuner record (``tests/golden/tuner.json``) use the same functions.

``--against`` reads a record of the same form, such as
``tests/golden/tuner.json`` (which has no ``"seeds"``: its lists are data
seeds 0, 1, ..., and it holds iqp, rbf and matern only), or the saved
output of an earlier run of this tool, e.g. in a checkout of the parent
commit (a summary line after its JSON is ignored).  It then prints one
more line: the median, min and max of the changes (new - recorded) over
every seed and every kind of that record, the min and max with their kind
and seed.  Standard library and quack only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quack import blas, experiments, kernels  # noqa: E402
from quack.config import load_config  # noqa: E402


def comparison_runs(seeds, kinds, root: Path, predict: bool = False, **budget: int) -> dict:
    """data seed -> kind -> (TuneResult, Evaluation or None) at the default config.

    Each seed's series comes from the default config with that data seed;
    each kind is tuned on it (and, with ``predict``, forecast) with its run
    files under ``root / seed_<seed> / <kind>``.  ``budget`` may set the
    config's ``n0`` and ``n_query``.
    """
    runs = {}
    for seed in seeds:
        cfg = dataclasses.replace(load_config(env={}), **budget)
        cfg.gen.seed = seed
        series = experiments.build_series(cfg)
        runs[seed] = {}
        for kind in kinds:
            kind_cfg = dataclasses.replace(cfg, kernel=kind)
            run_dir = root / f"seed_{seed}" / kind
            tuned = experiments.run_tune(kind_cfg, series, run_dir)
            evaluation = (
                experiments.run_predict(kind_cfg, tuned.theta, series, run_dir) if predict else None
            )
            runs[seed][kind] = (tuned, evaluation)
    return runs


def incumbents(runs: dict) -> dict[str, list[float]]:
    """kind -> tuned incumbent MLL per data seed, in the seed order of ``runs``."""
    kinds = next(iter(runs.values()))
    return {
        kind: [per_kind[kind][0].incumbent_value for per_kind in runs.values()] for kind in kinds
    }


def changes(record: dict, recorded: dict) -> list[tuple[float, str, int]]:
    """(new - recorded, kind, seed) for every seed of ``record`` and kind of ``recorded``.

    ``recorded`` without ``"seeds"`` holds data seeds 0, 1, ... in order.
    Raises ``ValueError`` when ``record`` lacks a kind of ``recorded``, or
    ``recorded`` a seed of ``record``.
    """
    out = []
    for kind, old in recorded.items():
        if kind == "seeds":
            continue
        if kind not in record:
            raise ValueError(f"the new record has no kind {kind!r}")
        old_by_seed = dict(zip(recorded.get("seeds", range(len(old))), old, strict=True))
        for seed, new in zip(record["seeds"], record[kind], strict=True):
            if seed not in old_by_seed:
                raise ValueError(f"the record has no seed {seed} for {kind}")
            out.append((new - old_by_seed[seed], kind, seed))
    return out


def summary(diffs: list[tuple[float, str, int]]) -> str:
    """The median, min and max of the changes, the extremes with their kind and seed."""
    low, high = min(diffs), max(diffs)
    median = statistics.median(d for d, _, _ in diffs)
    return (
        f"changes over {len(diffs)}: median {median:+.4f}, "
        f"min {low[0]:+.4f} ({low[1]} seed {low[2]}), max {high[0]:+.4f} ({high[1]} seed {high[2]})"
    )


def read_record(path: Path) -> dict:
    """The JSON object at the start of ``path``; any text after it is ignored."""
    record, _ = json.JSONDecoder().raw_decode(path.read_text())
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated data seeds")
    parser.add_argument("--against", type=Path, help="a record to compare with")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    blas.set_threads(1)
    with tempfile.TemporaryDirectory() as tmp:
        runs = comparison_runs(seeds, kernels.KERNEL_KINDS, Path(tmp))
    record = {"seeds": seeds, **incumbents(runs)}
    print(json.dumps(record, indent=1))
    if args.against is not None:
        print(summary(changes(record, read_record(args.against))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
