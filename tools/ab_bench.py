#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark on two source trees.

Usage:
    python3 tools/ab_bench.py BASE_TREE HEAD_TREE --workload W --seed S
        [--pairs N] [--seconds T] [--trace 0|1] [--json OUT]

Each tree is a checkout of quack with its own ``bench/`` and ``src/``; the
base is usually the parent commit, e.g. ``git worktree add ../base HEAD~1``.
The tool runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0|1`` in the two trees alternately, ``N`` pairs in all, and swaps
which tree goes first in each pair, so slow episodes of a shared host
fall on both sides.  The bench's last line of output is its JSON result.

For each metric the summary prints each tree's median and quartiles and
how many pairs HEAD won, the direction taken from HEAD's BENCHMARK.json
(metrics it does not list get no win count).  Each end-to-end metric also
gets a verdict against its ``bound`` there; see :func:`verdict`.
``--json`` also writes every run's metrics.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench run in ``tree``: metric name -> value, plus ``failed``."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: bench exited {done.returncode}: {done.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values


def metric_spec(tree: Path) -> tuple[dict[str, str], dict[str, float]]:
    """From the tree's BENCHMARK.json: metric name -> "lower" or "higher",
    and end-to-end metric name -> bound."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def count_wins(base: list[float], head: list[float], better: str) -> int:
    """Pairs in which HEAD's value is strictly better than the base's."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """The reading of one end-to-end metric over paired runs; the first that holds.

    - ``gain``: over at least ten pairs, HEAD wins at least 9 in 10 and its
      median beats the base's by more than the base's interquartile range;
    - ``worse``: HEAD's median is worse than the base's by more than
      ``bound`` times the base median;
    - ``unresolved``: the base's interquartile range exceeds ``bound`` times
      its median, unless every HEAD run beats every base run;
    - ``no regression`` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(base)
    ahead = sign * (quartiles(head)[1] - median)
    wins = count_wins(base, head, better)
    if len(base) >= 10 and 10 * wins >= 9 * len(base) and ahead > q3 - q1:
        return "gain"
    if -ahead > bound * abs(median):
        return "worse"
    dominates = min(sign * h for h in head) > max(sign * b for b in base)
    if q3 - q1 > bound * abs(median) and not dominates:
        return "unresolved"
    return "no regression"


def summarize(
    pairs: list[tuple[dict, dict]], better: dict[str, str], bounds: dict[str, float]
) -> list[dict]:
    """Per metric present in every run: both trees' quartiles, HEAD's pair wins
    and, for a metric with a bound, the :func:`verdict`.

    ``pairs`` holds (base metrics, head metrics) per pair.  ``wins`` is None
    for a metric without a direction, and ``verdict`` for one without a bound.
    """
    names = [name for name in pairs[0][0] if all(name in b and name in h for b, h in pairs)]
    rows = []
    for name in names:
        base = [b[name] for b, _ in pairs]
        head = [h[name] for _, h in pairs]
        direction = better.get(name)
        wins = None if direction is None else count_wins(base, head, direction)
        reading = None
        if direction is not None and name in bounds:
            reading = verdict(base, head, direction, bounds[name])
        rows.append({
            "name": name, "base": quartiles(base), "head": quartiles(head),
            "wins": wins, "pairs": len(pairs), "verdict": reading,
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    lines = [
        f"{'metric':<34} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32}"
        "  head wins  verdict"
    ]
    for row in rows:
        cells = [
            f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (row["base"], row["head"])
        ]
        wins = "-" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        line = f"{row['name']:<34} {cells[0]:>32} {cells[1]:>32}  {wins:>9}"
        lines.append(f"{line}  {row['verdict']}" if row["verdict"] else line)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    pairs = []
    try:
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            got = {}
            for side in order:
                tree = args.base if side == "base" else args.head
                got[side] = run_once(tree, args.workload, args.seed, args.seconds, args.trace)
            pairs.append((got["base"], got["head"]))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json is not None:
        args.json.write_text(json.dumps({"pairs": pairs}, indent=1) + "\n")
    print(f"workload {args.workload}, seed {args.seed}, {len(pairs)} pairs")
    print(format_summary(summarize(pairs, *metric_spec(args.head))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
