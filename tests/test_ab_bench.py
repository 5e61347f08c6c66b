"""tools/ab_bench.py's summary of interleaved runs, on canned results."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def _pairs():
    base = [
        {"wall_s": w, "evals_per_s": e, "failed": 0, "extra": 1.0}
        for w, e in ((6.0, 50.0), (7.0, 48.0), (5.0, 52.0), (8.0, 45.0), (6.5, 49.0))
    ]
    head = [
        {"wall_s": w, "evals_per_s": e, "failed": 0}
        for w, e in ((3.0, 110.0), (7.5, 47.0), (2.5, 120.0), (3.5, 100.0), (4.0, 105.0))
    ]
    return list(zip(base, head))


def test_quartiles_and_wins():
    rows = {
        row["name"]: row
        for row in ab_bench.summarize(_pairs(), {"wall_s": "lower", "evals_per_s": "higher"}, {})
    }
    # "extra" is missing from the head runs, so it is not summarized
    assert set(rows) == {"wall_s", "evals_per_s", "failed"}
    assert rows["wall_s"]["base"] == (6.0, 6.5, 7.0)
    assert rows["wall_s"]["head"] == (3.0, 3.5, 4.0)
    assert rows["wall_s"]["wins"] == 4 and rows["wall_s"]["pairs"] == 5
    assert rows["evals_per_s"]["head"] == (100.0, 105.0, 110.0)
    assert rows["evals_per_s"]["wins"] == 4
    assert rows["failed"]["wins"] is None


def test_ties_are_not_wins_and_one_pair_is_its_own_quartiles():
    rows = ab_bench.summarize([({"wall_s": 2.0}, {"wall_s": 2.0})], {"wall_s": "lower"}, {})
    assert rows[0]["base"] == (2.0, 2.0, 2.0) and rows[0]["wins"] == 0


def test_format_lists_every_metric():
    rows = ab_bench.summarize(_pairs(), {"wall_s": "lower"}, {"wall_s": 0.25})
    text = ab_bench.format_summary(rows)
    lines = text.splitlines()
    assert len(lines) == 1 + len(rows)
    wall = next(line for line in lines if line.startswith("wall_s"))
    assert "4/5" in wall and wall.endswith("no regression")
    assert next(line for line in lines if line.startswith("failed")).endswith("-")


def _verdicts(base, head, better="lower", bound=0.25):
    """The summary's verdict on one metric over canned pairs, by way of summarize."""
    pairs = [({"m": b}, {"m": h}) for b, h in zip(base, head)]
    return ab_bench.summarize(pairs, {"m": better}, {"m": bound})[0]["verdict"]


_STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]


def test_gain_needs_nine_wins_and_a_median_step_beyond_the_base_spread():
    faster = [b - 1.0 for b in _STEADY]
    assert _verdicts(_STEADY, faster) == "gain"
    # eight wins in ten are not enough
    assert _verdicts(_STEADY, faster[:8] + [11.0, 11.0]) == "no regression"
    # ten wins, but by less than the base's interquartile range
    assert _verdicts(_STEADY, [b - 0.01 for b in _STEADY]) == "no regression"
    # higher is better: the same test with the sign turned
    assert _verdicts(_STEADY, [b + 1.0 for b in _STEADY], better="higher") == "gain"
    # fewer than ten pairs claim nothing
    assert _verdicts(_STEADY[:9], faster[:9]) == "no regression"


def test_worse_beyond_the_bound_times_the_base_median():
    assert _verdicts(_STEADY, [b * 1.3 for b in _STEADY]) == "worse"
    assert _verdicts(_STEADY, [b * 1.2 for b in _STEADY]) == "no regression"
    assert _verdicts(_STEADY, [b * 0.7 for b in _STEADY], better="higher") == "worse"
    assert _verdicts(_STEADY, [b * 1.3 for b in _STEADY], bound=0.5) == "no regression"


def test_unresolved_when_the_base_spreads_beyond_the_bound():
    # interquartile range 5.275 over a median of 10.45
    wide = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 14.0, 16.0, 18.0, 20.0]
    assert _verdicts(wide, list(reversed(wide))) == "unresolved"
    # unless every HEAD run beats every base run
    assert _verdicts(wide, [9.9] * 10) == "no regression"
    assert _verdicts(wide, list(reversed(wide)), bound=0.6) == "no regression"


def test_per_layer_metrics_keep_their_win_counts_only():
    pairs = [({"calls": 3.0, "wall_s": 1.0}, {"calls": 2.0, "wall_s": 1.0})] * 4
    better = {"calls": "lower", "wall_s": "lower"}
    rows = {row["name"]: row for row in ab_bench.summarize(pairs, better, {"wall_s": 0.25})}
    assert rows["calls"]["wins"] == 4 and rows["calls"]["verdict"] is None
    assert rows["wall_s"]["verdict"] == "no regression"


def test_bounds_are_read_for_end_to_end_metrics_only():
    better, bounds = ab_bench.metric_spec(Path(__file__).resolve().parents[1])
    assert "wall_s" in bounds and set(bounds) <= set(better)
    assert "qkernel.embed.calls" in better and "qkernel.embed.calls" not in bounds
