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
        for row in ab_bench.summarize(_pairs(), {"wall_s": "lower", "evals_per_s": "higher"})
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
    rows = ab_bench.summarize([({"wall_s": 2.0}, {"wall_s": 2.0})], {"wall_s": "lower"})
    assert rows[0]["base"] == (2.0, 2.0, 2.0) and rows[0]["wins"] == 0


def test_format_lists_every_metric():
    rows = ab_bench.summarize(_pairs(), {"wall_s": "lower"})
    text = ab_bench.format_summary(rows)
    lines = text.splitlines()
    assert len(lines) == 1 + len(rows)
    assert "4/5" in next(line for line in lines if line.startswith("wall_s"))
    assert next(line for line in lines if line.startswith("failed")).endswith("-")
