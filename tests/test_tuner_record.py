"""tools/tuner_record.py on a tiny tuning budget."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from quack import experiments, kernels
from quack.config import load_config

_SPEC = importlib.util.spec_from_file_location(
    "tuner_record", Path(__file__).resolve().parents[1] / "tools" / "tuner_record.py"
)
tuner_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tuner_record)


def test_record_holds_each_seed_and_kind_incumbent(tmp_path):
    runs = tuner_record.comparison_runs(
        [2, 5], kernels.KERNEL_KINDS, tmp_path / "runs", n0=3, n_query=2
    )
    got = tuner_record.incumbents(runs)
    assert list(got) == list(kernels.KERNEL_KINDS)
    assert all(len(values) == 2 for values in got.values())
    assert runs[5]["rq"][1] is None  # tuned, not forecast
    cfg = dataclasses.replace(load_config(env={}), kernel="rq", n0=3, n_query=2)
    cfg.gen.seed = 5
    tuned = experiments.run_tune(cfg, experiments.build_series(cfg), tmp_path / "rq")
    assert got["rq"][1] == tuned.incumbent_value

    # against its own printed output every change is zero, also when that
    # output ends with a summary line
    record = {"seeds": [2, 5], **got}
    saved = tmp_path / "record.json"
    saved.write_text(json.dumps(record, indent=1) + "\nchanges over 10: median +0.0000\n")
    diffs = tuner_record.changes(record, tuner_record.read_record(saved))
    assert len(diffs) == 10 and all(change == 0.0 for change, _, _ in diffs)


def test_changes_against_a_record_without_seeds():
    # tests/golden/tuner.json's form: the lists are data seeds 0, 1, ...,
    # and only the record's kinds are compared
    recorded = {"iqp": [-3.0, -2.0, -1.0], "rbf": [-3.0, -2.0, -1.0], "matern": [0.0, 0.0, 0.0]}
    record = {
        "seeds": [1, 2], "iqp": [-2.5, -1.0], "rbf": [-2.0, -1.5], "matern": [-1.25, 0.5],
        "rq": [0.0, 0.0],
    }
    diffs = tuner_record.changes(record, recorded)
    assert sorted(diffs) == sorted([
        (-0.5, "iqp", 1), (0.0, "iqp", 2), (0.0, "rbf", 1),
        (-0.5, "rbf", 2), (-1.25, "matern", 1), (0.5, "matern", 2),
    ])
    assert tuner_record.summary(diffs) == (
        "changes over 6: median -0.2500, min -1.2500 (matern seed 1), max +0.5000 (matern seed 2)"
    )
    with pytest.raises(ValueError, match="no seed 5"):
        tuner_record.changes({**record, "seeds": [1, 5]}, recorded)
    with pytest.raises(ValueError, match="no kind 'matern'"):
        tuner_record.changes({"seeds": [1], "iqp": [0.0], "rbf": [0.0]}, recorded)
