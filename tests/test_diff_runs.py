"""tools/diff_runs.py on two small output trees."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "diff_runs", Path(__file__).resolve().parents[1] / "tools" / "diff_runs.py"
)
diff_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_runs)


def test_reports_deviation_of_lined_up_files(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "run").mkdir(parents=True)
        (root / "same.txt").write_text("unchanged\n")
    (old / "run" / "table.csv").write_text("kernel,ll\niqp,-2.0\nrbf,nan\n")
    (new / "run" / "table.csv").write_text("kernel,ll\niqp,-2.5\nrbf,nan\n")
    (old / "run" / "record.json").write_text(json.dumps(
        {"kind": "iqp", "means": [1.0, 4.0], "timings": {"s": 1.0}}
    ))
    (new / "run" / "record.json").write_text(json.dumps(
        {"kind": "iqp", "means": [1.0, 4.001], "timings": {"s": 9.0}}
    ))
    (old / "run" / "ablate.csv").write_text("qubits,ll\n5,1.0\n")
    (new / "run" / "ablate.csv").write_text("qubits,ll\n5,1.0\n6,2.0\n")
    (old / "notes.txt").write_text("a\n")
    (new / "notes.txt").write_text("b\n")

    assert diff_runs.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "notes.txt: differs",
        "run/ablate.csv: differs",
        "run/record.json: differs in means (max abs 0.001, max rel 0.00025)",
        "run/table.csv: differs (max abs 0.5, max rel 0.25)",
        "5 files compared, 4 differ",
    ]


def test_names_the_differing_keys_of_json_objects(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old_record = {
        "kind": "iqp",
        "config": {"window": 5, "gen.n_steps": 240},
        "evaluation": {"mae": float("nan")},
        "timings": {"s": 1.0},
    }
    new_record = {
        **old_record,
        "config": {"window": 6, "gen.n_steps": 480},
        "timings": {"s": 2.0},
        "note": "added",
    }
    for root, record in ((old, old_record), (new, new_record)):
        root.mkdir()
        (root / "record.json").write_text(json.dumps(record))
        (root / "list.json").write_text(json.dumps([1, root.name]))

    assert diff_runs.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "list.json: differs",
        "record.json: differs in config, note",
        "2 files compared, 2 differ",
    ]
