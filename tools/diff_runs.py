#!/usr/bin/env python3
"""Compare two quack output trees, ignoring wall-clock values.

Usage: python3 tools/diff_runs.py OLD_DIR NEW_DIR

Every file under either directory is compared with its namesake under the
other.  JSON files are compared without their top-level ``timings``
object, and ``trace.csv`` files without the last field of each line (the
timestamp); all other files byte for byte.  Prints each differing or
unmatched file and a summary line.  For a differing JSON object it names
the top-level keys whose values differ.  For a differing CSV or JSON
file whose fields line up with its namesake's (same layout, and every
field that is not a finite number equal) it also prints the largest
absolute and relative deviation of the numbers, relative to the old
value.  Exits 0 when no file differs, 1 otherwise.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def comparable(path: Path) -> bytes:
    """The part of a file that must match across runs."""
    data = path.read_bytes()
    if path.suffix == ".json":
        try:
            record = json.loads(data)
        except ValueError:
            return data
        if isinstance(record, dict):
            record.pop("timings", None)
        return json.dumps(record).encode()
    if path.name == "trace.csv":
        lines = data.decode().splitlines()
        return "\n".join(line.rsplit(",", 1)[0] for line in lines).encode()
    return data


def differing_keys(old: Path, new: Path) -> list[str]:
    """Top-level keys whose values differ between two JSON objects, in order.

    Empty unless both files are JSON objects.
    """
    if old.suffix != ".json":
        return []
    try:
        a, b = json.loads(comparable(old)), json.loads(comparable(new))
    except ValueError:
        return []
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return []
    # values compare as text, as the files do, so that NaN equals NaN
    return [
        key for key in {**a, **b}
        if key not in a or key not in b or json.dumps(a[key]) != json.dumps(b[key])
    ]


def _parse(text: str):
    """A field as a float when it is a finite number, else the text."""
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def _leaves(value, key: str = ""):
    """A JSON value's leaves in document order, each after its key path."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, f"{key}/{name}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{key}/{index}")
    else:
        yield key
        yield _parse(json.dumps(value))


def fields(path: Path) -> list | None:
    """The comparable part of a CSV or JSON file as floats and text, else None."""
    data = comparable(path)
    if path.suffix == ".json":
        try:
            return list(_leaves(json.loads(data)))
        except ValueError:
            return None
    if path.suffix == ".csv":
        return [_parse(f) for line in data.decode().splitlines() for f in [*line.split(","), "\n"]]
    return None


def deviation(old: Path, new: Path) -> tuple[float, float] | None:
    """Largest absolute and relative deviation of two files' numbers.

    None unless both are CSV or JSON files whose fields line up.
    """
    a, b = fields(old), fields(new)
    if a is None or b is None or len(a) != len(b):
        return None
    max_abs = max_rel = 0.0
    for x, y in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            gap = abs(y - x)
            max_abs = max(max_abs, gap)
            if gap:
                max_rel = max(max_rel, gap / abs(x) if x else math.inf)
        elif x != y:
            return None
    return max_abs, max_rel


def diff_trees(old: Path, new: Path) -> tuple[list[str], int]:
    """Relative paths that differ (with the reason) and the number of paths seen."""
    names = sorted(
        {p.relative_to(old).as_posix() for p in old.rglob("*") if p.is_file()}
        | {p.relative_to(new).as_posix() for p in new.rglob("*") if p.is_file()}
    )
    differing = []
    for name in names:
        a, b = old / name, new / name
        if not a.is_file():
            differing.append(f"{name}: only in {new}")
        elif not b.is_file():
            differing.append(f"{name}: only in {old}")
        elif comparable(a) != comparable(b):
            keys = differing_keys(a, b)
            where = f" in {', '.join(keys)}" if keys else ""
            dev = deviation(a, b)
            detail = "" if dev is None else f" (max abs {dev[0]:.3g}, max rel {dev[1]:.3g})"
            differing.append(f"{name}: differs{where}{detail}")
    return differing, len(names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    differing, total = diff_trees(args.old, args.new)
    for line in differing:
        print(line)
    print(f"{total} files compared, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
