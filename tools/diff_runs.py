#!/usr/bin/env python3
"""Compare two quack output trees, ignoring wall-clock values.

Usage: python3 tools/diff_runs.py OLD_DIR NEW_DIR

Every file under either directory is compared with its namesake under the
other.  JSON files are compared without their top-level ``timings``
object, and ``trace.csv`` files without the last field of each line (the
timestamp); all other files byte for byte.  Prints each differing or
unmatched file and a summary line.  Exits 0 when no file differs, 1
otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
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
            differing.append(f"{name}: differs")
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
