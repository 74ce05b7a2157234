#!/usr/bin/env python3
"""Size the difference between two snapshots of scripts/snapshot_outputs.py.

Usage: PYTHONPATH=src python scripts/compare_snapshots.py OLD NEW

For each file a snapshot holds, prints "identical" when its bytes are equal,
and otherwise the largest absolute difference between matching floats and
where it occurs: a JSON path, or the row and column of a CSV.  A file
differs in structure when its keys, lengths, strings, ints, booleans or nulls
differ, or when one side is missing; the script then names the first such
place and exits 1.  A CSV cell that prints as an int against a float cell
is compared as a number, since a float column prints a whole value such as
0 without a point.  It takes no tolerance: a change that moves numbers
states its own and checks the largest difference printed here against it.
"""

import csv
import io
import json
import math
import sys
from pathlib import Path

from snapshot_outputs import all_runs


class StructureError(Exception):
    """The two files differ in something other than float values."""


class CsvInt(int):
    """A CSV cell that parses as an int.  CSV text carries no types, so a
    float column prints a whole value such as 0 as an int; such a cell
    meets a float cell as a number."""


def parse(name: str, text: str):
    """A JSON file as loaded; a CSV file as one dict per row, keyed by the
    header, with each cell a CsvInt, a float or a string as it parses."""
    if not name.endswith(".csv"):
        return json.loads(text)

    def cell(s: str):
        for kind in (CsvInt, float):
            try:
                return kind(s)
            except ValueError:
                pass
        return s

    return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def differences(old, new, where: str = ""):
    """(absolute difference, place, old, new) for every pair of matching
    floats; raises StructureError at the first place that differs
    otherwise.  Equal values differ by 0, two NaNs too, and a NaN against
    a number by inf.  A CSV int cell against a float cell counts as two
    floats."""
    place = where or "top"
    if {type(old), type(new)} == {CsvInt, float}:
        old, new = float(old), float(new)
    if type(old) is not type(new):
        raise StructureError(f"{place}: {old!r} against {new!r}")
    if isinstance(old, dict):
        if list(old) != list(new):
            raise StructureError(f"{place}: keys {list(old)} against {list(new)}")
        for key in old:
            yield from differences(old[key], new[key], f"{where}.{key}")
    elif isinstance(old, list):
        if len(old) != len(new):
            raise StructureError(f"{place}: length {len(old)} against {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{where}[{i}]")
    elif isinstance(old, float):
        gap = 0.0 if old == new or (math.isnan(old) and math.isnan(new)) else abs(old - new)
        yield (math.inf if math.isnan(gap) else gap), where, old, new
    elif old != new:
        raise StructureError(f"{place}: {old!r} against {new!r}")


def compare(old_dir: Path, new_dir: Path, name: str) -> str:
    """The report line of the file `name` in both snapshots; raises
    StructureError."""
    texts = []
    for folder in (old_dir, new_dir):
        path = folder / name
        if not path.is_file():
            raise StructureError(f"missing from {folder}")
        texts.append(path.read_text())
    if texts[0] == texts[1]:
        return "identical"
    gap, where, old, new = max(differences(*(parse(name, t) for t in texts)),
                               key=lambda item: item[0], default=(0.0, "", None, None))
    if gap == 0.0:
        return "max abs diff 0 (floats equal, bytes not)"
    return f"max abs diff {gap:.3g} at {where} ({old!r} against {new!r})"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_dir, new_dir = Path(sys.argv[1]), Path(sys.argv[2])
    failed = 0
    for name in all_runs():
        try:
            line = compare(old_dir, new_dir, name)
        except StructureError as e:
            line = f"STRUCTURE {e}"
            failed += 1
        print(f"{name}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
