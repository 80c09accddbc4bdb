"""Print how far two output trees of ``tools/data_files.py`` lie apart.

    python3 tools/deviation.py OUT_A OUT_B

For each data file whose bytes differ between the two trees, one line:
its path, the largest absolute difference between the numbers at the
same position, and where that difference is: the key path in a JSON
file, the column (from the header line) of a CSV table, or the line and
the number's place in it in any other text. A file whose text differs
outside its numbers, or whose numbers differ in count, is reported as
such, and so is a file that only one tree holds. ``run_meta.json`` holds
timings and is skipped. Nothing is printed for identical trees.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import zip_longest
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _json_leaves(value, path="$"):
    """(path, value) of each leaf of a parsed JSON document, in order, a
    number as a float."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _json_leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)
    else:
        yield path, value


def _text_leaves(text, csv):
    """(place, number) of each number in a text, with what lies between
    the numbers as non-numeric leaves, so a change of text shows."""
    header = text.split("\n", 1)[0].split(",") if csv else None
    for row, line in enumerate(text.split("\n"), start=1):
        numbers = NUMBER.findall(line)
        yield f"line {row} text", NUMBER.sub("#", line)
        if header is not None and row > 1 and len(numbers) == len(header):
            places = header
        else:
            places = [f"line {row} number {i + 1}" for i in range(len(numbers))]
        for place, number in zip(places, numbers):
            yield place, float(number)


def deviation(a: Path, b: Path) -> str:
    """The line that compares one file of each tree."""
    if a.suffix == ".json":
        try:
            left, right = (list(_json_leaves(json.loads(p.read_text()))) for p in (a, b))
        except ValueError:
            return "not JSON in both trees"
    else:
        left, right = (list(_text_leaves(p.read_text(), p.suffix == ".csv")) for p in (a, b))
    (left, left_text), (right, right_text) = map(_split, (left, right))
    if len(left) != len(right):
        return f"numbers differ in count: {len(left)} vs {len(right)}"
    if left_text != right_text:
        return "text differs at " + next(
            place for (place, x), other in zip_longest(left_text, right_text, fillvalue=("end", None))
            if (place, x) != other)
    largest, where = 0.0, None
    for (place, x), (_, y) in zip(left, right):
        if abs(x - y) > largest:
            largest, where = abs(x - y), f"{place} ({x!r} vs {y!r})"
    return f"{largest:.3g} at {where}" if where else "text differs, numbers equal"


def _split(leaves):
    """The numeric leaves and the others, each in order."""
    return ([leaf for leaf in leaves if isinstance(leaf[1], float)],
            [leaf for leaf in leaves if not isinstance(leaf[1], float)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first output tree")
    parser.add_argument("b", type=Path, help="second output tree")
    args = parser.parse_args(argv)
    paths = {p.relative_to(root) for root in (args.a, args.b)
             for p in root.rglob("*") if p.is_file() and p.name != "run_meta.json"}
    for path in sorted(paths):
        a, b = args.a / path, args.b / path
        if not (a.is_file() and b.is_file()):
            print(f"{path}: only in {args.a if a.is_file() else args.b}")
        elif a.read_bytes() != b.read_bytes():
            print(f"{path}: {deviation(a, b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
