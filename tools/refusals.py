"""Print each ``raise`` statement of the package that no tier-1 test executes.

    python3 tools/refusals.py

Runs the tier-1 suite (``tests/``) in this process under ``sys.settrace``
and ``threading.settrace``, recording the lines that run in frames of
``src/holesim`` only, then prints ``file:line`` of every ``raise`` statement
among them that never ran, and their count against all ``raise``
statements. The traced suite takes about twice as long as a plain run
(over a minute on 2 cores), so tier-1 does not run this tool. Exits 1 if
the suite fails, since the count then means nothing.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holesim"


def raise_statements() -> list[tuple[str, int]]:
    """(file, line) of every raise statement in the package, in order."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += sorted((str(path), node.lineno) for node in ast.walk(tree)
                        if isinstance(node, ast.Raise))
    return found


def main() -> int:
    import pytest

    prefix, executed = str(PACKAGE) + os.sep, set()

    def lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):  # trace the package's frames, no others
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    statements = raise_statements()
    unreached = [(path, line) for path, line in statements if (path, line) not in executed]
    for path, line in unreached:
        print(f"{Path(path).relative_to(ROOT)}:{line}")
    print(f"{len(unreached)} of {len(statements)} raise statements unreached by tier-1")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
