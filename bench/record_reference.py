"""Record bench/reference.json: the result.json data of every committed
config the benchmark runs, which its output checks compare against.

Run from the repository root, only when a change to the results is
intended:

    python3 bench/record_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from holesim import cli  # noqa: E402

from workloads import COMMITTED, REFERENCE_FILE  # noqa: E402


def main():
    reference = {}
    for names in COMMITTED.values():
        for name in names:
            config = cli.load_config(ROOT / "configs" / f"{name}.yaml")
            reference[name] = cli.execute(config).data
    REFERENCE_FILE.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
