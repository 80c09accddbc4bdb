"""Write the data files of one checkout: its committed configs and the
benchmark's generated configs, each run once through the CLI pipeline.

    python3 tools/data_files.py CHECKOUT OUT --inputs DIR [--seed 77]

The package and ``bench/workloads.py`` are imported from CHECKOUT, so the
script can run any checkout that has them. Each case's files go to
``OUT/<case>``. The generated inputs are written to DIR, kept as given;
give two runs the same DIR, because a generated config echoes its metric
file's path into ``result.json``. The data files of two checkouts are then
byte-identical when

    diff -r -x run_meta.json OUT_A OUT_B

prints nothing. ``OUT/digests.json`` holds the sha256 of every data file
of each case but ``run_meta.json``, with the numpy version and the seed.
``tests/data_file_digests.json`` is this file for the committed tree,
written from a fresh directory with ``--inputs inputs --seed 31501``;
``tests/test_data_file_digests.py`` regenerates the cases and compares.
Beside each case's name the script prints the traced peak of its load,
execute and write (tracemalloc, MiB), so one run checks both the bytes and
the memory of every case.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np


def write_data_files(cli, workloads, checkout: Path, out: Path, inputs: Path, seed: int) -> dict:
    """Write every case's data files under ``out`` through ``cli`` and
    return their digests, as ``digests.json`` holds them."""
    inputs.mkdir(parents=True, exist_ok=True)
    digests = {}
    for workload in workloads.COMMITTED:
        for case in workloads.build(workload, checkout, inputs, seed):
            tracemalloc.start()
            try:
                config = cli.load_config(case.config)
                written = cli.write_bundle(cli.execute(config), out / case.name, config.formats)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"{case.name} {peak / 2**20:.2f} MiB", flush=True)
            digests[case.name] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                                  for path in sorted(written) if path.name != "run_meta.json"}
    return {"numpy": np.__version__, "seed": seed, "cases": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout to run")
    parser.add_argument("out", type=Path, help="directory for the data files")
    parser.add_argument("--inputs", type=Path, required=True,
                        help="directory for the generated inputs, shared between runs")
    parser.add_argument("--seed", type=int, default=77, help="seed of the generated inputs")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from holesim import cli
    import workloads

    manifest = write_data_files(cli, workloads, checkout, args.out, args.inputs, args.seed)
    (args.out / "digests.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
