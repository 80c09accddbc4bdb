"""Write the data files of one checkout: its committed configs and the
benchmark's generated configs, each run once through the CLI pipeline.

    python3 tools/data_files.py CHECKOUT OUT --inputs DIR [--seed 77]

The package and ``bench/workloads.py`` are imported from CHECKOUT, so the
script can run any checkout that has them. Each case's files go to
``OUT/<case>``. The generated inputs are written to DIR; give two runs the
same DIR, because a generated config echoes its metric file's path into
``result.json``. The data files of two checkouts are then byte-identical
when

    diff -r -x run_meta.json OUT_A OUT_B

prints nothing. Beside each case's name the script prints the traced peak
of its load, execute and write (tracemalloc, MiB), so one run checks both
the bytes and the memory of every case.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path


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

    inputs = args.inputs.resolve()
    inputs.mkdir(parents=True, exist_ok=True)
    for workload in workloads.COMMITTED:
        for case in workloads.build(workload, checkout, inputs, args.seed):
            tracemalloc.start()
            try:
                config = cli.load_config(case.config)
                cli.write_bundle(cli.execute(config), args.out / case.name, config.formats)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"{case.name} {peak / 2**20:.2f} MiB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
