#!/usr/bin/env python3
"""The holesim benchmark: whole configs through the public CLI path.

Run from the root of a checkout:

    python3 bench/run.py --workload trio_1d --seed 1 --seconds 15 --trace 0

One client runs a closed loop. A pass runs every config of the workload
once through ``cli.load_config`` -> ``cli.execute`` -> ``cli.write_bundle``
and is what a researcher waits for to regenerate that set of results.
Workloads are described in ``workloads.py``; BENCHMARK.json declares the
metrics and their units.

Timings are taken at a reference machine speed. On a small shared host,
other tenants can slow the cores by up to 2x for seconds to minutes at a
time, and CPU time slows with wall time, so a plain wall-time median of a
10 to 60 s run moves by 20-40% between runs of the same code. A fixed
reference kernel of the kind of work the workload does (``calibrate``),
timed after every config run and around every set-up, measures the
machine's speed at that moment; each wall time is scaled by REFERENCE_S
over the mean of the two calibrations around it, so it reads in seconds on
a machine that runs the kernel in REFERENCE_S. The raw wall times are in
the detail line.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over SETUP_SAMPLES fresh processes of the time from
  process start until the first timed pass could begin: imports,
  generating the seeded inputs, and one warm-up pass, which loads and
  validates every config and fills the ``grid`` caches; scaled by the
  calibrations made just before and just after it.
- ``pass_s``: median time of one pass, each scaled by the calibrations
  just before and after it, over as many passes as fit in ``--seconds``
  (at least MIN_PASSES).
- ``peak_rss_mb``: ``ru_maxrss`` of the measuring process. It never
  decreases, so every run measures in a process of its own.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` (medians over traced passes), plus
``trace.overhead_ratio``, the traced over the untraced median pass time.
Spans are written to ``.bench-traces/``.

A config run fails if it raises, if its result fails a check of
``workloads.py``, or if its data files differ from the first pass's.
The line before the result line holds ungated detail: quartiles and
sample counts, per-config timings, failures and the environment.

``--smoke`` runs one setup and one pass of each kind, for the
benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3
MIN_PASSES = 2
# The reference kernel of each workload: "interpreter" for the workloads
# that spend their time in Python and small FFTs, "interpolant" for the
# dense off-grid interpolant's plane-wave tables and contractions, and
# "arrays" for FFTs and streams over arrays of several MiB. A kernel that
# does other work than its workload tracks the machine's speed badly: the
# interpreter kernel made field_3d's pass_s spread wider than its raw wall
# time's, and the arrays kernel did the same to offgrid's.
KERNELS = {"trio_1d": "interpreter", "recover_harmonic": "interpreter",
           "offgrid": "interpolant", "field_3d": "arrays"}
# Seconds each kernel takes at the reference speed: about its median on a
# 2-vCPU Intel Xeon host, whose fast and slow states differ by up to 2x.
REFERENCE_S = {"interpreter": 0.06, "interpolant": 0.22, "arrays": 0.18}
# A plain single-threaded baseline: BLAS pinned to one thread, and the
# default serial sweep path (HOLESIM_THREADS unset).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
SWEEP_THREADS_VAR = "HOLESIM_THREADS"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--role", choices=("launch", "setup", "measure"), default="launch",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "launch":
        return launch(args)
    return work(args)


# --- launcher ----------------------------------------------------------------


def launch(args) -> int:
    """Start the setup samples and the measuring process, one at a time,
    and print the detail and result lines."""
    missing = [str(p.relative_to(ROOT)) for p in
               (MANIFEST, ROOT / "src" / "holesim" / "__init__.py", ROOT / "configs")
               if not p.exists()]
    if missing:
        print(f"bench: not a holesim checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.workload not in KERNELS:
        print(f"bench: unknown workload {args.workload!r}; use one of {sorted(KERNELS)}",
              file=sys.stderr)
        return 2
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    os.environ.pop(SWEEP_THREADS_VAR, None)
    samples = 1 if args.smoke or args.trace else SETUP_SAMPLES
    setup_s, setup_wall_s = [], []
    kernel = KERNELS[args.workload]
    calibrate(kernel)  # warm-up
    before = calibrate(kernel)
    for index in range(samples):
        role = "measure" if index == samples - 1 else "setup"
        command = [sys.executable, __file__, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--role", role]
        command += ["--smoke"] if args.smoke else []
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            setup_wall_s.append(time.perf_counter() - start)
            calibrated = proc.stdout.readline()
            output = proc.stdout.read()
        if proc.returncode != 0 or ready.strip() != "ready":
            print(f"bench: {role} process exited with code {proc.returncode}", file=sys.stderr)
            return 1
        after = float(calibrated)
        setup_s.append(_scaled(setup_wall_s[-1], kernel, before, after))
        before = after
    report = json.loads(output.strip().splitlines()[-1])

    values = report["values"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup_s)
        report["detail"]["setup_s"] = {"samples": setup_s, "wall_s": setup_wall_s}
    declared = json.loads(MANIFEST.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"detail": report["detail"]}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


# --- worker ------------------------------------------------------------------


class Runner:
    """Runs a workload's cases and checks their outputs."""

    def __init__(self, cli, cases, out: Path):
        self.cli = cli
        self.cases = cases
        self.out = out
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[str, dict] = {}
        self._problems: dict[str, list] = {}

    def run_pass(self, record=True, after_case=None) -> dict[str, float]:
        """Seconds per case of one pass; ``record`` counts its runs and
        failures, and ``after_case()``, if given, runs after every case."""
        times = {}
        for case in self.cases:
            if self.tracer is not None:
                self.tracer.run_id += 1
            times[case.name], problems = self._run_case(case)
            if record:
                self.attempted += 1
                self.failures += [f"{case.name}: {p}" for p in problems[:1]]
            if after_case is not None:
                after_case()
        return times

    def _run_case(self, case) -> tuple[float, list]:
        cli = self.cli
        start = time.perf_counter()
        try:
            config = cli.load_config(case.config)
            written = cli.write_bundle(cli.execute(config), self.out / case.name, config.formats)
        except Exception as exc:  # a crash counts as a failed run; the loop goes on
            return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
        return time.perf_counter() - start, self._check(case, written)

    def _check(self, case, written) -> list:
        files = {Path(p).name: Path(p).read_bytes() for p in written}
        files.pop("run_meta.json", None)
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        if case.name not in self._digests:
            self._digests[case.name] = digests
            texts = {name: data.decode() for name, data in files.items()}
            try:
                self._problems[case.name] = case.check(json.loads(texts["result.json"]), texts)
            except (KeyError, TypeError, ValueError) as exc:
                self._problems[case.name] = [f"malformed result: {type(exc).__name__}: {exc}"]
        problems = list(self._problems[case.name])
        if digests != self._digests[case.name]:
            problems.append("data files differ from the first pass")
        return problems


def work(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from holesim import cli

    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        cases = workloads.build(args.workload, ROOT, Path(tmp), args.seed)
        runner = Runner(cli, cases, Path(tmp) / "out")
        runner.run_pass(record=False)
        print("ready", flush=True)
        calibration = calibrate(KERNELS[args.workload])
        print(calibration, flush=True)
        if args.role == "setup":
            return 0
        if args.trace:
            values, detail = measure_traced(args, runner)
        else:
            values, detail = measure(args, runner, calibration)
    detail.update({
        "workload": args.workload,
        "fail_ratio": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:10],
        "environment": _environment(args.seed),
    })
    print(json.dumps({"values": values, "detail": detail, "attempted": runner.attempted,
                      "failed": len(runner.failures)}), flush=True)
    return 0


def measure(args, runner, calibration):
    """Passes with a calibration after every config run, so each run is
    scaled by the two calibrations around it; ``calibration`` is the one
    made just before the first."""
    kernel = KERNELS[args.workload]
    calibrations = [calibration]
    passes, wall_s = [], []
    start = time.perf_counter()
    while len(passes) < (1 if args.smoke else MIN_PASSES) or (
            not args.smoke and time.perf_counter() - start < args.seconds):
        first = len(calibrations) - 1
        times = runner.run_pass(after_case=lambda: calibrations.append(calibrate(kernel)))
        around = zip(calibrations[first:], calibrations[first + 1:])
        passes.append({name: _scaled(seconds, kernel, before, after)
                       for (name, seconds), (before, after) in zip(times.items(), around)})
        wall_s.append(sum(times.values()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = [sum(times.values()) for times in passes]
    values = {"pass_s": statistics.median(pass_s), "peak_rss_mb": peak_rss_mb}
    return values, {
        "pass_s": _summary(pass_s),
        "pass_wall_s": _summary(wall_s),
        "calibration_s": _summary(calibrations),
        "per_config_s": {case.name: _summary([times[case.name] for times in passes])
                         for case in runner.cases},
    }


def calibrate(kernel: str) -> float:
    """Seconds of a fixed reference kernel. It touches nothing of holesim,
    so a change to the program cannot move it. Its arrays are freed before
    the next config runs and are smaller than a config's own (field_3d and
    offgrid peak near 140 and 165 MiB), so it leaves ``peak_rss_mb`` alone.

    - ``interpreter``: dict updates and sorting, and numpy FFTs of 1024
      points and 32^3 points.
    - ``interpolant``: the operations of a 2D off-grid sample on a 128^2
      grid at 4096 points: complex exponentials of outer products, a
      tensordot and an einsum.
    - ``arrays``: FFTs of a 64^3 complex array (4 MiB) and arithmetic
      streaming over a 1M-element float array (8 MiB).

    Each runs for about REFERENCE_S of its kind.
    """
    import numpy as np

    if kernel == "interpreter":
        line = np.exp(1j * np.linspace(0.0, 1.0, 1024))
        cube = np.exp(1j * np.linspace(0.0, 1.0, 32 ** 3)).reshape((32,) * 3)
        start = time.perf_counter()
        for _ in range(30):
            signal = line
            for _ in range(20):
                signal = np.fft.ifft(np.fft.fft(signal) * 0.5)
            np.fft.fftn(cube) * cube
            sums = {}
            for i in range(2000):
                sums[i % 97] = sums.get(i % 97, 0.0) + i * 0.5
            sorted(str(i) for i in range(300))
        return time.perf_counter() - start
    if kernel == "interpolant":
        coeffs = np.exp(1j * np.linspace(0.0, 1.0, 128 * 128)).reshape(128, 128)
        points = np.linspace(0.0, 40.0, 4096)
        ks = 2.0 * np.pi * np.fft.fftfreq(128, 40.0 / 128)
        start = time.perf_counter()
        for _ in range(3):
            rows, columns = (np.exp(1j * np.outer(points, ks)) for _ in range(2))
            partial = np.tensordot(coeffs, columns, axes=([1], [1]))
            np.einsum("ap,pa->p", partial, rows)
        return time.perf_counter() - start
    cube = np.exp(1j * np.linspace(0.0, 1.0, 64 ** 3)).reshape((64,) * 3)
    stream = np.linspace(0.0, 1.0, 1 << 20)
    start = time.perf_counter()
    for _ in range(6):
        np.fft.ifftn(np.fft.fftn(cube) * cube)
    for _ in range(48):
        (stream * 1.5 + 2.0).sum()
    return time.perf_counter() - start


def _scaled(seconds, kernel, before, after) -> float:
    """``seconds`` of wall time at the reference speed, given the
    calibrations with ``kernel`` made just before and just after."""
    return seconds * 2.0 * REFERENCE_S[kernel] / (before + after)


def measure_traced(args, runner):
    import layers

    tracer = layers.Tracer()
    layers.instrument(tracer)
    runner.tracer = tracer
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or (not args.smoke and time.perf_counter() - start < args.seconds):
        if len(plain) <= len(traced):
            plain.append(sum(runner.run_pass().values()))
            continue
        offset = len(tracer.spans)
        tracer.install()
        try:
            traced.append(sum(runner.run_pass().values()))
        finally:
            tracer.uninstall()
        per_pass.append(layers.layer_metrics(tracer.spans[offset:], offset))
    tracer.write(ROOT / ".bench-traces" / f"{args.workload}-seed{args.seed}.jsonl")
    values = layers.median_metrics(per_pass)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return values, {"pass_s_untraced": _summary(plain), "pass_s_traced": _summary(traced),
                    "byte_figures": "computed from array shapes"}


def _summary(values) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _environment(seed) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _read_text(Path("/sys/devices/system/cpu/cpu0/cache/index3/size")),
        "git_commit": _git_commit(),
        "seed": seed,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        SWEEP_THREADS_VAR: os.environ.get(SWEEP_THREADS_VAR),
    }


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    return _read_text(ROOT / ".git" / head[len("ref: "):])


if __name__ == "__main__":
    sys.exit(main())
