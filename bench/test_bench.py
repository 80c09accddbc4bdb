"""Smoke test of the benchmark: one short run of every workload, untraced
and traced. It checks that every metric BENCHMARK.json declares is
emitted, that every config run passes its output checks, and the exact
per-pass counts the traced run must show. Two quick tests pin down the
reference check: roundoff-level changes pass it and real ones do not.

    python3 -m pytest bench
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

REFERENCE = json.loads(workloads.REFERENCE_FILE.read_text())
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

# n = 32 for the committed recovery and n = 64 for the generated one:
# 5 n^2 inner products per recovery, n^2 of them through the oracle.
RECOVERY_N = (32, 64)
EXPECTED_COUNTS = {
    "trio_1d": {"grid.spectral_sample.calls": 0},
    "offgrid": {
        "grid.spectral_sample.calls": 32 + 16,
        "diffeo.pushforward_wavefunction.offgrid_calls": 32 + 16,
        "evolve.evolve.calls": 14 + 2,
    },
    "recover_harmonic": {
        "grid.inner_product.calls": sum(5 * n * n for n in RECOVERY_N),
        "background_recover.gram_inner_products": sum(4 * n * n for n in RECOVERY_N),
        "background_recover.sample_form.oracle_calls": sum(n * n for n in RECOVERY_N),
    },
    "field_3d": {"grid.spectral_sample.calls": 0},
}


def run_smoke(workload, trace):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_declared(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run_smoke(workload, 0)
    assert_declared(metrics, MANIFEST["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_counts(workload):
    metrics = run_smoke(workload, 1)
    assert_declared(metrics, MANIFEST["per_layer"])
    for name, count in EXPECTED_COUNTS[workload].items():
        assert metrics[name]["value"] == count, name


def reference_problems(name, change):
    result = copy.deepcopy(REFERENCE[name])
    change(result)
    problems = []
    workloads._compare(REFERENCE[name], result, "result", problems)
    return problems


def test_reference_check_ignores_roundoff_phases():
    """The phase of a theta at roundoff level is noise, and snapshot-time
    keys are matched by value, so roundoff-level changes still pass."""
    def change(result):
        assert result["final"]["abs_theta_hole"] < 1e-13
        result["final"]["arg_theta_hole"] = -result["final"]["arg_theta_hole"]
        masses = result["diagnostics"]["overlap_mass_after_ramp"]
        masses["2.8"] = masses.pop("2.8000000000000003")

    assert reference_problems("hole", change) == []


def test_reference_check_flags_real_changes():
    def phase(result):
        result["theta_baseline"]["arg"][5] += 1e-6

    def missing_time(result):
        del result["diagnostics"]["overlap_mass_after_ramp"]["2.0"]

    def magnitude(result):
        result["final"]["abs_theta_hole"] = 1e-8

    for change in (phase, missing_time, magnitude):
        assert len(reference_problems("hole", change)) == 1, change.__name__


def test_refuses_without_the_program(tmp_path):
    """Run where only the manifest and the benchmark exist: exit non-zero
    without a result line."""
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trio_1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
