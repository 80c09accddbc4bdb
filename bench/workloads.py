"""The benchmark's workloads: the configs each one runs, the inputs it
generates from the seed, and the checks on the outputs.

Why each workload exists:

- ``trio_1d``: the committed ``baseline``, ``hole``, ``hole_control`` and
  ``sweep_coupling`` configs at 1D 1024, the paper's headline experiment.
  Small FFTs where Python overhead dominates, ``np.roll`` pushforwards,
  theta and support masks. It never calls ``grid.spectral_sample``, so an
  interpolant change should leave it unchanged.
- ``offgrid``: the committed ``sweep_displacement`` config plus a generated
  2D 128^2 two-sided bump control. Nearly all of the time is the dense
  off-grid interpolant (32 + 16 ``spectral_sample`` calls per pass), the
  2D intermediates set the peak memory, and the sweep re-evolves one
  baseline 7 times.
- ``recover_harmonic``: the committed ``recover_background`` config, a
  generated evolved-oracle recovery at 512 points with n = 64, and
  ``check-harmonic`` on a generated, smoothly perturbed 3+1 metric at
  16^4. Almost no evolution: the n^2 Python oracle loop, 5 n^2
  ``inner_product`` calls per recovery, the pairwise projector checks and
  grid-field parsing and rendering.
- ``field_3d``: a generated 3D 64^3 two-sided hole run with a grid-aligned
  translation. numpy FFTs on 4 MiB arrays, so Python overhead is small and
  stored snapshots dominate memory.

Sizing constraints found while choosing the generated inputs:

- ``gaussian_packet`` needs a width of at least 3 cells and a boundary tail
  of at most 1e-12, which needs N >= 63 points per axis at these extents:
  3D 32^3 cannot hold a packet, so 64^3 is the smallest valid 3D size.
- An off-grid 3D pushforward at 64^3 contracts through a 17 GB
  intermediate, so ``field_3d`` uses an aligned shift: 17.5 units is 28
  cells at extent 40, and the half-ramp shift 8.75 is 14 cells.
- A one-sided bump map always trips the strict displacement gate through
  the CLI, so the bump runs as the two-sided control.
- ``field_3d`` evolves to t = 2 with dt = 0.04 instead of to t = 4 with
  dt = 0.02: 50 steps per branch instead of 200, at the same snapshot
  times, with the whole ramp (t0 = 0.8, t1 = 1.6) inside the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml
from holesim.cli import write_metric_field
from holesim.harmonic import MetricField

# Tolerance of a result value against the reference recorded from the
# committed configs: absolute below 1 and relative above, so roundoff-level
# changes (a Fourier-shift translation, another summation order) stay far
# below it.
REFERENCE_TOL = 1e-9
# The phase of theta is compared only where the paired |theta| reaches this
# floor, and then within REFERENCE_TOL / |theta|: re and im are held to
# REFERENCE_TOL already, and the phase of a theta at roundoff level (the
# hole runs end near |theta| = 1e-15) is noise that roundoff moves by O(1).
PHASE_FLOOR = 1e-6
# Slack on |theta| <= 1, matching holesim.observable.MAGNITUDE_SLACK.
THETA_SLACK = 1e-9
# Two-sided control: theta_hole equals theta_baseline to interpolation
# accuracy, the pushforward norm tolerance of holesim.diffeo.
TWO_SIDED_TOL = 1e-6
HARMONIC_TOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")

COMMITTED = {
    "trio_1d": ("baseline", "hole", "hole_control", "sweep_coupling"),
    "offgrid": ("sweep_displacement",),
    "recover_harmonic": ("recover_background",),
    "field_3d": (),
}

Check = Callable[[dict, dict], list]


@dataclass(frozen=True)
class Case:
    """One config of a workload and the check on its result.

    ``check(data, files)`` gets the parsed result.json and the text of every
    other data file, and returns a list of problems (empty when correct).
    """

    name: str
    config: Path
    check: Check


def build(workload: str, root: Path, tmp: Path, seed: int) -> list[Case]:
    """The cases of a workload; generated inputs are written under ``tmp``."""
    if workload not in COMMITTED:
        raise ValueError(f"unknown workload {workload!r}; use one of {sorted(COMMITTED)}")
    reference = json.loads(REFERENCE_FILE.read_text())
    cases = [
        Case(name, root / "configs" / f"{name}.yaml", _reference_check(reference[name]))
        for name in COMMITTED[workload]
    ]
    generators = {
        "trio_1d": (),
        "offgrid": (_bump_2d,),
        "recover_harmonic": (_evolved_recovery, _harmonic_metric),
        "field_3d": (_field_3d,),
    }[workload]
    for stream, generate in enumerate(generators):
        cases.append(generate(tmp, np.random.default_rng([seed, stream])))
    return cases


def _write_config(tmp: Path, name: str, doc: dict) -> Path:
    path = tmp / f"{name}.yaml"
    path.write_text(yaml.safe_dump({"output_dir": f"results/{name}", **doc}, sort_keys=True))
    return path


# --- generated inputs --------------------------------------------------------


def _seeded_sources(rng) -> tuple[float, float, float]:
    """Coupling and x positions of the two sources, jittered around the
    committed 0.1 and -2.5 / +2.5."""
    coupling = float(0.1 + 0.02 * rng.uniform(-1.0, 1.0))
    left, right = (float(x) for x in (-2.5, 2.5) + 0.25 * rng.uniform(-1.0, 1.0, size=2))
    return coupling, left, right


def _bump_2d(tmp: Path, rng) -> Case:
    coupling, left, right = _seeded_sources(rng)
    doc = {
        "experiment": "hole",
        "grid": {"points": [128, 128], "extent": [40.0, 40.0]},
        "packet": {"center": [-1.0, 0.0], "width": 1.0, "momentum": [0.0, 0.0]},
        "potentials": {"left_position": [left, 0.0], "right_position": [right, 0.0],
                       "coupling": coupling, "softening": 1.0},
        "diffeo": {"kind": "bump_displacement", "center": [0.0, 0.0], "radius": 5.0,
                   "peak_shift": [1.0, 0.0], "t0": 0.8, "t1": 1.6, "two_sided": True},
        "support": {"lower": [-9.0, -9.0], "upper": [7.0, 9.0]},
    }
    return Case("bump_2d", _write_config(tmp, "bump_2d", doc), _hole_check)


def _field_3d(tmp: Path, rng) -> Case:
    coupling, left, right = _seeded_sources(rng)
    doc = {
        "experiment": "hole",
        "grid": {"points": [64, 64, 64], "extent": [40.0, 40.0, 40.0]},
        "packet": {"center": [-1.0, 0.0, 0.0], "width": 1.9, "momentum": [0.0, 0.0, 0.0]},
        "potentials": {"left_position": [left, 0.0, 0.0], "right_position": [right, 0.0, 0.0],
                       "coupling": coupling, "softening": 1.0},
        "evolution": {"dt": 0.04, "t_end": 2.0, "mass": 4.0, "snapshot_stride": 10},
        "diffeo": {"kind": "translation_ramp", "shift": [17.5, 0.0, 0.0],
                   "t0": 0.8, "t1": 1.6, "two_sided": True},
        "support": {"lower": [-19.9] * 3, "upper": [19.9] * 3},
    }
    return Case("field_3d", _write_config(tmp, "field_3d", doc), _hole_check)


def _evolved_recovery(tmp: Path, rng) -> Case:
    points, n = 512, 64
    stride = points // n
    planted = stride * int(rng.integers(1, n))
    doc = {
        "experiment": "recover-background",
        "recover": {"points": points, "extent": 40.0, "n": n,
                    "translation_cells": planted, "oracle": "evolved"},
    }
    return Case("recover_evolved", _write_config(tmp, "recover_evolved", doc),
                lambda data, files: _recovery_problems(data, points, n, planted))


def _harmonic_metric(tmp: Path, rng) -> Case:
    """A 3+1 metric at 16^4: Minkowski plus one seeded plane wave per
    upper-triangle component, small enough to keep the signature."""
    n, h = 16, 0.25
    coords = np.meshgrid(*[h * np.arange(n)] * 4, indexing="ij")
    components = np.broadcast_to(np.diag([-1.0, 1.0, 1.0, 1.0]), (n,) * 4 + (4, 4)).copy()
    for mu in range(4):
        for nu in range(mu, 4):
            amplitude = 0.02 * rng.uniform(-1.0, 1.0)
            waves = rng.integers(1, 3, size=4) * 2.0 * np.pi / (n * h)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = amplitude * np.sin(sum(k * x for k, x in zip(waves, coords)) + phase)
            components[..., mu, nu] += wave
            components[..., nu, mu] = components[..., mu, nu]
    metric_path = tmp / "metric.gridfield"
    write_metric_field(metric_path, MetricField((h,) * 4, components))
    expected = _harmonic_residual_oracle(components, h)
    doc = {"experiment": "check-harmonic", "harmonic": {"metric_file": str(metric_path)}}
    return Case("harmonic_16", _write_config(tmp, "harmonic_16", doc),
                lambda data, files: _harmonic_problems(data, expected))


def _harmonic_residual_oracle(g: np.ndarray, h: float) -> np.ndarray:
    """Max |d_mu (g^{mu nu} sqrt(-det g))| per nu on interior points, by
    central differences computed here independently of the package."""
    density = np.linalg.inv(g) * np.sqrt(-np.linalg.det(g))[..., None, None]
    interior = (slice(1, -1),) * 4
    residual = np.zeros(tuple(s - 2 for s in g.shape[:4]) + (4,))
    for mu in range(4):
        up, down = list(interior), list(interior)
        up[mu], down[mu] = slice(2, None), slice(None, -2)
        residual += (density[tuple(up)][..., mu, :] - density[tuple(down)][..., mu, :]) / (2 * h)
    return np.max(np.abs(residual), axis=tuple(range(4)))


# --- output checks -------------------------------------------------------------


def _reference_check(reference: dict) -> Check:
    def check(data, files):
        problems = []
        _compare(reference, data, "result", problems)
        return problems + _theta_problems(data) + _sweep_row_problems(files)
    return check


def _compare(ref, got, path, problems):
    """Every reference leaf must be present and equal within REFERENCE_TOL;
    keys added to the result since the reference was recorded are allowed."""
    if len(problems) >= 5:
        return
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected a mapping")
            return
        for key, value in ref.items():
            if key == "version":
                continue
            match = _matching_key(key, got)
            if match is None:
                problems.append(f"{path}.{key}: missing")
            elif key.startswith("arg") and key.replace("arg", "abs", 1) in ref:
                _compare_phase(value, got[match], ref[key.replace("arg", "abs", 1)],
                               f"{path}.{key}", problems)
            else:
                _compare(value, got[match], f"{path}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(r, g, f"{path}[{i}]", problems)
    elif isinstance(ref, (bool, str)) or ref is None:
        if got != ref:
            problems.append(f"{path}: {got!r} != reference {ref!r}")
    elif not _is_number(got) or abs(got - ref) > REFERENCE_TOL * max(1.0, abs(ref)):
        problems.append(f"{path}: {got!r} differs from reference {ref!r}")


def _matching_key(key: str, got: dict):
    """``key`` itself, or for a numeric key such as the snapshot times of
    ``overlap_mass_after_ramp``, the key of ``got`` that is equal within
    REFERENCE_TOL; None when there is neither."""
    if key in got:
        return key
    try:
        number = float(key)
    except ValueError:
        return None
    for candidate in got:
        try:
            if abs(float(candidate) - number) <= REFERENCE_TOL * max(1.0, abs(number)):
                return candidate
        except ValueError:
            continue
    return None


def _compare_phase(ref, got, magnitude, path, problems):
    """Phases of theta (a leaf or a list of them), compared modulo 2 pi where
    the reference |theta| reaches PHASE_FLOOR."""
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g, m) in enumerate(zip(ref, got, magnitude)):
            _compare_phase(r, g, m, f"{path}[{i}]", problems)
        return
    if not _is_number(got):
        problems.append(f"{path}: {got!r} is not a number")
    elif magnitude >= PHASE_FLOOR:
        turn = abs((got - ref + np.pi) % (2.0 * np.pi) - np.pi)
        if turn > REFERENCE_TOL / magnitude:
            problems.append(f"{path}: {got!r} differs from reference {ref!r}"
                            f" at |theta| = {magnitude:.3e}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _theta_series(data: dict):
    for key in ("theta_baseline", "theta_hole"):
        if key in data:
            block = data[key]
            yield key, np.asarray(block["re"]) + 1j * np.asarray(block["im"])


def _theta_problems(data: dict) -> list:
    return [
        f"{key}: |theta| = {np.max(np.abs(z))} exceeds 1"
        for key, z in _theta_series(data)
        if np.max(np.abs(z)) > 1.0 + THETA_SLACK
    ]


def _hole_check(data: dict, files: dict) -> list:
    problems = _theta_problems(data)
    if not data.get("two_sided"):
        problems.append("generated hole runs are two-sided controls")
    else:
        series = dict(_theta_series(data))
        gap = float(np.max(np.abs(series["theta_hole"] - series["theta_baseline"])))
        if gap > TWO_SIDED_TOL:
            problems.append(f"two-sided control moves theta by {gap:.3e}")
    return problems


def _sweep_row_problems(files: dict) -> list:
    rows = files.get("sweep.csv", "").splitlines()[1:]
    return [f"sweep.csv: {row}" for row in rows if ",error:" in row]


def _recovery_problems(data: dict, points: int, n: int, planted: int) -> list:
    stride = points // n
    expected = [(j * stride + planted) % points for j in range(n)]
    if data["localization_cells"] != expected:
        return [f"recovered cells {data['localization_cells'][:4]}... are not the"
                f" planted translation by {planted} cells"]
    return []


def _harmonic_problems(data: dict, expected: np.ndarray) -> list:
    got = np.asarray(data["max_abs_residual_per_index"])
    if got.shape != expected.shape or np.max(np.abs(got - expected)) > HARMONIC_TOL:
        return [f"harmonic residual {got} differs from {expected}"]
    return []
