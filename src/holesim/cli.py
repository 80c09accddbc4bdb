"""Config-driven experiment runner and deterministic result serialization.

One YAML (or JSON) config file fully determines a run; identical configs
produce byte-identical data files on one platform. Data files carry no
timestamps: wall-clock timing goes to a separate ``run_meta.json``. Time
series are CSV with a header row, structured reports are JSON with sorted
keys, and metric/residual grids use a self-describing ``grid-field`` text
format (header keys, then row-major values).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .background_recover import (
    localization_index,
    localized_basis,
    recover_background,
    sample_form,
    translate_basis,
)
from .errors import ConfigError, DomainError, HolesimError, ResolutionError
# evolve stays importable here: bench/layers.py wraps it by name.
from .evolve import EvolutionConfig, Potential, evolve, evolve_branches  # noqa: F401
from .grid import Grid, _as_tuple, check_packet_width, inner_product
from .harmonic import MetricField, harmonic_residual
from .hole_experiment import (
    DEFAULT_SCENARIO,
    SWEEP_PARAMETERS,
    HoleExperimentConfig,
    HoleReport,
    _config_for,
    config_from_sections,
    peak_bytes,
    run_baseline,
    run_hole,
    sweep,
)
from .observable import density_matrix

__all__ = [
    "RunConfig",
    "ResultBundle",
    "load_config",
    "execute",
    "write_bundle",
    "read_metric_field",
    "write_metric_field",
    "main",
]

# Documented defaults: the default scenario of hole_experiment plus the
# sweep, recovery and harmonic settings.
DEFAULTS = {
    "formats": ["csv", "json"],
    **DEFAULT_SCENARIO,
    "sweep": {"parameter": "coupling", "values": [0.0, 0.05, 0.1, 0.2]},
    "recover": {
        "points": 256,
        "extent": 40.0,
        "n": 32,
        "translation_cells": 24,
        "oracle": "static",
    },
    "harmonic": {"metric_file": None},
}

# Rows of a grid field that render_grid_field formats at once.
RENDER_BLOCK_ROWS = 4096

@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run description: ``settings`` is all that the kind's
    pipeline reads, as its reader in _KINDS built it."""

    experiment: str
    output_dir: Path
    formats: tuple[str, ...]
    echo: dict
    settings: object


@dataclass(frozen=True, eq=False)
class RecoverConfig:
    """A recovery of n cells on a 1D grid; ``branch`` is None for the
    static oracle, else the potential the evolved oracle's branch states
    evolve in, for ``evolution``."""

    grid: Grid
    n: int
    translation_cells: int
    branch: Potential | None
    evolution: EvolutionConfig


@dataclass(frozen=True, eq=False)
class ResultBundle:
    """Machine-readable results of one run.

    ``data`` is the JSON report; ``files`` maps extra file names to text
    payloads: a string (CSV tables) or a re-iterable of text blocks that
    write_bundle writes one at a time (grid fields). Every numeric entry
    must be finite and every mapping key a string, so that the report
    loads back as what it holds; ``json_text`` is that report as
    result.json holds it, the text of ``json.dumps(data, sort_keys=True,
    indent=2, allow_nan=False)``, and the render that writes it is the
    one check of the data.
    """

    experiment: str
    data: dict
    files: dict[str, str | Iterable[str]] = field(default_factory=dict)
    wall_time_s: float = 0.0
    json_text: str = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "json_text", _render_json(self.data, "\n", "data") + "\n")


def _render_json(node, indent: str, path: str) -> str:
    """``node`` as ``json.dumps(node, sort_keys=True, indent=2,
    allow_nan=False)`` writes it at the nesting that ``indent`` (a newline
    and its spaces) opens, with a list of floats joined in one go. What
    JSON cannot hold or load back as it was (a non-finite float, a key that
    is not a string, any other type) is a DomainError naming its ``path``,
    the first such value in the order the text is written."""
    inner = indent + "  "
    if isinstance(node, (list, tuple)) and node:
        try:
            body = ("," + inner).join(map(float.__repr__, node))
        except TypeError:
            body = ("," + inner).join([_render_json(item, inner, f"{path}[{i}]")
                                       for i, item in enumerate(node)])
        else:
            if "n" in body:  # a finite float's repr has no "n", unlike inf and nan
                i = next(i for i, value in enumerate(node) if not math.isfinite(value))
                raise DomainError(f"non-finite value at {path}[{i}]")
        return "[" + inner + body + indent + "]"
    if isinstance(node, dict) and node:
        if not all(isinstance(key, str) for key in node):
            raise DomainError(f"result data does not round-trip through JSON: a key at {path}"
                              " is not a string")
        return "{" + inner + ("," + inner).join(
            [_encode_scalar(key) + ": " + _render_json(value, inner, f"{path}.{key}")
             for key, value in sorted(node.items())]) + indent + "}"
    if isinstance(node, float):
        if math.isfinite(node):
            return float.__repr__(node)
        raise DomainError(f"non-finite value at {path}")
    if node is None or isinstance(node, (str, int, list, tuple, dict)):
        return _encode_scalar(node)
    raise DomainError(f"non-serializable value of type {type(node).__name__} at {path}")


# A scalar or an empty container's text does not depend on indent or key order.
_encode_scalar = json.JSONEncoder(allow_nan=False).encode


def _merge_section(name, user, errors):
    base = dict(DEFAULTS[name])
    if user is None:
        return base
    if not isinstance(user, dict):
        errors.append(f"{name}: expected a mapping, got {type(user).__name__}")
        return base
    for key, value in user.items():
        if key not in base:
            errors.append(f"{name}.{key}: unknown key")
        elif (all(type(v) in (int, float) for v in _listed(base[key]))  # numbers, no bool
              and any(isinstance(v, str) for v in _listed(value))):
            errors.append(f"{name}.{key}: must be a number, got {value!r}")
        else:
            base[key] = value
    return base


def _listed(value) -> list:
    return value if isinstance(value, list) else [value]


class _ConfigLoader(yaml.SafeLoader):
    """Safe YAML that reads 1e-3 as a float, as JSON does, where YAML 1.1
    reads a string: a result.json config echo loads as the config it echoes."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


def load_config(path) -> RunConfig:
    """Parse and fully validate a run config.

    All validation problems are aggregated into one ConfigError instead of
    stopping at the first; the kind's reader in _KINDS validates its
    sections by building the run's settings from them.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"])
    try:
        raw = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config parse error in {path}: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config root must be a mapping, got {type(raw).__name__}"])

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError([f"experiment: must be one of {EXPERIMENTS}, got {experiment!r}"])

    known_top = {"experiment", "output_dir", *DEFAULTS}
    errors = [f"{key}: unknown top-level key" for key in raw if key not in known_top]

    output_dir = raw.get("output_dir", f"results/{experiment}")
    if not isinstance(output_dir, str):
        errors.append(f"output_dir: must be a path string, got {output_dir!r}")
    output_dir = Path(str(output_dir))
    # The run creates output_dir under its nearest existing ancestor.
    existing = next((p for p in (output_dir, *output_dir.parents) if os.path.exists(p)),
                    output_dir)
    if not existing.is_dir():
        errors.append(f"output_dir: {existing} is not a directory")
    formats = raw.get("formats", DEFAULTS["formats"])
    if not isinstance(formats, list) or not all(f in ("csv", "json") for f in formats):
        errors.append(f"formats: must be a sublist of ['csv', 'json'], got {formats!r}")
        formats = DEFAULTS["formats"]

    # Every section is merged, so an unknown key is reported in any of them.
    sections = {
        name: _merge_section(name, raw.get(name), errors)
        for name in DEFAULTS
        if name != "formats"
    }
    names, reader, _ = _KINDS[experiment]
    used = {name: sections[name] for name in names}
    if "diffeo" in used and used["diffeo"]["kind"] == "identity":  # it reads no other key
        used["diffeo"] = {key: used["diffeo"][key] for key in ("kind", "two_sided")}
    echo = {
        "experiment": experiment,
        "output_dir": str(output_dir),
        "formats": sorted(formats),
        **used,
    }
    # The echo goes into result.json, which holds what JSON loads back only.
    try:
        _render_json(echo, "\n", "config")
    except DomainError as exc:
        errors.append(str(exc))
    try:
        settings = reader(used, errors)
    except ConfigError as exc:  # the reader could check no further
        errors.extend(exc.messages)
    if errors:
        raise ConfigError(errors)
    return RunConfig(experiment, output_dir, tuple(sorted(formats)), echo, settings)


# Largest estimated peak of a run that validate accepts: hole_experiment's
# peak_bytes, _recover_peak_bytes or _harmonic_peak_bytes.
PEAK_BYTES_LIMIT = 4 * 2**30


def _recover_peak_bytes(points: int, n: int) -> float:
    """Upper estimate of a recovery's peak bytes: 7n + 2 complex grid fields
    (bases, evolved stack, phases and states, orthonormality check) and
    4n + 16 complex n x n matrices (four sets of projectors, form, factors)."""
    return 16.0 * (points * (7 * n + 2) + n**2 * (4 * n + 16))


def _harmonic_peak_bytes(size: int) -> float:
    """Upper estimate of a check-harmonic run's peak bytes from its metric
    file's size. At 2+ bytes per value ("0 "), a grid point takes at least
    6 bytes of text in 1+1 dimensions (3 stored values) and 20 in 3+1 (10).
    The streamed text is not held. Per point the run holds the metric and
    its inverse (2 D^2 values) and a determinant, and while the residual
    is formed its D values, a weight, one densitized component and two
    differences: 15 values in 1+1 and 41 in 3+1, at most 15 * 8 / 6 = 20
    bytes per byte of text. One render block, or the checks' blocks, adds
    1 MiB."""
    return 20.0 * size + 2**20


def _integer(section, key):
    """section[key] as an int; a fractional number is refused, not truncated."""
    value = section[key]
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError(f"{key} must be an integer, got {value}")
    return number


def _fits(sized: str, peak: float, errors) -> bool:
    """Whether a peak estimate fits PEAK_BYTES_LIMIT; if not, errors says so."""
    if peak > PEAK_BYTES_LIMIT:
        errors.append(f"{sized} needs about {peak / 2**30:.3g} GiB,"
                      f" over the {PEAK_BYTES_LIMIT / 2**30:g} GiB limit")
    return peak <= PEAK_BYTES_LIMIT


def _read_hole(sections, errors) -> HoleExperimentConfig:
    """The config of a baseline run, a hole run or a sweep; with no diffeo
    section the map is the identity. The CLI alone refuses a one-sided bump.
    A sweep's memory estimate is checked by _read_sweep, any other run's here."""
    config = config_from_sections({"diffeo": {"kind": "identity", "two_sided": False}, **sections})
    try:
        check_packet_width(config.grid, config.packet_width)  # set or default
    except ResolutionError as exc:
        errors.append(f"packet: {exc}")
    if config.diffeo.kind == "bump_displacement" and not config.two_sided:
        errors.append("diffeo: a one-sided bump_displacement cannot move the branch out of its"
                      " support, as the gate needs; set two_sided: true for the two-sided control")
    if "sweep" not in sections:
        _fits(f"grid: a run on {config.grid.shape} points", peak_bytes(config), errors)
    return config


def _read_sweep(sections, errors) -> tuple[HoleExperimentConfig, str, tuple]:
    """(config, parameter, values); each value's config builds as in sweep()."""
    parameter = sections["sweep"]["parameter"]
    if parameter not in SWEEP_PARAMETERS:
        errors.append(f"sweep.parameter: unknown parameter {parameter!r}")
    try:
        values = _as_tuple(sections["sweep"]["values"])
        if not values:
            errors.append("sweep.values: need at least one value")
    except (TypeError, ValueError) as exc:
        errors.append(f"sweep.values: {exc}")
        values = ()
    config, derived = _read_hole(sections, errors), []
    if parameter in SWEEP_PARAMETERS:
        for i, value in enumerate(values):
            try:
                derived.append(_config_for(config, parameter, value)[0])
            except HolesimError as exc:
                errors.append(f"sweep.values[{i}]: {exc}")
    _fits(f"grid: a run on {config.grid.shape} points",  # a value may push where config does not
          max(peak_bytes(one, len(values)) for one in (config, *derived)), errors)
    return config, parameter, values


def _read_recover(sections, errors) -> RecoverConfig:
    section = sections["recover"]
    try:
        points = _integer(section, "points")
        n = _integer(section, "n")
        translation_cells = _integer(section, "translation_cells")
        if section["oracle"] not in ("static", "evolved"):
            errors.append(f"recover.oracle: must be 'static' or 'evolved', got {section['oracle']!r}")
        if n < 2 or points % n != 0:
            errors.append(f"recover.n: {n} must be >= 2 and divide points {points}")
        grid = Grid(points, float(section["extent"]))
        # Branch states evolve in the default scenario's left potential on the
        # recovery grid, reference states freely, for a fixed 0.2 time units.
        pot = DEFAULT_SCENARIO["potentials"]
        branch = (Potential.point_mass(grid, pot["left_position"], pot["coupling"],
                                       pot["softening"])
                  if section["oracle"] == "evolved" else None)
    except (HolesimError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError([f"recover: {exc}"]) from None
    _fits(f"recover: n = {n} on {points} points", _recover_peak_bytes(points, n), errors)
    evo = DEFAULT_SCENARIO["evolution"]
    return RecoverConfig(grid, n, translation_cells, branch,
                         EvolutionConfig(evo["dt"], 0.2, evo["mass"], 10**9))


def _read_harmonic(sections, errors) -> MetricField | None:
    """The metric, read once, at load, after its file's size fits the limit."""
    metric_file = sections["harmonic"]["metric_file"]
    if not metric_file:
        errors.append("harmonic.metric_file: required for check-harmonic runs")
    elif not isinstance(metric_file, str):
        errors.append(f"harmonic.metric_file: must be a path string, got {metric_file!r}")
    elif not Path(metric_file).is_file():
        errors.append(f"harmonic.metric_file: no such file {Path(metric_file)}")
    else:
        size = Path(metric_file).stat().st_size
        if _fits(f"harmonic.metric_file: a check of {size} bytes of text",
                 _harmonic_peak_bytes(size), errors):
            return read_metric_field(Path(metric_file))


# --- result rendering -------------------------------------------------------


def _fmt(value) -> str:
    """Shortest representation that round-trips the float exactly."""
    return repr(float(value))


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                             for v in row))
    return "\n".join(lines) + "\n"


_THETA_KEYS = ("times", "re", "im", "abs", "arg")
_SWEEP_COLUMNS = ("value", "abs_theta_baseline", "arg_theta_baseline", "abs_theta_hole",
                  "contrast")


def _polar(thetas) -> dict:
    """abs and arg of each theta, the one place that computes them."""
    return {"abs": [float(abs(z)) for z in thetas], "arg": [float(np.angle(z)) for z in thetas]}


def _theta_block(times: np.ndarray, thetas: np.ndarray) -> dict:
    return {"times": times.tolist(), "re": thetas.real.tolist(), "im": thetas.imag.tolist(),
            **_polar(thetas)}


def _finals(report: HoleReport, hole: bool) -> dict:
    """abs_theta and arg_theta of each series' last theta, suffixed with
    its series in a hole report, which adds the contrast: the baseline's
    final abs less the hole's. One rule for a run's and a sweep entry's."""
    thetas = ({"_baseline": report.final_theta_baseline, "_hole": report.final_theta_hole}
              if hole else {"": report.final_theta_baseline})
    polar = _polar(thetas.values())
    finals = {f"{part}_theta{suffix}": polar[part][i]
              for part in ("abs", "arg") for i, suffix in enumerate(thetas)}
    if hole:
        finals["contrast"] = polar["abs"][0] - polar["abs"][1]
    return finals


def _theta_csv(block: dict) -> str:
    """theta_*.csv, rendered from the theta block that result.json holds."""
    return render_csv(("t", "re_theta", "im_theta", "abs_theta", "arg_theta"),
                      zip(*(block[key] for key in _THETA_KEYS)))


def _sweep_csv(entries: list[dict]) -> str:
    """sweep.csv, rendered from the entries that result.json holds."""
    rows = [[entry.get(key, "") for key in _SWEEP_COLUMNS]
            + [f"error:{entry['error']}" if "error" in entry else "ok"] for entry in entries]
    return render_csv((*_SWEEP_COLUMNS, "status"), rows)


def _matrix_block(matrix) -> dict:
    m = np.asarray(matrix)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _diagnostics_block(report: HoleReport) -> dict:
    """The report's diagnostics as the run records them: a mapping's time
    keys written as _fmt(t), a tuple as a list, and an entry that is None
    or empty left out."""
    out = {}
    for key, value in report.diagnostics.items():
        if isinstance(value, dict):
            value = {_fmt(t): entry for t, entry in value.items()}
        if value is not None and value not in ({}, (), []):
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


# --- experiment pipelines ---------------------------------------------------


def _execute_run(config: RunConfig) -> tuple[dict, dict]:
    """A baseline or a hole run. A hole run adds the theta_hole series,
    two_sided and contrast, and suffixes each final key with its series."""
    hole = config.experiment == "hole"
    report = (run_hole if hole else run_baseline)(config.settings)
    series = {"baseline": report.theta_baseline}
    data, files, final = {}, {}, _finals(report, hole)
    if hole:
        series["hole"] = report.theta_hole
        data.update(two_sided=report.config.two_sided, contrast=final.pop("contrast"))
    for name, thetas in series.items():
        block = _theta_block(report.times, thetas)
        suffix = f"_{name}" if hole else ""
        data[f"theta_{name}"] = block
        files[f"theta_{name}.csv"] = _theta_csv(block)
        final[f"density_matrix{suffix}"] = _matrix_block(density_matrix(thetas[-1]).entries)
    data.update(final=final, diagnostics=_diagnostics_block(report))
    return data, files


def _execute_sweep(config: RunConfig) -> tuple[dict, dict]:
    hole_config, parameter, values = config.settings
    entries = [{"value": entry.value, "error": entry.error} if entry.report is None
               else {"value": entry.value, **_finals(entry.report, hole=True)}
               for entry in sweep(hole_config, parameter, values)]
    return {"parameter": parameter, "entries": entries}, {"sweep.csv": _sweep_csv(entries)}


def _execute_recover(config: RunConfig) -> tuple[dict, dict]:
    settings = config.settings
    grid, n, branch, evo = settings.grid, settings.n, settings.branch, settings.evolution
    basis_g = localized_basis(grid, n)
    basis_eta = translate_basis(basis_g, settings.translation_cells)
    if branch is not None:
        free = Potential.tabulated(grid, np.zeros(grid.shape))
        basis_g = [t.final_state for t in evolve_branches(basis_g, [branch] * n, evo)]
        basis_eta = [t.final_state for t in evolve_branches(basis_eta, [free] * n, evo)]
    sample = sample_form(basis_g, basis_eta, inner_product)
    background = recover_background(sample)
    indices = [localization_index(p) for p in background.recovered_projectors]
    stride = grid.size // n
    data = {
        "form_matrix": _matrix_block(sample.matrix),
        "condition_number": float(sample.condition_number),
        "unitary": _matrix_block(background.unitary),
        "localization_indices": indices,
        "localization_cells": [int(i * stride) for i in indices],
        "planted_translation_cells": settings.translation_cells,
    }
    return data, {}


def _execute_harmonic(config: RunConfig) -> tuple[dict, dict]:
    metric = config.settings
    residual = harmonic_residual(metric)
    per_index = [float(np.max(np.abs(residual[..., nu]))) for nu in range(metric.dim)]
    data = {
        "grid_shape": list(metric.grid_shape),
        "spacings": [float(h) for h in metric.spacings],
        "max_abs_residual": max(per_index),
        "max_abs_residual_per_index": per_index,
    }
    files = {"residual.gridfield": _GridFieldText("residual", tuple(metric.spacings), residual)}
    return data, files


_SCENARIO = ("grid", "packet", "potentials", "evolution")
# Each experiment kind: the config sections it reads and echoes; the reader
# that builds its settings from them, appending what it refuses to the shared
# error list and raising a ConfigError only where it can check no further; its pipeline.
_KINDS = {
    "baseline": ((*_SCENARIO, "support"), _read_hole, _execute_run),
    "hole": ((*_SCENARIO, "diffeo", "support"), _read_hole, _execute_run),
    "sweep": ((*_SCENARIO, "diffeo", "support", "sweep"), _read_sweep, _execute_sweep),
    "recover-background": (("recover",), _read_recover, _execute_recover),
    "check-harmonic": (("harmonic",), _read_harmonic, _execute_harmonic),
}
EXPERIMENTS = tuple(_KINDS)


def execute(config: RunConfig) -> ResultBundle:
    """Dispatch a validated config to its pipeline, add the experiment,
    version and config echo to its data, and validate the result once, as
    one ResultBundle; deterministic output."""
    start = time.perf_counter()
    data, files = _KINDS[config.experiment][2](config)
    data = {"experiment": config.experiment, "version": __version__,
            "config": config.echo, **data}
    return ResultBundle(config.experiment, data, files, time.perf_counter() - start)


def write_bundle(bundle: ResultBundle, out_dir, formats=("csv", "json")) -> list[Path]:
    """Write result.json, any extra files, and run_meta.json (timing only).

    Data files are byte-deterministic; run_meta.json holds the wall clock
    and is the one file excluded from that guarantee. A directory or file
    that cannot be written is a ConfigError under output_dir.
    """
    out_dir = Path(out_dir)
    payloads = {}
    if "json" in formats:
        payloads["result.json"] = bundle.json_text
    for name, payload in sorted(bundle.files.items()):
        if "csv" in formats or not name.endswith(".csv"):
            payloads[name] = payload
    payloads["run_meta.json"] = json.dumps(
        {"experiment": bundle.experiment, "version": __version__,
         "wall_time_s": bundle.wall_time_s},
        sort_keys=True, indent=2) + "\n"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, payload in payloads.items():
            with (out_dir / name).open("w") as out:
                out.writelines([payload] if isinstance(payload, str) else payload)
    except OSError as exc:
        raise ConfigError([f"output_dir: cannot write {out_dir}: {exc}"]) from None
    return [out_dir / name for name in payloads]


# --- grid-field text format ---------------------------------------------


def render_grid_field(kind: str, spacings: tuple[float, ...], values: np.ndarray) -> str:
    """Self-describing text format: header keys, then row-major rows of the
    trailing components per grid point."""
    return "".join(_GridFieldText(kind, spacings, values))


@dataclass(frozen=True, eq=False)
class _GridFieldText:
    """The text of render_grid_field, rendered each time it is iterated: the
    header, then one %-format per block of RENDER_BLOCK_ROWS rows, so that a
    writer holds one block at a time and no one holds it whole. With
    ``columns``, each row holds only those of a point's flattened trailing
    components, taken one block at a time."""

    kind: str
    spacings: tuple[float, ...]
    values: np.ndarray
    columns: np.ndarray | None = None

    def __iter__(self):
        values = np.asarray(self.values, dtype=float)
        grid_shape = values.shape[: len(self.spacings)]
        comp_shape = values.shape[len(self.spacings):]
        if self.columns is not None:
            comp_shape = (len(self.columns),)
        yield "\n".join([
            "# holesim grid-field v1",
            f"kind: {self.kind}",
            f"axes: {len(self.spacings)}",
            "shape: " + " ".join(str(n) for n in grid_shape),
            "spacing: " + " ".join(_fmt(h) for h in self.spacings),
            "components: " + " ".join(str(n) for n in comp_shape),
            "data:",
        ]) + "\n"
        flat = values.reshape(int(np.prod(grid_shape)), -1)
        row = " ".join(["%r"] * int(np.prod(comp_shape))) + "\n"
        for start in range(0, len(flat), RENDER_BLOCK_ROWS):
            block = flat[start:start + RENDER_BLOCK_ROWS]
            if self.columns is not None:
                block = block[:, self.columns]
            yield (row * len(block)) % tuple(block.ravel().tolist())


def _parse_grid_field(path) -> tuple[str, tuple[float, ...], np.ndarray]:
    """Read a grid field's header line by line, then its data rows from the
    same open file through loadtxt, so no copy of the whole text is held."""
    try:
        with open(path, encoding="utf-8") as stream:
            return _parse_grid_stream(path, stream)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: cannot read grid field: {exc}"]) from None


def _parse_grid_stream(path, stream) -> tuple[str, tuple[float, ...], np.ndarray]:
    header: dict[str, str] = {}
    data_found = False
    for i, line in enumerate(stream):
        line = line.rstrip("\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "data:":
            data_found = True
            break
        if ":" not in stripped:
            raise ConfigError([f"{path}: malformed header line {i + 1}: {line!r}"])
        key, _, value = stripped.partition(":")
        header[key.strip()] = value.strip()
    required = {"kind", "axes", "shape", "spacing", "components"}
    missing = required - header.keys()
    if not data_found or missing:
        raise ConfigError([f"{path}: missing header entries {sorted(missing)} or data section"])
    try:
        axes = int(header["axes"])
        shape = tuple(int(v) for v in header["shape"].split())
        spacings = tuple(float(v) for v in header["spacing"].split())
        comps = tuple(int(v) for v in header["components"].split())
        with warnings.catch_warnings():  # an empty data section is refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(stream, ndmin=2)
    except UnicodeDecodeError:
        raise  # the file, not its numbers: _parse_grid_field reports it
    except (ValueError, TypeError) as exc:
        raise ConfigError([f"{path}: cannot parse grid field: {exc}"])
    if len(shape) != axes or len(spacings) != axes:
        raise ConfigError([f"{path}: shape/spacing do not match axes={axes}"])
    expected = (int(np.prod(shape)), int(np.prod(comps)))
    if not values.size:
        raise ConfigError([f"{path}: empty data section, expected {expected[0]} rows"])
    if values.shape != expected:
        raise ConfigError([f"{path}: data shape {values.shape}, expected {expected}"])
    return header["kind"], spacings, values.reshape(*shape, *comps)


def write_metric_field(path, metric: MetricField) -> None:
    """Store a metric as a grid field of upper-triangle components, taken
    from the components one render block at a time."""
    d = metric.dim
    upper = np.ravel_multi_index(np.triu_indices(d), (d, d))
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_GridFieldText("metric", tuple(metric.spacings),
                                      metric.components, upper))


def read_metric_field(path) -> MetricField:
    """Load a metric grid field; symmetry is exact by construction since
    the format stores the upper triangle only."""
    kind, spacings, tri = _parse_grid_field(path)
    if kind != "metric":
        raise ConfigError([f"{path}: expected kind 'metric', got {kind!r}"])
    d = len(spacings)
    expected = d * (d + 1) // 2
    if tri.shape[-1] != expected:
        raise ConfigError(
            [f"{path}: {tri.shape[-1]} components per point, expected {expected}"]
        )
    slot = np.zeros((d, d), dtype=int)  # slot[i, j]: the stored component of g_ij
    iu = np.triu_indices(d)
    slot[iu] = slot.T[iu] = np.arange(expected)
    full = np.take(tri, slot, axis=-1)
    del tri  # so MetricField's check holds the tensor and its inverse, no triangle
    full.flags.writeable = False  # MetricField keeps it, with no copy
    return MetricField(spacings, full)


# --- command-line entry points -------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holesim",
        description="Config-driven decoherence and background-recovery experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, purpose in [("run", "execute any experiment config"),
                             ("validate", "validate a config and exit"),
                             ("sweep", "execute a sweep config"),
                             ("recover-background", "execute a background recovery config"),
                             ("check-harmonic", "execute a harmonic residual config")]:
        sub.add_parser(command, help=purpose).add_argument(
            "--config", required=True, help="path to the run config file")
    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    try:
        config = load_config(args.config)
        if args.command in EXPERIMENTS and config.experiment != args.command:
            raise ConfigError([f"experiment: command {args.command!r} needs kind"
                               f" {args.command!r}, config says {config.experiment!r}"])
        if args.command == "validate":
            print(f"OK: {config.experiment} config with output_dir={config.output_dir}")
            return 0
        bundle = execute(config)
        written = write_bundle(bundle, config.output_dir, config.formats)
        for path in written:
            print(path)
        return 0
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return exc.exit_code
    except HolesimError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
