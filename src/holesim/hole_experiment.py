"""Orchestrates the numerical witness of the hole construction: a
two-branch decoherence run, versus the same run with a ramped coordinate
displacement applied to the left-branch snapshots only.

Both branches start from one packet and evolve in their own source
potential. The transformed branch is produced by pushing each snapshot's
wavefunction forward as the engine hands it over, never by re-evolving or
keeping it, so the comparison isolates the kinematic effect of the map.
Applying the map to one branch collapses |theta| once the displaced
support clears the original; applying it to both branches (the two-sided
control) leaves theta unchanged to interpolation accuracy.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .diffeo import (
    PushforwardPlan,
    SpatialDiffeomorphism,
    _moved_source,
    identity_map,
    make_bump_displacement,
    make_translation_ramp,
)
# pushforward_wavefunction, pushforward_potential, evolve and theta_time_series
# stay importable here: bench/layers.py wraps them by name.
from .diffeo import pushforward_potential, pushforward_wavefunction  # noqa: F401
from .errors import (ConfigError, DomainError, HolesimError, InsufficientDisplacement,
                     SupportViolation)
from .evolve import (STACK_BYTES, EvolutionConfig, Potential, _snapshot_norm,  # noqa: F401
                     evolve, stream_branches)
from .grid import (SAMPLE_CHUNK_BYTES, Grid, Region, WaveFunction, _as_tuple, gaussian_packet,
                   inner_product, sample_point_bytes)
from .observable import DecoherenceObservable, theta_time_series  # noqa: F401

__all__ = [
    "HoleExperimentConfig",
    "HoleReport",
    "SweepEntry",
    "config_from_sections",
    "default_config",
    "peak_bytes",
    "run_baseline",
    "run_hole",
    "sweep",
]

SUPPORT_TAIL_TOL = 1e-10     # mass allowed outside the declared region U
OVERLAP_MASS_TOL = 1e-6      # displaced-branch mass allowed back inside U after t1
SWEEP_PARAMETERS = ("coupling", "displacement", "mass")

# The committed weak-coupling 1D scenario in the section layout of a run
# config: default_config() builds it, the CLI fills omitted keys from it,
# and config_from_sections() is the one reader of that layout.
# The softening is deliberately wider than the grid-resolution default: a
# marginally resolved well radiates a high-wavenumber tail that breaks the
# 1e-10 support budget over the run. The shift is grid-aligned (448 cells).
DEFAULT_SCENARIO = {
    "grid": {"points": 1024, "extent": 40.0},
    "packet": {"center": -1.0, "width": 1.0, "momentum": 0.0},
    "potentials": {"left_position": -2.5, "right_position": 2.5,
                   "coupling": 0.1, "softening": 1.0},
    "evolution": {"dt": 0.02, "t_end": 4.0, "mass": 4.0, "snapshot_stride": 20},
    "diffeo": {"kind": "translation_ramp", "shift": 17.5, "t0": 0.8, "t1": 1.6,
               "center": 0.0, "radius": 5.0, "peak_shift": 1.0, "two_sided": False},
    "support": {"lower": -9.0, "upper": 7.0},
}


def mass_in_region(psi: WaveFunction, mask: np.ndarray) -> float:
    """Probability mass on the grid points of a region's ``mask``."""
    inside = psi.probability_density()[mask]
    return float(np.sum(inside) * psi.grid.cell_volume)


@dataclass(frozen=True, eq=False)
class HoleExperimentConfig:
    """Full parameterization of one baseline/hole experiment.

    Both branches share the initial packet; the left/right source
    positions define the two branch potentials. ``support`` declares the
    region U that must carry all but 1e-10 of the branch mass at every
    snapshot; for translation maps the displaced region U' is derived
    from the completed shift. ``two_sided`` applies the map to both
    branches, the covariance control, instead of to the left one only.
    """

    grid: Grid
    packet_center: tuple[float, ...]
    packet_width: float
    packet_momentum: tuple[float, ...]
    source_left: tuple[float, ...]
    source_right: tuple[float, ...]
    coupling: float
    evolution: EvolutionConfig
    diffeo: SpatialDiffeomorphism
    support: Region
    two_sided: bool
    softening: float | None = None

    def __post_init__(self):
        dim = self.grid.dim
        for name in ("packet_center", "packet_momentum", "source_left", "source_right"):
            object.__setattr__(self, name, _as_tuple(getattr(self, name), n=dim))
        if self.diffeo.dim != dim:
            raise DomainError(f"diffeo dim {self.diffeo.dim} vs grid dim {dim}")
        if self.diffeo.t0 < 0:
            raise DomainError(f"diffeo onset t0 must be >= 0, got {self.diffeo.t0}")
        if len(self.support.lower) != dim:
            raise DomainError("support region dimension mismatch")
        for width, L in zip(self.support.widths(), self.grid.extent):
            if width > L:
                raise DomainError(f"support width {width} exceeds extent {L}")
        if self.coupling < 0:
            raise DomainError(f"coupling must be non-negative, got {self.coupling}")

    def initial_packet(self) -> WaveFunction:
        return gaussian_packet(self.grid, self.packet_center, self.packet_width,
                               self.packet_momentum, label="psi0")

    def branch_potentials(self) -> tuple[Potential, Potential]:
        return tuple(Potential.point_mass(self.grid, source, self.coupling, self.softening)
                     for source in (self.source_left, self.source_right))


@dataclass(frozen=True, eq=False)
class HoleReport:
    """Theta time series of a run; hole-side fields are None for baselines."""

    times: np.ndarray
    theta_baseline: np.ndarray
    theta_hole: np.ndarray | None
    config: HoleExperimentConfig
    diagnostics: dict

    @property
    def final_theta_baseline(self) -> complex:
        return complex(self.theta_baseline[-1])

    @property
    def final_theta_hole(self) -> complex | None:
        return None if self.theta_hole is None else complex(self.theta_hole[-1])


def _diffeo_from_section(section, vector, extent) -> SpatialDiffeomorphism:
    kind = section["kind"]
    if kind == "identity":
        return identity_map(len(extent))
    if kind == "translation_ramp":
        return make_translation_ramp(vector(section["shift"]), section["t0"], section["t1"],
                                     extent=extent)
    if kind == "bump_displacement":
        return make_bump_displacement(vector(section["center"]), section["radius"],
                                      vector(section["peak_shift"]), section["t0"],
                                      section["t1"])
    raise DomainError(f"unknown kind {kind!r}")


def config_from_sections(sections) -> HoleExperimentConfig:
    """The experiment config that sections in the DEFAULT_SCENARIO layout
    describe; the diffeo section may be of any kind, and the keys of other
    kinds are ignored.

    A scalar where a vector is expected is that value on every grid axis.
    Every failing part is reported in one ConfigError, a missing section or
    key by its name.
    """
    errors = [f"{name}: missing section" for name in DEFAULT_SCENARIO if name not in sections]
    if errors:
        raise ConfigError(errors)

    def part(name, build):
        try:
            return build()
        except KeyError as exc:
            errors.append(f"{name}: missing key {exc.args[0]!r}")
        except (HolesimError, ValueError, TypeError) as exc:
            errors.append(f"{name}: {exc}")

    def boolean(value):
        if not isinstance(value, bool):
            raise ValueError(f"must be true or false, got {value!r}")
        return value

    grid = part("grid", lambda: Grid(sections["grid"]["points"], sections["grid"]["extent"]))
    evo = sections["evolution"]
    evolution = part("evolution", lambda: EvolutionConfig(
        float(evo["dt"]), float(evo["t_end"]), float(evo["mass"]), evo["snapshot_stride"]))
    if grid is None:
        raise ConfigError(errors)

    def vector(value):
        return _as_tuple(value, n=grid.dim)

    packet, pot, support = sections["packet"], sections["potentials"], sections["support"]
    parts = [
        part("diffeo", lambda: {
            "diffeo": _diffeo_from_section(sections["diffeo"], vector, grid.extent)}),
        part("diffeo.two_sided", lambda: {
            "two_sided": boolean(sections["diffeo"]["two_sided"])}),
        part("packet", lambda: {
            "packet_center": vector(packet["center"]),
            "packet_width": float(packet["width"]),
            "packet_momentum": vector(packet["momentum"])}),
        part("potentials", lambda: {
            "source_left": vector(pot["left_position"]),
            "source_right": vector(pot["right_position"]),
            "coupling": float(pot["coupling"]),
            "softening": None if pot["softening"] is None else float(pot["softening"])}),
        part("support", lambda: {
            "support": Region(vector(support["lower"]), vector(support["upper"]))}),
    ]
    if errors:
        raise ConfigError(errors)
    fields = {key: value for built in parts for key, value in built.items()}
    try:
        return HoleExperimentConfig(grid=grid, evolution=evolution, **fields)
    except HolesimError as exc:
        raise ConfigError([f"experiment config: {exc}"]) from None


def default_config(**overrides) -> HoleExperimentConfig:
    """DEFAULT_SCENARIO as an experiment config.

    A ``grid`` override replaces the grid section, so the scenario's
    scalars apply on every axis of that grid (its other sections must
    hold there). Any other keyword replaces that field.
    """
    sections = dict(DEFAULT_SCENARIO)
    if "grid" in overrides:
        grid = overrides.pop("grid")
        sections["grid"] = {"points": grid.shape, "extent": grid.extent}
    return dataclasses.replace(config_from_sections(sections), **overrides)


class _Run:
    """The consumer of one config's branches, two from one packet or one at
    zero coupling: at each snapshot each branch's norm drift and support
    tail, left before right, theta, and a _Hole per (config, strict) pair
    in ``holes``. Its first HolesimError fails the run and its holes. Its
    ``states`` and ``potentials`` are given up to the stream that evolves them."""

    def __init__(self, config: HoleExperimentConfig, holes=()):
        self.config, self.mask = config, config.support.mask(config.grid)
        pair = config.branch_potentials()
        self.potentials = pair[:1] if np.array_equal(pair[0].values, pair[1].values) else pair
        self.labels, self.softening = ("psi_l", "psi_r")[:len(self.potentials)], pair[0].softening
        psi0 = config.initial_packet()
        self.states = [psi0.with_label(label) for label in self.labels]
        self.holes = [_Hole(derived, strict, self.mask) for derived, strict in holes]
        self.times, self.thetas, self.worst, self.error = [], [], 0.0, None

    def __call__(self, t: float, rows, blowups) -> None:
        self.error = self.error or next(filter(None, blowups), None)
        if self.error:
            return
        try:
            states = [WaveFunction._adopt(self.config.grid, row, label)
                      for row, label in zip(rows, self.labels)]
            for psi in states:
                outside = max(0.0, _snapshot_norm(psi, t) ** 2 - mass_in_region(psi, self.mask))
                self.worst = max(self.worst, outside)
                if outside > SUPPORT_TAIL_TOL:
                    raise SupportViolation(f"mass {outside:.3e} outside declared support at t={t}"
                                           f" (branch {psi.label!r})")
            self.thetas.append(DecoherenceObservable(inner_product(states[0], states[-1])).theta)
            self.times.append(t)
            for hole in self.holes:  # each keeps its own HolesimErrors
                hole(t, states[0], states[-1])
        except HolesimError as exc:  # kept without its frames, which hold the rows
            self.error = exc.with_traceback(None)

    @functools.cached_property
    def baseline(self) -> HoleReport:
        """The run's report, built once for all its holes."""
        if self.error:
            raise self.error
        return HoleReport(times=np.asarray(self.times, dtype=float),
                          theta_baseline=np.array(self.thetas, dtype=complex), theta_hole=None,
                          config=self.config, diagnostics={"max_mass_outside_support": self.worst,
                                                           "softening": self.softening})


def _stream(runs) -> list:
    """Evolve the branches of ``runs``, of one EvolutionConfig, in one call,
    handing each run its rows while any run still reads them. The runs give
    up their states and potentials, which the call frees once its stacks fill."""

    def consume(t, rows, blowups) -> bool:
        rows, blowups = iter(rows), iter(blowups)
        for run in runs:
            run(t, [next(rows) for _ in run.labels], [next(blowups) for _ in run.labels])
        return any(run.error is None for run in runs)

    stream_branches([psi for run in runs for psi in vars(run).pop("states")],
                    [v for run in runs for v in vars(run).pop("potentials")],
                    runs[0].config.evolution, consume)
    return runs


def run_baseline(config: HoleExperimentConfig) -> HoleReport:
    """Evolve both branches and report theta(t) at every snapshot."""
    return _stream([_Run(config)])[0].baseline


class _Hole:
    """One config's hole stage on its run's snapshots: the left branch, or
    both (two-sided), pushed by the map at that time, and theta."""

    def __init__(self, config: HoleExperimentConfig, strict: bool, mask: np.ndarray):
        self.config, self.mask, self.error = config, mask, None
        self.plan, self.thetas, self.overlap_masses, self.drift = None, [], {}, 0.0
        phi = config.diffeo
        # Maps that are the identity at t1 (zero shifts, the identity map) displace
        # nothing and skip the displacement gate: they reproduce the baseline exactly.
        self.gated = strict and not config.two_sided and not phi.is_identity_at(phi.t1)
        if (self.gated and phi.kind == "translation_ramp" and np.any(
                mask & config.support.shifted(phi.displacement_at(phi.t1)).mask(config.grid))):
            self.error = InsufficientDisplacement("declared support and its displaced image"
                                                  " overlap on the grid")

    def __call__(self, t: float, left: WaveFunction, right: WaveFunction) -> None:
        if self.error:
            return
        phi = self.config.diffeo
        try:
            # The map depends on t through its ramp value only: one plan serves both
            # branches until the ramp moves, and every snapshot after t1.
            if self.plan is None or phi.ramp(t) != self.plan.ramp:
                self.plan = None  # the old plan's tables go before the next plan builds its own
                self.plan = PushforwardPlan(phi, t, self.config.grid)
            pushed = self._push(left)
            if self.config.two_sided:
                right = self._push(right)
            elif t > phi.t1 - 1e-12 and not phi.is_identity_at(t):
                back_inside = self.overlap_masses[float(t)] = mass_in_region(pushed, self.mask)
                if self.gated and back_inside > OVERLAP_MASS_TOL:
                    raise InsufficientDisplacement(f"displaced branch keeps mass {back_inside:.3e}"
                                                   f" inside the original support at t={t}")
            self.thetas.append(DecoherenceObservable(inner_product(pushed, right)).theta)
        except HolesimError as exc:  # kept without its frames, which hold the pushed states
            self.error, self.plan = exc.with_traceback(None), None

    def _push(self, psi: WaveFunction) -> WaveFunction:
        pushed, size = self.plan.pushed(psi)  # the identity: psi itself
        self.drift = max(self.drift, abs(size - 1.0))
        return pushed

    def report(self, baseline: HoleReport) -> HoleReport:
        """The run's baseline report with this stage's series and diagnostics."""
        if self.error:
            raise self.error
        # The transformed source is defined only while the pushed potential is
        # still a point mass: under a translation or an identity, not a bump.
        phi, t_final, source = self.config.diffeo, baseline.times[-1], self.config.source_left
        if not phi.is_identity_at(t_final):
            source = (_moved_source(source, phi, t_final, self.config.grid.extent)
                      if phi.kind == "translation_ramp" else None)
        return dataclasses.replace(baseline, theta_hole=np.asarray(self.thetas, dtype=complex),
                                   config=self.config, diagnostics={
                                       **baseline.diagnostics, "max_pushforward_norm_drift": self.drift,
                                       "overlap_mass_after_ramp": self.overlap_masses,
                                       "transformed_source_final": source})


def run_hole(config: HoleExperimentConfig, strict: bool = True) -> HoleReport:
    """Baseline run plus the transformed-branch series, each snapshot pushed
    as the branches evolve. One-sided (the hole construction proper): the
    left-branch snapshots and potential are pushforwarded, the right branch
    is untouched. A ``two_sided`` config transforms both, the covariance
    control. ``strict`` enforces that the displaced support clears the
    original region (mask disjointness up front, displaced-branch mass back
    inside U at most 1e-6 after t1); sweeps over sub-threshold displacements
    disable it deliberately. A baseline error is raised first."""
    run, = _stream([_Run(config, [(config, strict)])])
    return run.holes[0].report(run.baseline)


@dataclass(frozen=True, eq=False)
class SweepEntry:
    value: float
    report: HoleReport | None
    error: str | None


def _config_for(config: HoleExperimentConfig, parameter: str,
                value: float) -> tuple[HoleExperimentConfig, bool]:
    """Derived config for one sweep point; returns (config, strict)."""
    if parameter == "coupling":
        return dataclasses.replace(config, coupling=float(value)), True
    if parameter == "mass":
        evolution = dataclasses.replace(config.evolution, mass=float(value))
        return dataclasses.replace(config, evolution=evolution), True
    if config.diffeo.kind != "translation_ramp":
        raise DomainError("displacement sweeps need a translation-ramp diffeo")
    shift = np.asarray(config.diffeo.shift, dtype=float)
    magnitude = float(np.linalg.norm(shift))
    direction = shift / magnitude if magnitude > 0 else np.eye(1, config.grid.dim, 0)[0]
    phi = make_translation_ramp(tuple(float(value) * direction),
                                config.diffeo.t0, config.diffeo.t1, extent=config.grid.extent)
    # Sub-threshold displacements are the point of the sweep: not strict.
    return dataclasses.replace(config, diffeo=phi), False


def _group_branches(config: HoleExperimentConfig, branches: int) -> int:
    """Most branches a sweep evolves in one call: as many of its
    ``branches`` as fit STACK_BYTES, but one value's pair at least."""
    return max(2, min(branches, STACK_BYTES // (16 * config.grid.size)))


# Bytes a hole run may hold per snapshot and value, the Python objects of its
# series and its result text (measured on stride-1 1D runs of 2001-4001
# snapshots: 0.44 KB a baseline, 0.93 KB a two-sided and 1.24 KB a one-sided
# hole run), and for its config, parser and other small objects.
SNAPSHOT_BYTES = 1664
RUN_BYTES = 2**20


def peak_bytes(config: HoleExperimentConfig, values: int = 1) -> float:
    """Upper estimate of the peak bytes of a run of ``config``, or of one
    value's ``config`` in a sweep of ``values``. In complex fields of the
    grid: per branch evolved at once (a run's two, a sweep's largest group)
    its stack and potential phase, and while the stacks fill its share of
    its run's packet and potentials (a pair's: one packet, two real
    potentials); one kinetic factor; a pushed state per pushed branch, none
    where the map is the identity at t1 (its plan returns psi itself); no
    field for a translation's plan. A bump's plans, one per run of a group
    (equal values share one), keep each its mask, and weights and preimages
    at the points it moves, at most those of the ball's bounding box, and
    sampler tables, a row of each axis per moved point. A build adds the
    squared radii over the grid and eight arrays of dim floats per moved
    point; a push the spectral coefficients and their transform, two
    samples per moved point, and one chunk, grid.sample_point_bytes per
    moved point: its tables, index and intermediate. Tables and chunk take
    at most SAMPLE_CHUNK_BYTES each. Besides, RUN_BYTES and SNAPSHOT_BYTES
    per snapshot and value, at any stride."""
    phi, evolution, grid = config.diffeo, config.evolution, config.grid
    pushed = 0 if phi.is_identity_at(phi.t1) else 2 if config.two_sided else 1
    branches = _group_branches(config, 2 * values)
    snapshots = 2 + evolution.t_end / evolution.dt / evolution.snapshot_stride
    fields, other = 3 * branches + 1 + pushed, 0.0
    if pushed and phi.kind == "bump_displacement":
        plans = min(values, (branches + 1) // 2)  # a group's runs: pairs, and one at zero coupling
        moved = np.prod([min(n, 2 * phi.radius // dx + 1) for n, dx in zip(grid.shape, grid.spacing)])
        fields += 2.5  # a push's coefficients and their transform; a build's squared radii
        tables = min(16 * moved * sum(grid.shape), SAMPLE_CHUNK_BYTES)
        chunk = min(moved * sample_point_bytes(grid), SAMPLE_CHUNK_BYTES)
        other = (plans * (grid.size + 8 * (1 + grid.dim) * moved + tables) + chunk
                 + (64 * grid.dim + 32) * moved)
    return 16.0 * grid.size * fields + other + RUN_BYTES + SNAPSHOT_BYTES * snapshots * values


def sweep(config: HoleExperimentConfig, parameter: str, values) -> list[SweepEntry]:
    """Hole runs across one swept parameter. Equal values share one hole
    stage, and values whose derived configs differ in the map only share
    one run, wherever they stand. Runs of one EvolutionConfig evolve in
    groups, one call each, while their branches (one at zero coupling) and
    a next pair fit _group_branches. Per-run HolesimErrors, a blow-up among
    them, are collected into their own values' entries; any other
    exception is a bug and propagates. Entries are in the order of ``values``."""
    if parameter not in SWEEP_PARAMETERS:
        raise DomainError(f"unknown sweep parameter {parameter!r}; use one of {SWEEP_PARAMETERS}")
    values = [float(value) for value in values]
    outcomes, runs = {}, {}  # runs: the map-free fields of a derived config -> its values
    for value in dict.fromkeys(values):
        try:
            derived, strict = _config_for(config, parameter, value)
            key = tuple(getattr(derived, f.name) for f in dataclasses.fields(derived)
                        if f.name != "diffeo")
            runs.setdefault(key, []).append((value, derived, strict))
        except HolesimError as exc:  # collected, not raised
            outcomes[value] = exc

    def finish(group) -> None:
        for run, same in zip(_stream([run for run, _ in group]), (same for _, same in group)):
            for (value, *_), hole in zip(same, run.holes):
                try:
                    outcomes[value] = hole.report(run.baseline)
                except HolesimError as exc:  # its frames would keep the group's fields
                    outcomes[value] = exc.with_traceback(None)

    most, group = _group_branches(config, 2 * len(values)), []
    for same in runs.values():
        if group and (same[0][1].evolution != group[0][0].config.evolution
                      or sum(len(run.labels) for run, _ in group) + 2 > most):
            finish(group)
            group = []  # its branches and plans go before the next group's are built
        try:
            group.append((_Run(same[0][1], [(derived, strict) for _, derived, strict in same]), same))
        except HolesimError as exc:
            outcomes.update((value, exc.with_traceback(None)) for value, *_ in same)
    if group:
        finish(group)
    return [SweepEntry(value, outcome, None) if isinstance(outcome, HoleReport) else
            SweepEntry(value, None, f"{type(outcome).__name__}: {outcome}")
            for value, outcome in zip(values, map(outcomes.get, values))]
