"""Orchestrates the numerical witness of the hole construction: a
two-branch decoherence run, versus the same run with a ramped coordinate
displacement applied to the stored left-branch snapshots only.

Both branches start from one packet and evolve in their own source
potential. The transformed branch is produced by pushforwarding stored
snapshots (wavefunction and potential), never by re-evolving, so the
comparison isolates the kinematic effect of the map. Applying the map to
one branch collapses |theta| once the displaced support clears the
original; applying it to both branches (the two-sided control) leaves
theta unchanged to interpolation accuracy.
"""

from __future__ import annotations

import dataclasses
import itertools
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
# pushforward_wavefunction, pushforward_potential and evolve stay importable
# here: bench/layers.py wraps them by name.
from .diffeo import pushforward_potential, pushforward_wavefunction  # noqa: F401
from .errors import ConfigError, DomainError, HolesimError, InsufficientDisplacement, SupportViolation
from .evolve import (STACK_BYTES, EvolutionConfig, Potential, Trajectory,  # noqa: F401
                     evolve, evolve_branches)
from .grid import (SAMPLE_CHUNK_BYTES, Grid, Region, WaveFunction, _as_tuple, gaussian_packet,
                   inner_product, norm)
from .observable import DecoherenceObservable, theta_time_series

__all__ = [
    "HoleExperimentConfig",
    "HoleReport",
    "SweepEntry",
    "config_from_sections",
    "default_config",
    "run_baseline",
    "run_hole",
    "sweep",
]

SUPPORT_TAIL_TOL = 1e-10     # mass allowed outside the declared region U
OVERLAP_MASS_TOL = 1e-6      # displaced-branch mass allowed back inside U after t1
SWEEP_PARAMETERS = ("coupling", "displacement", "mass")
# Largest estimated peak of a run that the CLI accepts (_peak_bytes here,
# two more estimates in cli); a sweep's groups keep its estimate under it.
PEAK_BYTES_LIMIT = 4 * 2**30

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

    def displaced_support(self) -> Region:
        if self.diffeo.kind != "translation_ramp":
            raise DomainError("displaced support region is derived for translation ramps only")
        return self.support.shifted(self.diffeo.displacement_at(self.diffeo.t1))

    def initial_packet(self) -> WaveFunction:
        return gaussian_packet(self.grid, self.packet_center, self.packet_width,
                               self.packet_momentum, label="psi0")

    def branch_potentials(self) -> tuple[Potential, Potential]:
        left = Potential.point_mass(self.grid, self.source_left, self.coupling, self.softening)
        right = Potential.point_mass(self.grid, self.source_right, self.coupling, self.softening)
        return left, right


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

    @property
    def contrast(self) -> float | None:
        """|theta_baseline(T)| - |theta_hole(T)|."""
        hole = self.final_theta_hole
        return None if hole is None else abs(self.final_theta_baseline) - abs(hole)


def _forward_evolution(section) -> EvolutionConfig:
    evolution = EvolutionConfig(float(section["dt"]), float(section["t_end"]),
                                float(section["mass"]), section["snapshot_stride"])
    if evolution.dt <= 0:
        raise DomainError("dt must be positive for runs")
    return evolution


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
    The evolution must step forward. Every failing part is reported in one
    ConfigError, a missing section or key by its name.
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
    evolution = part("evolution", lambda: _forward_evolution(sections["evolution"]))
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
    hold there). ``shift``, ``t0``, ``t1`` rebuild the translation ramp;
    any other keyword replaces that field.
    """
    sections = dict(DEFAULT_SCENARIO)
    if "grid" in overrides:
        grid = overrides.pop("grid")
        sections["grid"] = {"points": grid.shape, "extent": grid.extent}
    config = config_from_sections(sections)
    ramp = {key: overrides.pop(key) for key in ("shift", "t0", "t1") if key in overrides}
    if ramp:
        phi = config.diffeo
        ramp = {"shift": phi.shift, "t0": phi.t0, "t1": phi.t1, **ramp}
        overrides["diffeo"] = make_translation_ramp(**ramp, extent=config.grid.extent)
    return dataclasses.replace(config, **overrides)


def _check_support(trajectories: tuple[Trajectory, ...], mask: np.ndarray) -> float:
    worst = 0.0
    for traj in trajectories:
        for t, psi in zip(traj.times, traj.states):
            outside = max(0.0, norm(psi) ** 2 - mass_in_region(psi, mask))
            worst = max(worst, outside)
            if outside > SUPPORT_TAIL_TOL:
                raise SupportViolation(f"mass {outside:.3e} outside declared support at t={t}"
                                       f" (branch {psi.label!r})")
    return worst


def _evolve(configs) -> list:
    """(potentials, trajectories) of each config's branches, evolved in one
    call: two from one packet, or one if both potentials are equal (zero
    coupling). The configs share one EvolutionConfig."""
    states, potentials = [], []
    for config in configs:
        psi0, pair = config.initial_packet(), config.branch_potentials()
        pair = pair[:1] if np.array_equal(pair[0].values, pair[1].values) else pair
        states += [psi0.with_label("psi_l"), psi0.with_label("psi_r")][:len(pair)]
        potentials.append(pair)
    trajectories = iter(evolve_branches(states, [v for pair in potentials for v in pair],
                                        configs[0].evolution))
    return [(pair, tuple(next(trajectories) for _ in pair)) for pair in potentials]


def _baseline(config: HoleExperimentConfig, evolved=None):
    """Check both branches against the declared support and report
    theta(t): returns (left, right, v_left, support mask, report).
    ``evolved`` is the _evolve entry of ``config``, made here if not given."""
    mask = config.support.mask(config.grid)
    (v_left, *_), branches = evolved or _evolve([config])[0]
    worst_tail = _check_support(branches, mask)
    left, right = branches[0], branches[-1]
    times, thetas = theta_time_series(left, right)
    report = HoleReport(times=times, theta_baseline=thetas, theta_hole=None, config=config,
                        diagnostics={"max_mass_outside_support": worst_tail,
                                     "softening": v_left.softening})
    return left, right, v_left, mask, report


def run_baseline(config: HoleExperimentConfig) -> HoleReport:
    """Evolve both branches and report theta(t) at every snapshot."""
    return _baseline(config)[-1]


def run_hole(config: HoleExperimentConfig, strict: bool = True, *,
             branches=None) -> HoleReport:
    """Baseline run plus the transformed-branch series.

    One-sided (the hole construction proper): stored left-branch snapshots
    and the left potential are pushforwarded, the right branch is left
    untouched. A ``two_sided`` config transforms both branches, the
    covariance control. ``strict`` enforces that the displaced support
    clears the original region (mask disjointness up front, displaced-branch
    mass back inside U at most 1e-6 after t1); sweeps over sub-threshold
    displacements disable it deliberately. ``branches`` is what _baseline
    returned for a config that differs from ``config`` in its map only;
    a sweep passes it so that equal branches evolve once.
    """
    left, right, v_left, mask, baseline = branches or _baseline(config)

    # Maps that are the identity at t1 (zero shifts, the identity map) displace
    # nothing and skip the displacement gate: they reproduce the baseline exactly.
    check_displacement = (strict and not config.two_sided
                          and not config.diffeo.is_identity_at(config.diffeo.t1))
    if check_displacement and config.diffeo.kind == "translation_ramp":
        displaced = config.displaced_support()
        if np.any(mask & displaced.mask(config.grid)):
            raise InsufficientDisplacement("declared support and its displaced image"
                                           " overlap on the grid")

    phi = config.diffeo
    drift_max = 0.0

    def push(plan: PushforwardPlan, psi: WaveFunction, label: str) -> WaveFunction:
        nonlocal drift_max
        raw = plan.apply(psi, renormalize=False)
        if raw is psi:
            return raw  # identity fast path: keep the snapshot bit-exact
        size = norm(raw)
        drift_max = max(drift_max, abs(size - 1.0))
        return WaveFunction._adopt(config.grid, raw.amplitudes / size, label)

    # The map depends on t through its ramp value only: one plan serves both
    # branches until the ramp moves, and every snapshot after t1.
    plan = None
    thetas_hole = []
    overlap_masses = {}
    for i, t in enumerate(baseline.times):
        if plan is None or phi.ramp(t) != plan.ramp:
            plan = None  # the old plan's tables go before the next plan builds its own
            plan = PushforwardPlan(phi, t, config.grid)
        pushed_l = push(plan, left.states[i], "psi_l'")
        other = right.states[i]
        if config.two_sided:
            other = push(plan, other, "psi_r'")
        elif t > phi.t1 - 1e-12 and not phi.is_identity_at(t):
            back_inside = mass_in_region(pushed_l, mask)
            overlap_masses[float(t)] = back_inside
            if check_displacement and back_inside > OVERLAP_MASS_TOL:
                raise InsufficientDisplacement(
                    f"displaced branch keeps mass {back_inside:.3e} inside the"
                    f" original support at t={t}"
                )
        theta = DecoherenceObservable(inner_product(pushed_l, other))
        thetas_hole.append(theta.theta)
        pushed_l = other = None  # freed before the next snapshot is pushed

    # The transformed source is defined only while the pushed potential is
    # still a point mass: under a translation or an identity, not a bump.
    t_final = baseline.times[-1]
    source_final = None
    if phi.is_identity_at(t_final):
        source_final = v_left.source_position
    elif phi.kind == "translation_ramp":
        source_final = _moved_source(v_left.source_position, phi, t_final, config.grid.extent)
    return dataclasses.replace(
        baseline,
        theta_hole=np.asarray(thetas_hole, dtype=complex),
        config=config,
        diagnostics={
            **baseline.diagnostics,
            "max_pushforward_norm_drift": drift_max,
            "overlap_mass_after_ramp": overlap_masses,
            "transformed_source_final": source_final,
        },
    )


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


def _peak_bytes(config: HoleExperimentConfig, pushed: int, branches: int = 2) -> float:
    """Upper estimate of a run's peak bytes. In complex fields of the grid:
    for each branch evolved at once (a run's two, a sweep's largest group)
    its snapshots, the last of which is its stack, and its potential phase,
    as their stacks may step at once; one kinetic factor; a pushed state
    and an intermediate per pushed branch. A bump map's plan adds its kept
    sampler tables and one chunk's temporaries, each at most
    SAMPLE_CHUNK_BYTES, the spectral coefficients of the state it samples
    and their transform, and, in eight arrays of dim floats per grid point,
    its targets, their coordinate mesh and the preimage iteration's arrays."""
    evolution = config.evolution
    snapshots = 2 + evolution.t_end / evolution.dt / evolution.snapshot_stride
    fields = branches * (snapshots + 1) + 1 + 2 * pushed
    tables = 0
    if pushed and config.diffeo.kind == "bump_displacement":
        fields += 2 + 4 * config.grid.dim
        tables = 2 * SAMPLE_CHUNK_BYTES
    return 16.0 * config.grid.size * fields + tables


def _group_branches(config: HoleExperimentConfig, values: int) -> int:
    """Most branches a sweep of ``values`` values evolves in one call: as
    many as fit STACK_BYTES, but one value's pair at least, and that pair
    alone if more would put the peak estimate over PEAK_BYTES_LIMIT."""
    most = max(2, min(2 * values, STACK_BYTES // (16 * config.grid.size)))
    return most if _peak_bytes(config, 2 if config.two_sided else 1, most) <= PEAK_BYTES_LIMIT else 2


def _failed(value: float, exc: HolesimError) -> SweepEntry:
    return SweepEntry(value, None, f"{type(exc).__name__}: {exc}")


def sweep(config: HoleExperimentConfig, parameter: str, values) -> list[SweepEntry]:
    """Hole runs across one swept parameter. Values whose derived configs
    differ in the map only share one run of both branches, wherever they
    stand. Runs of one EvolutionConfig evolve in groups of _group_branches
    branches, one call each; then each value's support check, theta and
    hole stage run on its run's trajectories, one group at a time.

    Per-run HolesimErrors are collected into the entries instead of
    aborting the sweep; any other exception is a bug and propagates. If a
    group's call fails, its runs evolve one at a time, so each value
    records its own error. The entry order matches ``values``.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise DomainError(f"unknown sweep parameter {parameter!r}; use one of {SWEEP_PARAMETERS}")
    values = [float(value) for value in values]
    entries, runs = {}, {}  # runs: the map-free fields of a derived config -> its values
    for i, value in enumerate(values):
        try:
            derived, strict = _config_for(config, parameter, value)
            key = tuple(getattr(derived, f.name) for f in dataclasses.fields(derived)
                        if f.name != "diffeo")
            runs.setdefault(key, []).append((i, derived, strict))
        except HolesimError as exc:  # collected, not raised
            entries[i] = _failed(value, exc)
    size, groups = _group_branches(config, len(values)) // 2, []  # runs, a pair of branches each
    for _, same in itertools.groupby(runs.values(), key=lambda run: run[0][1].evolution):
        same = list(same)
        groups += [same[lo:lo + size] for lo in range(0, len(same), size)]
    for group in groups:
        try:
            evolved = _evolve([run[0][1] for run in group])
        except HolesimError as exc:
            if len(group) > 1:
                groups += [[run] for run in group]  # evolved again one at a time
            else:
                entries.update((i, _failed(values[i], exc)) for i, *_ in group[0])
            continue
        for run, shared in zip(group, evolved):
            branches = None  # a failed check is made again by the run's next value
            for i, derived, strict in run:
                try:
                    branches = branches or _baseline(derived, shared)
                    report = run_hole(derived, strict=strict, branches=branches)
                    entries[i] = SweepEntry(values[i], report, None)
                except HolesimError as exc:
                    entries[i] = _failed(values[i], exc)
        evolved = shared = branches = None  # drop the group's trajectories before the next
    return [entries[i] for i in range(len(values))]
