"""Time propagation of a wavefunction in an external branch potential.

The stepper is symmetric Strang splitting with a spectral kinetic step:

    psi -> exp(-i V dt/2) psi
    psi -> IFFT( exp(-i |k|^2 dt / (2 m)) FFT(psi) )
    psi -> exp(-i V dt/2) psi

Each factor is a pure phase, so the norm is preserved to roundoff per
step. A step runs in place in two buffers allocated once per evolution
(amplitudes and spectrum) with the phase factor always the first operand,
so its bits never hang on numpy's size-dependent reuse of temporaries.
The point-mass potential is the softened attractive Coulomb form
-c / sqrt(|x - x_s|^2 + eps^2), the Newtonian stand-in for a branch
gravitational field sourced at x_s; the heavy source is a fixed classical
point with no back-reaction.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GridMismatch,
    NormViolation,
    NumericalBlowup,
    StabilityWarning,
)
from .grid import Grid, WaveFunction, _as_tuple, norm, spectral_sample

__all__ = [
    "Potential",
    "EvolutionConfig",
    "Trajectory",
    "step",
    "evolve",
    "energy_expectation",
]

# Warn when a single step rotates the potential phase by more than this.
PHASE_PER_STEP_BOUND = np.pi / 4


@dataclass(frozen=True, eq=False)
class Potential:
    """External potential bound to a grid.

    ``point_mass`` potentials keep their analytic parameters so they can
    be evaluated off-grid and transformed exactly; ``tabulated`` ones hold
    one real value per grid point.
    """

    kind: str
    grid: Grid
    values: np.ndarray
    source_position: tuple[float, ...] | None = None
    coupling: float | None = None
    softening: float | None = None

    @classmethod
    def point_mass(cls, grid: Grid, source_position, coupling: float,
                   softening: float | None = None) -> "Potential":
        """Softened attractive -c/sqrt(r^2 + eps^2) sourced at a point.

        ``softening`` defaults to twice the largest grid spacing, the only
        natural cutoff scale the grid provides. ``coupling`` is the mass
        product of source and light particle (G = 1); zero switches the
        interaction off.
        """
        source_position = _as_tuple(source_position, n=grid.dim)
        coupling = float(coupling)
        if coupling < 0 or not np.isfinite(coupling):
            raise DomainError(f"coupling must be a finite non-negative real, got {coupling}")
        if softening is None:
            softening = 2.0 * max(grid.spacing)
        softening = float(softening)
        if softening <= 0 or not np.isfinite(softening):
            raise DomainError(f"softening must be positive, got {softening}")
        pot = object.__new__(cls)
        object.__setattr__(pot, "kind", "point_mass")
        object.__setattr__(pot, "grid", grid)
        object.__setattr__(pot, "source_position", source_position)
        object.__setattr__(pot, "coupling", coupling)
        object.__setattr__(pot, "softening", softening)
        mesh = grid.coordinate_mesh()
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        values = pot.evaluate_at(points).reshape(grid.shape)
        values.flags.writeable = False
        object.__setattr__(pot, "values", values)
        return pot

    @classmethod
    def tabulated(cls, grid: Grid, values: np.ndarray) -> "Potential":
        values = np.array(values, dtype=float, copy=True)
        if values.shape != grid.shape:
            raise GridMismatch(
                f"potential shape {values.shape} does not match grid {grid.shape}"
            )
        if not np.isfinite(values).all():
            raise NumericalBlowup("non-finite tabulated potential values")
        values.flags.writeable = False
        pot = object.__new__(cls)
        object.__setattr__(pot, "kind", "tabulated")
        object.__setattr__(pot, "grid", grid)
        object.__setattr__(pot, "values", values)
        object.__setattr__(pot, "source_position", None)
        object.__setattr__(pot, "coupling", None)
        object.__setattr__(pot, "softening", None)
        return pot

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Potential values at arbitrary points, shape (P, dim) -> (P,).

        Point-mass potentials are evaluated analytically with minimal-image
        distances; tabulated ones through the spectral interpolant (their
        gridded representation), discarding the O(eps) imaginary residue.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "point_mass":
            r2 = np.zeros(points.shape[0])
            for axis in range(self.grid.dim):
                d = self.grid.minimal_image(points[:, axis] - self.source_position[axis], axis)
                r2 = r2 + d * d
            return -self.coupling / np.sqrt(r2 + self.softening**2)
        return spectral_sample(self.grid, self.values, points).real

    def values_on(self, grid: Grid) -> np.ndarray:
        if grid != self.grid:
            raise GridMismatch("potential bound to a different grid")
        return self.values

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class EvolutionConfig:
    """Stepper parameters.

    ``dt`` is signed: production runs use dt > 0, a negative value steps
    backward (used by reversibility checks); :func:`evolve` itself only
    accepts forward configs.
    """

    dt: float
    t_end: float
    mass: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.dt == 0 or not np.isfinite(self.dt):
            raise DomainError(f"dt must be nonzero and finite, got {self.dt}")
        if self.t_end < 0 or not np.isfinite(self.t_end):
            raise DomainError(f"t_end must be non-negative, got {self.t_end}")
        if self.t_end > 0 and abs(self.dt) > self.t_end:
            raise DomainError(f"|dt| = {abs(self.dt)} exceeds t_end = {self.t_end}")
        if self.mass <= 0 or not np.isfinite(self.mass):
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.snapshot_stride < 1 or int(self.snapshot_stride) != self.snapshot_stride:
            raise DomainError(f"snapshot_stride must be a positive integer, got {self.snapshot_stride}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered (time, state) snapshots of one branch evolution."""

    times: tuple[float, ...]
    states: tuple[WaveFunction, ...]

    def __post_init__(self):
        if len(self.times) != len(self.states) or not self.times:
            raise DomainError("trajectory needs matching, non-empty times and states")
        if any(t1 <= t0 for t0, t1 in zip(self.times, self.times[1:])):
            raise DomainError("trajectory times must be strictly increasing")
        g = self.states[0].grid
        for psi in self.states:
            if psi.grid != g:
                raise GridMismatch("all trajectory snapshots must share one grid")
        for t, psi in zip(self.times, self.states):
            drift = abs(norm(psi) - 1.0)
            if drift > 1e-8:
                raise NormViolation(f"snapshot at t={t} has norm drift {drift:.3e}")

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self) -> WaveFunction:
        return self.states[-1]

    def nearest_index(self, t: float) -> int:
        """Index of the snapshot closest to t; t must lie in the covered range."""
        lo, hi = self.times[0], self.times[-1]
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if t < lo - slack or t > hi + slack:
            raise DomainError(f"t={t} outside trajectory range [{lo}, {hi}]")
        return int(np.argmin(np.abs(np.asarray(self.times) - t)))


@functools.lru_cache(maxsize=64)
def _squared_wavenumbers(grid: Grid) -> np.ndarray:
    """|k|^2 over the FFT layout of the grid, read-only and cached per grid."""
    ks = grid.wavenumbers()
    k2 = np.zeros(grid.shape)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.shape[axis]
        k2 = k2 + (ks[axis] ** 2).reshape(shape)
    k2.flags.writeable = False
    return k2


def _kinetic_phase(grid: Grid, dt: float, mass: float) -> np.ndarray:
    return np.exp(-0.5j * _squared_wavenumbers(grid) * dt / mass)


def _check_compatible(psi: WaveFunction, potential: Potential) -> np.ndarray:
    if psi.grid != potential.grid:
        raise GridMismatch("wavefunction and potential live on different grids")
    return potential.values


def _advance(amps: np.ndarray, spectrum: np.ndarray, half_v: np.ndarray,
             kinetic: np.ndarray) -> None:
    """One Strang step on ``amps`` in place; ``spectrum`` is scratch."""
    np.multiply(half_v, amps, out=amps)
    np.fft.fftn(amps, out=spectrum)
    np.multiply(kinetic, spectrum, out=spectrum)
    np.fft.ifftn(spectrum, out=amps)
    np.multiply(half_v, amps, out=amps)


def step(psi: WaveFunction, potential: Potential, config: EvolutionConfig) -> WaveFunction:
    """One Strang-split step of size config.dt."""
    values = _check_compatible(psi, potential)
    half_v = np.exp(-0.5j * values * config.dt)
    kinetic = _kinetic_phase(psi.grid, config.dt, config.mass)
    amps = psi.amplitudes.copy()
    _advance(amps, np.empty_like(amps), half_v, kinetic)
    if not np.isfinite(amps.view(np.float64)).all():
        raise NumericalBlowup("step produced non-finite amplitudes")
    return WaveFunction(psi.grid, amps, psi.label)


def evolve(psi0: WaveFunction, potential: Potential, config: EvolutionConfig) -> Trajectory:
    """Propagate psi0 to t_end, snapshotting every snapshot_stride steps.

    The final step is always snapshotted, so the trajectory ends within
    dt/2 of t_end regardless of stride alignment.
    """
    values = _check_compatible(psi0, potential)
    if config.dt < 0:
        raise DomainError("evolve requires a forward (dt > 0) config")
    phase_per_step = abs(config.dt) * potential.max_abs()
    if phase_per_step > PHASE_PER_STEP_BOUND:
        warnings.warn(
            f"potential phase per step {phase_per_step:.3f} exceeds {PHASE_PER_STEP_BOUND:.3f};"
            " reduce dt or the coupling",
            StabilityWarning,
            stacklevel=2,
        )
    n_steps = int(round(config.t_end / config.dt))
    times = [0.0]
    states = [psi0]
    if n_steps == 0:
        return Trajectory(tuple(times), tuple(states))
    half_v = np.exp(-0.5j * values * config.dt)
    kinetic = _kinetic_phase(psi0.grid, config.dt, config.mass)
    amps = psi0.amplitudes.copy()
    spectrum = np.empty_like(amps)
    for k in range(1, n_steps + 1):
        _advance(amps, spectrum, half_v, kinetic)
        if not np.isfinite(amps.view(np.float64)).all():
            raise NumericalBlowup(f"evolution blew up at step {k}")
        if k % config.snapshot_stride == 0 or k == n_steps:
            times.append(k * config.dt)
            states.append(WaveFunction(psi0.grid, amps, psi0.label))
    return Trajectory(tuple(times), tuple(states))


def energy_expectation(psi: WaveFunction, potential: Potential, mass: float) -> float:
    """Expectation of the discretized Hamiltonian (spectral kinetic + V)."""
    values = _check_compatible(psi, potential)
    k2 = _squared_wavenumbers(psi.grid)
    kin_amps = np.fft.ifftn(0.5 * k2 / mass * np.fft.fftn(psi.amplitudes))
    kinetic = np.vdot(psi.amplitudes, kin_amps).real * psi.grid.cell_volume
    pot = float(np.sum(values * psi.probability_density()) * psi.grid.cell_volume)
    return float(kinetic + pot)
