"""Time propagation of a wavefunction in an external branch potential.

The stepper is symmetric Strang splitting with a spectral kinetic step:

    psi -> exp(-i V dt/2) psi
    psi -> IFFT( exp(-i |k|^2 dt / (2 m)) FFT(psi) )
    psi -> exp(-i V dt/2) psi

Each factor is a pure phase, so the norm is preserved to roundoff per
step. The branches of a run, each in its own potential, step in lockstep
as a (B, *grid) stack, in place. The phase factor is always the first
operand, so the bits never hang on numpy's size-dependent reuse of
temporaries, and the FFTs run axis by axis within each branch, so a
stacked branch has the bits of a lone one.

A call over STACK_BYTES of amplitudes is cut into one contiguous part per
CPU. The calling thread builds every part's stack and phase factor, then
keeps only the states' labels and grid. Per snapshot interval it steps
part 0 while pool threads step the others, in FFTs and multiplies that
release the GIL, then hands the stacks' read-only rows to a consumer; no
snapshot is stored. A worker allocates nothing: memory it freed would stay
in its thread's malloc arena. The core count never changes the bits.

The point-mass potential is the softened attractive Coulomb form
-c / sqrt(|x - x_s|^2 + eps^2), the Newtonian stand-in for a branch
gravitational field sourced at x_s; the heavy source is a fixed classical
point with no back-reaction.
"""

from __future__ import annotations

import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch, NormViolation, NumericalBlowup, StabilityWarning
from .grid import Grid, WaveFunction, _as_tuple, _norm, spectral_sample

__all__ = [
    "Potential",
    "EvolutionConfig",
    "Trajectory",
    "evolve",
    "evolve_branches",
    "stream_branches",
    "energy_expectation",
]

# Warn when a single step rotates the potential phase by more than this.
PHASE_PER_STEP_BOUND = np.pi / 4

# Amplitude bytes above which a call is cut into one part per CPU. Median
# per-step times of one stack against two parts on two threads (2 cores,
# numpy 2.4.6): two parts lose up to 64 KiB, tie near 128 KiB, win by 512.
#   branches    stack    1 part   2 parts
#   1024 x2     32 KiB    79 us    182 us
#   2048 x2     64 KiB   133 us    163 us
#   64^2 x2    128 KiB   306 us    295 us
#   512 x64    512 KiB   677 us    403 us
#   128^2 x2   512 KiB  1179 us    706 us
# So the 2D 128^2 pair, the 512 x64 recovery bases and the 64^3 pair split;
# the pairs of the 1D hole runs and the 64^2 pair step as one stack.
STACK_BYTES = 2**18
SNAPSHOT_NORM_TOL = 1e-8  # largest norm drift of a snapshot


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
        """Softened attractive -c/sqrt(r^2 + eps^2) sourced at a point, with
        the constants that _point_mass_constants checks and completes."""
        source_position = _as_tuple(source_position, n=grid.dim)
        coupling, softening = _point_mass_constants(grid, coupling, softening)
        values = _point_mass_at(grid, source_position, coupling, softening,
                                np.ix_(*grid.axes()))
        values.flags.writeable = False
        return cls("point_mass", grid, values, source_position, coupling, softening)

    @classmethod
    def tabulated(cls, grid: Grid, values: np.ndarray) -> "Potential":
        values = np.array(values, dtype=float, copy=True)
        if values.shape != grid.shape:
            raise GridMismatch(f"potential shape {values.shape} does not match grid {grid.shape}")
        if not np.isfinite(values).all():
            raise NumericalBlowup("non-finite tabulated potential values")
        values.flags.writeable = False
        return cls("tabulated", grid, values)

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Potential values at arbitrary points, shape (P, dim) -> (P,).

        Point-mass potentials are evaluated analytically with minimal-image
        distances; tabulated ones through the spectral interpolant (their
        gridded representation), discarding the O(eps) imaginary residue.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "point_mass":
            return _point_mass_at(self.grid, self.source_position, self.coupling,
                                  self.softening, points.T)
        return spectral_sample(self.grid, self.values, points).real

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _point_mass_constants(grid: Grid, coupling: float,
                          softening: float | None) -> tuple[float, float]:
    """(coupling, softening) of a point mass on ``grid``. ``coupling`` is the
    mass product of source and light particle (G = 1), finite and >= 0; zero
    switches the interaction off. ``softening`` is finite and > 0, and None
    means twice the largest grid spacing, the only natural cutoff scale the
    grid provides."""
    coupling = float(coupling)
    if not (coupling >= 0 and np.isfinite(coupling)):
        raise DomainError(f"coupling must be non-negative, got {coupling}")
    softening = 2.0 * max(grid.spacing) if softening is None else float(softening)
    if not (softening > 0 and np.isfinite(softening)):
        raise DomainError(f"softening must be positive, got {softening}")
    return coupling, softening


def _point_mass_at(grid: Grid, source, coupling: float, softening: float,
                   coords) -> np.ndarray:
    """The point-mass form at one coordinate array per axis, broadcast
    against each other and summed in axis order."""
    r2 = 0.0
    for axis, x in enumerate(coords):
        d = grid.minimal_image(x - source[axis], axis)
        r2 = r2 + d * d
    return -coupling / np.sqrt(r2 + softening**2)


@dataclass(frozen=True)
class EvolutionConfig:
    """Stepper parameters: time steps forward, by dt > 0."""

    dt: float
    t_end: float
    mass: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise DomainError(f"dt must be positive and finite, got {self.dt}")
        if self.t_end < 0 or not np.isfinite(self.t_end):
            raise DomainError(f"t_end must be non-negative, got {self.t_end}")
        if self.t_end > 0 and self.dt > self.t_end:
            raise DomainError(f"dt = {self.dt} exceeds t_end = {self.t_end}")
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
            _snapshot_norm(psi.amplitudes, g.cell_volume, t)

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


def _snapshot_norm(amplitudes: np.ndarray, cell_volume: float, t: float) -> float:
    """The norm of the snapshot ``amplitudes`` at time t, within SNAPSHOT_NORM_TOL of 1."""
    size = _norm(amplitudes, cell_volume)
    if abs(size - 1.0) > SNAPSHOT_NORM_TOL:
        raise NormViolation(f"snapshot at t={t} has norm drift {abs(size - 1.0):.3e}")
    return size


def _squared_wavenumbers(grid: Grid) -> np.ndarray:
    """|k|^2 over the FFT layout of the grid; uncached, so it dies with its use."""
    return sum(np.ix_(*(k**2 for k in grid.wavenumbers())))  # summed in axis order


def _kinetic_phase(grid: Grid, dt: float, mass: float) -> np.ndarray:
    """exp(-i |k|^2 dt / (2 m)) with the bits of the plain expression, built
    in one complex array: the axis terms of |k|^2 are summed into it in axis
    order, so no real |k|^2 field is held either."""
    out = np.zeros(grid.shape, dtype=complex)
    for k2 in np.ix_(*(k**2 for k in grid.wavenumbers())):
        out += k2
    out *= -0.5j
    out *= dt
    out /= mass
    return np.exp(out, out=out)


def _check_compatible(psi: WaveFunction, potential: Potential) -> np.ndarray:
    if psi.grid != potential.grid:
        raise GridMismatch("wavefunction and potential live on different grids")
    return potential.values


def _advance(stack: np.ndarray, half_v: np.ndarray, kinetic: np.ndarray) -> None:
    """One Strang step on a (B, *grid) ``stack`` in place. Each transform
    chains 1D FFTs from the last axis to the first, as ``fftn`` does,
    without its per-call argument handling."""
    axes = range(stack.ndim - 1, 0, -1)
    np.multiply(half_v, stack, out=stack)
    for axis in axes:
        np.fft.fft(stack, axis=axis, out=stack)
    np.multiply(kinetic, stack, out=stack)
    for axis in axes:
        np.fft.ifft(stack, axis=axis, out=stack)
    np.multiply(half_v, stack, out=stack)


def _half_potential_phase(values: np.ndarray, dt: float, out: np.ndarray) -> None:
    """exp(-i V dt/2) into ``out``, with the bits of the plain expression
    but without its temporaries."""
    out[...] = values
    out *= -0.5j
    out *= dt
    np.exp(out, out=out)


def _cores() -> int:
    """CPUs this process may run on; not every platform offers the affinity."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def evolve(psi0: WaveFunction, potential: Potential, config: EvolutionConfig) -> Trajectory:
    """Propagate psi0 to t_end, snapshotting every snapshot_stride steps and
    the final one, which ends within dt/2 of t_end at any stride alignment."""
    return _collected((psi0,), (potential,), config)[0]


def evolve_branches(states, potentials, config: EvolutionConfig) -> tuple[Trajectory, ...]:
    """:func:`evolve` of each state in its own potential, all on one grid, by
    :func:`stream_branches`, each with the bits of its lone evolve, in the
    order of ``states``. The NumericalBlowup of the first branch in input
    order that blew up is raised; stepping stops once that is settled."""
    return _collected(states, potentials, config)


def _collected(states, potentials, config: EvolutionConfig) -> tuple[Trajectory, ...]:
    """Trajectories of a stream that copies each snapshot but the first, the
    states themselves, and the last, rows of stacks that step no further."""
    times, blocks = [], []

    def collect(t, rows, blowups) -> bool:
        if times and rows[0].base.flags.writeable:  # a stack that steps on
            rows = np.array(rows)
            rows.flags.writeable = False
        blocks.append(rows)
        times.append(t)
        return not (blowups and blowups[0])  # the raised blow-up is settled

    for blowup in filter(None, stream_branches(states, potentials, config, collect)):
        raise blowup
    return tuple(Trajectory(tuple(times), (psi0, *(WaveFunction._adopt(psi0.grid, block[b], psi0.label)
                                                  for block in blocks[1:])))
                 for b, psi0 in enumerate(states))


def stream_branches(states, potentials, config: EvolutionConfig, consume) -> list:
    """Step each state in its own potential, all on one grid, handing each
    snapshot to ``consume(t, rows, blowups)`` in the calling thread: at
    t = 0 the states' amplitudes, then read-only views of the stacks' rows,
    in the order of ``states``. Only the last snapshot's rows, whose stacks
    are then made read-only, may be kept past the call. ``blowups`` holds
    per branch None or the NumericalBlowup naming the step where its row
    went non-finite; that row alone fails, zeroed. Stepping stops once
    ``consume`` returns False. Returns ``blowups``.

    Once the stacks and potential phases are built, the stream keeps only
    the states' labels and grid: inputs in lists that the caller hands over
    and does not keep are freed then, before the first step.

    Per snapshot interval the calling thread steps part 0 and a pool thread
    each further part; once all end, the first exception in input order is
    raised, or else the consumer runs."""
    for psi, potential in zip(states, potentials, strict=True):
        _check_compatible(psi, potential)
        if psi.grid != states[0].grid:
            raise GridMismatch("stacked branches must share one grid")
        phase_per_step = config.dt * potential.max_abs()
        if phase_per_step > PHASE_PER_STEP_BOUND:
            frame, level = sys._getframe(1), 2  # warn at the first caller outside the package
            while frame and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
                frame, level = frame.f_back, level + 1
            warnings.warn(f"potential phase per step {phase_per_step:.3f} exceeds"
                          f" {PHASE_PER_STEP_BOUND:.3f}; reduce dt or the coupling",
                          StabilityWarning, stacklevel=level)
    n_steps = int(round(config.t_end / config.dt))
    snapshot_steps = [k for k in range(1, n_steps + 1) if k % config.snapshot_stride == 0 or k == n_steps]
    blowups = [None] * len(states)
    if not (consume(0.0, [psi.amplitudes for psi in states], blowups)
            and states and snapshot_steps):  # nothing to step: nothing is allocated
        return blowups
    grid, count, labels = states[0].grid, len(states), [psi.label for psi in states]
    n_parts = min(count, _cores()) if 16 * grid.size * count > STACK_BYTES else 1
    bounds = [p * count // n_parts for p in range(n_parts + 1)]
    parts = []  # _advance's arguments per part
    for lo, hi in zip(bounds, bounds[1:]):
        stack = np.array([psi.amplitudes for psi in states[lo:hi]])
        half_v = np.empty_like(stack)
        for out, potential in zip(half_v, potentials[lo:hi]):
            _half_potential_phase(potential.values, config.dt, out)
        parts.append((stack, half_v))
    del states, potentials, psi, potential  # from here on, their labels and grid only
    kinetic = _kinetic_phase(grid, config.dt, config.mass)
    parts = [(*part, kinetic) for part in parts]
    rows = [row for stack, *_ in parts for row in stack]
    for row in rows:
        row.flags.writeable = False

    def run(p: int, done: int, last: int) -> None:
        stack = parts[p][0]
        for k in range(done + 1, last + 1):
            _advance(*parts[p])
            if not np.isfinite(np.vdot(stack, stack)):  # then fail the bad rows alone
                bad = ~np.isfinite(stack.reshape(len(stack), -1)).all(axis=1)
                stack[bad] = 0
                for b in bounds[p] + np.flatnonzero(bad):
                    blowups[b] = blowups[b] or NumericalBlowup(
                        f"evolution of branch {labels[b]!r} blew up at step {k}")

    with ThreadPoolExecutor(max(1, n_parts - 1)) as pool:  # no thread starts before a submit
        for done, last in zip([0, *snapshot_steps], snapshot_steps):
            others = [pool.submit(run, p, done, last) for p in range(1, n_parts)]
            try:
                run(0, done, last)
            finally:
                wait(others)
            for future in others:  # raises the first error in input order
                future.result()
            if last == snapshot_steps[-1]:  # stepped no further: its rows may be kept
                for stack, *_ in parts:
                    stack.flags.writeable = False
            if not consume(last * config.dt, rows, blowups):
                break
    return blowups


def energy_expectation(psi: WaveFunction, potential: Potential, mass: float) -> float:
    """Expectation of the discretized Hamiltonian (spectral kinetic + V)."""
    values = _check_compatible(psi, potential)
    k2 = _squared_wavenumbers(psi.grid)
    kin_amps = np.fft.ifftn(0.5 * k2 / mass * np.fft.fftn(psi.amplitudes))
    kinetic = np.vdot(psi.amplitudes, kin_amps).real * psi.grid.cell_volume
    pot = float(np.sum(values * psi.probability_density()) * psi.grid.cell_volume)
    return float(kinetic + pot)
