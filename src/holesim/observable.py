"""The measurement layer: the complex decoherence observable theta, the
two-level reduced density matrix of the source particle, and the fringe
model that makes theta operationally measurable.

theta = <psi_l | psi_r> combines the remaining fringe visibility (|theta|)
with the interaction-induced phase shift (arg theta). The reduced density
matrix over the branch basis (|g_l>, |g_r>) is (1/2) [[1, conj(theta)],
[theta, 1]], with eigenvalues (1 +- |theta|)/2 and branch probabilities
pinned to 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NormViolation, UnderdeterminedFit
from .evolve import Trajectory
from .grid import WaveFunction, inner_product, norm

__all__ = [
    "DecoherenceObservable",
    "TwoLevelDensityMatrix",
    "FringePattern",
    "compute_theta",
    "theta_time_series",
    "density_matrix",
    "partial_trace",
    "interference_pattern",
    "estimate_theta",
]

MAGNITUDE_SLACK = 1e-9   # |theta| may exceed 1 by at most this before we flag drift
INPUT_NORM_TOL = 1e-8    # how un-normalized partial_trace inputs may be


@dataclass(frozen=True)
class DecoherenceObservable:
    """Complex theta = |theta| e^{i phi}; |theta| <= 1 up to numerical slack."""

    theta: complex

    def __post_init__(self):
        theta = complex(self.theta)
        object.__setattr__(self, "theta", theta)
        if not np.isfinite([theta.real, theta.imag]).all():
            raise NormViolation("theta is not finite")
        if abs(theta) > 1.0 + MAGNITUDE_SLACK:
            raise NormViolation(
                f"|theta| = {abs(theta)} exceeds 1 beyond slack {MAGNITUDE_SLACK:.0e};"
                " upstream states have drifted"
            )

    @property
    def magnitude(self) -> float:
        return abs(self.theta)

    @property
    def phase(self) -> float:
        return float(np.angle(self.theta))


@dataclass(frozen=True, eq=False)
class TwoLevelDensityMatrix:
    """2x2 Hermitian, trace-one, PSD matrix over the ordered branch basis."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128, copy=True)
        if m.shape != (2, 2):
            raise DomainError(f"expected a 2x2 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise DomainError("density matrix is not Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise DomainError(f"trace {np.trace(m)} is not 1 to 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -1e-12:
            raise DomainError("density matrix has an eigenvalue below -1e-12")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


@dataclass(frozen=True, eq=False)
class FringePattern:
    """Screen intensities I(x) sampled at positions, with fringe wavenumber."""

    screen_positions: np.ndarray
    intensities: np.ndarray
    wavenumber: float

    def __post_init__(self):
        x = np.array(self.screen_positions, dtype=float, copy=True)
        i = np.array(self.intensities, dtype=float, copy=True)
        if x.ndim != 1 or x.shape != i.shape:
            raise DomainError("positions and intensities must be equal-length 1D arrays")
        if self.wavenumber <= 0 or not np.isfinite(self.wavenumber):
            raise DomainError(f"wavenumber must be positive, got {self.wavenumber}")
        if np.min(i) < -1e-12:
            raise DomainError("intensities must be non-negative")
        np.clip(i, 0.0, None, out=i)
        x.flags.writeable = False
        i.flags.writeable = False
        object.__setattr__(self, "screen_positions", x)
        object.__setattr__(self, "intensities", i)
        object.__setattr__(self, "wavenumber", float(self.wavenumber))


def compute_theta(left: Trajectory, right: Trajectory, t: float) -> DecoherenceObservable:
    """theta at the snapshot nearest to t (no interpolation).

    Both trajectories must share a grid and must have snapshots at the
    same time; comparing branches sampled at different times is refused.
    """
    i, j = left.nearest_index(t), right.nearest_index(t)
    tl, tr = left.times[i], right.times[j]
    if abs(tl - tr) > 1e-9 * max(1.0, abs(tl), abs(tr)):
        raise DomainError(f"snapshot times differ: {tl} vs {tr}; align the strides")
    return DecoherenceObservable(inner_product(left.states[i], right.states[j]))


def theta_time_series(left: Trajectory, right: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """(times, theta) over all shared snapshots of two aligned trajectories."""
    if len(left.times) != len(right.times) or any(
        abs(a - b) > 1e-9 * max(1.0, abs(a)) for a, b in zip(left.times, right.times)
    ):
        raise DomainError("trajectories are not snapshot-aligned")
    thetas = np.array(
        [DecoherenceObservable(inner_product(a, b)).theta
         for a, b in zip(left.states, right.states)],
        dtype=complex,
    )
    return np.asarray(left.times, dtype=float), thetas


def density_matrix(theta: DecoherenceObservable | complex) -> TwoLevelDensityMatrix:
    """Reduced source-particle state for a given theta."""
    value = theta.theta if isinstance(theta, DecoherenceObservable) else complex(theta)
    if abs(value) > 1.0 + 1e-12:
        raise DomainError(f"|theta| = {abs(value)} > 1; no valid density matrix")
    return TwoLevelDensityMatrix(
        0.5 * np.array([[1.0, np.conj(value)], [value, 1.0]], dtype=complex)
    )


def partial_trace(left: WaveFunction, right: WaveFunction) -> TwoLevelDensityMatrix:
    """Reduced density matrix traced directly from the joint branch state.

    Computed from the raw inner products of the environment states, so it
    serves as an independent route to density_matrix(compute_theta(...)):
    the two must agree entrywise to 1e-12 for normalized inputs.
    """
    for name, psi in (("left", left), ("right", right)):
        drift = abs(norm(psi) - 1.0)
        if drift > INPUT_NORM_TOL:
            raise NormViolation(f"{name} branch norm drift {drift:.3e} exceeds {INPUT_NORM_TOL:.0e}")
    ll = inner_product(left, left)
    rr = inner_product(right, right)
    lr = inner_product(left, right)
    entries = 0.5 * np.array([[ll, np.conj(lr)], [lr, rr]], dtype=complex)
    # Hermitize away the O(eps) imaginary parts of the diagonal norms.
    entries = 0.5 * (entries + entries.conj().T)
    return TwoLevelDensityMatrix(entries)


def interference_pattern(theta: DecoherenceObservable | complex,
                         screen_positions: np.ndarray,
                         wavenumber: float) -> FringePattern:
    """Cosine fringe model I(x) = (1 + |theta| cos(k x + arg theta)) / 2.

    Visibility (I_max - I_min)/(I_max + I_min) over one period equals
    |theta| and the fringe offset equals arg theta; any phase-linear
    screen produces this form.
    """
    value = theta.theta if isinstance(theta, DecoherenceObservable) else complex(theta)
    if abs(value) > 1.0 + 1e-12:
        raise DomainError(f"|theta| = {abs(value)} > 1")
    if wavenumber <= 0:
        raise DomainError(f"wavenumber must be positive, got {wavenumber}")
    x = np.asarray(screen_positions, dtype=float)
    intensities = 0.5 * (1.0 + abs(value) * np.cos(wavenumber * x + np.angle(value)))
    return FringePattern(x, intensities, wavenumber)


def estimate_theta(pattern: FringePattern) -> DecoherenceObservable:
    """Recover theta from fringe intensities by least squares.

    Projects the intensities onto {1, cos(kx), sin(kx)}; needs at least
    two full periods of coverage and three samples per period on average.
    """
    x = pattern.screen_positions
    period = 2.0 * np.pi / pattern.wavenumber
    span = float(np.max(x) - np.min(x)) if x.size else 0.0
    if x.size < 3 or span < 2.0 * period or (x.size - 1) < 3.0 * span / period:
        raise UnderdeterminedFit(
            f"need >= 2 periods covered and >= 3 samples/period: span {span:.3g},"
            f" period {period:.3g}, {x.size} samples"
        )
    design = np.stack([np.ones_like(x), np.cos(pattern.wavenumber * x),
                       np.sin(pattern.wavenumber * x)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, pattern.intensities, rcond=None)
    _, b, c = coeffs
    # I = 1/2 + (|t|/2)(cos kx cos phi - sin kx sin phi)  =>  theta = 2(b - ic)
    return DecoherenceObservable(2.0 * (b - 1j * c))
