"""Time-ramped spatial diffeomorphisms and the transformation of
wavefunctions and potentials under them.

Maps are parametric families x'(x, t) with analytic Jacobians: a global
translation ramp and a compactly supported bump displacement, both gated
by a smoothstep ramp that is exactly the identity for t <= t0 and frozen
for t >= t1. Wavefunctions transform as square roots of densities,
psi'(y) = psi(phi^-1(y)) |det J|^(-1/2), the unique weight that keeps the
map unitary; scalar potentials transform by composition V' = V o phi^-1.

A PushforwardPlan does the map's share of a wavefunction pushforward once
and applies it to any number of states; a Fourier shift multiplies the
transform by its one factor per axis in place, and the plane-wave tables
it keeps for a bump are bounded by grid.SAMPLE_CHUNK_BYTES. A bump whose
peak shift has no last component keeps each preimage's grid coordinate on
the last axis, so its sampler contracts that axis over the few distinct
values only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch, NonInvertibleDiffeo, NormViolation, NumericalBlowup
from .evolve import Potential
# spectral_sample stays importable here: bench/layers.py wraps it by name.
from .grid import (Grid, SpectralSampler, WaveFunction, _as_tuple, _norm,  # noqa: F401
                   spectral_sample)

__all__ = [
    "SpatialDiffeomorphism",
    "identity_map",
    "make_translation_ramp",
    "make_bump_displacement",
    "PushforwardPlan",
    "pushforward_wavefunction",
    "pushforward_potential",
]

log = logging.getLogger(__name__)

# max |dB/drho| of the mollifier bump exp(1 - 1/(1-rho^2)), at rho^2 = 1/sqrt(3)
_BUMP_SLOPE_MAX = 2.1712

PUSHFORWARD_NORM_TOL = 1e-6
INVERSE_TOL = 1e-13
_GRID_ALIGN_TOL = 1e-9


def _smoothstep(t: np.ndarray | float, t0: float, t1: float):
    u = np.clip((np.asarray(t, dtype=float) - t0) / (t1 - t0), 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _bump_profile(rho: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-rho^2)) inside the unit ball, exactly zero outside."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho < 1.0
    r2 = rho[inside] ** 2
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2))
    return out


def _bump_slope(rho: np.ndarray) -> np.ndarray:
    """d/drho of the bump profile (zero outside the support)."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho < 1.0
    r = rho[inside]
    one_m = 1.0 - r * r
    out[inside] = np.exp(1.0 - 1.0 / one_m) * (-2.0 * r / one_m**2)
    return out


@dataclass(frozen=True, eq=False, repr=False)
class SpatialDiffeomorphism:
    """Invertible, orientation-preserving map x'(x, t), trivial for t <= t0.

    Instances are immutable; use the module factory functions to build
    them. Points are passed as arrays of shape (P, dim).
    """

    kind: str
    dim: int
    t0: float
    t1: float
    shift: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    peak_shift: np.ndarray | None = None
    contraction: float = 0.0

    def __repr__(self):
        return f"SpatialDiffeomorphism(kind={self.kind!r}, dim={self.dim})"

    def ramp(self, t: float) -> float:
        return float(_smoothstep(t, self.t0, self.t1))

    def is_identity_at(self, t: float) -> bool:
        """True when the ramp is still off or the map moves no point."""
        moves = self.shift if self.kind == "translation_ramp" else self.peak_shift
        return self.ramp(t) == 0.0 or not np.any(moves)

    def displacement_at(self, t: float) -> np.ndarray:
        """Current translation vector s(t)*shift (translation kind only)."""
        if self.kind != "translation_ramp":
            raise DomainError("displacement_at applies to translation ramps only")
        return self.ramp(t) * np.asarray(self.shift)

    def _bump_rho(self, coords) -> np.ndarray:
        """|x - center| / radius at one coordinate array per axis, broadcast
        against each other, the squares summed in axis order."""
        r2 = 0.0
        for x, c in zip(coords, self.center):
            r2 = r2 + (x - c) * (x - c)
        return np.divide(np.sqrt(r2, out=r2), self.radius, out=r2)

    def _bump_displacement(self, points: np.ndarray, t: float) -> np.ndarray:
        profile = self.ramp(t) * _bump_profile(self._bump_rho(points.T))
        return profile[:, None] * np.asarray(self.peak_shift)[None, :]

    def forward(self, points: np.ndarray, t: float) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "translation_ramp":
            return points + self.displacement_at(t)[None, :]
        return points + self._bump_displacement(points, t)

    def inverse(self, points: np.ndarray, t: float) -> np.ndarray:
        """Preimages under the map at time t.

        Translations invert in closed form; bumps by damped fixed-point
        iteration, converging since the displacement is a contraction.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "translation_ramp":
            return points - self.displacement_at(t)[None, :]
        q = self.ramp(t) * self.contraction
        if q >= 1.0:
            raise NonInvertibleDiffeo(f"contraction factor {q} >= 1")
        x = points.copy()
        max_iter = 50 + int(np.ceil(np.log(INVERSE_TOL) / np.log(max(q, 1e-3))))
        for _ in range(max_iter):
            x_next = points - self._bump_displacement(x, t)
            delta = np.max(np.abs(x_next - x))
            x = x_next
            if delta < INVERSE_TOL:
                return x
        raise NonInvertibleDiffeo(
            f"fixed-point inversion failed to reach {INVERSE_TOL:g} in {max_iter} iterations"
        )

    def jacobian_det(self, points: np.ndarray, t: float) -> np.ndarray:
        """det of the forward Jacobian at given points; analytic per kind."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "translation_ramp":
            return np.ones(points.shape[0])
        delta = points - np.asarray(self.center)[None, :]
        r = np.sqrt(np.sum(delta * delta, axis=1))
        rho = r / self.radius
        slope = _bump_slope(rho) / self.radius
        radial = np.zeros_like(r)
        ok = r > 0
        radial[ok] = np.sum(delta[ok] * np.asarray(self.peak_shift)[None, :], axis=1) / r[ok]
        # det(I + p (grad B)^T) = 1 + grad B . p  for a rank-one displacement
        return 1.0 + self.ramp(t) * slope * radial


def _validate_ramp(t0: float, t1: float) -> tuple[float, float]:
    t0, t1 = float(t0), float(t1)
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 < t1):
        raise DomainError(f"ramp needs t0 < t1, got [{t0}, {t1}]")
    return t0, t1


def identity_map(dim: int = 1) -> SpatialDiffeomorphism:
    """The trivial map: the zero translation, the identity at every t."""
    return make_translation_ramp((0.0,) * dim, 0.0, 1.0)


def make_translation_ramp(shift, t0: float, t1: float,
                          extent=None) -> SpatialDiffeomorphism:
    """x'(x,t) = x + s(t)*shift with smoothstep s; Jacobian identically 1.

    If the domain extent is given, each shift component must stay below
    half of it, keeping displaced regions clear of the periodic wrap.
    """
    shift = np.asarray(_as_tuple(shift), dtype=float)
    if not np.all(np.isfinite(shift)):
        raise DomainError(f"shift must be finite, got {tuple(shift.tolist())}")
    t0, t1 = _validate_ramp(t0, t1)
    if extent is not None:
        extent = _as_tuple(extent, n=len(shift))
        for s, L in zip(shift, extent):
            if abs(s) >= 0.5 * L:
                raise DomainError(f"shift component {s} exceeds half extent {L / 2}")
    return SpatialDiffeomorphism("translation_ramp", len(shift), t0, t1, shift=shift)


def make_bump_displacement(center, radius: float, peak_shift, t0: float,
                           t1: float) -> SpatialDiffeomorphism:
    """Compactly supported displacement peak_shift * B(|x-center|/radius).

    Invertibility needs |peak_shift| * max|B'| / radius < 1 (this also keeps
    the Jacobian determinant positive); the bound is checked analytically
    at construction and verified on a dense radial sample. The support ball
    must lie inside the (periodic) domain; distances are not wrapped.
    """
    center = np.asarray(_as_tuple(center), dtype=float)
    peak_shift = np.asarray(_as_tuple(peak_shift, n=len(center)), dtype=float)
    if not (np.all(np.isfinite(center)) and np.all(np.isfinite(peak_shift))):
        raise DomainError(f"center and peak_shift must be finite, got"
                          f" {tuple(center.tolist())} and {tuple(peak_shift.tolist())}")
    radius = float(radius)
    t0, t1 = _validate_ramp(t0, t1)
    if radius <= 0 or not np.isfinite(radius):
        raise DomainError(f"radius must be positive, got {radius}")
    magnitude = float(np.linalg.norm(peak_shift))
    contraction = magnitude * _BUMP_SLOPE_MAX / radius
    if contraction >= 1.0 - 1e-9:
        raise NonInvertibleDiffeo(
            f"displacement too steep: |peak| * max|B'| / radius = {contraction:.4f} >= 1"
        )
    phi = SpatialDiffeomorphism("bump_displacement", len(center), t0, t1,
                                center=center, radius=radius,
                                peak_shift=peak_shift, contraction=contraction)
    if magnitude > 0:
        # Dense sample along the worst (anti-parallel) radial line at full ramp.
        rho = np.linspace(0.0, 1.0, 4097)[:-1]
        direction = -peak_shift / magnitude
        pts = center[None, :] + (rho * radius)[:, None] * direction[None, :]
        dets = phi.jacobian_det(pts, t1)
        if np.min(dets) <= 0.0:
            raise NonInvertibleDiffeo(
                f"Jacobian determinant reaches {np.min(dets):.4e} on the support"
            )
    return phi


def _aligned_cells(offset: np.ndarray, grid: Grid) -> tuple[int, ...] | None:
    """Integer cell counts if the offset is grid-aligned on every axis."""
    cells = []
    for off, dx in zip(offset, grid.spacing):
        n = round(off / dx)
        if abs(off - n * dx) > _GRID_ALIGN_TOL * dx:
            return None
        cells.append(int(n))
    return tuple(cells)


class PushforwardPlan:
    """The pushforward by ``phi`` at time ``t`` on ``grid``, for any number
    of states. It holds what depends on the map alone: nothing for the
    identity, the cell counts of an aligned translation, the axis factors
    of any other's Fourier phase, and for a bump the moved targets, their
    weights and a sampler at their preimages."""

    def __init__(self, phi: SpatialDiffeomorphism, t: float, grid: Grid):
        if phi.dim != grid.dim:
            raise DomainError(f"map dim {phi.dim} does not match grid dim {grid.dim}")
        self.grid, self.ramp = grid, phi.ramp(t)
        self.identity = phi.is_identity_at(t)
        self.cells = self.phase = None
        if self.identity:
            return
        if phi.kind == "translation_ramp":
            shift = phi.displacement_at(t)
            self.cells = _aligned_cells(shift, grid)
            if self.cells is None:
                # psi(x - shift) by the shift theorem: spectral_sample's interpolant.
                # The phase is the product of one factor per axis, kept apart.
                self.phase = np.ix_(*(np.exp(-1j * k * s)
                                      for k, s in zip(grid.wavenumbers(), shift)))
        else:
            # The bump maps the open ball |x - center| < radius onto itself and
            # is the identity outside it. The test uses the radius ratio that
            # the profile is computed from, on the axes broadcast over the
            # grid: other targets keep weight one, and get no coordinates.
            inside = phi._bump_rho(np.ix_(*grid.axes())) < 1.0
            self.moved = inside.ravel()
            targets = np.stack([x[i] for x, i in zip(grid.axes(), np.nonzero(inside))], axis=-1)
            preimages = phi.inverse(targets, t)
            self.weights = np.abs(phi.jacobian_det(preimages, t)) ** -0.5
            self.sampler = SpectralSampler(grid, preimages)

    def pushed(self, amplitudes: np.ndarray) -> tuple[np.ndarray, float]:
        """A unit-norm state's ``amplitudes`` pushed, and their norm before
        division, checked to be finite and within PUSHFORWARD_NORM_TOL of one;
        the identity gives ``amplitudes`` themselves and 1.0. Every push but a
        roll, which moves the amplitudes unchanged, is divided by that norm."""
        if amplitudes.shape != self.grid.shape:
            raise GridMismatch(f"plan grid {self.grid} does not match shape {amplitudes.shape}")
        if self.identity:
            return amplitudes, 1.0
        input_drift = abs(_norm(amplitudes, self.grid.cell_volume) - 1.0)
        if input_drift > PUSHFORWARD_NORM_TOL:
            raise NormViolation(f"input norm drift {input_drift:.3e}; normalize first")
        if self.cells is not None:
            amps = np.roll(amplitudes, self.cells, axis=tuple(range(self.grid.dim)))
        elif self.phase is not None:
            amps = self._shifted(amplitudes)
        else:
            amps = amplitudes.flatten()
            amps[self.moved] = self.sampler(amplitudes) * self.weights
            amps = amps.reshape(self.grid.shape)
        size = _norm(amps, self.grid.cell_volume)
        if not np.isfinite(size):
            raise NumericalBlowup(f"pushforward at ramp {self.ramp} gives non-finite amplitudes")
        drift = size - 1.0
        if abs(drift) > PUSHFORWARD_NORM_TOL:
            raise NormViolation(
                f"pushforward norm drift {drift:.3e} exceeds {PUSHFORWARD_NORM_TOL:.0e};"
                " state not resolved enough for the map"
            )
        log.debug("pushforward norm drift %.3e at ramp %s", drift, self.ramp)
        if self.cells is None:
            amps /= size  # in place, with the bits of amps / (1 + drift): size - 1 is exact
        return amps, size

    def _shifted(self, amplitudes: np.ndarray) -> np.ndarray:
        """ifftn of fftn(amplitudes) times the phase, in one fresh array:
        the transform is multiplied by each axis factor in place, in axis
        order, so no full-grid phase is ever built."""
        amps = np.fft.fftn(amplitudes, out=np.empty_like(amplitudes))
        for factor in self.phase:
            amps *= factor
        return np.fft.ifftn(amps, out=amps)


def pushforward_wavefunction(psi: WaveFunction, phi: SpatialDiffeomorphism,
                             t: float) -> WaveFunction:
    """Transform a normalized wavefunction as a square root of a density.

    The identity map returns the input unchanged. Grid-aligned
    translations reduce to exact circular shifts, other translations to a
    Fourier shift, and bump maps sample psi through the spectral
    interpolant at the preimages of the grid points the map moves. The
    norm before division must stay within 1e-6 of one; the drift is
    logged and divided out of every push but a roll. To push several
    states by one map, build one :class:`PushforwardPlan` and push each
    state's amplitudes through it.
    """
    amps, _ = PushforwardPlan(phi, t, psi.grid).pushed(psi.amplitudes)
    return psi if amps is psi.amplitudes else WaveFunction._adopt(psi.grid, amps, psi.label)


def _moved_source(source, phi: SpatialDiffeomorphism, t: float, extent) -> tuple[float, ...]:
    """A point source under the translation ``phi`` at time t: shifted by
    the ramp's displacement, then wrapped into the box of ``extent``."""
    moved = np.asarray(source) + phi.displacement_at(t)
    extent = np.asarray(extent)
    return tuple(((moved + 0.5 * extent) % extent - 0.5 * extent).tolist())


def pushforward_potential(potential: Potential, phi: SpatialDiffeomorphism,
                          t: float) -> Potential:
    """Transform a scalar potential by composition, V'(y) = V(phi^-1(y)).

    Point-mass potentials under translations stay point-mass with the
    source moved (exact); all other combinations produce a tabulated
    potential from pointwise evaluation at the preimages.
    """
    if phi.dim != potential.grid.dim:
        raise DomainError(f"map dim {phi.dim} does not match grid dim {potential.grid.dim}")
    if phi.is_identity_at(t):
        return potential
    if potential.kind == "point_mass" and phi.kind == "translation_ramp":
        moved = _moved_source(potential.source_position, phi, t, potential.grid.extent)
        return Potential.point_mass(potential.grid, moved,
                                    potential.coupling, potential.softening)
    targets = np.stack([m.ravel() for m in potential.grid.coordinate_mesh()], axis=-1)
    preimages = phi.inverse(targets, t)
    values = potential.evaluate_at(preimages).reshape(potential.grid.shape)
    return Potential.tabulated(potential.grid, values)
