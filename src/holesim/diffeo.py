"""Time-ramped spatial diffeomorphisms and the transformation of
wavefunctions and potentials under them.

Maps are parametric families x'(x, t) with analytic Jacobians: a global
translation ramp and a compactly supported bump displacement, both gated
by a smoothstep ramp that is exactly the identity for t <= t0 and frozen
for t >= t1. Wavefunctions transform as square roots of densities,
psi'(y) = psi(phi^-1(y)) |det J|^(-1/2), the unique weight that keeps the
map unitary; scalar potentials transform by composition V' = V o phi^-1.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DomainError, NonInvertibleDiffeo, NormViolation
from .evolve import Potential
from .grid import Grid, WaveFunction, _as_tuple, norm, spectral_sample

__all__ = [
    "SpatialDiffeomorphism",
    "identity_map",
    "make_translation_ramp",
    "make_bump_displacement",
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


class SpatialDiffeomorphism:
    """Invertible, orientation-preserving map x'(x, t), trivial for t <= t0.

    Instances are immutable; use the module factory functions to build
    them. Points are passed as arrays of shape (P, dim).
    """

    __slots__ = ("kind", "dim", "t0", "t1", "shift", "center", "radius",
                 "peak_shift", "_contraction")

    def __init__(self, kind, dim, t0, t1, shift=None, center=None, radius=None,
                 peak_shift=None, contraction=0.0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "peak_shift", peak_shift)
        object.__setattr__(self, "_contraction", contraction)

    def __setattr__(self, name, value):
        raise AttributeError("SpatialDiffeomorphism is immutable")

    def __repr__(self):
        return f"SpatialDiffeomorphism(kind={self.kind!r}, dim={self.dim})"

    def ramp(self, t: float) -> float:
        if self.kind == "identity":
            return 0.0
        return float(_smoothstep(t, self.t0, self.t1))

    def is_identity_at(self, t: float) -> bool:
        if self.kind == "identity":
            return True
        if self.ramp(t) == 0.0:
            return True
        if self.kind == "translation_ramp":
            return not np.any(self.shift)
        return not np.any(self.peak_shift)

    def displacement_at(self, t: float) -> np.ndarray:
        """Current translation vector s(t)*shift (translation kind only)."""
        if self.kind != "translation_ramp":
            raise DomainError("displacement_at applies to translation ramps only")
        return self.ramp(t) * np.asarray(self.shift)

    def _bump_rho(self, points: np.ndarray) -> np.ndarray:
        delta = points - np.asarray(self.center)[None, :]
        return np.sqrt(np.sum(delta * delta, axis=1)) / self.radius

    def _bump_displacement(self, points: np.ndarray, t: float) -> np.ndarray:
        profile = self.ramp(t) * _bump_profile(self._bump_rho(points))
        return profile[:, None] * np.asarray(self.peak_shift)[None, :]

    def forward(self, points: np.ndarray, t: float) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "identity":
            return points.copy()
        if self.kind == "translation_ramp":
            return points + self.displacement_at(t)[None, :]
        return points + self._bump_displacement(points, t)

    def inverse(self, points: np.ndarray, t: float) -> np.ndarray:
        """Preimages under the map at time t.

        Translations invert in closed form; bumps by damped fixed-point
        iteration, converging since the displacement is a contraction.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "identity":
            return points.copy()
        if self.kind == "translation_ramp":
            return points - self.displacement_at(t)[None, :]
        q = self.ramp(t) * self._contraction
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
        if self.kind in ("identity", "translation_ramp"):
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
    return SpatialDiffeomorphism("identity", dim, 0.0, 1.0)


def make_translation_ramp(shift, t0: float, t1: float,
                          extent=None) -> SpatialDiffeomorphism:
    """x'(x,t) = x + s(t)*shift with smoothstep s; Jacobian identically 1.

    If the domain extent is given, each shift component must stay below
    half of it, keeping displaced regions clear of the periodic wrap.
    """
    shift = np.asarray(_as_tuple(shift), dtype=float)
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


def _grid_points(grid: Grid) -> np.ndarray:
    mesh = grid.coordinate_mesh()
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _aligned_cells(offset: np.ndarray, grid: Grid) -> tuple[int, ...] | None:
    """Integer cell counts if the offset is grid-aligned on every axis."""
    cells = []
    for off, dx in zip(offset, grid.spacing):
        n = round(off / dx)
        if abs(off - n * dx) > _GRID_ALIGN_TOL * dx:
            return None
        cells.append(int(n))
    return tuple(cells)


def _fourier_shift(values: np.ndarray, grid: Grid, shift: np.ndarray) -> np.ndarray:
    """values(x - shift) on the grid points, through the shift theorem:
    the same band-limited interpolant that spectral_sample evaluates."""
    phase = np.ones((1,) * grid.dim, dtype=complex)
    for axis, (k, s) in enumerate(zip(grid.wavenumbers(), shift)):
        shape = [1] * grid.dim
        shape[axis] = k.size
        phase = phase * np.exp(-1j * k * s).reshape(shape)
    return np.fft.ifftn(np.fft.fftn(values) * phase)


def _push_moved_points(psi: WaveFunction, phi: SpatialDiffeomorphism,
                       t: float) -> np.ndarray:
    """Bump pushforward evaluated only on the targets inside the open ball
    |x - center| < radius. The map is a bijection of that ball onto itself
    and the identity outside it, so every other target keeps its amplitude
    with weight 1. The ball test uses the radius ratio that the bump
    profile is computed from, so each excluded target has a displacement
    of exactly zero and a Jacobian determinant of exactly one."""
    targets = _grid_points(psi.grid)
    moved = phi._bump_rho(targets) < 1.0
    preimages = phi.inverse(targets[moved], t)
    weights = np.abs(phi.jacobian_det(preimages, t)) ** -0.5
    amps = psi.amplitudes.flatten()
    amps[moved] = spectral_sample(psi.grid, psi.amplitudes, preimages) * weights
    return amps.reshape(psi.grid.shape)


def pushforward_wavefunction(psi: WaveFunction, phi: SpatialDiffeomorphism,
                             t: float, renormalize: bool = True) -> WaveFunction:
    """Transform a normalized wavefunction as a square root of a density.

    The identity map returns the input unchanged. Grid-aligned
    translations reduce to exact circular shifts, other translations to a
    Fourier shift, and bump maps sample psi through the spectral
    interpolant at the preimages of the grid points the map moves. The
    pre-renormalization norm must stay within 1e-6 of one; the drift is
    logged and, by default, divided out.
    """
    if phi.dim != psi.grid.dim:
        raise DomainError(f"map dim {phi.dim} does not match grid dim {psi.grid.dim}")
    if phi.is_identity_at(t):
        return psi
    input_drift = abs(norm(psi) - 1.0)
    if input_drift > PUSHFORWARD_NORM_TOL:
        raise NormViolation(f"input norm drift {input_drift:.3e}; normalize first")
    if phi.kind == "translation_ramp":
        shift = phi.displacement_at(t)
        cells = _aligned_cells(shift, psi.grid)
        if cells is not None:
            amps = np.roll(psi.amplitudes, cells, axis=tuple(range(psi.grid.dim)))
            return WaveFunction(psi.grid, amps, psi.label)
        amps = _fourier_shift(psi.amplitudes, psi.grid, shift)
    else:
        amps = _push_moved_points(psi, phi, t)
    pushed = WaveFunction(psi.grid, amps, psi.label)
    drift = norm(pushed) - 1.0
    if abs(drift) > PUSHFORWARD_NORM_TOL:
        raise NormViolation(
            f"pushforward norm drift {drift:.3e} exceeds {PUSHFORWARD_NORM_TOL:.0e};"
            " state not resolved enough for the map"
        )
    log.debug("pushforward norm drift %.3e at t=%s", drift, t)
    if renormalize:
        return WaveFunction(psi.grid, pushed.amplitudes / (1.0 + drift), psi.label)
    return pushed


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
        moved = np.asarray(potential.source_position) + phi.displacement_at(t)
        extent = np.asarray(potential.grid.extent)
        moved = (moved + 0.5 * extent) % extent - 0.5 * extent
        return Potential.point_mass(potential.grid, tuple(moved),
                                    potential.coupling, potential.softening)
    targets = _grid_points(potential.grid)
    preimages = phi.inverse(targets, t)
    values = potential.evaluate_at(preimages).reshape(potential.grid.shape)
    return Potential.tabulated(potential.grid, values)
