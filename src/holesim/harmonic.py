"""Finite-difference check of the harmonic coordinate condition on
sampled spacetime metrics.

For a Lorentzian metric g on a uniform (1+1)- or (3+1)-dimensional sample
grid, the residual field is the central-difference divergence of the
densitized inverse metric,

    R^nu = d_mu ( g^{mu nu} sqrt(-det g) ),

evaluated on interior points only (one boundary ring excluded). Constant
metrics give exactly zero; smooth non-harmonic perturbations converge to
the analytic divergence at second order in the spacing. This module is a
standalone verifier and does not couple to the quantum layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SignatureError

__all__ = [
    "MetricField",
    "minkowski_metric",
    "densitized_inverse",
    "field_divergence",
    "harmonic_residual",
    "ConvergenceReport",
    "convergence_order",
]

INVERSE_RESIDUAL_TOL = 1e-12
# Grid points whose inverse MetricField checks at once.
INVERSE_CHECK_POINTS = 4096
FLOOR_SCALE = 1e-11  # relative level below which residual errors count as roundoff


@dataclass(frozen=True, eq=False)
class MetricField:
    """Symmetric Lorentzian metric sampled on a uniform spacetime grid.

    ``components`` has shape (*grid_shape, D, D) with D = len(spacings)
    in {2, 4} and signature (-, +, ..., +). Symmetry must hold exactly;
    the inverse is computed at construction and must satisfy
    ||g g^-1 - I|| <= 1e-12 pointwise. A field holds two tensors, the
    components and their inverse, plus one determinant per point. A float
    array that is read-only and owns its data is kept as it is, since its
    owner has given up writing it; any other components are copied.
    """

    spacings: tuple[float, ...]
    components: np.ndarray

    def __post_init__(self):
        spacings = tuple(float(h) for h in self.spacings)
        object.__setattr__(self, "spacings", spacings)
        d = len(spacings)
        if d not in (2, 4):
            raise DomainError(f"spacetime dimension must be 1+1 or 3+1, got {d} axes")
        if any(h <= 0 or not np.isfinite(h) for h in spacings):
            raise DomainError(f"spacings must be positive, got {spacings}")
        g = np.asarray(self.components, dtype=float)
        if g is self.components and (g.flags.writeable or g.base is not None):
            g = g.copy()  # its caller can still write it
        if g.ndim != d + 2 or g.shape[-2:] != (d, d):
            raise DomainError(
                f"components must have shape (*grid, {d}, {d}), got {g.shape}"
            )
        if any(n < 3 for n in g.shape[:-2]):
            raise DomainError("need at least 3 samples per axis for interior points")
        if not np.isfinite(g).all():
            raise DomainError("non-finite metric components")
        if not np.array_equal(g, np.swapaxes(g, -1, -2)):
            raise DomainError("metric components must be exactly symmetric")
        dets = np.linalg.det(g)
        if np.any(dets >= 0):
            raise SignatureError("metric determinant must be negative everywhere")
        # Cauchy interlacing: with det < 0, a positive definite spatial block
        # leaves exactly one negative eigenvalue; otherwise count them. One
        # block of INVERSE_CHECK_POINTS points at a time.
        flat = g.reshape(-1, d, d)
        for start in range(0, len(flat), INVERSE_CHECK_POINTS):
            block = flat[start:start + INVERSE_CHECK_POINTS]
            try:
                np.linalg.cholesky(block[:, 1:, 1:])
            except np.linalg.LinAlgError:
                if np.any(np.sum(np.linalg.eigvalsh(block) < 0, axis=-1) != 1):
                    raise SignatureError(
                        "metric must have exactly one negative eigenvalue") from None
        inverse = np.linalg.inv(g)
        residual = _inverse_residual(flat, inverse.reshape(-1, d, d))
        if residual > INVERSE_RESIDUAL_TOL:
            raise DomainError(
                f"metric inverse residual {residual:.3e} exceeds {INVERSE_RESIDUAL_TOL:.0e}"
            )
        g.flags.writeable = False
        inverse.flags.writeable = False
        object.__setattr__(self, "components", g)
        object.__setattr__(self, "_inverse", inverse)
        object.__setattr__(self, "_dets", dets)

    @property
    def dim(self) -> int:
        return len(self.spacings)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.components.shape[:-2]

    @property
    def inverse(self) -> np.ndarray:
        return self._inverse


def _inverse_residual(g: np.ndarray, inverse: np.ndarray) -> float:
    """max |g g^-1 - I| over stacks of (D, D) matrices, formed in place one
    block of INVERSE_CHECK_POINTS matrices at a time, so the check holds no
    full-size temporary."""
    eye = np.eye(g.shape[-1])
    buffer = np.empty((min(len(g), INVERSE_CHECK_POINTS), *g.shape[1:]))
    residual = 0.0
    for start in range(0, len(g), INVERSE_CHECK_POINTS):
        rows = slice(start, start + INVERSE_CHECK_POINTS)
        block = np.matmul(g[rows], inverse[rows], out=buffer[:len(g[rows])])
        block -= eye
        residual = max(residual, float(np.abs(block, out=block).max()))
    return residual


def minkowski_metric(grid_shape, spacings) -> MetricField:
    """Flat metric diag(-1, +1, ..., +1) on the given sample grid."""
    spacings = tuple(float(h) for h in spacings)
    d = len(spacings)
    eta = np.diag([-1.0] + [1.0] * (d - 1))
    components = np.broadcast_to(eta, (*grid_shape, d, d)).copy()
    return MetricField(spacings, components)


def densitized_inverse(metric: MetricField) -> np.ndarray:
    """g^{mu nu} sqrt(-det g) per grid point, shape (*grid, D, D)."""
    weight = np.sqrt(-metric._dets)
    return metric.inverse * weight[..., None, None]


def _central_diff_interior(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    d = values.ndim
    up = [slice(1, -1)] * d
    down = [slice(1, -1)] * d
    up[axis] = slice(2, None)
    down[axis] = slice(None, -2)
    return (values[tuple(up)] - values[tuple(down)]) / (2.0 * spacing)


def _divergence(component, grid_shape, spacings) -> np.ndarray:
    """d_mu F^{mu nu} on interior points, from ``component(mu, nu)``, the
    (*grid) array of F^{mu nu}, asked for one component at a time."""
    d = len(spacings)
    out = np.zeros((*(n - 2 for n in grid_shape), d))
    for nu in range(d):
        for mu in range(d):
            out[..., nu] += _central_diff_interior(component(mu, nu), mu, spacings[mu])
    return out


def field_divergence(field: np.ndarray, spacings) -> np.ndarray:
    """Central-difference divergence d_mu F^{mu nu} on interior points.

    ``field`` has shape (*grid, D, D); the result has one value per free
    index nu on the interior grid, shape (*(n-2), D). Linear in the field,
    and exactly zero for constant fields.
    """
    field = np.asarray(field, dtype=float)
    spacings = tuple(float(h) for h in spacings)
    d = len(spacings)
    if field.ndim != d + 2 or field.shape[-2:] != (d, d):
        raise DomainError(f"field shape {field.shape} does not match {d} spacings")
    return _divergence(lambda mu, nu: field[..., mu, nu], field.shape[:-2], spacings)


def harmonic_residual(metric: MetricField) -> np.ndarray:
    """Residual of the harmonic coordinate condition, one value per
    interior point and free index: the divergence of densitized_inverse,
    bit for bit, with each densitized component formed as it is
    differenced, so no densitized tensor is held."""
    weight = np.sqrt(-metric._dets)
    return _divergence(lambda mu, nu: metric.inverse[..., mu, nu] * weight,
                       metric.grid_shape, metric.spacings)


@dataclass(frozen=True)
class ConvergenceReport:
    """Observed order between spacings h and h/2 against analytic truth.

    ``order`` is None when both errors sit at the numerical floor (the
    discretization is exact for the family, e.g. polynomial fields), in
    which case the note says so instead of reporting a meaningless ratio.
    """

    order: float | None
    error_coarse: float
    error_fine: float
    note: str


def convergence_order(
    family: Callable[[float], tuple[MetricField, np.ndarray]],
    h: float,
) -> ConvergenceReport:
    """Observed convergence order of the residual for a manufactured family.

    ``family(h)`` must return the sampled metric at spacing h together
    with the analytic residual evaluated on the same interior points.
    """
    metric_c, exact_c = family(h)
    metric_f, exact_f = family(h / 2.0)
    num_c = harmonic_residual(metric_c)
    num_f = harmonic_residual(metric_f)
    if num_c.shape != np.shape(exact_c) or num_f.shape != np.shape(exact_f):
        raise DomainError("analytic residual shape does not match the interior grid")
    err_c = float(np.max(np.abs(num_c - exact_c)))
    err_f = float(np.max(np.abs(num_f - exact_f)))
    scale = max(float(np.max(np.abs(num_c))), float(np.max(np.abs(exact_c))), 1.0)
    floor = FLOOR_SCALE * scale
    if err_c <= floor and err_f <= floor:
        return ConvergenceReport(
            None, err_c, err_f,
            "residual errors at numerical floor; order test skipped",
        )
    if err_f == 0.0:
        return ConvergenceReport(None, err_c, err_f, "fine error is exactly zero")
    return ConvergenceReport(
        float(np.log2(err_c / err_f)), err_c, err_f, "observed order between h and h/2"
    )
