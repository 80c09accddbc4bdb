"""Uniform periodic grids, boxes and complex wavefunctions on them, and the
L2 inner product every observable in the package is built from.

Units are dimensionless simulation units with hbar = 1 and G = 1. Grids are
periodic in every axis with coordinates centered on the origin, x_j in
[-L/2, L/2), and a plain cell-volume-weighted sum as quadrature (exact
trapezoid rule on a periodic grid).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch, NumericalBlowup, ResolutionError, ZeroNormError

__all__ = [
    "Grid",
    "Region",
    "WaveFunction",
    "inner_product",
    "norm",
    "normalize",
    "check_packet_width",
    "gaussian_packet",
    "spectral_sample",
    "SpectralSampler",
]

# Tail mass threshold realizing "finite support" on a periodic domain:
# amplitudes must fall below this fraction of the peak at the boundary.
BOUNDARY_TAIL = 1e-12

# Bytes of temporaries spectral_sample holds at once: it evaluates its
# points in chunks of sample_point_bytes per point within this budget. A
# SpectralSampler keeps at most this many bytes of tables besides.
SAMPLE_CHUNK_BYTES = 32 * 2**20


def _as_tuple(value, n=None, cast=float):
    """Coerce a scalar or sequence to a tuple, broadcasting scalars to n."""
    if np.isscalar(value):
        return (cast(value),) * (n or 1)
    out = tuple(cast(v) for v in value)
    if n is not None and len(out) != n:
        raise ValueError(f"expected {n} components, got {len(out)}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: ``shape`` points per axis spanning ``extent``.

    Points per axis must be powers of two (unambiguous FFT frequency
    layout); dimension is 1, 2 or 3.
    """

    shape: tuple[int, ...]
    extent: tuple[float, ...]

    def __post_init__(self):
        if not all(n.is_integer() for n in _as_tuple(self.shape)):
            raise ValueError(f"points per axis must be whole numbers, got {self.shape}")
        shape = _as_tuple(self.shape, cast=int)
        extent = _as_tuple(self.extent, n=len(shape), cast=float)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "extent", extent)
        if not 1 <= len(shape) <= 3:
            raise ValueError(f"grid dimension must be 1, 2 or 3, got {len(shape)}")
        for n in shape:
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"points per axis must be a power of two >= 2, got {n}")
        for L in extent:
            if not (L > 0 and np.isfinite(L)):
                raise ValueError(f"extent must be positive and finite, got {L}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extent, self.shape))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def axes(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays, x_j = -L/2 + j*dx."""
        return _axes(self)

    def coordinate_mesh(self) -> tuple[np.ndarray, ...]:
        """Meshgrid ('ij' indexing) coordinate arrays, one per axis, built per call."""
        return tuple(np.meshgrid(*_axes(self), indexing="ij"))

    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Per-axis angular wavenumbers matching numpy's FFT layout."""
        return _wavenumbers(self)

    def minimal_image(self, delta: np.ndarray, axis: int) -> np.ndarray:
        """Wrap a coordinate difference into [-L/2, L/2) on one axis."""
        L = self.extent[axis]
        return (delta + 0.5 * L) % L - 0.5 * L


@functools.lru_cache(maxsize=64)
def _axes(grid: Grid) -> tuple[np.ndarray, ...]:
    out = []
    for n, L in zip(grid.shape, grid.extent):
        ax = -0.5 * L + (L / n) * np.arange(n)
        ax.flags.writeable = False
        out.append(ax)
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _wavenumbers(grid: Grid) -> tuple[np.ndarray, ...]:
    out = []
    for n, dx in zip(grid.shape, grid.spacing):
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
        k.flags.writeable = False
        out.append(k)
    return tuple(out)


@dataclass(frozen=True)
class Region:
    """Axis-aligned box on the periodic domain; may wrap around an edge."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lower = _as_tuple(self.lower)
        upper = _as_tuple(self.upper, n=len(lower))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        for lo, hi in zip(lower, upper):
            if not hi > lo:
                raise DomainError(f"region needs upper > lower, got [{lo}, {hi}]")

    def widths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def shifted(self, offset) -> "Region":
        offset = _as_tuple(offset, n=len(self.lower))
        return Region(
            tuple(lo + d for lo, d in zip(self.lower, offset)),
            tuple(hi + d for hi, d in zip(self.upper, offset)),
        )

    def mask(self, grid: Grid) -> np.ndarray:
        """Boolean membership over grid points, wrap-aware. Each axis is
        tested on its own coordinates, broadcast over the grid, so no
        coordinate mesh is built."""
        if len(self.lower) != grid.dim:
            raise DomainError(f"region dim {len(self.lower)} vs grid dim {grid.dim}")
        mask = np.ones(grid.shape, dtype=bool)
        for axis, x in enumerate(np.ix_(*grid.axes())):
            L = grid.extent[axis]
            width = self.upper[axis] - self.lower[axis]
            if width >= L:
                continue
            rel = (x - self.lower[axis]) % L
            mask &= rel <= width + 1e-12 * L
        return mask


class WaveFunction:
    """Complex amplitude field on a grid, immutable after construction.

    Amplitudes carry units length^(-dim/2); no normalization is implied by
    the type itself (see :func:`normalize`).
    """

    __slots__ = ("grid", "amplitudes", "label")

    def __init__(self, grid: Grid, amplitudes: np.ndarray, label: str = ""):
        self._hold(grid, np.array(amplitudes, dtype=np.complex128, copy=True, order="C"), label)

    @classmethod
    def _adopt(cls, grid: Grid, amplitudes: np.ndarray, label: str = "") -> "WaveFunction":
        """The state on ``amplitudes`` itself: an array its caller has just
        computed and gives up. Checked and made read-only like a copy would
        be, but copied only if it is not C-ordered complex128."""
        psi = object.__new__(cls)
        psi._hold(grid, np.asarray(amplitudes, dtype=np.complex128, order="C"), label)
        return psi

    def _hold(self, grid: Grid, amps: np.ndarray, label: str) -> None:
        if amps.shape != grid.shape:
            raise GridMismatch(
                f"amplitude shape {amps.shape} does not match grid shape {grid.shape}"
            )
        if not np.isfinite(amps.view(np.float64)).all():
            raise NumericalBlowup(f"non-finite amplitudes in wavefunction {label!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "label", str(label))

    def __setattr__(self, name, value):
        raise AttributeError("WaveFunction is immutable")

    def __repr__(self):
        return f"WaveFunction(grid={self.grid.shape}, label={self.label!r})"

    def with_label(self, label: str) -> "WaveFunction":
        """The same state under another label; shares the read-only amplitudes."""
        return WaveFunction._adopt(self.grid, self.amplitudes, label)

    def probability_density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _require_same_grid(a: WaveFunction, b: WaveFunction) -> None:
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def inner_product(a: WaveFunction, b: WaveFunction) -> complex:
    """L2 inner product Sum conj(a)*b * cell_volume, antilinear in ``a``."""
    _require_same_grid(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes) * a.grid.cell_volume)


def norm(psi: WaveFunction) -> float:
    """L2 norm of a wavefunction."""
    return _norm(psi.amplitudes, psi.grid.cell_volume)


def _norm(amplitudes: np.ndarray, cell_volume: float) -> float:
    value = np.vdot(amplitudes, amplitudes).real * cell_volume
    return float(np.sqrt(max(value, 0.0)))


def normalize(psi: WaveFunction) -> WaveFunction:
    """Rescale to unit L2 norm. Raises ZeroNormError on a zero field."""
    n = norm(psi)
    if n == 0.0:
        raise ZeroNormError(f"cannot normalize zero field {psi.label!r}")
    return WaveFunction._adopt(psi.grid, psi.amplitudes / n, psi.label)


def check_packet_width(grid: Grid, width) -> float:
    """The width as a float if a Gaussian packet of that width fits the
    grid: it resolves the grid (w >= 3*max spacing) and its envelope tail
    at half the extent of every axis is below BOUNDARY_TAIL of the peak.
    Raises ResolutionError otherwise."""
    width = float(width)
    if width <= 0:
        raise ResolutionError(f"width must be positive, got {width}")
    if width < 3.0 * max(grid.spacing):
        raise ResolutionError(
            f"width {width} under-resolved: need >= 3*spacing = {3.0 * max(grid.spacing)}"
        )
    half_min = 0.5 * min(grid.extent)
    tail = np.exp(-(half_min**2) / (4.0 * width**2))
    if tail > BOUNDARY_TAIL:
        raise ResolutionError(
            f"envelope tail {tail:.3e} at the domain boundary exceeds {BOUNDARY_TAIL:.0e}"
        )
    return width


def gaussian_packet(
    grid: Grid,
    center,
    width: float,
    momentum=None,
    label: str = "",
) -> WaveFunction:
    """Normalized Gaussian packet exp(-|x-c|^2/(4 w^2) + i p.x).

    The envelope uses minimal-image displacements, so shifting the center
    by a full extent reproduces the packet exactly. The width must pass
    :func:`check_packet_width`.
    """
    center = _as_tuple(center, n=grid.dim)
    momentum = (0.0,) * grid.dim if momentum is None else _as_tuple(momentum, n=grid.dim)
    width = check_packet_width(grid, width)

    # Per-axis 1D terms, broadcast over the grid and summed in axis order.
    r2 = phase = 0.0
    for axis, x in enumerate(np.ix_(*grid.axes())):
        d = grid.minimal_image(x - center[axis], axis)
        r2 = r2 + d * d
        phase = phase + momentum[axis] * x
    amps = np.exp(-r2 / (4.0 * width**2) + 1j * phase)
    return normalize(WaveFunction._adopt(grid, amps, label))


def spectral_sample(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a gridded field off-grid.

    ``points`` has shape (P, dim); the result is complex of shape (P,).
    The interpolant is the band-limited function whose FFT coefficients
    match the samples, evaluated exactly; it is periodic, so points need
    not be wrapped into the domain. Points are evaluated in chunks whose
    temporaries fit in SAMPLE_CHUNK_BYTES, by a SpectralSampler.
    """
    return SpectralSampler(grid, points)(values)


def sample_point_bytes(grid: Grid) -> int:
    """Bytes a SpectralSampler chunk holds per point: a complex row of each
    axis's table, an int64 index into the distinct last coordinates, and a
    complex column of the (N0, P) or (N0, N1, P) intermediate, which the
    partial over the distinct values and the block gathered from it share."""
    return 16 * (sum(grid.shape) + grid.size // grid.shape[-1]) + 8


class SpectralSampler:
    """:func:`spectral_sample` at fixed points, for any number of fields.
    Points go in chunks of at most SAMPLE_CHUNK_BYTES at sample_point_bytes
    each. Where at most half of a chunk's last coordinates are distinct (a
    bump that moves no point along the last axis keeps each preimage's grid
    coordinate there), the last axis is contracted over the distinct values
    only and each point gathers its column of that partial. The tables of
    the leading chunks are built once and kept while they total at most
    SAMPLE_CHUNK_BYTES, counted at a row of each axis per point; the other
    chunks build theirs per field. Each field is contracted on its own,
    chunk by chunk, so the bits are those of a lone spectral_sample."""

    def __init__(self, grid: Grid, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != grid.dim:
            raise GridMismatch(f"points have {points.shape[1]} components, grid dim is {grid.dim}")
        chunk = max(1, SAMPLE_CHUNK_BYTES // sample_point_bytes(grid))
        self.grid, self.points, self._chunks, budget = grid, points, [], SAMPLE_CHUNK_BYTES
        for start in range(0, len(points), chunk):
            part = slice(start, start + chunk)
            budget -= 16 * len(points[part]) * sum(grid.shape)
            self._chunks.append((part, self._tables(part) if budget >= 0 else None))

    def _tables(self, part: slice) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Per-axis plane-wave factors exp(i k (x - origin)), shape
        (P, N_axis), and None; or, if at most half of the last coordinates
        are distinct, the last axis's over the sorted distinct values, and
        each point's index into them."""
        *coords, last = self.points[part].T
        distinct, inverse = np.unique(last, return_inverse=True)
        if 2 * len(distinct) > len(last):
            distinct, inverse = last, None
        return [np.exp(1j * np.outer(x + 0.5 * L, k)) for x, L, k in
                zip((*coords, distinct), self.grid.extent, self.grid.wavenumbers())], inverse

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != self.grid.shape:
            raise GridMismatch(f"field shape {values.shape} does not match grid {self.grid.shape}")
        coeffs = np.fft.fftn(values) / values.size
        out = np.empty(len(self.points), dtype=complex)
        for part, tables in self._chunks:
            _contract(coeffs, *(tables or self._tables(part)), out[part])
        return out


def _contract(coeffs: np.ndarray, tables: list[np.ndarray], inverse: np.ndarray | None,
              out: np.ndarray) -> None:
    """The coefficients contracted with each axis's table into ``out``, the
    last axis first. With ``inverse`` the last table's rows are distinct
    coordinates, and the points gather their columns of the partial in
    blocks as long as the points exceed the distinct values, so the partial
    and a block hold at most one column per point."""
    *rest, last = tables
    if not rest:
        partial = last @ coeffs
        out[:] = partial if inverse is None else partial[inverse]
        return
    partial = np.tensordot(coeffs, last, axes=([-1], [1]))  # (N0, U) or (N0, N1, U)
    step = len(out) if inverse is None else len(out) - partial.shape[-1]
    for lo in range(0, len(out), step):
        block = slice(lo, lo + step)
        part = partial[..., block] if inverse is None else partial[..., inverse[block]]
        if len(rest) == 2:
            part = np.einsum("abp,pb->ap", part, rest[1][block])
        np.einsum("ap,pa->p", part, rest[0][block], out=out[block])
