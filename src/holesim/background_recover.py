"""Reconstruction of a shared background from observable overlap data.

Sampling the decoherence observable over orthonormal bases of two branch
Hilbert spaces gives a matrix B[i][j] = theta(e_i, f_j). Its polar-unitary
part is the canonical isomorphism between the spaces (the raw Riesz map of
a non-unitary B would not carry orthogonal projectors to orthogonal
projectors); conjugating a position measurement through it pulls the
measurement from the reference space onto the branch space, identifying
"the same point" in both. With position-localized bases and a planted
translation between them, B is a permutation and the recovered projectors
localize exactly at the translated cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateForm, DomainError, GridMismatch, InvalidMeasure
# inner_product stays importable here: bench/layers.py wraps it by name.
from .grid import Grid, WaveFunction, inner_product  # noqa: F401

__all__ = [
    "FormSample",
    "BackgroundMap",
    "sample_form",
    "riesz_isomorphism",
    "pull_back_position_measure",
    "recover_background",
    "commutation_check",
    "localized_basis",
    "translate_basis",
    "coordinate_projectors",
    "localization_index",
]

CONDITION_LIMIT = 1e8       # operational meaning of "non-degenerate"
ORTHONORMALITY_TOL = 1e-10
PROJECTOR_TOL = 1e-10


def _check_orthonormal(basis: tuple[WaveFunction, ...], name: str) -> None:
    grid = basis[0].grid
    for psi in basis:
        if psi.grid != grid:
            raise GridMismatch(f"{name} basis elements live on different grids")
    # gram[i, j] = inner_product(basis[i], basis[j]), antilinear in the first.
    amps = np.stack([psi.amplitudes.ravel() for psi in basis])
    gram = (amps.conj() @ amps.T) * grid.cell_volume
    if np.max(np.abs(gram - np.eye(len(basis)))) > ORTHONORMALITY_TOL:
        raise DomainError(
            f"{name} basis is not orthonormal to {ORTHONORMALITY_TOL:.0e}"
        )


@dataclass(frozen=True, eq=False)
class FormSample:
    """Sampled sesquilinear form over a pair of orthonormal bases, checked
    to be finite and non-degenerate: its condition number is at most
    CONDITION_LIMIT."""

    basis_g: tuple[WaveFunction, ...]
    basis_eta: tuple[WaveFunction, ...]
    matrix: np.ndarray
    condition_number: float = field(init=False)

    def __post_init__(self):
        n = len(self.basis_g)
        if n < 2 or len(self.basis_eta) != n:
            raise DomainError("need two equal-size bases with n >= 2")
        _check_orthonormal(self.basis_g, "branch")
        _check_orthonormal(self.basis_eta, "reference")
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.shape != (n, n):
            raise DomainError(f"form matrix shape {m.shape}, expected ({n}, {n})")
        if not np.isfinite(m.view(np.float64)).all():
            raise DegenerateForm("form oracle produced non-finite entries")
        largest, smallest = np.linalg.svd(m, compute_uv=False)[[0, -1]]
        if smallest == 0 or largest > smallest * CONDITION_LIMIT:  # no quotient that overflows
            raise DegenerateForm(f"form condition number {largest:.3e} / {smallest:.3e}"
                                 f" exceeds {CONDITION_LIMIT:.0e}")
        condition = float(largest / smallest)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "condition_number", condition)

    @property
    def n(self) -> int:
        return len(self.basis_g)


@dataclass(frozen=True, eq=False)
class BackgroundMap:
    """Polar-unitary identification between branch spaces, plus the
    position measurement pulled back through it once recovered."""

    unitary: np.ndarray
    condition_number: float
    recovered_projectors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        u = np.array(self.unitary, dtype=np.complex128, copy=True)
        n = u.shape[0]
        if u.shape != (n, n):
            raise DomainError(f"unitary must be square, got {u.shape}")
        if np.max(np.abs(u @ u.conj().T - np.eye(n))) > 1e-10:
            raise DomainError("map is not unitary to 1e-10")
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)


def sample_form(basis_g, basis_eta, form_oracle) -> FormSample:
    """Fill B[i][j] = oracle(e_i, f_j) over the two bases.

    The oracle is any callable mapping a (branch, reference) state pair to
    a complex number: the measured observable for evolved branches, the
    plain inner product for static tests. FormSample checks the result:
    both bases orthonormal, every entry finite, and the condition number
    at most CONDITION_LIMIT, since a degenerate form cannot identify the
    spaces.
    """
    basis_g = tuple(basis_g)
    basis_eta = tuple(basis_eta)
    matrix = [[complex(form_oracle(e, f)) for f in basis_eta] for e in basis_g]
    return FormSample(basis_g, basis_eta, matrix)


def riesz_isomorphism(sample: FormSample) -> BackgroundMap:
    """Polar-unitary part of the sampled form, B = U P with P >= 0.

    U is the unitary closest to B in least squares and the canonical
    point identification between the two spaces.
    """
    w, _, vh = np.linalg.svd(sample.matrix)
    return BackgroundMap(w @ vh, sample.condition_number)


def _check_pvm(projectors) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The projectors as complex arrays, once they are checked to form a
    projector-valued measure, and the indices each one's entries use (all
    its other entries are exactly zero)."""
    ps = tuple(np.asarray(p, dtype=np.complex128) for p in projectors)
    n = ps[0].shape[0]
    used_rows, used_columns = np.zeros((2, len(ps), n), dtype=bool)
    supports = []
    # Each projector is finite, (n, n), Hermitian and idempotent, checked in
    # that order, the last two on the indices its entries use; the first
    # failing projector is named by its first failing check.
    for i, p in enumerate(ps):
        if not np.isfinite(p).all():
            raise InvalidMeasure(f"projector {i} is not finite")
        if p.shape != (n, n):
            raise InvalidMeasure(f"projector {i} has shape {p.shape}, expected ({n}, {n})")
        nonzero = p != 0
        used_rows[i], used_columns[i] = nonzero.any(axis=1), nonzero.any(axis=0)
        used = np.flatnonzero(used_rows[i] | used_columns[i])
        supports.append(used)
        q = p[np.ix_(used, used)]
        if np.abs(q - q.conj().T).max(initial=0.0) > PROJECTOR_TOL:
            raise InvalidMeasure(f"projector {i} is not Hermitian")
        excess = q @ q - q  # its Frobenius norm bounds its spectral norm
        if np.linalg.norm(excess) > PROJECTOR_TOL and np.linalg.norm(excess, 2) > PROJECTOR_TOL:
            raise InvalidMeasure(f"projector {i} is not idempotent")
    stack = np.stack(ps)
    # One batched product per projector, with the pairs whose supports share
    # no index left out: their products are exactly zero.
    overlap = used_columns.astype(float) @ used_rows.T.astype(float) > 0
    for i in range(len(ps) - 1):
        js = i + 1 + np.flatnonzero(overlap[i, i + 1:])
        failing = np.linalg.norm(stack[i] @ stack[js], axis=(1, 2)) > PROJECTOR_TOL
        if failing.any():
            j = int(js[np.argmax(failing)])
            raise InvalidMeasure(f"projectors {i} and {j} are not orthogonal")
    if np.max(np.abs(stack.sum(axis=0) - np.eye(n))) > PROJECTOR_TOL:
        raise InvalidMeasure("projectors do not sum to the identity")
    return ps, tuple(supports)


def pull_back_position_measure(background: BackgroundMap,
                               eta_projectors) -> tuple[np.ndarray, ...]:
    """Carry a projector-valued measure from the reference space onto the
    branch space through the unitary identification, P_i = U Q_i U^dagger.

    (B maps reference coordinates to branch coordinates, so conjugating by
    its unitary part sends the projector for "reference position i" to the
    branch projector at the same identified point.)
    """
    qs, supports = _check_pvm(tuple(eta_projectors))
    u = background.unitary
    if qs[0].shape[0] != u.shape[0]:
        raise InvalidMeasure(
            f"projector dimension {qs[0].shape[0]} does not match map dimension {u.shape[0]}"
        )
    # Each product runs over the indices its projector uses: a coordinate
    # projector's is the outer product of one column of U with its conjugate.
    recovered = tuple(u[:, used] @ q[np.ix_(used, used)] @ u[:, used].conj().T
                      for q, used in zip(qs, supports))
    for p in recovered:
        p.flags.writeable = False
    return recovered


def recover_background(sample: FormSample,
                       eta_projectors=None) -> BackgroundMap:
    """riesz_isomorphism plus projector pullback in one step.

    Without explicit reference projectors, the coordinate projectors of
    the reference basis are used (each basis element is one outcome).
    """
    background = riesz_isomorphism(sample)
    if eta_projectors is None:
        eta_projectors = coordinate_projectors(sample.n)
    recovered = pull_back_position_measure(background, eta_projectors)
    return BackgroundMap(background.unitary, background.condition_number, recovered)


def commutation_check(background: BackgroundMap,
                      native_position_projectors) -> float:
    """Largest operator norm of [P_recovered, Q_native] over all pairs.

    Vanishes when the sampled form is diagonal or a permutation in a
    shared position basis; a generic rotation between the spaces leaves
    order-one commutators.
    """
    if background.recovered_projectors is None:
        raise InvalidMeasure("background map carries no recovered projectors")
    natives, _ = _check_pvm(tuple(native_position_projectors))
    if natives[0].shape[0] != background.unitary.shape[0]:
        raise InvalidMeasure("native projector dimension does not match the map")
    return max(float(np.linalg.norm(p @ q - q @ p, 2))
               for p in background.recovered_projectors for q in natives)


def localized_basis(grid: Grid, n: int) -> tuple[WaveFunction, ...]:
    """n one-cell states at evenly spaced cells of a 1D grid.

    Exactly orthonormal under the grid inner product; the i-th element
    occupies cell i * (points / n).
    """
    if grid.dim != 1:
        raise DomainError("localized bases are built on 1D grids")
    points = grid.shape[0]
    if n < 2 or points % n != 0:
        raise DomainError(f"basis size {n} must be >= 2 and divide {points}")
    stride = points // n
    amps = np.zeros((n, points), dtype=complex)
    amps[range(n), range(0, points, stride)] = 1.0 / np.sqrt(grid.cell_volume)
    return tuple(WaveFunction(grid, a, f"cell_{i * stride}") for i, a in enumerate(amps))


def translate_basis(basis, cells: int) -> tuple[WaveFunction, ...]:
    """Circularly shift every basis element by a whole number of cells."""
    return tuple(
        WaveFunction(psi.grid, np.roll(psi.amplitudes, cells), f"{psi.label}+{cells}")
        for psi in basis
    )


def coordinate_projectors(n: int) -> tuple[np.ndarray, ...]:
    """Rank-one projectors onto the n coordinate directions."""
    ps = np.zeros((n, n, n), dtype=complex)
    ps[range(n), range(n), range(n)] = 1.0
    ps.flags.writeable = False
    return tuple(ps)


def localization_index(projector: np.ndarray) -> int:
    """Basis index where a (near-)rank-one projector concentrates."""
    return int(np.argmax(np.diagonal(np.asarray(projector)).real))
