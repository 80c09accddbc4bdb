"""Form sampling, the polar-unitary identification, projector pullback,
and the commutation structure of the recovered position measurement."""

import numpy as np
import pytest

from holesim import (
    BackgroundMap,
    DegenerateForm,
    DomainError,
    FormSample,
    Grid,
    GridMismatch,
    InvalidMeasure,
    commutation_check,
    coordinate_projectors,
    inner_product,
    localized_basis,
    pull_back_position_measure,
    recover_background,
    riesz_isomorphism,
    sample_form,
    translate_basis,
)
from holesim.background_recover import _check_pvm, localization_index
from oracles import haar_unitary, pvm_error_all_pairs

GRID = Grid(256, 40.0)


def make_sample(matrix):
    """Wrap a hand-built form matrix with a shared localized basis."""
    n = matrix.shape[0]
    basis = localized_basis(GRID, n)
    return FormSample(basis, basis, matrix, float(np.linalg.cond(matrix)))


def test_localized_basis_orthonormal():
    basis = localized_basis(GRID, 16)
    gram = np.array([[inner_product(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(16))) < 1e-14


def test_sample_form_identity_physics():
    basis = localized_basis(GRID, 8)
    sample = sample_form(basis, basis, inner_product)
    assert np.max(np.abs(sample.matrix - np.eye(8))) < 1e-8
    assert sample.condition_number == pytest.approx(1.0, abs=1e-10)


def test_sample_form_translated_basis_is_cyclic_permutation():
    n, cells = 8, 96  # stride 32, index shift 3
    basis_g = localized_basis(GRID, n)
    basis_eta = translate_basis(basis_g, cells)
    sample = sample_form(basis_g, basis_eta, inner_product)
    shift = cells // (GRID.shape[0] // n)
    expected = np.zeros((n, n))
    for j in range(n):
        expected[(j + shift) % n, j] = 1.0
    assert np.max(np.abs(sample.matrix - expected)) < 1e-8


def test_sample_form_rank_deficient_rejected():
    basis = localized_basis(GRID, 4)
    with pytest.raises(DegenerateForm):
        sample_form(basis, basis, lambda e, f: 1.0)


def test_sample_form_requires_orthonormal_bases():
    basis = localized_basis(GRID, 4)
    skewed = (basis[0], basis[0], basis[2], basis[3])
    with pytest.raises(DomainError):
        sample_form(skewed, basis, inner_product)


def _form_bases(name, rng):
    """(branch, reference) bases of 16 elements on GRID: localized on both
    sides, translated, translated on a second Grid object equal to GRID,
    evolved as the CLI's evolved oracle evolves them, or the reference
    basis rotated by a random unitary."""
    from holesim import EvolutionConfig, Potential, WaveFunction, evolve_branches

    basis = localized_basis(GRID, 16)
    moved = translate_basis(basis, 48)
    if name == "localized":
        return basis, basis
    if name == "translated":
        return basis, moved
    if name == "equal_grids":
        return basis, translate_basis(localized_basis(Grid(256, 40.0), 16), 48)
    if name == "evolved":
        evo = EvolutionConfig(dt=0.02, t_end=0.2, mass=4.0, snapshot_stride=10**9)
        branch = Potential.point_mass(GRID, -2.5, 0.1, 1.0)
        free = Potential.tabulated(GRID, np.zeros(GRID.shape))
        return ([t.final_state for t in evolve_branches(basis, [branch] * 16, evo)],
                [t.final_state for t in evolve_branches(moved, [free] * 16, evo)])
    rows = haar_unitary(16, rng) @ np.stack([psi.amplitudes for psi in moved])
    return basis, [WaveFunction(GRID, row, f"rotated_{i}") for i, row in enumerate(rows)]


FORM_BASES = ("localized", "translated", "equal_grids", "evolved", "rotated")


@pytest.mark.parametrize("name", FORM_BASES)
def test_stacked_form_has_the_bits_of_the_oracle_matrix(name, rng):
    """The form of the inner product holds, bit for bit, its value on each
    pair, also when the two bases are built on equal but distinct grids."""
    basis_g, basis_eta = _form_bases(name, rng)
    expected = np.array([[complex(inner_product(e, f)) for f in basis_eta] for e in basis_g])
    assert np.array_equal(sample_form(basis_g, basis_eta, inner_product).matrix, expected)


@pytest.mark.parametrize("name", FORM_BASES)
def test_wrapped_oracle_is_called_per_pair(name, rng):
    """An oracle that wraps the inner product, as a call counter does, is
    called once per pair and gives the inner product's matrix."""
    basis_g, basis_eta = _form_bases(name, rng)
    calls = []

    def counted(e, f):
        calls.append(1)
        return inner_product(e, f)

    wrapped = sample_form(basis_g, basis_eta, counted)
    assert len(calls) == 16 ** 2
    assert np.array_equal(wrapped.matrix, sample_form(basis_g, basis_eta, inner_product).matrix)


def test_stacked_form_refuses_bases_on_different_grids():
    other = localized_basis(Grid(256, 20.0), 4)
    with pytest.raises(GridMismatch):
        sample_form(localized_basis(GRID, 4), other, inner_product)


def test_riesz_identity():
    background = riesz_isomorphism(make_sample(np.eye(8, dtype=complex)))
    assert np.max(np.abs(background.unitary - np.eye(8))) < 1e-12


def test_riesz_permutation():
    perm = np.roll(np.eye(8, dtype=complex), 3, axis=0)
    background = riesz_isomorphism(make_sample(perm))
    assert np.max(np.abs(background.unitary - perm)) < 1e-12


def test_riesz_scaled_unitary(rng):
    v = haar_unitary(8, rng)
    background = riesz_isomorphism(make_sample(1.7 * v))
    assert np.max(np.abs(background.unitary - v)) < 1e-10


def test_riesz_condition_guard():
    bad = np.diag(np.concatenate([np.ones(7), [1e-9]])).astype(complex)
    sample = make_sample(bad)
    with pytest.raises(DegenerateForm):
        riesz_isomorphism(sample)


def test_pull_back_identity_returns_inputs():
    background = riesz_isomorphism(make_sample(np.eye(4, dtype=complex)))
    projectors = coordinate_projectors(4)
    recovered = pull_back_position_measure(background, projectors)
    for p, q in zip(recovered, projectors):
        assert np.max(np.abs(p - q)) < 1e-12


def test_pull_back_permutation_relabels():
    perm = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    background = riesz_isomorphism(make_sample(perm))
    recovered = pull_back_position_measure(background, coordinate_projectors(4))
    for j, p in enumerate(recovered):
        assert localization_index(p) == (j + 1) % 4


def test_planted_translation_recovery_exact():
    """n = 32 localized states, 24-cell translation: every recovered
    projector localizes at the translated grid cell (exact index match)."""
    n, cells = 32, 24
    stride = GRID.shape[0] // n
    basis_g = localized_basis(GRID, n)
    basis_eta = translate_basis(basis_g, cells)
    sample = sample_form(basis_g, basis_eta, inner_product)
    background = recover_background(sample)
    assert background.recovered_projectors is not None
    shift = cells // stride
    for j, p in enumerate(background.recovered_projectors):
        recovered_cell = localization_index(p) * stride
        planted_cell = (j * stride + cells) % GRID.shape[0]
        assert recovered_cell == planted_cell
        assert localization_index(p) == (j + shift) % n


def test_pvm_validation():
    background = riesz_isomorphism(make_sample(np.eye(4, dtype=complex)))
    good = coordinate_projectors(4)
    not_idempotent = (0.5 * good[0],) + good[1:]
    with pytest.raises(InvalidMeasure):
        pull_back_position_measure(background, not_idempotent)
    not_complete = good[:-1]
    with pytest.raises(InvalidMeasure):
        pull_back_position_measure(background, not_complete)
    overlapping = (good[0], good[0]) + good[2:]
    with pytest.raises(InvalidMeasure):
        pull_back_position_measure(background, overlapping)


def test_pvm_names_the_first_non_orthogonal_pair():
    """Rank-one projectors that are exact except for a 1e-6 overlap
    between directions 1 and 2: the orthogonality check names that pair."""
    background = riesz_isomorphism(make_sample(np.eye(4, dtype=complex)))
    vectors = np.eye(4, dtype=complex)
    vectors[2] += 1e-6 * vectors[1]
    vectors[2] /= np.linalg.norm(vectors[2])
    tilted = tuple(np.outer(v, v.conj()) for v in vectors)
    with pytest.raises(InvalidMeasure, match=r"projectors 1 and 2 are not orthogonal"):
        pull_back_position_measure(background, tilted)


def block_sparse_pvm(n, rng):
    """Projectors onto random subspaces of random index blocks: a block's
    projectors share its indices, projectors of different blocks share none."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
    projectors = []
    for block in np.split(order, cuts):
        basis = haar_unitary(len(block), rng)
        for columns in np.array_split(np.arange(len(block)), min(2, len(block))):
            p = np.zeros((n, n), dtype=complex)
            p[np.ix_(block, block)] = basis[:, columns] @ basis[:, columns].conj().T
            projectors.append(p)
    return projectors


def dense_pvm(n, rng):
    """U Q_i U^dagger for the coordinate projectors Q_i: no zero entries."""
    u = haar_unitary(n, rng)
    return [u @ q @ u.conj().T for q in coordinate_projectors(n)]


def pvm_outcome(projectors):
    try:
        _check_pvm(tuple(projectors))
    except InvalidMeasure as exc:
        return str(exc)
    return None


def tilt(projectors, i, j, eps):
    """Projector j replaced by the projector onto its leading direction
    tilted by eps towards the leading direction of projector i."""
    out = list(projectors)
    a = np.linalg.eigh(out[i])[1][:, -1]
    b = np.linalg.eigh(out[j])[1][:, -1]
    v = b + eps * a
    out[j] = np.outer(v, v.conj()) / np.vdot(v, v).real
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("make", [block_sparse_pvm, dense_pvm], ids=["block_sparse", "dense"])
def test_pvm_check_matches_all_pairs_reference(make, seed):
    """The check that skips pairs with disjoint supports gives the outcome
    and message of the all-pairs check: on a valid PVM, and with one pair
    tilted towards each other, within a block, across blocks and below
    the tolerance."""
    rng = np.random.default_rng(seed)
    n = 12
    projectors = make(n, rng)
    assert pvm_outcome(projectors) is None
    assert pvm_error_all_pairs(projectors) is None
    for eps in (1e-3, 1e-12):
        i, j = sorted(rng.choice(len(projectors), size=2, replace=False))
        tilted = tilt(projectors, i, j, eps)
        expected = pvm_error_all_pairs(tilted)
        assert pvm_outcome(tilted) == expected
        if eps > 1e-10:
            assert expected is not None


def with_nan(p):
    p = p.copy()
    p[0, 1] = np.nan
    return p


# Each defect far above PROJECTOR_TOL. A skew term breaks idempotency too,
# and a NaN every later check, so the order of the checks decides the message.
DEFECTS = {
    "not_finite": with_nan,
    "bad_shape": lambda p: p[:-1],
    "not_hermitian": lambda p: p + 1e-3 * np.eye(len(p), k=1),
    "not_idempotent": lambda p: 0.5 * p,
}


@pytest.mark.parametrize("at, later_at", [(0, 11), (1, 2), (5, 9), (10, 11)])
@pytest.mark.parametrize("make", [lambda n, rng: list(coordinate_projectors(n)), dense_pvm],
                         ids=["coordinate", "dense"])
@pytest.mark.parametrize("first, later", [
    (("not_hermitian",), "not_finite"),
    (("not_finite",), "not_hermitian"),
    (("not_idempotent",), "bad_shape"),
    (("bad_shape",), "not_idempotent"),
    (("not_idempotent", "not_finite"), "not_hermitian"),
    (("not_idempotent", "bad_shape"), "not_finite"),
    (("not_finite", "bad_shape"), "not_idempotent"),
])
def test_pvm_check_names_the_first_defective_projector(make, first, later, at, later_at):
    """The check names what the all-pairs reference names: the first
    defective projector, by its first defect, with a later defect behind
    it. The defects sit at the first projector, whose shape sets n, at the
    first one checked against that n with a defect right behind it, in the
    middle, and at the last two."""
    n = 12
    projectors = make(n, np.random.default_rng(len(first)))
    for defect in first:
        projectors[at] = DEFECTS[defect](projectors[at])
    projectors[later_at] = DEFECTS[later](projectors[later_at])
    expected = pvm_error_all_pairs(projectors)
    assert expected.startswith(f"projector {at} ")
    assert pvm_outcome(projectors) == expected


@pytest.mark.parametrize("index", [0, 2])
def test_non_finite_projector_is_an_invalid_measure(index):
    """A NaN in a projector is refused by name before any other check, on
    both entry points, instead of escaping from the SVD."""
    background = recover_background(make_sample(np.eye(4, dtype=complex)))
    projectors = list(coordinate_projectors(4))
    projectors[index] = projectors[index].copy()
    projectors[index][1, 3] = np.nan
    message = f"projector {index} is not finite"
    with pytest.raises(InvalidMeasure, match=message):
        pull_back_position_measure(background, projectors)
    with pytest.raises(InvalidMeasure, match=message):
        commutation_check(background, projectors)


def test_commutation_identity_zero():
    sample = make_sample(np.eye(8, dtype=complex))
    background = recover_background(sample)
    assert commutation_check(background, coordinate_projectors(8)) <= 1e-12


def test_commutation_permutation_small():
    perm = np.roll(np.eye(8, dtype=complex), 5, axis=0)
    background = recover_background(make_sample(perm))
    assert commutation_check(background, coordinate_projectors(8)) <= 1e-10


def test_commutation_generic_unitary_large(rng):
    """A non-position-diagonal identification leaves order-one commutators:
    the vanishing depends on the product form of the sampled overlap."""
    u = haar_unitary(32, rng)
    background = recover_background(make_sample(u))
    assert commutation_check(background, coordinate_projectors(32)) > 0.1


def test_vacuum_change_covariance(rng):
    """Re-expressing the reference space through a known unitary W turns U
    into U W but leaves the recovered projectors unchanged to 1e-8."""
    n, cells = 8, 64
    basis_g = localized_basis(GRID, n)
    basis_eta = translate_basis(basis_g, cells)
    sample = sample_form(basis_g, basis_eta, inner_product)

    w = haar_unitary(n, rng)
    rotated = []
    for j in range(n):
        amps = sum(w[m, j] * basis_eta[m].amplitudes for m in range(n))
        from holesim import WaveFunction

        rotated.append(WaveFunction(GRID, amps, f"eta'{j}"))
    sample2 = sample_form(basis_g, tuple(rotated), inner_product)

    assert np.max(np.abs(sample2.matrix - sample.matrix @ w)) < 1e-10
    u1 = riesz_isomorphism(sample).unitary
    u2 = riesz_isomorphism(sample2).unitary
    assert np.max(np.abs(u2 - u1 @ w)) < 1e-8

    projectors = coordinate_projectors(n)
    rotated_projectors = tuple(w.conj().T @ q @ w for q in projectors)
    first = pull_back_position_measure(riesz_isomorphism(sample), projectors)
    second = pull_back_position_measure(riesz_isomorphism(sample2), rotated_projectors)
    worst = max(np.max(np.abs(p1 - p2)) for p1, p2 in zip(first, second))
    assert worst <= 1e-8


def test_polar_stability(rng):
    """Spectral-norm 1e-6 perturbations move the polar factor by <= 1e-4
    while the form is well conditioned (sigma_max = 1, cond <= 100)."""
    cases = []
    cases.append(np.roll(np.eye(16, dtype=complex), 4, axis=0))  # cond 1
    u0, v0 = haar_unitary(16, rng), haar_unitary(16, rng)
    singulars = np.linspace(1.0, 0.02, 16)  # cond 50
    cases.append(u0 @ np.diag(singulars) @ v0.conj().T)
    for matrix in cases:
        base = riesz_isomorphism(make_sample(matrix)).unitary
        for _ in range(5):
            delta = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            delta *= 1e-6 / np.linalg.norm(delta, 2)
            perturbed = riesz_isomorphism(make_sample(matrix + delta)).unitary
            assert np.linalg.norm(perturbed - base, 2) <= 1e-4


def test_background_map_requires_unitary():
    with pytest.raises(DomainError):
        BackgroundMap(np.diag([1.0, 0.5]).astype(complex), 1.0)
