"""Diffeomorphism construction, inversion, and pushforward contracts."""

import numpy as np
import pytest

from holesim import (
    DomainError,
    Grid,
    NonInvertibleDiffeo,
    Potential,
    gaussian_packet,
    identity_map,
    inner_product,
    make_bump_displacement,
    make_translation_ramp,
    norm,
    pushforward_potential,
    pushforward_wavefunction,
)
from holesim import diffeo
from holesim.diffeo import _BUMP_SLOPE_MAX, _bump_slope
from holesim.grid import spectral_sample
from oracles import analytic_gaussian, pushforward_gaussian_direct, random_wavefunction

RAMP = dict(t0=0.0, t1=1.0)


def standard_bump():
    return make_bump_displacement(center=0.5, radius=4.0, peak_shift=0.8, **RAMP)


def test_zero_shift_is_identity():
    phi = make_translation_ramp(0.0, **RAMP)
    assert phi.is_identity_at(2.0)
    pts = np.array([[0.3], [-1.7]])
    assert np.array_equal(phi.forward(pts, 2.0), pts)


def test_ramp_gates_before_onset():
    phi = make_translation_ramp(5.0, t0=1.0, t1=2.0)
    pts = np.array([[0.0], [3.0]])
    assert np.array_equal(phi.forward(pts, 0.5), pts)
    assert np.array_equal(phi.forward(pts, 1.0), pts)
    assert phi.is_identity_at(1.0)
    assert not phi.is_identity_at(1.5)


def test_smoothstep_endpoints_and_midpoint():
    phi = make_translation_ramp(4.0, t0=0.0, t1=2.0)
    assert phi.ramp(-1.0) == 0.0
    assert phi.ramp(2.0) == 1.0
    assert phi.ramp(3.0) == 1.0
    assert phi.ramp(1.0) == pytest.approx(0.5)
    pts = np.array([[1.0]])
    assert phi.forward(pts, 5.0)[0, 0] == pytest.approx(5.0)
    assert np.all(phi.jacobian_det(pts, 5.0) == 1.0)


def test_translation_shift_bound():
    with pytest.raises(DomainError):
        make_translation_ramp(25.0, extent=40.0, **RAMP)
    make_translation_ramp(15.0, extent=40.0, **RAMP)


def test_bump_zero_peak_identity():
    phi = make_bump_displacement(0.0, 3.0, 0.0, **RAMP)
    assert phi.is_identity_at(2.0)


def test_bump_trivial_outside_support():
    phi = standard_bump()
    outside = np.array([[0.5 + 4.0], [0.5 - 5.5], [17.0]])
    assert np.array_equal(phi.forward(outside, 1.0), outside)
    assert np.all(phi.jacobian_det(outside, 1.0) == 1.0)


def test_bump_forward_inverse_residual(rng):
    phi = standard_bump()
    points = rng.uniform(-6.0, 7.0, size=(1000, 1))
    for t in (0.4, 1.0):
        roundtrip = phi.forward(phi.inverse(points, t), t)
        assert np.max(np.abs(roundtrip - points)) <= 1e-10


def test_bump_too_steep_rejected():
    # |peak| * max|B'| / radius >= 1
    with pytest.raises(NonInvertibleDiffeo):
        make_bump_displacement(0.0, 2.0, 1.0, **RAMP)


def test_bump_jacobian_positive_on_support():
    phi = standard_bump()
    line = np.linspace(0.5 - 4.0, 0.5 + 4.0, 2001).reshape(-1, 1)
    assert np.min(phi.jacobian_det(line, 1.0)) > 0.0


def test_bump_slope_constant_is_an_upper_bound():
    rho = np.linspace(0.0, 1.0, 200001)[:-1]
    sampled = np.max(np.abs(_bump_slope(rho)))
    assert sampled <= _BUMP_SLOPE_MAX
    assert sampled > 0.999 * _BUMP_SLOPE_MAX


def test_pushforward_identity_returns_same_object(grid1024):
    psi = gaussian_packet(grid1024, 0.0, 1.0)
    assert pushforward_wavefunction(psi, identity_map(1), 3.0) is psi


def test_pushforward_grid_aligned_translation_is_roll(grid1024):
    psi = gaussian_packet(grid1024, -1.0, 1.0, momentum=0.4)
    dx = grid1024.spacing[0]
    phi = make_translation_ramp(64 * dx, **RAMP)
    pushed = pushforward_wavefunction(psi, phi, 2.0)
    assert np.array_equal(pushed.amplitudes, np.roll(psi.amplitudes, 64))
    assert norm(pushed) == norm(psi)


def test_pushforward_offgrid_translation_matches_analytic(grid1024):
    psi = gaussian_packet(grid1024, 0.0, 1.0)
    shift = 1.2345  # deliberately not grid aligned
    phi = make_translation_ramp(shift, **RAMP)
    pushed = pushforward_wavefunction(psi, phi, 2.0)
    x = grid1024.axes()[0]
    expected = analytic_gaussian(x, shift, 1.0)
    assert np.max(np.abs(pushed.amplitudes - expected)) < 1e-10


def test_pushforward_bump_norm_and_overlap_against_fine_oracle(grid1024):
    """Spectral pushforward vs direct analytic evaluation on a 4x grid."""
    center, width = 0.0, 1.0
    psi = gaussian_packet(grid1024, center, width)
    phi = standard_bump()
    t = 1.0
    pushed_raw = pushforward_wavefunction(psi, phi, t, renormalize=False)
    assert abs(norm(pushed_raw) - 1.0) <= 1e-6

    fine = Grid(4096, 40.0)
    y = fine.axes()[0].reshape(-1, 1)
    oracle_vals = pushforward_gaussian_direct(y, phi, t, center, width)
    oracle_norm = np.sqrt(np.sum(np.abs(oracle_vals) ** 2) * fine.cell_volume)
    assert abs(oracle_norm - 1.0) <= 1e-6
    oracle_overlap = np.sum(
        np.conj(oracle_vals) * analytic_gaussian(y, center, width)
    ) * fine.cell_volume

    package_overlap = inner_product(pushed_raw, psi)
    assert abs(package_overlap - oracle_overlap) <= 1e-6
    assert abs(package_overlap) < 1.0  # the bump strictly deforms the state


def test_pushforward_unitarity_property(grid1024):
    psi = gaussian_packet(grid1024, -0.5, 1.1)
    maps = [
        make_translation_ramp(0.77, **RAMP),
        make_translation_ramp(-3.21, **RAMP),
        standard_bump(),
    ]
    for phi in maps:
        for t in (0.5, 1.0):
            pushed = pushforward_wavefunction(psi, phi, t, renormalize=False)
            assert abs(norm(pushed) - norm(psi)) <= 1e-6


def test_joint_pushforward_preserves_inner_product(grid1024):
    psi_a = gaussian_packet(grid1024, -1.0, 1.0)
    psi_b = gaussian_packet(grid1024, 1.0, 1.2, momentum=0.3)
    base = inner_product(psi_a, psi_b)
    for phi in (make_translation_ramp(2.613, **RAMP), standard_bump()):
        pushed_a = pushforward_wavefunction(psi_a, phi, 1.0)
        pushed_b = pushforward_wavefunction(psi_b, phi, 1.0)
        assert abs(inner_product(pushed_a, pushed_b) - base) <= 1e-6


def test_one_sided_pushforward_destroys_inner_product(grid1024):
    psi_a = gaussian_packet(grid1024, -0.2, 1.0)
    psi_b = gaussian_packet(grid1024, 0.2, 1.0)
    assert abs(inner_product(psi_a, psi_b)) >= 0.9
    phi = make_translation_ramp(12.0, **RAMP)
    pushed_a = pushforward_wavefunction(psi_a, phi, 1.0)
    assert abs(inner_product(pushed_a, psi_b)) <= 1e-3


def test_translation_group_property(grid1024):
    psi = gaussian_packet(grid1024, 0.3, 1.0)
    d1, d2 = 1.37, 2.94
    one = pushforward_wavefunction(psi, make_translation_ramp(d1, **RAMP), 1.0)
    two = pushforward_wavefunction(one, make_translation_ramp(d2, **RAMP), 1.0)
    direct = pushforward_wavefunction(psi, make_translation_ramp(d1 + d2, **RAMP), 1.0)
    err = np.sqrt(np.sum(np.abs(two.amplitudes - direct.amplitudes) ** 2)
                  * grid1024.cell_volume)
    assert err <= 1e-6


def test_pushforward_potential_identity(grid1024):
    potential = Potential.point_mass(grid1024, -2.5, 0.1, 1.0)
    assert pushforward_potential(potential, identity_map(1), 2.0) is potential


def test_pushforward_potential_translation_moves_source(grid1024):
    potential = Potential.point_mass(grid1024, -2.5, 0.1, 1.0)
    phi = make_translation_ramp(4.0, **RAMP)
    moved = pushforward_potential(potential, phi, 2.0)
    assert moved.kind == "point_mass"
    assert moved.source_position[0] == pytest.approx(1.5, abs=1e-10)
    direct = Potential.point_mass(grid1024, 1.5, 0.1, 1.0)
    assert np.max(np.abs(moved.values - direct.values)) <= 1e-10


def test_pushforward_potential_bump_pointwise_oracle(grid1024, rng):
    """Tabulated potential under a bump vs direct evaluation of V o phi^-1."""
    x = grid1024.axes()[0]
    L = grid1024.extent[0]
    values = -0.3 - 0.2 * np.cos(2 * np.pi * x / L) + 0.05 * np.sin(4 * np.pi * x / L)
    tabulated = Potential.tabulated(grid1024, values)
    phi = standard_bump()
    t = 1.0
    pushed = pushforward_potential(tabulated, phi, t)
    assert pushed.kind == "tabulated"

    samples = rng.uniform(-L / 2, L / 2, size=(1000, 1))
    idx = np.round((samples[:, 0] + L / 2) / grid1024.spacing[0]).astype(int) % grid1024.shape[0]
    grid_points = x[idx].reshape(-1, 1)
    pre = phi.inverse(grid_points, t)[:, 0]
    direct = -0.3 - 0.2 * np.cos(2 * np.pi * pre / L) + 0.05 * np.sin(4 * np.pi * pre / L)
    assert np.max(np.abs(pushed.values[idx] - direct)) <= 1e-8


def test_pushforward_dim_mismatch(grid1024):
    psi = gaussian_packet(grid1024, 0.0, 1.0)
    phi = make_translation_ramp((1.0, 1.0), **RAMP)
    with pytest.raises(DomainError):
        pushforward_wavefunction(psi, phi, 1.0)


def test_2d_pushforward_translation_and_joint_invariance():
    grid = Grid((128, 128), (30.0, 30.0))
    psi_a = gaussian_packet(grid, (-0.7, 0.2), 1.4)
    psi_b = gaussian_packet(grid, (0.7, -0.2), 1.4)
    base = inner_product(psi_a, psi_b)
    phi = make_translation_ramp((10.07, 8.01), extent=grid.extent, **RAMP)
    pushed_a = pushforward_wavefunction(psi_a, phi, 1.0, renormalize=False)
    assert abs(norm(pushed_a) - 1.0) <= 1e-6
    pushed_b = pushforward_wavefunction(psi_b, phi, 1.0)
    joint = inner_product(pushforward_wavefunction(psi_a, phi, 1.0), pushed_b)
    assert abs(joint - base) <= 1e-6
    # one-sided displacement by several widths kills the overlap
    assert abs(inner_product(pushed_a, psi_b)) <= 1e-3


def grid_points(grid):
    return np.stack([m.ravel() for m in grid.coordinate_mesh()], axis=-1)


@pytest.mark.parametrize("grid, shift", [
    (Grid(256, 20.0), 3.3),
    (Grid((32, 32), (12.0, 10.0)), (1.7, -2.45)),
    (Grid((16, 16, 16), (8.0, 8.0, 8.0)), (0.9, 1.3, -2.2)),
], ids=["1d", "2d", "3d"])
def test_offgrid_translation_matches_interpolant_at_preimages(grid, shift, rng):
    """The Fourier-shift pushforward is the spectral interpolant sampled at
    y - shift, at every grid point y."""
    psi = random_wavefunction(grid, rng)
    phi = make_translation_ramp(shift, extent=grid.extent, **RAMP)
    pushed = pushforward_wavefunction(psi, phi, 2.0, renormalize=False)
    preimages = grid_points(grid) - np.asarray(shift, dtype=float)
    expected = spectral_sample(grid, psi.amplitudes, preimages).reshape(grid.shape)
    assert np.max(np.abs(pushed.amplitudes - expected)) <= 1e-12


def test_translations_do_not_sample_off_grid(grid1024, monkeypatch):
    def refuse(*args):
        raise AssertionError("translation sampled the interpolant")

    monkeypatch.setattr(diffeo, "spectral_sample", refuse)
    psi = gaussian_packet(grid1024, 0.0, 1.0)
    for shift in (4.0, 4.01):  # grid-aligned, then not
        pushforward_wavefunction(psi, make_translation_ramp(shift, **RAMP), 2.0)


def bump_2d_case():
    grid = Grid((128, 128), (40.0, 40.0))
    psi = gaussian_packet(grid, (-1.0, 0.3), 1.0)
    phi = make_bump_displacement((0.0, 0.0), 5.0, (1.0, 0.4), **RAMP)
    return grid, psi, phi


def test_bump_pushforward_matches_dense_evaluation():
    """Sampling only the moved targets gives what sampling every grid point
    through the interpolant gives."""
    grid, psi, phi = bump_2d_case()
    t = 0.6
    pushed = pushforward_wavefunction(psi, phi, t, renormalize=False)
    preimages = phi.inverse(grid_points(grid), t)
    weights = np.abs(phi.jacobian_det(preimages, t)) ** -0.5
    dense = spectral_sample(grid, psi.amplitudes, preimages) * weights
    assert np.max(np.abs(pushed.amplitudes.ravel() - dense)) <= 1e-12


def test_bump_pushforward_samples_only_moved_points(monkeypatch):
    grid, psi, phi = bump_2d_case()
    counts = []

    def counted(grid, values, points):
        counts.append(len(points))
        return spectral_sample(grid, values, points)

    monkeypatch.setattr(diffeo, "spectral_sample", counted)
    pushed = pushforward_wavefunction(psi, phi, 1.0, renormalize=False)
    r = np.hypot(*(grid_points(grid) - np.asarray(phi.center)).T)
    inside = r < phi.radius
    assert counts == [int(np.sum(inside))] and counts[0] < grid.size // 5
    # Outside the ball the map is the identity with Jacobian 1: bit-equal.
    assert np.array_equal(pushed.amplitudes.ravel()[~inside], psi.amplitudes.ravel()[~inside])
