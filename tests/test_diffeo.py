"""Diffeomorphism construction, inversion, and pushforward contracts."""

import numpy as np
import pytest

from holesim import (
    DomainError,
    Grid,
    GridMismatch,
    NonInvertibleDiffeo,
    NumericalBlowup,
    Potential,
    gaussian_packet,
    identity_map,
    inner_product,
    make_bump_displacement,
    make_translation_ramp,
    norm,
    normalize,
    pushforward_potential,
    pushforward_wavefunction,
)
from holesim import diffeo
from holesim import grid as grid_module
from holesim.diffeo import _BUMP_SLOPE_MAX, PushforwardPlan, _bump_slope
from holesim.grid import SpectralSampler, WaveFunction, spectral_sample
from oracles import analytic_gaussian, pushforward_gaussian_direct, random_wavefunction

RAMP = dict(t0=0.0, t1=1.0)


def standard_bump():
    return make_bump_displacement(center=0.5, radius=4.0, peak_shift=0.8, **RAMP)


def test_zero_shift_is_identity():
    for phi in (make_translation_ramp(0.0, **RAMP), identity_map(1), identity_map(2),
                identity_map(3)):
        assert phi.is_identity_at(2.0)
        pts = np.linspace(-1.7, 0.3, 2 * phi.dim).reshape(2, phi.dim)
        assert np.array_equal(phi.forward(pts, 2.0), pts)
        assert np.array_equal(phi.inverse(pts, 2.0), pts)


@pytest.mark.parametrize("value", [
    make_translation_ramp(3.0, **RAMP), standard_bump(), identity_map(2),
    Potential.point_mass(Grid(64, 20.0), 0.0, 0.1),
    Potential.tabulated(Grid(64, 20.0), np.zeros(64)),
], ids=["translation", "bump", "identity", "point_mass", "tabulated"])
def test_maps_and_potentials_refuse_assignment(value):
    """Neither a field nor a new attribute can be set on a built value."""
    with pytest.raises(AttributeError):
        value.kind = "other"
    with pytest.raises(AttributeError):
        value.cache = None


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


@pytest.mark.parametrize("build", [
    lambda: make_translation_ramp((np.nan,), extent=40.0, **RAMP),
    lambda: make_translation_ramp((np.inf, 0.0), **RAMP),
    lambda: make_bump_displacement(np.nan, 5.0, 1.0, **RAMP),
    lambda: make_bump_displacement(0.0, 5.0, np.nan, **RAMP),
    lambda: make_bump_displacement((0.0, 0.0), 5.0, (np.inf, 0.0), **RAMP),
], ids=["ramp_nan", "ramp_inf", "bump_center_nan", "bump_peak_nan", "bump_peak_inf"])
def test_map_factories_reject_non_finite_vectors(build):
    with pytest.raises(DomainError, match="must be finite"):
        build()


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
    for phi in (identity_map(1), make_translation_ramp(3.0, t0=1.0, t1=2.0)):
        amps, size = PushforwardPlan(phi, 0.5, grid1024).pushed(psi.amplitudes)
        assert amps is psi.amplitudes and size == 1.0


def test_push_with_non_finite_samples_is_a_blowup(grid1024):
    """A bump push whose sampler yields NaN has a NaN norm: the plan raises
    a NumericalBlowup before it divides by that norm, which would warn."""
    psi = gaussian_packet(grid1024, 0.0, 1.0)
    plan = PushforwardPlan(standard_bump(), 2.0, grid1024)
    plan.sampler = lambda amplitudes: np.full(np.count_nonzero(plan.moved), np.nan)
    with pytest.raises(NumericalBlowup, match="^pushforward at ramp 1.0 gives non-finite amplitudes$"):
        plan.pushed(psi.amplitudes)


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
    pushed, size = PushforwardPlan(phi, t, grid1024).pushed(psi.amplitudes)
    assert abs(size - 1.0) <= 1e-6

    fine = Grid(4096, 40.0)
    y = fine.axes()[0].reshape(-1, 1)
    oracle_vals = pushforward_gaussian_direct(y, phi, t, center, width)
    oracle_norm = np.sqrt(np.sum(np.abs(oracle_vals) ** 2) * fine.cell_volume)
    assert abs(oracle_norm - 1.0) <= 1e-6
    oracle_overlap = np.sum(
        np.conj(oracle_vals) * analytic_gaussian(y, center, width)
    ) * fine.cell_volume

    package_overlap = inner_product(WaveFunction(grid1024, pushed * size), psi)
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
            _, size = PushforwardPlan(phi, t, grid1024).pushed(psi.amplitudes)
            assert abs(size - norm(psi)) <= 1e-6


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
    assert abs(PushforwardPlan(phi, 1.0, grid).pushed(psi_a.amplitudes)[1] - 1.0) <= 1e-6
    pushed_a = pushforward_wavefunction(psi_a, phi, 1.0)
    pushed_b = pushforward_wavefunction(psi_b, phi, 1.0)
    joint = inner_product(pushed_a, pushed_b)
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
    pushed, size = PushforwardPlan(phi, 2.0, grid).pushed(psi.amplitudes)
    preimages = grid_points(grid) - np.asarray(shift, dtype=float)
    expected = spectral_sample(grid, psi.amplitudes, preimages).reshape(grid.shape)
    assert np.max(np.abs(pushed * size - expected)) <= 1e-12


def test_translations_do_not_sample_off_grid(grid1024, monkeypatch):
    def refuse(*args):
        raise AssertionError("translation sampled the interpolant")

    monkeypatch.setattr(diffeo, "SpectralSampler", refuse)
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
    pushed, size = PushforwardPlan(phi, t, grid).pushed(psi.amplitudes)
    preimages = phi.inverse(grid_points(grid), t)
    weights = np.abs(phi.jacobian_det(preimages, t)) ** -0.5
    dense = spectral_sample(grid, psi.amplitudes, preimages) * weights
    assert np.max(np.abs(pushed.ravel() * size - dense)) <= 1e-12


def test_bump_pushforward_samples_only_moved_points(monkeypatch):
    grid, psi, phi = bump_2d_case()
    counts = []

    def counted(grid, points):
        counts.append(len(points))
        return SpectralSampler(grid, points)

    monkeypatch.setattr(diffeo, "SpectralSampler", counted)
    pushed, size = PushforwardPlan(phi, 1.0, grid).pushed(psi.amplitudes)
    r = np.hypot(*(grid_points(grid) - np.asarray(phi.center)).T)
    inside = r < phi.radius
    assert counts == [int(np.sum(inside))] and counts[0] < grid.size // 5
    # Outside the ball the map is the identity with Jacobian 1: bit-equal
    # to the state divided by the push's norm.
    assert np.array_equal(pushed.ravel()[~inside], psi.amplitudes.ravel()[~inside] / size)


def push_one_state(psi, phi, t, path):
    """The pushforward of one state with all of the map's work redone in
    the call, one sampling of the interpolant per state: ``path`` is
    "aligned" (a roll), "fourier" (the shift theorem) or "bump"; all but a
    roll are divided by their norm."""
    grid = psi.grid
    if path == "aligned":
        cells = tuple(int(round(s / dx)) for s, dx in zip(phi.displacement_at(t), grid.spacing))
        return np.roll(psi.amplitudes, cells, axis=tuple(range(grid.dim)))
    if path == "fourier":
        amps = np.fft.fftn(psi.amplitudes)
        for axis, (k, s) in enumerate(zip(grid.wavenumbers(), phi.displacement_at(t))):
            shape = [1] * grid.dim
            shape[axis] = k.size
            amps = amps * np.exp(-1j * k * s).reshape(shape)
        amps = np.fft.ifftn(amps)
    else:
        targets = grid_points(grid)
        moved = phi._bump_rho(targets.T) < 1.0
        preimages = phi.inverse(targets[moved], t)
        weights = np.abs(phi.jacobian_det(preimages, t)) ** -0.5
        amps = psi.amplitudes.flatten()
        amps[moved] = spectral_sample(grid, psi.amplitudes, preimages) * weights
        amps = amps.reshape(grid.shape)
    drift = norm(WaveFunction(grid, amps)) - 1.0
    return amps / (1.0 + drift)


def low_mode_state(grid, offset):
    """A normalized state of the lowest Fourier modes only, resolved for a
    gentle bump on a coarse 3D grid."""
    mesh = grid.coordinate_mesh()
    L = grid.extent[0]
    amps = (1.5 + np.cos(2 * np.pi * (mesh[0] - offset) / L)
            + 0.5j * np.sin(2 * np.pi * sum(mesh[1:]) / L))
    return normalize(WaveFunction(grid, amps))


PLAN_CASES = {
    "aligned_1d": (Grid(1024, 40.0), lambda g: make_translation_ramp(64 * g.spacing[0], **RAMP)),
    "aligned_2d": (Grid((64, 32), (40.0, 20.0)),
                   lambda g: make_translation_ramp((6 * g.spacing[0], -4 * g.spacing[1]), **RAMP)),
    "offgrid_1d": (Grid(256, 20.0), lambda g: make_translation_ramp(3.3, **RAMP)),
    "offgrid_2d": (Grid((32, 32), (12.0, 10.0)),
                   lambda g: make_translation_ramp((1.7, -2.45), **RAMP)),
    "offgrid_3d": (Grid((16, 16, 16), (8.0, 8.0, 8.0)),
                   lambda g: make_translation_ramp((0.9, 1.3, -2.2), **RAMP)),
    "bump_2d": (Grid((128, 128), (40.0, 40.0)),
                lambda g: make_bump_displacement((0.0, 0.0), 5.0, (1.0, 0.4), **RAMP)),
    "bump_3d": (Grid((32, 32, 32), (8.0, 8.0, 8.0)),
                lambda g: make_bump_displacement((0.0, 0.5, 0.0), 2.5, (0.3, 0.1, 0.0), **RAMP)),
}


@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_plan_is_bit_equal_to_a_pushforward_per_state(case, rng):
    """One plan applied to several states gives, state by state, the bits
    of a pushforward that redoes the map's work for each state. Halfway
    up the ramp the aligned shifts are still whole cells."""
    grid, make_phi = PLAN_CASES[case]
    phi = make_phi(grid)
    path = case.split("_")[0].replace("offgrid", "fourier")
    if grid.dim == 3 and path == "bump":
        states = [low_mode_state(grid, offset) for offset in (0.0, 4.0)]
    elif path == "bump":
        states = [gaussian_packet(grid, (-1.0, 0.3), 1.0),
                  gaussian_packet(grid, (0.5, -0.2), 1.2, momentum=(0.7, 0.0))]
    else:
        states = [random_wavefunction(grid, rng) for _ in range(2)]
    for t in (0.5, 1.0):
        plan = PushforwardPlan(phi, t, grid)
        for psi in states:
            expected = push_one_state(psi, phi, t, path)
            assert np.array_equal(plan.pushed(psi.amplitudes)[0], expected)
            assert np.array_equal(pushforward_wavefunction(psi, phi, t).amplitudes, expected)


def test_plan_rejects_a_state_on_another_grid(grid256, grid1024):
    plan = PushforwardPlan(make_translation_ramp(1.3, **RAMP), 1.0, grid1024)
    with pytest.raises(GridMismatch):
        plan.pushed(gaussian_packet(grid256, 0.0, 1.0).amplitudes)


def test_plan_beyond_its_table_budget_rebuilds_the_rest(monkeypatch):
    """Tables past SAMPLE_CHUNK_BYTES are not kept; those chunks build
    theirs per state, with the same bits."""
    grid, psi, phi = bump_2d_case()
    point_bytes = 16 * (sum(grid.shape) + grid.shape[0])
    monkeypatch.setattr(grid_module, "SAMPLE_CHUNK_BYTES", 300 * point_bytes)
    plan = PushforwardPlan(phi, 1.0, grid)
    kept = [tables is not None for _, tables in plan.sampler._chunks]
    assert kept == [True, False, False]
    other = gaussian_packet(grid, (0.8, -0.2), 1.2)
    for state in (psi, other, psi):
        assert np.array_equal(plan.pushed(state.amplitudes)[0],
                              push_one_state(state, phi, 1.0, "bump"))


@pytest.mark.parametrize("grid, center, radius, peak_shift", [
    (Grid(256, 40.0), 0.5, 4.0, 0.8),
    (Grid((128, 64), (40.0, 30.0)), (0.3, -1.1), 5.0, (1.0, -0.4)),
    (Grid((32, 64, 16), (16.0, 20.0, 12.0)), (0.2, -0.7, 0.4), 3.0, (0.4, 0.2, -0.3)),
], ids=["1d", "2d", "3d"])
def test_bump_plan_finds_its_moved_points_on_the_axes(grid, center, radius, peak_shift):
    """A bump plan tests the radius ratio on the axes broadcast over the
    grid: its moved points, their preimages and their weights are those of
    the full list of grid points, bit for bit, at mid-ramp and after it."""
    phi = make_bump_displacement(center, radius, peak_shift, **RAMP)
    targets = grid_points(grid)
    delta = targets - np.asarray(phi.center)
    moved = np.sqrt(np.sum(delta * delta, axis=1)) / phi.radius < 1.0
    assert 0 < moved.sum() < grid.size
    for t in (0.5, 1.0):
        plan = PushforwardPlan(phi, t, grid)
        preimages = phi.inverse(targets[moved], t)
        weights = np.abs(phi.jacobian_det(preimages, t)) ** -0.5
        assert np.array_equal(plan.moved, moved)
        assert np.array_equal(plan.sampler.points, preimages)
        assert np.array_equal(plan.weights, weights)


def test_3d_bump_plan_build_holds_little_beyond_what_it_keeps():
    """A 64^3 plan of radius 2 moves 1045 points and keeps their tables.
    Building it traces at most 4 MiB beyond what it keeps: a coordinate
    mesh and point list of the whole grid traced 16.5 MiB more."""
    import tracemalloc

    grid = Grid((64, 64, 64), (20.0,) * 3)
    grid.axes(), grid.wavenumbers()  # cached per grid, outside the trace
    phi = make_bump_displacement((0.0,) * 3, 2.0, (0.2, 0.0, 0.0), **RAMP)
    tracemalloc.start()
    try:
        plan = PushforwardPlan(phi, 1.0, grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.moved.sum() == 1045
    assert peak - kept <= 4 * 2**20


def test_3d_bump_plan_over_several_chunks_memory_is_bounded():
    """A 64^3 bump plan whose ball spans several chunks, built and applied
    twice, stays within the traced allocation bound of spectral_sample."""
    import tracemalloc

    grid = Grid((64, 64, 64), (16.0, 16.0, 16.0))
    psi = gaussian_packet(grid, (-0.5, 0.0, 0.3), 0.76)
    phi = make_bump_displacement((0.0, 0.0, 0.0), 3.0, (0.4, 0.2, 0.0), **RAMP)
    tracemalloc.start()
    try:
        plan = PushforwardPlan(phi, 1.0, grid)
        pushed = [plan.pushed(psi.amplitudes)[0] for _ in range(2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.sampler._chunks) > 1
    assert peak < 100e6
    assert np.array_equal(pushed[0], pushed[1])
    assert abs(inner_product(WaveFunction(grid, pushed[0]), psi)) < 1.0 - 1e-6
