"""Grid, wavefunction, and inner-product contracts."""

import numpy as np
import pytest

from holesim import (
    Grid,
    GridMismatch,
    NumericalBlowup,
    ResolutionError,
    WaveFunction,
    ZeroNormError,
    gaussian_packet,
    inner_product,
    norm,
    normalize,
    spectral_sample,
)
from oracles import gaussian_overlap


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        Grid(100, 10.0)
    with pytest.raises(ValueError):
        Grid((64, 48), (10.0, 10.0))


def test_grid_dimension_bounds():
    with pytest.raises(ValueError):
        Grid((8, 8, 8, 8), (1.0, 1.0, 1.0, 1.0))
    g = Grid((8, 16), (2.0, 4.0))
    assert g.dim == 2
    assert g.spacing == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.0625)


def test_normalized_self_inner_product(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0)
    assert inner_product(psi, psi) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_disjoint_supports_orthogonal(grid256):
    a = np.zeros(grid256.shape, dtype=complex)
    b = np.zeros(grid256.shape, dtype=complex)
    a[10:30] = 1.0
    b[100:140] = 1.0 - 0.5j
    psi_a = normalize(WaveFunction(grid256, a))
    psi_b = normalize(WaveFunction(grid256, b))
    assert inner_product(psi_a, psi_b) == 0.0 + 0.0j


def test_gaussian_overlap_closed_form(grid256):
    # centers 2 widths apart: exp(-1/2)
    psi_a = gaussian_packet(grid256, -1.0, 1.0)
    psi_b = gaussian_packet(grid256, 1.0, 1.0)
    value = inner_product(psi_a, psi_b)
    assert value.real == pytest.approx(gaussian_overlap(2.0, 1.0), abs=1e-10)
    assert value.real == pytest.approx(np.exp(-0.5), abs=1e-10)
    assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_packet_overlap_matches_formula_sweep(grid256):
    for d in (0.5, 1.0, 3.0, 5.0):
        psi_a = gaussian_packet(grid256, -d / 2, 1.0)
        psi_b = gaussian_packet(grid256, d / 2, 1.0)
        assert abs(inner_product(psi_a, psi_b) - gaussian_overlap(d, 1.0)) < 1e-8


def test_gaussian_packet_zero_momentum_real_positive(grid256):
    psi = gaussian_packet(grid256, 0.5, 1.2)
    assert np.max(np.abs(psi.amplitudes.imag)) == 0.0
    assert np.min(psi.amplitudes.real) > 0.0


def test_gaussian_packet_periodic_wrap(grid256):
    base = gaussian_packet(grid256, -1.0, 1.0)
    wrapped = gaussian_packet(grid256, -1.0 + grid256.extent[0], 1.0)
    assert np.max(np.abs(base.amplitudes - wrapped.amplitudes)) < 1e-12


def test_gaussian_packet_momentum_phase(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0, momentum=1.5)
    x = grid256.axes()[0]
    expected_phase = np.exp(1.5j * x)
    ratio = psi.amplitudes / (np.abs(psi.amplitudes) * expected_phase)
    assert np.max(np.abs(ratio - 1.0)) < 1e-10


@pytest.mark.parametrize("grid, center, width, momentum", [
    (Grid(256, 40.0), (-1.3,), 1.2, (0.4,)),
    (Grid((128, 128), (40.0, 30.0)), (19.5, -2.0), 1.2, (0.3, -1.1)),
    (Grid((64, 64, 64), (20.0, 20.0, 20.0)), (0.5, -9.0, 3.0), 0.95, (0.0, 0.2, -0.7)),
], ids=["1d", "2d", "3d"])
def test_gaussian_packet_matches_the_full_mesh_formula(grid, center, width, momentum):
    """The envelope and phase, built from per-axis arrays, have the bits
    of the same sums taken over the full coordinate mesh."""
    mesh = grid.coordinate_mesh()
    r2 = np.zeros(grid.shape)
    phase = np.zeros(grid.shape)
    for axis in range(grid.dim):
        d = grid.minimal_image(mesh[axis] - center[axis], axis)
        r2 = r2 + d * d
        phase = phase + momentum[axis] * mesh[axis]
    expected = normalize(WaveFunction(grid, np.exp(-r2 / (4.0 * width**2) + 1j * phase)))
    packet = gaussian_packet(grid, center, width, momentum)
    assert np.array_equal(packet.amplitudes, expected.amplitudes)


def test_gaussian_packet_norm(grid256):
    psi = gaussian_packet(grid256, 2.0, 0.8, momentum=0.7)
    assert abs(norm(psi) - 1.0) < 1e-10


def test_width_under_resolved_raises():
    g = Grid(64, 64.0)  # spacing 1.0
    with pytest.raises(ResolutionError):
        gaussian_packet(g, 0.0, 2.0)


def test_tail_exceeds_boundary_raises():
    g = Grid(256, 16.0)
    with pytest.raises(ResolutionError):
        gaussian_packet(g, 0.0, 1.0)  # boundary tail exp(-16) >> 1e-12


def test_normalize_idempotent(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0)
    again = normalize(psi)
    assert np.max(np.abs(again.amplitudes - psi.amplitudes)) < 1e-12


def test_normalize_scaling(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0)
    doubled = WaveFunction(grid256, 2.0 * psi.amplitudes)
    assert np.max(np.abs(normalize(doubled).amplitudes - psi.amplitudes)) < 1e-12


def test_normalize_zero_raises(grid256):
    zero = WaveFunction(grid256, np.zeros(grid256.shape, dtype=complex))
    with pytest.raises(ZeroNormError):
        normalize(zero)


def test_wavefunction_rejects_nonfinite(grid256):
    bad = np.zeros(grid256.shape, dtype=complex)
    bad[3] = np.nan
    from holesim import NumericalBlowup

    with pytest.raises(NumericalBlowup):
        WaveFunction(grid256, bad)


def test_wavefunction_immutable(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
    with pytest.raises(AttributeError):
        psi.label = "other"


def test_adopted_amplitudes_are_checked_and_not_copied(grid256):
    amps = gaussian_packet(grid256, 0.0, 1.0).amplitudes * 2.0
    psi = WaveFunction._adopt(grid256, amps, "adopted")
    assert psi.amplitudes is amps and not amps.flags.writeable
    with pytest.raises(GridMismatch):
        WaveFunction._adopt(grid256, np.zeros(128, dtype=complex))
    bad = np.zeros(256, dtype=complex)
    bad[3] = np.inf
    with pytest.raises(NumericalBlowup):
        WaveFunction._adopt(grid256, bad)


def test_inner_product_grid_mismatch():
    a = gaussian_packet(Grid(256, 40.0), 0.0, 1.0)
    b = gaussian_packet(Grid(128, 40.0), 0.0, 1.0)
    with pytest.raises(GridMismatch):
        inner_product(a, b)


def test_conjugate_symmetry_sesquilinearity(grid256, rng):
    from oracles import random_wavefunction

    for _ in range(10):
        a = random_wavefunction(grid256, rng)
        b = random_wavefunction(grid256, rng)
        c = random_wavefunction(grid256, rng)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-12
        # linear in the second argument
        combo = WaveFunction(grid256, alpha * b.amplitudes + c.amplitudes)
        lhs = inner_product(a, combo)
        rhs = alpha * inner_product(a, b) + inner_product(a, c)
        assert abs(lhs - rhs) < 1e-12
        # antilinear in the first argument
        scaled = WaveFunction(grid256, alpha * a.amplitudes)
        assert abs(inner_product(scaled, b) - np.conj(alpha) * inner_product(a, b)) < 1e-12


def test_cauchy_schwarz(grid256, rng):
    from oracles import random_wavefunction

    for _ in range(20):
        a = random_wavefunction(grid256, rng)
        b = random_wavefunction(grid256, rng)
        assert abs(inner_product(a, b)) <= norm(a) * norm(b) + 1e-12


def test_quadrature_spectral_convergence():
    """Doubling the resolution must shrink quadrature error by >= 10x while
    the integrand is under-resolved (spectral accuracy)."""
    exact = gaussian_overlap(2.0, 1.0)
    errors = []
    for n in (8, 16, 32):
        g = Grid(n, 24.0)
        x = g.axes()[0]
        a = np.exp(-((x + 1.0) ** 2) / 4.0).astype(complex)
        b = np.exp(-((x - 1.0) ** 2) / 4.0).astype(complex)
        psi_a = normalize(WaveFunction(g, a))
        psi_b = normalize(WaveFunction(g, b))
        errors.append(abs(inner_product(psi_a, psi_b) - exact))
    # error at 32 points sits at the roundoff floor; keep the ratios meaningful
    assert errors[0] / errors[1] >= 10.0
    assert errors[1] / max(errors[2], 1e-14) >= 10.0


def test_spectral_sample_reproduces_grid_values(grid256, rng):
    from oracles import random_wavefunction

    psi = random_wavefunction(grid256, rng)
    mesh = grid256.coordinate_mesh()
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    sampled = spectral_sample(grid256, psi.amplitudes, points)
    assert np.max(np.abs(sampled - psi.amplitudes.ravel())) < 1e-12


def test_spectral_sample_periodicity(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0, momentum=0.9)
    pts = np.array([[1.2345], [1.2345 + grid256.extent[0]]])
    vals = spectral_sample(grid256, psi.amplitudes, pts)
    assert abs(vals[0] - vals[1]) < 1e-10


def test_spectral_sample_2d():
    g = Grid((128, 128), (36.0, 36.0))
    psi = gaussian_packet(g, (0.5, -0.25), 1.5)
    pts = np.array([[0.31, 0.72], [-2.2, 1.07], [3.0, -3.0]])
    vals = spectral_sample(g, psi.amplitudes, pts)
    d2 = (pts[:, 0] - 0.5) ** 2 + (pts[:, 1] + 0.25) ** 2
    direct = np.exp(-d2 / (4 * 1.5**2))
    # same shape up to the shared normalization constant
    assert np.max(np.abs(vals / vals[0] - direct / direct[0])) < 1e-8


def test_spectral_sample_3d_memory_is_bounded(rng):
    """A 3D 64^3 evaluation at thousands of points runs in chunks: the
    traced allocation peak stays far below the 16 * 64^2 * P bytes of an
    unchunked (N0, N1, P) intermediate (336 MB here)."""
    import tracemalloc

    from oracles import random_wavefunction, trigonometric_interpolant_direct

    grid = Grid((64, 64, 64), (24.0, 24.0, 24.0))
    psi = random_wavefunction(grid, rng)
    points = rng.uniform(-12.0, 12.0, size=(5120, 3))
    tracemalloc.start()
    try:
        sampled = spectral_sample(grid, psi.amplitudes, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    check = np.linspace(0, len(points) - 1, 16).astype(int)
    direct = trigonometric_interpolant_direct(grid, psi.amplitudes, points[check])
    assert np.max(np.abs(sampled[check] - direct)) < 1e-12


@pytest.mark.parametrize("last", ["distinct", "on_grid"])
def test_spectral_sample_3d_gather_keeps_the_chunk_bound(rng, last):
    """The same 64^3 evaluation at 5120 points, with all-distinct or with
    on-grid last coordinates, traces no more than the 50.13 MiB that a
    table row per point and one (N0, N1, P) intermediate per chunk traced,
    to 0.1 MiB. A chunk that gathered its points' columns beside the whole
    partial over its distinct last coordinates traced 80.7 MiB."""
    import tracemalloc

    from oracles import random_wavefunction

    grid = Grid((64, 64, 64), (24.0, 24.0, 24.0))
    psi = random_wavefunction(grid, rng)
    points = rng.uniform(-12.0, 12.0, size=(5120, 3))
    if last == "on_grid":
        points[:, 2] = grid.axes()[2][rng.integers(64, size=len(points))]
    tracemalloc.start()
    try:
        spectral_sample(grid, psi.amplitudes, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50.2 * 2**20


def test_with_label_shares_the_read_only_amplitudes(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0, label="a")
    relabelled = psi.with_label("b")
    assert (psi.label, relabelled.label) == ("a", "b")
    assert relabelled.grid == psi.grid
    assert relabelled.amplitudes is psi.amplitudes
    assert not relabelled.amplitudes.flags.writeable
    with pytest.raises(AttributeError):
        relabelled.label = "c"
