"""The theta observable, both density-matrix routes, and the fringe model."""

import numpy as np
import pytest

from holesim import (
    DecoherenceObservable,
    DomainError,
    EvolutionConfig,
    FringePattern,
    NormViolation,
    Potential,
    Trajectory,
    TwoLevelDensityMatrix,
    UnderdeterminedFit,
    WaveFunction,
    compute_theta,
    density_matrix,
    estimate_theta,
    evolve,
    gaussian_packet,
    inner_product,
    interference_pattern,
    normalize,
    partial_trace,
    theta_time_series,
)
from oracles import gaussian_overlap, random_wavefunction


def static_trajectory(psi):
    return Trajectory((0.0,), (psi,))


def disjoint_pair(grid):
    a = np.zeros(grid.shape, dtype=complex)
    b = np.zeros(grid.shape, dtype=complex)
    a[5:40] = 1.0 + 0.3j
    b[120:180] = 2.0
    return normalize(WaveFunction(grid, a)), normalize(WaveFunction(grid, b))


def test_identical_branches_theta_one(grid256):
    psi0 = gaussian_packet(grid256, -1.0, 1.0)
    potential = Potential.point_mass(grid256, 0.0, 0.2)
    config = EvolutionConfig(dt=0.05, t_end=1.0, mass=1.0, snapshot_stride=4)
    left = evolve(psi0, potential, config)
    right = evolve(psi0, potential, config)
    for t in left.times:
        theta = compute_theta(left, right, t)
        assert abs(theta.theta - 1.0) < 1e-12


def test_disjoint_branches_theta_zero(grid256):
    psi_a, psi_b = disjoint_pair(grid256)
    theta = compute_theta(static_trajectory(psi_a), static_trajectory(psi_b), 0.0)
    assert theta.theta == 0.0 + 0.0j


def test_static_gaussian_overlap(grid256, packet_pair):
    left, right = packet_pair
    theta = compute_theta(static_trajectory(left), static_trajectory(right), 0.0)
    assert theta.theta == pytest.approx(gaussian_overlap(2.0, 1.0), abs=1e-10)


def test_theta_magnitude_guard():
    with pytest.raises(NormViolation):
        DecoherenceObservable(1.0 + 1e-8 + 0.0j)
    with pytest.raises(NormViolation, match="theta is not finite"):
        DecoherenceObservable(complex(np.nan, 0.0))
    # within slack: accepted
    DecoherenceObservable(1.0 + 5e-10 + 0.0j)


def test_compute_theta_refuses_misaligned_times(grid256):
    """Out of one trajectory's range, or at nearest snapshots of different
    times, no theta is read; nor is a series of misaligned snapshots."""
    psi = gaussian_packet(grid256, 0.0, 1.0)
    left = Trajectory((0.0, 1.0), (psi, psi))
    right = Trajectory((0.0, 1.5), (psi, psi))
    with pytest.raises(DomainError):
        compute_theta(left, right, 1.2)
    with pytest.raises(DomainError, match="snapshot times differ: 1.0 vs 1.5"):
        compute_theta(left, right, 0.9)
    with pytest.raises(DomainError, match="not snapshot-aligned"):
        theta_time_series(left, right)


def test_density_matrix_full_decoherence():
    rho = density_matrix(DecoherenceObservable(0.0))
    assert np.allclose(rho.entries, 0.5 * np.eye(2), atol=1e-15)
    assert rho.purity == pytest.approx(0.5)


def test_density_matrix_no_decoherence_pure_projector():
    rho = density_matrix(DecoherenceObservable(1.0))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(rho.entries, np.outer(plus, plus), atol=1e-15)
    assert rho.purity == pytest.approx(1.0)


def test_density_matrix_hand_value():
    theta = 0.5 * np.exp(1j * np.pi / 4)
    rho = density_matrix(DecoherenceObservable(theta))
    expected = np.array(
        [[0.5, 0.25 * np.exp(-1j * np.pi / 4)],
         [0.25 * np.exp(1j * np.pi / 4), 0.5]]
    )
    assert np.max(np.abs(rho.entries - expected)) < 1e-15
    evals = np.linalg.eigvalsh(rho.entries)
    assert np.allclose(sorted(evals), [0.25, 0.75], atol=1e-12)


def test_density_matrix_rejects_excess_magnitude():
    with pytest.raises(DomainError):
        density_matrix(1.0 + 1e-9 + 0.0j)


def test_partial_trace_equal_branches(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0)
    rho = partial_trace(psi, psi)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(rho.entries - np.outer(plus, plus))) < 1e-12


def test_partial_trace_disjoint_maximally_mixed(grid256):
    psi_a, psi_b = disjoint_pair(grid256)
    rho = partial_trace(psi_a, psi_b)
    assert np.max(np.abs(rho.entries - 0.5 * np.eye(2))) < 1e-14


def test_partial_trace_unnormalized_rejected(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0)
    off = WaveFunction(grid256, 1.001 * psi.amplitudes)
    with pytest.raises(NormViolation):
        partial_trace(psi, off)


def test_two_routes_agree_on_random_pairs(grid256, rng):
    """partial_trace and density_matrix(compute_theta) are each other's
    oracle: equal entrywise to 1e-12 on 100 random normalized pairs."""
    for _ in range(100):
        a = random_wavefunction(grid256, rng)
        b = random_wavefunction(grid256, rng)
        direct = partial_trace(a, b)
        via_theta = density_matrix(DecoherenceObservable(inner_product(a, b)))
        assert np.max(np.abs(direct.entries - via_theta.entries)) <= 1e-12


def test_density_matrix_validity_and_purity():
    for magnitude in (0.0, 0.25, 0.5, 0.75, 1.0):
        for phase in np.arange(8) * np.pi / 4:
            theta = magnitude * np.exp(1j * phase)
            rho = density_matrix(DecoherenceObservable(theta))
            entries = rho.entries
            assert np.max(np.abs(entries - entries.conj().T)) < 1e-15
            assert np.trace(entries).real == pytest.approx(1.0, abs=1e-15)
            assert np.min(np.linalg.eigvalsh(entries)) >= -1e-12
            assert rho.purity == pytest.approx((1.0 + magnitude**2) / 2.0, abs=1e-12)
            # equal branch probabilities always
            assert entries[0, 0].real == pytest.approx(0.5, abs=1e-15)
            assert entries[1, 1].real == pytest.approx(0.5, abs=1e-15)


def test_density_matrix_invariants_enforced():
    with pytest.raises(DomainError):
        TwoLevelDensityMatrix(np.array([[0.6, 0.0], [0.0, 0.5]]))
    with pytest.raises(DomainError):
        TwoLevelDensityMatrix(np.array([[0.5, 0.1], [0.2, 0.5]]))


def test_interference_flat_for_theta_zero():
    screen = np.linspace(-10.0, 10.0, 256)
    pattern = interference_pattern(DecoherenceObservable(0.0), screen, 2.0)
    assert np.max(np.abs(pattern.intensities - 0.5)) < 1e-15


def test_interference_full_contrast():
    screen = np.linspace(-10.0, 10.0, 257)
    pattern = interference_pattern(DecoherenceObservable(1.0), screen, 2.0)
    assert pattern.intensities[128] == pytest.approx(1.0)  # I(0) = 1
    assert np.min(pattern.intensities) >= 0.0
    assert np.max(pattern.intensities) <= 1.0 + 1e-15


def test_fringe_visibility_equals_magnitude():
    screen = np.linspace(0.0, 2.0 * np.pi, 4096)  # one period of k=1
    for magnitude in (0.3, 0.7):
        pattern = interference_pattern(magnitude + 0.0j, screen, 1.0)
        i_max, i_min = np.max(pattern.intensities), np.min(pattern.intensities)
        visibility = (i_max - i_min) / (i_max + i_min)
        assert visibility == pytest.approx(magnitude, abs=1e-6)


def test_fringe_round_trip_grid():
    """Recover theta across the 5 x 8 grid of magnitudes and phases."""
    screen = np.linspace(-2.0, 2.0, 256)  # 4 periods of k = 2 pi
    wavenumber = 2.0 * np.pi
    for magnitude in (0.0, 0.25, 0.5, 0.75, 1.0):
        for phase in np.arange(8) * np.pi / 4:
            theta = magnitude * np.exp(1j * phase)
            estimate = estimate_theta(interference_pattern(theta, screen, wavenumber))
            assert abs(estimate.theta - theta) <= 1e-3


def test_fringe_round_trip_exact_cases():
    screen = np.linspace(-2.0, 2.0, 256)
    wavenumber = 2.0 * np.pi
    flat = estimate_theta(interference_pattern(0.0j, screen, wavenumber))
    assert abs(flat.theta) <= 1e-6
    full = estimate_theta(interference_pattern(1.0 + 0.0j, screen, wavenumber))
    assert abs(full.theta) == pytest.approx(1.0, abs=1e-6)
    assert abs(full.phase) <= 1e-6


def test_estimate_underdetermined():
    wavenumber = 2.0 * np.pi
    short = np.linspace(0.0, 1.0, 64)  # only one period covered
    with pytest.raises(UnderdeterminedFit):
        estimate_theta(interference_pattern(0.5 + 0.0j, short, wavenumber))
    sparse = np.linspace(0.0, 4.0, 9)  # barely two samples per period
    with pytest.raises(UnderdeterminedFit):
        estimate_theta(interference_pattern(0.5 + 0.0j, sparse, wavenumber))


def test_fringe_pattern_validation():
    with pytest.raises(DomainError):
        FringePattern(np.array([0.0, 1.0]), np.array([0.5]), 1.0)
    with pytest.raises(DomainError):
        FringePattern(np.array([0.0, 1.0]), np.array([0.5, -0.2]), 1.0)
    with pytest.raises(DomainError):
        interference_pattern(0.5 + 0.0j, np.array([0.0, 1.0]), -1.0)


def test_theta_series_alignment(grid256):
    psi0 = gaussian_packet(grid256, -1.0, 1.0)
    config = EvolutionConfig(dt=0.05, t_end=1.0, mass=1.0, snapshot_stride=4)
    left = evolve(psi0, Potential.point_mass(grid256, -1.5, 0.2), config)
    right = evolve(psi0, Potential.point_mass(grid256, 1.5, 0.2), config)
    times, thetas = theta_time_series(left, right)
    assert times[0] == 0.0
    assert abs(thetas[0] - 1.0) < 1e-12
    assert np.all(np.abs(thetas) <= 1.0 + 1e-9)


def test_theta_series_matches_compute_theta(grid256):
    psi0 = gaussian_packet(grid256, -1.0, 1.0)
    config = EvolutionConfig(dt=0.05, t_end=1.0, mass=1.0, snapshot_stride=4)
    left = evolve(psi0, Potential.point_mass(grid256, -1.5, 0.2), config)
    right = evolve(psi0, Potential.point_mass(grid256, 1.5, 0.2), config)
    times, thetas = theta_time_series(left, right)
    expected = [compute_theta(left, right, t).theta for t in times]
    assert np.array_equal(thetas, np.asarray(expected, dtype=complex))


def test_theta_series_keeps_magnitude_guard(grid256):
    """Each entry still passes the |theta| <= 1 check of the observable."""
    psi = gaussian_packet(grid256, 0.0, 1.0)
    heavy = WaveFunction(grid256, psi.amplitudes * (1.0 + 5e-9))
    branch = Trajectory((0.0,), (heavy,))
    with pytest.raises(NormViolation):
        theta_time_series(branch, branch)
