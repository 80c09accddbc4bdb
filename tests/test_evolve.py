"""Propagator contracts: unitarity, accuracy against the dense oracle,
analytic free-packet behavior, reversibility, energy drift."""

import importlib

import numpy as np
import pytest

from holesim import (
    DomainError,
    EvolutionConfig,
    Grid,
    GridMismatch,
    NumericalBlowup,
    Potential,
    StabilityWarning,
    Trajectory,
    energy_expectation,
    evolve,
    gaussian_packet,
    norm,
    step,
)
from oracles import dense_propagator, free_gaussian_width, measured_width

ORACLE_GRID = Grid(64, 26.0)
ORACLE_PACKET = dict(center=0.0, width=1.22)


def oracle_setup():
    psi0 = gaussian_packet(ORACLE_GRID, **ORACLE_PACKET)
    potential = Potential.point_mass(ORACLE_GRID, 1.0, 0.5)
    return psi0, potential


def test_point_mass_values_nonpositive_finite():
    _, potential = oracle_setup()
    assert np.all(potential.values <= 0.0)
    assert np.all(np.isfinite(potential.values))


def test_point_mass_softening_defaults_to_two_spacings():
    _, potential = oracle_setup()
    assert potential.softening == pytest.approx(2.0 * ORACLE_GRID.spacing[0])


def test_point_mass_rejects_negative_coupling():
    with pytest.raises(DomainError):
        Potential.point_mass(ORACLE_GRID, 0.0, -1.0)


def test_tabulated_requires_matching_shape():
    with pytest.raises(GridMismatch):
        Potential.tabulated(ORACLE_GRID, np.zeros(32))


def test_free_step_preserves_norm_and_center(grid1024):
    psi0 = gaussian_packet(grid1024, 0.0, 1.0)
    free = Potential.tabulated(grid1024, np.zeros(grid1024.shape))
    config = EvolutionConfig(dt=0.05, t_end=1.0, mass=1.0)
    psi1 = step(psi0, free, config)
    assert abs(norm(psi1) - 1.0) < 1e-12
    x = grid1024.axes()[0]
    center = np.sum(x * psi1.probability_density()) * grid1024.cell_volume
    assert abs(center) < 1e-10


def test_free_gaussian_dispersion(grid1024):
    """Width after free evolution matches w0 sqrt(1 + (t/(2 m w0^2))^2)."""
    mass, width0 = 1.0, 1.0
    t_end = 2.0 * mass * width0**2
    psi0 = gaussian_packet(grid1024, 0.0, width0)
    free = Potential.tabulated(grid1024, np.zeros(grid1024.shape))
    config = EvolutionConfig(dt=0.1, t_end=t_end, mass=mass, snapshot_stride=5)
    trajectory = evolve(psi0, free, config)
    expected = free_gaussian_width(width0, mass, t_end)
    assert expected == pytest.approx(width0 * np.sqrt(2.0))
    assert measured_width(trajectory.final_state) == pytest.approx(expected, rel=1e-3)


def test_matches_dense_propagator_oracle():
    psi0, potential = oracle_setup()
    t_end = 1.0
    propagator = dense_propagator(ORACLE_GRID, potential.values, 1.0, t_end)
    exact = propagator @ psi0.amplitudes
    config = EvolutionConfig(dt=0.02, t_end=t_end, mass=1.0, snapshot_stride=10**6)
    final = evolve(psi0, potential, config).final_state
    err = np.sqrt(np.sum(np.abs(final.amplitudes - exact) ** 2) * ORACLE_GRID.cell_volume)
    assert err <= 1e-4


def test_second_order_accuracy_in_dt():
    psi0, potential = oracle_setup()
    t_end = 1.0
    propagator = dense_propagator(ORACLE_GRID, potential.values, 1.0, t_end)
    exact = propagator @ psi0.amplitudes
    errors = []
    for dt in (0.02, 0.01):
        config = EvolutionConfig(dt=dt, t_end=t_end, mass=1.0, snapshot_stride=10**6)
        final = evolve(psi0, potential, config).final_state
        errors.append(
            np.sqrt(np.sum(np.abs(final.amplitudes - exact) ** 2) * ORACLE_GRID.cell_volume)
        )
    ratio = errors[0] / errors[1]
    assert 3.0 <= ratio <= 5.0


def test_t_end_zero_returns_initial_only(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    potential = Potential.point_mass(grid256, 1.0, 0.3)
    trajectory = evolve(psi0, potential, EvolutionConfig(dt=0.1, t_end=0.0, mass=1.0))
    assert trajectory.times == (0.0,)
    assert trajectory.states[0] is psi0


def test_constant_potential_is_global_phase(grid256):
    """V = const shifts the free solution by exp(-i c t); densities unchanged."""
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    c = 0.7
    config = EvolutionConfig(dt=0.05, t_end=1.0, mass=1.0, snapshot_stride=10**6)
    free = evolve(psi0, Potential.tabulated(grid256, np.zeros(grid256.shape)), config)
    shifted = evolve(psi0, Potential.tabulated(grid256, c * np.ones(grid256.shape)), config)
    expected = np.exp(-1j * c * config.t_end) * free.final_state.amplitudes
    assert np.max(np.abs(shifted.final_state.amplitudes - expected)) < 1e-12
    densities = np.abs(shifted.final_state.probability_density()
                       - free.final_state.probability_density())
    assert np.max(densities) < 1e-12


def test_identical_sources_identical_trajectories(grid256):
    psi0 = gaussian_packet(grid256, -1.0, 1.0)
    config = EvolutionConfig(dt=0.05, t_end=1.0, mass=1.0, snapshot_stride=5)
    left = evolve(psi0, Potential.point_mass(grid256, 0.5, 0.2), config)
    right = evolve(psi0, Potential.point_mass(grid256, 0.5, 0.2), config)
    assert left.times == right.times
    for a, b in zip(left.states, right.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_norm_conservation_ten_thousand_steps():
    g = Grid(128, 30.0)
    psi0 = gaussian_packet(g, 0.0, 1.1)
    potential = Potential.point_mass(g, 1.5, 0.4)
    config = EvolutionConfig(dt=0.005, t_end=50.0, mass=1.0, snapshot_stride=2000)
    trajectory = evolve(psi0, potential, config)
    assert len(trajectory.times) >= 5
    for state in trajectory.states:
        assert abs(norm(state) - 1.0) <= 1e-8


def test_time_reversal_with_negative_dt(grid256):
    psi0 = gaussian_packet(grid256, -0.5, 1.0)
    potential = Potential.point_mass(grid256, 1.0, 0.3)
    forward = EvolutionConfig(dt=0.02, t_end=1.0, mass=1.0)
    backward = EvolutionConfig(dt=-0.02, t_end=1.0, mass=1.0)
    psi = psi0
    for _ in range(50):
        psi = step(psi, potential, forward)
    for _ in range(50):
        psi = step(psi, potential, backward)
    err = np.sqrt(np.sum(np.abs(psi.amplitudes - psi0.amplitudes) ** 2)
                  * grid256.cell_volume)
    assert err < 1e-8


def test_energy_drift():
    psi0, potential = oracle_setup()
    mass = 1.0
    config = EvolutionConfig(dt=0.01, t_end=2.0, mass=mass, snapshot_stride=20)
    trajectory = evolve(psi0, potential, config)
    energies = [energy_expectation(s, potential, mass) for s in trajectory.states]
    e0 = energies[0]
    drift = max(abs(e - e0) for e in energies) / max(abs(e0), 1.0)
    assert drift <= 1e-6


def test_snapshot_final_time_within_dt(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    potential = Potential.point_mass(grid256, 1.0, 0.3)
    config = EvolutionConfig(dt=0.03, t_end=1.0, mass=1.0, snapshot_stride=7)
    trajectory = evolve(psi0, potential, config)
    assert abs(trajectory.final_time - 1.0) <= config.dt
    # stride-aligned snapshots plus the forced final one
    assert trajectory.times[1] == pytest.approx(7 * 0.03)


def test_evolve_rejects_negative_dt(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    potential = Potential.point_mass(grid256, 1.0, 0.3)
    with pytest.raises(DomainError):
        evolve(psi0, potential, EvolutionConfig(dt=-0.05, t_end=1.0, mass=1.0))


def test_step_grid_mismatch(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    other = Potential.point_mass(Grid(128, 40.0), 1.0, 0.3)
    with pytest.raises(GridMismatch):
        step(psi0, other, EvolutionConfig(dt=0.05, t_end=1.0, mass=1.0))


def test_stability_warning_on_large_phase(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    strong = Potential.point_mass(grid256, 0.0, 50.0, softening=0.5)
    config = EvolutionConfig(dt=0.05, t_end=0.1, mass=1.0)
    with pytest.warns(StabilityWarning):
        evolve(psi0, strong, config)


def test_config_validation():
    with pytest.raises(DomainError):
        EvolutionConfig(dt=0.0, t_end=1.0, mass=1.0)
    with pytest.raises(DomainError):
        EvolutionConfig(dt=2.0, t_end=1.0, mass=1.0)
    with pytest.raises(DomainError):
        EvolutionConfig(dt=0.1, t_end=1.0, mass=-1.0)
    with pytest.raises(DomainError):
        EvolutionConfig(dt=0.1, t_end=1.0, mass=1.0, snapshot_stride=0)


def test_trajectory_invariants(grid256):
    psi = gaussian_packet(grid256, 0.0, 1.0)
    with pytest.raises(DomainError):
        Trajectory((0.0, 0.0), (psi, psi))
    from holesim import NormViolation, WaveFunction

    drifted = WaveFunction(grid256, 1.01 * psi.amplitudes)
    with pytest.raises(NormViolation):
        Trajectory((0.0, 1.0), (psi, drifted))


def test_nearest_index_snapping_and_range(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    potential = Potential.point_mass(grid256, 1.0, 0.3)
    trajectory = evolve(psi0, potential,
                        EvolutionConfig(dt=0.1, t_end=1.0, mass=1.0, snapshot_stride=2))
    assert trajectory.nearest_index(0.39) == 2
    assert trajectory.nearest_index(1.0) == len(trajectory.times) - 1
    with pytest.raises(DomainError):
        trajectory.nearest_index(2.0)


def test_2d_evolution_norm_and_branch_overlap():
    """The stepper is dimension-generic: 2D branches stay normalized and
    their overlap decays like the 1D case."""
    grid = Grid((128, 128), (30.0, 30.0))
    psi0 = gaussian_packet(grid, (0.0, 0.0), 1.4)
    config = EvolutionConfig(dt=0.05, t_end=0.5, mass=2.0, snapshot_stride=5)
    left = evolve(psi0, Potential.point_mass(grid, (-1.5, 0.0), 0.3), config)
    right = evolve(psi0, Potential.point_mass(grid, (1.5, 0.0), 0.3), config)
    for state in left.states + right.states:
        assert abs(norm(state) - 1.0) <= 1e-12
    from holesim import inner_product

    overlap = inner_product(left.final_state, right.final_state)
    assert 0.9 <= abs(overlap) <= 1.0 + 1e-12
    assert overlap.imag != 0.0


@pytest.mark.parametrize("grid", [Grid(1024, 40.0), Grid((128, 128), (30.0, 30.0))],
                         ids=["1d_1024", "2d_128sq"])
def test_step_and_evolve_share_one_kernel(grid):
    """Repeated steps reproduce evolve bit for bit, below and above the
    16384-point size where numpy starts reusing temporaries in place."""
    psi = gaussian_packet(grid, (0.5,) * grid.dim, 1.4)
    potential = Potential.point_mass(grid, (-1.0,) * grid.dim, 0.3)
    config = EvolutionConfig(dt=0.05, t_end=0.25, mass=1.0)
    trajectory = evolve(psi, potential, config)
    for _ in range(len(trajectory.times) - 1):
        psi = step(psi, potential, config)
    assert np.array_equal(psi.amplitudes, trajectory.final_state.amplitudes)


def test_evolve_reports_blowup_step_from_kinetic_factor(grid256, monkeypatch):
    evolve_module = importlib.import_module("holesim.evolve")
    real = evolve_module._kinetic_phase

    def poisoned(*args):
        kinetic = real(*args).copy()
        kinetic[3] = np.nan
        return kinetic

    monkeypatch.setattr(evolve_module, "_kinetic_phase", poisoned)
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    potential = Potential.point_mass(grid256, 1.0, 0.3)
    with pytest.raises(NumericalBlowup, match="at step 1"):
        evolve(psi0, potential, EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0))


def test_snapshots_never_alias_the_working_buffer(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    potential = Potential.point_mass(grid256, 1.0, 0.3)
    trajectory = evolve(psi0, potential, EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0))
    states = trajectory.states
    assert len(states) == 11
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert not np.shares_memory(a.amplitudes, b.amplitudes)
    for state in states[1:]:
        assert not np.shares_memory(state.amplitudes, psi0.amplitudes)
