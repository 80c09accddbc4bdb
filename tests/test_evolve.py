"""Propagator contracts: unitarity, accuracy against the dense oracle,
analytic free-packet behavior, reversibility, energy drift."""

import importlib
import sys
import threading
import tracemalloc
import weakref

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
    WaveFunction,
    energy_expectation,
    evolve,
    evolve_branches,
    gaussian_packet,
    norm,
)
from oracles import dense_propagator, free_gaussian_width, measured_width

evolve_module = importlib.import_module("holesim.evolve")

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
    psi1 = evolve(psi0, free, EvolutionConfig(dt=0.05, t_end=0.05, mass=1.0)).final_state
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


def test_time_reversal_by_conjugation(grid256):
    """V is real, so conjugation reverses time: evolving the conjugate of
    psi(T) for T more and conjugating again returns psi0."""
    psi0 = gaussian_packet(grid256, -0.5, 1.0)
    potential = Potential.point_mass(grid256, 1.0, 0.3)
    config = EvolutionConfig(dt=0.02, t_end=1.0, mass=1.0, snapshot_stride=10**6)
    psi = psi0
    for _ in range(2):
        psi = evolve(psi, potential, config).final_state
        psi = WaveFunction(grid256, psi.amplitudes.conj())
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
    with pytest.raises(DomainError, match="dt must be positive and finite, got -0.05"):
        evolve(psi0, potential, EvolutionConfig(dt=-0.05, t_end=1.0, mass=1.0))


def test_step_grid_mismatch(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    other = Potential.point_mass(Grid(128, 40.0), 1.0, 0.3)
    with pytest.raises(GridMismatch):
        evolve(psi0, other, EvolutionConfig(dt=0.05, t_end=1.0, mass=1.0))


def test_stability_warning_on_large_phase(grid256):
    """The warning names the line that called either entry point."""
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    strong = Potential.point_mass(grid256, 0.0, 50.0, softening=0.5)
    config = EvolutionConfig(dt=0.05, t_end=0.1, mass=1.0)
    with pytest.warns(StabilityWarning) as lone:
        evolve(psi0, strong, config)
    with pytest.warns(StabilityWarning) as stacked:
        evolve_branches([psi0], [strong], config)
    assert lone[0].filename == stacked[0].filename == __file__


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
    from holesim import NormViolation

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
    """Chained one-step evolves reproduce one evolve bit for bit, below and
    above the 16384-point size where numpy starts reusing temporaries in place."""
    psi = gaussian_packet(grid, (0.5,) * grid.dim, 1.4)
    potential = Potential.point_mass(grid, (-1.0,) * grid.dim, 0.3)
    config = EvolutionConfig(dt=0.05, t_end=0.25, mass=1.0)
    trajectory = evolve(psi, potential, config)
    one_step = EvolutionConfig(dt=config.dt, t_end=config.dt, mass=config.mass)
    for _ in range(len(trajectory.times) - 1):
        psi = evolve(psi, potential, one_step).final_state
    assert np.array_equal(psi.amplitudes, trajectory.final_state.amplitudes)


def test_evolve_reports_blowup_step_from_kinetic_factor(grid256, monkeypatch):
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


def fftn_strang_final(psi0, potential, config):
    """Final amplitudes of a lone branch stepped with whole-array fftn/ifftn,
    the reference for the axis-by-axis transforms of the stacked kernel."""
    half_v = np.exp(-0.5j * potential.values * config.dt)
    kinetic = np.exp(-0.5j * (sum(np.meshgrid(*[k**2 for k in psi0.grid.wavenumbers()],
                                              indexing="ij")) * config.dt / config.mass))
    amps = psi0.amplitudes.copy()
    spectrum = np.empty_like(amps)
    for _ in range(int(round(config.t_end / config.dt))):
        np.multiply(half_v, amps, out=amps)
        np.fft.fftn(amps, out=spectrum)
        np.multiply(kinetic, spectrum, out=spectrum)
        np.fft.ifftn(spectrum, out=amps)
        np.multiply(half_v, amps, out=amps)
    return amps


def branch_setup(grid, width, branches):
    """Distinct labelled packets, each in its own point-mass potential."""
    states = [gaussian_packet(grid, (0.5 - 0.2 * b,) * grid.dim, width, label=f"b{b}")
              for b in range(branches)]
    potentials = [Potential.point_mass(grid, (-1.0 + 0.7 * b,) * grid.dim, 0.3)
                  for b in range(branches)]
    return states, potentials


# The last entry of each case is its part sizes on two cores: a call over
# STACK_BYTES is cut into one contiguous part per core. On one core every
# call is one part. At the default 256 KiB a 2D 128^2 pair (512 KiB) splits,
# while a 1D 1024 pair (32 KiB), as in every 1D hole run, and a 2D 64^2 pair
# (128 KiB) stay one stack and start no thread.
STACKED_CASES = [
    (Grid(1024, 40.0), 1.4, None, [3]),
    (Grid(1024, 40.0), 1.4, None, [2]),
    (Grid((64, 64), (40.0, 40.0)), 1.9, None, [2]),
    (Grid(1024, 40.0), 1.4, 2 * 16 * 1024, [1, 2]),
    (Grid((128, 128), (30.0, 30.0)), 1.4, None, [1, 1]),
    (Grid((64, 64, 64), (40.0,) * 3), 1.9, None, [1, 1]),
]
STACKED_IDS = ["1d_1024", "1d_1024_pair", "2d_64sq_pair", "1d_1024_groups_of_2",
               "2d_128sq", "3d_64cube_over_budget"]


@pytest.mark.parametrize("grid, width, stack_bytes, parts", STACKED_CASES, ids=STACKED_IDS)
def test_stacked_branches_match_lone_evolves(monkeypatch, grid, width, stack_bytes, parts):
    """A branch evolved in a stack has the bits of its lone evolve and of
    whole-array fftn steps. On one core a call is one stack of every
    branch, over the budget or not."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: 1)
    check_stacked_branches(monkeypatch, grid, width, stack_bytes, [sum(parts)])


@pytest.mark.parametrize("grid, width, stack_bytes, parts", STACKED_CASES, ids=STACKED_IDS)
def test_stacked_branches_match_lone_evolves_on_two_workers(monkeypatch, grid, width,
                                                            stack_bytes, parts):
    """The same bits when a call over the budget steps as two parts on two
    threads at once."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: 2)
    check_stacked_branches(monkeypatch, grid, width, stack_bytes, parts)


def check_stacked_branches(monkeypatch, grid, width, stack_bytes, parts):
    if stack_bytes is not None:
        monkeypatch.setattr(evolve_module, "STACK_BYTES", stack_bytes)
    real = evolve_module._advance
    stacks = []

    def recording(stack, *args):
        if not any(stack is seen for seen in stacks):
            stacks.append(stack)
        return real(stack, *args)

    states, potentials = branch_setup(grid, width, sum(parts))
    config = EvolutionConfig(dt=0.05, t_end=0.15 if grid.dim == 3 else 0.5, mass=1.0,
                             snapshot_stride=2)
    monkeypatch.setattr(evolve_module, "_advance", recording)
    stacked = evolve_branches(states, potentials, config)
    monkeypatch.setattr(evolve_module, "_advance", real)
    assert sorted(len(stack) for stack in stacks) == sorted(parts)
    assert [t.states[-1].label for t in stacked] == [psi.label for psi in states]
    for psi, potential, trajectory in zip(states, potentials, stacked):
        lone = evolve(psi, potential, config)
        assert trajectory.times == lone.times
        for a, b in zip(trajectory.states, lone.states):
            assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(trajectory.final_state.amplitudes,
                              fftn_strang_final(psi, potential, config))


def test_blowup_in_one_stacked_branch_names_the_step(grid256):
    psi0 = gaussian_packet(grid256, 0.0, 1.0)
    values = np.zeros(grid256.shape)
    values[7] = np.nan
    broken = Potential("tabulated", grid256, values)  # bypasses the finiteness check
    fine = Potential.point_mass(grid256, 1.0, 0.3)
    config = EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0)
    with pytest.raises(NumericalBlowup, match="at step 1"):
        evolve_branches([psi0, psi0], [fine, broken], config)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_blown_up_branch_leaves_every_handed_row_finite(grid256, monkeypatch, workers):
    """Three branches over a 4 KiB STACK_BYTES, the middle one in a NaN
    potential: one part on one core, parts [b0] and [b1, b2] on two. Every
    row the consumer is handed is finite, so it may read them unchecked:
    from the step it blew up on, the broken branch's row is zero and its
    blowups entry names that step, and the other rows have the bits of a
    stream without it."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 16 * grid256.size)
    states, potentials = branch_setup(grid256, 1.0, 3)
    values = np.zeros(grid256.shape)
    values[7] = np.nan
    potentials[1] = Potential("tabulated", grid256, values)  # bypasses the finiteness check
    config = EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0)

    def handed(states, potentials):
        seen = []

        def consume(t, rows, blowups):
            seen.append((t, np.array(rows), [str(error) if error else None for error in blowups]))
            return True

        evolve_module.stream_branches(states, potentials, config, consume)
        return seen

    seen = handed(states, potentials)
    alone = handed(states[::2], potentials[::2])
    assert [t for t, *_ in seen] == [t for t, *_ in alone] == [0.05 * k for k in range(11)]
    for (t, rows, blowups), (_, fine, fine_blowups) in zip(seen, alone):
        assert np.isfinite(rows).all()
        assert np.array_equal(rows[::2], fine) and blowups[::2] == fine_blowups == [None, None]
        if t > 0:
            assert not rows[1].any()
            assert blowups[1] == "evolution of branch 'b1' blew up at step 1"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("broken, named", [({1, 2}, "b1"), ({2}, "b2")])
def test_blowup_names_the_first_failing_branch(monkeypatch, workers, broken, named):
    """Three 1D branches over a 32 KiB STACK_BYTES: one part on one core,
    parts [b0] and [b1, b2] on two. The error names the first branch whose
    amplitudes went non-finite, whichever part and row it is in."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 2 * 16 * 1024)
    grid = Grid(1024, 40.0)
    states, potentials = branch_setup(grid, 1.4, 3)
    values = np.zeros(grid.shape)
    values[7] = np.nan
    for b in broken:
        potentials[b] = Potential("tabulated", grid, values)  # bypasses the finiteness check
    with pytest.raises(NumericalBlowup, match=f"^evolution of branch '{named}' blew up at step 1$"):
        evolve_branches(states, potentials, EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0))


@pytest.mark.parametrize("workers", [1, 2])
def test_snapshots_are_never_written_after_their_step(grid256, monkeypatch, workers):
    """Two branches over a 4 KiB STACK_BYTES: one part on one core, one
    part each on two. Every snapshot holds its branch as the stack stood
    after the step it records. Only the last may share memory with a
    stack, and then only with its own row; none shares memory with a
    potential phase, and every snapshot is read-only, those the engine
    wrote for good: their buffers cannot be made writeable again."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 16 * grid256.size)
    real = evolve_module._advance
    parts = {}  # id(stack) -> (stack, half_v, [stack before step 1, after step 1, ...])

    def recording(stack, half_v, kinetic):
        if id(stack) not in parts:
            parts[id(stack)] = (stack, half_v, [stack.copy()])
        real(stack, half_v, kinetic)
        parts[id(stack)][2].append(stack.copy())

    monkeypatch.setattr(evolve_module, "_advance", recording)
    states, potentials = branch_setup(grid256, 1.0, 2)
    config = EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0, snapshot_stride=2)
    trajectories = evolve_branches(states, potentials, config)
    assert len(parts) == workers
    for psi, trajectory in zip(states, trajectories):
        (stack, row), = [(stack, r) for stack, _, history in parts.values()
                         for r, initial in enumerate(history[0])
                         if np.array_equal(initial, psi.amplitudes)]
        history = parts[id(stack)][2]
        assert len(trajectory.states) == 6
        for j, (t, state) in enumerate(zip(trajectory.times, trajectory.states)):
            amps = state.amplitudes
            assert not amps.flags.writeable
            if j:
                with pytest.raises(ValueError):
                    amps.flags.writeable = True
            assert np.array_equal(amps, history[round(t / config.dt)][row])
            last = j == len(trajectory.states) - 1
            for other, half_v, _ in parts.values():
                assert not np.shares_memory(amps, half_v)
                for r in range(len(other)):
                    if np.shares_memory(amps, other[r]):
                        assert last and other is stack and r == row


@pytest.mark.parametrize("grid, width, stack_bytes, branches", [
    (Grid((64, 64, 64), (40.0,) * 3), 1.9, None, 2),
    (Grid((128, 128), (30.0, 30.0)), 1.4, None, 2),
    (Grid(1024, 40.0), 1.4, 16 * 1024, 6),
], ids=["3d_64cube", "2d_128sq", "1d_1024_groups_of_1"])
def test_bits_do_not_depend_on_worker_count(monkeypatch, grid, width, stack_bytes, branches):
    """One, two or more workers than CPUs, switching threads as often as the
    interpreter allows: the same trajectories, in input order."""
    if stack_bytes is not None:
        monkeypatch.setattr(evolve_module, "STACK_BYTES", stack_bytes)
    states, potentials = branch_setup(grid, width, branches)
    config = EvolutionConfig(dt=0.05, t_end=0.15, mass=1.0)
    runs = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
            runs[workers] = evolve_branches(states, potentials, config)
    finally:
        sys.setswitchinterval(interval)
    for trajectories in runs.values():
        assert [t.states[0] for t in trajectories] == states
        for trajectory, serial in zip(trajectories, runs[1]):
            assert trajectory.times == serial.times
            for a, b in zip(trajectory.states, serial.states):
                assert np.array_equal(a.amplitudes, b.amplitudes)


# Part sizes of three 1D 1024 branches over a 32 KiB STACK_BYTES, by core
# count.
PARTS_OF_THREE = {1: [3], 2: [1, 2]}


def poison_groups(monkeypatch, steps_by_size):
    """Make the part of each stack size in ``steps_by_size`` go non-finite
    at that step."""
    real = evolve_module._advance
    calls = {}

    def poisoning(stack, half_v, kinetic):
        real(stack, half_v, kinetic)
        calls[id(stack)] = calls.get(id(stack), 0) + 1
        if calls[id(stack)] == steps_by_size.get(len(stack)):
            stack[0, 0] = np.nan

    monkeypatch.setattr(evolve_module, "_advance", poisoning)


@pytest.mark.parametrize("workers", [1, 2])
def test_blowup_in_the_second_group_names_its_step(monkeypatch, workers):
    monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 2 * 16 * 1024)
    states, potentials = branch_setup(Grid(1024, 40.0), 1.4, 3)
    poison_groups(monkeypatch, {PARTS_OF_THREE[workers][-1]: 3})
    with pytest.raises(NumericalBlowup, match="at step 3$"):
        evolve_branches(states, potentials, EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0))


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_group_in_input_order_is_raised(monkeypatch, workers):
    """The last part fails first in time; the first part's error wins. On
    one core they are one part, and it fails at the first part's step."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 2 * 16 * 1024)
    states, potentials = branch_setup(Grid(1024, 40.0), 1.4, 3)
    first, last = PARTS_OF_THREE[workers][0], PARTS_OF_THREE[workers][-1]
    poison_groups(monkeypatch, {last: 1, first: 4})
    with pytest.raises(NumericalBlowup, match="at step 4$"):
        evolve_branches(states, potentials, EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0))


class PartFailure(Exception):
    pass


@pytest.mark.parametrize("raising, expected", [
    ({2}, "^part of 2$"), ({1, 2}, "^part of 1$"), (set(), "^consumer$"),
], ids=["part_1", "both_parts", "consumer"])
def test_part_and_consumer_errors_are_raised_and_no_thread_is_left(monkeypatch, raising,
                                                                   expected):
    """Parts [b0] and [b1, b2] on two cores. An exception of part 1's step
    is raised; with both parts raising, part 0's; one of the consumer at
    the first snapshot after t = 0 too. No thread outlives the call."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: 2)
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 2 * 16 * 1024)
    states, potentials = branch_setup(Grid(1024, 40.0), 1.4, 3)
    real = evolve_module._advance

    def failing(stack, half_v, kinetic):
        if len(stack) in raising:
            raise PartFailure(f"part of {len(stack)}")
        real(stack, half_v, kinetic)

    def consume(t, rows, blowups):
        if t > 0:
            raise PartFailure("consumer")
        return True

    monkeypatch.setattr(evolve_module, "_advance", failing)
    config = EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0, snapshot_stride=2)
    threads = threading.active_count()
    with pytest.raises(PartFailure, match=expected):
        evolve_module.stream_branches(states, potentials, config, consume)
    assert threading.active_count() == threads


def test_stepping_stops_once_the_first_branch_blew_up(monkeypatch):
    """The first branch's blow-up settles the error raised, so the stack
    steps on only to the next snapshot, not to t_end."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: 1)
    states, potentials = branch_setup(Grid(1024, 40.0), 1.4, 3)
    poison_groups(monkeypatch, {3: 2})
    poisoning, steps = evolve_module._advance, []

    def counting(stack, half_v, kinetic):
        steps.append(len(stack))
        poisoning(stack, half_v, kinetic)

    monkeypatch.setattr(evolve_module, "_advance", counting)
    config = EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0, snapshot_stride=3)
    with pytest.raises(NumericalBlowup, match="^evolution of branch 'b0' blew up at step 2$"):
        evolve_branches(states, potentials, config)
    assert steps == [3] * 3


@pytest.mark.parametrize("workers", [1, 2])
def test_evolve_allocates_one_stack_and_phase_per_branch(monkeypatch, workers):
    """Traced peaks of a two-branch 64^3 evolve with two snapshots, within
    10%: one stack and one potential phase per branch, one kinetic factor
    and a block for every snapshot but the last, which is the stack itself,
    all allocated before the first step and no more over the call; |k|^2
    is not kept."""
    grid = Grid((64, 64, 64), (40.0,) * 3)
    monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
    states, potentials = branch_setup(grid, 1.9, 2)
    config = EvolutionConfig(dt=0.05, t_end=0.1, mass=1.0)
    real = evolve_module._advance
    first_step_peaks = []

    def recording(stack, half_v, kinetic):
        first_step_peaks.append(tracemalloc.get_traced_memory()[1])
        return real(stack, half_v, kinetic)

    monkeypatch.setattr(evolve_module, "_advance", recording)
    field = 16 * grid.size
    tracemalloc.start()
    try:
        trajectories = evolve_branches(states, potentials, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(t.states) for t in trajectories] == [3, 3]
    working_set = 2 * 2 * field + field
    snapshots = (2 - 1) * 2 * field  # (T - 1) B for T = 2 snapshot steps
    assert first_step_peaks[0] <= 1.1 * (working_set + snapshots)
    assert peak <= 1.1 * (working_set + snapshots)


@pytest.mark.parametrize("grid, dt, mass", [
    (Grid((64, 64, 64), (20.0,) * 3), 0.02, 4.0),
    (Grid((128, 128), (40.0, 40.0)), 0.05, 1.0),
    (Grid(1024, 40.0), 0.02, 4.0),
], ids=["3d_64", "2d_128sq", "1d_1024"])
def test_kinetic_factor_has_the_bits_of_the_plain_expression(grid, dt, mass):
    k2 = sum(np.ix_(*(k**2 for k in grid.wavenumbers())))
    expected = np.exp(-0.5j * k2 * dt / mass)
    assert np.array_equal(evolve_module._kinetic_phase(grid, dt, mass).view(np.float64),
                          expected.view(np.float64))


def test_kinetic_factor_is_built_in_its_own_array():
    """A 3D 64^3 factor traces at most 1.1 of its fields: no real |k|^2
    field and no complex temporary beside it (the plain expression traced
    two fields)."""
    grid = Grid((64, 64, 64), (20.0,) * 3)
    grid.wavenumbers()  # cached per grid, outside the trace
    tracemalloc.start()
    try:
        evolve_module._kinetic_phase(grid, 0.02, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 16 * grid.size


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before CPython 3.11 a call's arguments stay on the caller's stack")
@pytest.mark.parametrize("workers", [1, 2])
def test_stream_frees_inputs_it_is_handed_once_its_stacks_are_built(monkeypatch, workers):
    """States and potentials in lists that no one else holds are freed
    before the first step: the consumer sees the t = 0 amplitudes, and by
    the next snapshot neither they nor the potential values are alive.
    The rows still have the bits of evolve_branches over kept inputs."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 1024)
    grid = Grid(256, 40.0)
    config = EvolutionConfig(dt=0.05, t_end=0.2, mass=1.0, snapshot_stride=2)
    expected = evolve_branches(*branch_setup(grid, 1.4, 3), config)
    refs, alive, finals = [], [], []

    def inputs(index, field):
        items = branch_setup(grid, 1.4, 3)[index]
        refs.extend(weakref.ref(getattr(item, field)) for item in items)
        return items

    def consume(t, rows, blowups):
        alive.append(sum(ref() is not None for ref in refs))
        finals[:] = [np.array(row) for row in rows]
        return True

    evolve_module.stream_branches(inputs(0, "amplitudes"), inputs(1, "values"), config, consume)
    assert alive == [6, 0, 0]
    for row, trajectory in zip(finals, expected):
        assert np.array_equal(row, trajectory.final_state.amplitudes)

    refs.clear()
    alive.clear()
    kept = inputs(0, "amplitudes"), inputs(1, "values")
    evolve_module.stream_branches(*kept, config, consume)
    assert alive == [6, 6, 6]  # the caller's lists hold them


def test_workers_allocate_nothing_per_step(monkeypatch):
    """Two parts of two 1D branches, a snapshot at every step, so each part
    takes one step per interval. The calling thread steps part 0 and a pool
    thread part 1, in strict turns, so that each reads the traced array
    memory after a step while the other waits: every reading equals the
    first. The pool thread hands its turn over after its step, the calling
    thread once it waits for the pool thread. The consumer runs between
    intervals and keeps no array.

    Only numpy's array data counts: the interpreter keeps small objects in
    free lists, which move the total by a few bytes whatever the engine
    does."""
    monkeypatch.setattr(evolve_module, "_cores", lambda: 2)
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 16 * 1024)
    states, potentials = branch_setup(Grid(1024, 40.0), 1.4, 4)
    n_steps = 20
    config = EvolutionConfig(dt=0.05, t_end=n_steps * 0.05, mass=1.0)
    real, real_wait = evolve_module._advance, evolve_module.wait
    caller = threading.get_ident()
    turns = threading.Condition()
    handed = [0]  # turns handed over so far
    calls = [0, 0]
    readings = np.zeros((2, n_steps), dtype=np.int64)
    arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def hand_over():
        with turns:
            handed[0] += 1
            turns.notify_all()

    def step_in_turn(stack, half_v, kinetic):
        i = int(threading.get_ident() != caller)
        k = calls[i]
        calls[i] = k + 1
        with turns:
            while handed[0] != 2 * k + i:
                assert turns.wait(30), "the other thread never handed over"
        real(stack, half_v, kinetic)
        traces = tracemalloc.take_snapshot().filter_traces(arrays).traces
        readings[i, k] = sum(trace.size for trace in traces)
        if i:
            hand_over()

    def wait_in_turn(futures):
        hand_over()
        return real_wait(futures)

    norms = np.zeros((n_steps + 1, 4))
    seen = [0]

    def consume(t, rows, blowups):  # writes into norms, allocates no array
        for b, row in enumerate(rows):
            norms[seen[0], b] = np.vdot(row, row).real
        seen[0] += 1
        return True

    monkeypatch.setattr(evolve_module, "_advance", step_in_turn)
    monkeypatch.setattr(evolve_module, "wait", wait_in_turn)
    tracemalloc.start()
    try:
        blowups = evolve_module.stream_branches(states, potentials, config, consume)
    finally:
        tracemalloc.stop()
    assert (readings == readings[0, 0]).all()
    assert calls == [n_steps, n_steps]
    assert seen[0] == n_steps + 1 and blowups == [None] * 4
    assert np.allclose(norms, norms[0], rtol=1e-12, atol=0.0)


def test_stacked_branches_share_one_grid(grid256):
    config = EvolutionConfig(dt=0.05, t_end=0.5, mass=1.0)
    other = Grid(128, 40.0)
    states = [gaussian_packet(grid256, 0.0, 1.0), gaussian_packet(other, 0.0, 1.0)]
    potentials = [Potential.point_mass(grid256, 1.0, 0.3), Potential.point_mass(other, 1.0, 0.3)]
    with pytest.raises(GridMismatch):
        evolve_branches(states, potentials, config)
    with pytest.raises(ValueError):
        evolve_branches(states, potentials[:1], config)


def test_no_branches_evolve_to_no_trajectories():
    assert evolve_branches([], [], EvolutionConfig(0.1, 1.0, 1.0)) == ()


@pytest.mark.parametrize("grid, source", [
    (Grid(1024, 40.0), (-2.5,)),
    (Grid((64, 32), (40.0, 20.0)), (19.0, -3.3)),
    (Grid((16, 32, 16), (8.0, 12.0, 8.0)), (0.7, 5.9, -3.9)),
], ids=["1d", "2d", "3d"])
def test_point_mass_values_are_its_pointwise_form(grid, source):
    """The gridded values, built axis by axis, have the bits of the
    analytic form evaluated at every grid point."""
    potential = Potential.point_mass(grid, source, 0.3, 0.8)
    points = np.stack([m.ravel() for m in grid.coordinate_mesh()], axis=-1)
    assert np.array_equal(potential.values, potential.evaluate_at(points).reshape(grid.shape))
