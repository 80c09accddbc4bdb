"""Baseline-vs-hole orchestration: the contrast, controls, gating,
support accounting, and sweeps."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from holesim import (
    ConfigError,
    DomainError,
    SpatialDiffeomorphism,
    Grid,
    StabilityWarning,
    evolve,
    evolve_branches,
    InsufficientDisplacement,
    Region,
    SupportViolation,
    WaveFunction,
    default_config,
    identity_map,
    make_bump_displacement,
    make_translation_ramp,
    run_baseline,
    run_hole,
    sweep,
    theta_time_series,
)
from holesim.diffeo import PushforwardPlan
from holesim.hole_experiment import DEFAULT_SCENARIO, config_from_sections
from holesim.evolve import stream_branches

# Regression pin for the committed default config (first validated run).
PINNED_THETA_BASELINE_FINAL = 0.9857452284116655 - 0.11776562038866381j


def test_region_mask_wraps_around_the_domain():
    grid = Grid(1024, 40.0)
    region = Region(15.0, 25.0)
    mask = region.mask(grid)
    x = grid.axes()[0]
    assert mask[np.argmin(np.abs(x - 16.0))]
    assert mask[np.argmin(np.abs(x + 16.0))]  # wrapped part (> 20 folds back)
    assert not mask[np.argmin(np.abs(x - 0.0))]
    assert np.count_nonzero(mask) == pytest.approx(1024 * 10 / 40, abs=2)


def test_region_mask_matches_the_mesh_mask_without_a_mesh():
    """A box wrapped on two axes of a 64^3 grid: the mask has the bits of
    the same test on the full coordinate mesh, and building it allocates
    no full-size float array (8 bytes a point), only the boolean mask."""
    grid = Grid((64, 64, 64), (40.0, 30.0, 20.0))
    region = Region((15.0, -5.0, -13.0), (25.0, 5.0, -4.0))
    tracemalloc.start()
    try:
        mask = region.mask(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = np.ones(grid.shape, dtype=bool)
    for axis, x in enumerate(np.meshgrid(*grid.axes(), indexing="ij")):
        L = grid.extent[axis]
        expected &= (x - region.lower[axis]) % L <= region.upper[axis] - region.lower[axis] + 1e-12 * L
    assert np.array_equal(mask, expected)
    assert 0 < np.count_nonzero(mask) < grid.size
    assert peak < 2 * grid.size


def test_identical_sources_theta_one():
    config = default_config(source_left=1.5, source_right=1.5)
    report = run_baseline(config)
    assert np.max(np.abs(report.theta_baseline - 1.0)) < 1e-12


def test_zero_coupling_theta_one():
    config = default_config(coupling=0.0)
    report = run_baseline(config)
    assert np.max(np.abs(report.theta_baseline - 1.0)) < 1e-12


def test_zero_coupling_baseline_evolves_once(monkeypatch):
    """Equal branch potentials share one evolution; theta is the same, bit
    for bit, as from two separate evolves."""
    import holesim.hole_experiment as hole_experiment

    config = default_config(coupling=0.0)
    psi0 = config.initial_packet()
    v_left, v_right = config.branch_potentials()
    left = evolve(psi0, v_left, config.evolution)
    right = evolve(psi0, v_right, config.evolution)
    _, separate = theta_time_series(left, right)

    branches = []

    def counting(states, potentials, evolution, consume):
        branches.extend(states)
        return stream_branches(states, potentials, evolution, consume)

    monkeypatch.setattr(hole_experiment, "stream_branches", counting)
    report = run_baseline(config)
    assert len(branches) == 1
    assert np.array_equal(report.theta_baseline, separate)


def test_default_baseline_weak_coupling_regime():
    report = run_baseline(default_config())
    final = report.final_theta_baseline
    assert abs(final) >= 0.9
    assert abs(np.angle(final)) >= 0.01  # interaction-induced phase shift
    assert report.diagnostics["max_mass_outside_support"] <= 1e-10
    # regression pin from the first validated run of the committed config
    assert abs(final - PINNED_THETA_BASELINE_FINAL) <= 1e-9


def test_identity_diffeo_reproduces_baseline_exactly():
    config = default_config(diffeo=identity_map(1))
    report = run_hole(config)
    assert np.array_equal(report.theta_hole, report.theta_baseline)


def test_default_hole_contrast():
    report = run_hole(default_config())
    assert abs(report.final_theta_baseline) >= 0.9
    assert abs(report.final_theta_hole) <= 1e-3
    assert abs(report.final_theta_baseline) - abs(report.final_theta_hole) >= 0.9
    # after ramp completion the branch supports are disjoint
    after = report.times > report.config.diffeo.t1
    assert np.max(np.abs(report.theta_hole[after])) <= 1e-3


def test_two_sided_control_preserves_theta():
    report = run_hole(default_config(two_sided=True))
    assert np.max(np.abs(report.theta_hole - report.theta_baseline)) <= 1e-6


def test_aligned_two_sided_control_is_exact():
    """Past the ramp an aligned map rolls both branches by the same cells,
    unrenormalized, so the control keeps theta to roundoff, not to the
    norm drift of the snapshots; a Fourier shift (2.0, off the grid's
    cells), swept on the same run, keeps it to the roundoff of its FFTs."""
    aligned, fourier = sweep(default_config(two_sided=True), "displacement", [17.5, 2.0])
    for report in (run_hole(default_config(two_sided=True)), aligned.report):
        assert np.max(np.abs(report.theta_hole - report.theta_baseline)) <= 1e-15
    report = fourier.report
    assert np.max(np.abs(report.theta_hole - report.theta_baseline)) <= 1e-13


def test_two_sided_drift_covers_both_branches():
    """The reported pushforward drift is the largest over both branches."""
    config = default_config(two_sided=True)
    report = run_hole(config)
    psi0 = config.initial_packet()
    drifts = []
    for potential in config.branch_potentials():
        trajectory = evolve(psi0, potential, config.evolution)
        for t, psi in zip(trajectory.times, trajectory.states):
            pushed, size = PushforwardPlan(config.diffeo, t, config.grid).pushed(psi.amplitudes)
            if pushed is not psi.amplitudes:
                drifts.append(abs(size - 1.0))
    assert report.diagnostics["max_pushforward_norm_drift"] == max(drifts)


def test_two_sided_bump_run_builds_one_map_per_ramp_value(monkeypatch):
    """The 2D two-sided bump layout pushes 16 states through 2 distinct
    maps, mid-ramp at t = 1.2 and frozen from t1 = 1.6 on: the preimages
    are found twice, and each state still gets its own drift check."""
    config = config_from_sections({
        **DEFAULT_SCENARIO,
        "grid": {"points": [128, 128], "extent": [40.0, 40.0]},
        "packet": {"center": [-1.0, 0.0], "width": 1.0, "momentum": 0.0},
        "potentials": {"left_position": [-2.5, 0.0], "right_position": [2.5, 0.0],
                       "coupling": 0.1, "softening": 1.0},
        "diffeo": {"kind": "bump_displacement", "center": 0.0, "radius": 5.0,
                   "peak_shift": [1.0, 0.0], "t0": 0.8, "t1": 1.6, "two_sided": True},
        "support": {"lower": [-9.0, -9.0], "upper": [7.0, 9.0]},
        # the snapshot times of the default evolution, in half the steps
        "evolution": {**DEFAULT_SCENARIO["evolution"], "dt": 0.04, "snapshot_stride": 10},
    })
    inverse = SpatialDiffeomorphism.inverse
    calls = []

    def counting(self, points, t):
        calls.append(t)
        return inverse(self, points, t)

    monkeypatch.setattr(SpatialDiffeomorphism, "inverse", counting)
    report = run_hole(config)
    assert len(calls) == 2
    assert np.max(np.abs(report.theta_hole - report.theta_baseline)) <= 1e-6
    monkeypatch.setattr(SpatialDiffeomorphism, "inverse", inverse)
    psi0 = config.initial_packet()
    drifts = []
    for trajectory in evolve_branches([psi0, psi0], config.branch_potentials(), config.evolution):
        for t, psi in zip(trajectory.times, trajectory.states):
            pushed, size = PushforwardPlan(config.diffeo, t, config.grid).pushed(psi.amplitudes)
            if pushed is not psi.amplitudes:
                drifts.append(abs(size - 1.0))
    assert len(drifts) == 16
    assert report.diagnostics["max_pushforward_norm_drift"] == max(drifts)


@pytest.mark.parametrize("stride", [20, 5])
def test_hole_runs_wrap_no_state_per_snapshot(monkeypatch, stride):
    """A run wraps its packet and its branches' initial states in
    WaveFunctions, four per run, and no snapshot row or pushed state: the
    one-sided run, its two-sided control and a two-value coupling sweep
    build as many at stride 20 (11 snapshots) as at stride 5 (41)."""
    hold, built = WaveFunction._hold, []

    def counting(psi, grid, amps, label):
        built.append(label)
        hold(psi, grid, amps, label)

    monkeypatch.setattr(WaveFunction, "_hold", counting)
    evolution = dataclasses.replace(default_config().evolution, snapshot_stride=stride)
    config = default_config(evolution=evolution)
    runs = (lambda: run_hole(config),
            lambda: run_hole(dataclasses.replace(config, two_sided=True)),
            lambda: sweep(config, "coupling", [0.1, 0.2]))
    counts = []
    for run in runs:
        built.clear()
        run()
        counts.append(len(built))
    assert counts == [4, 4, 8]


def test_time_gating_before_onset():
    report = run_hole(default_config())
    gated = report.times <= report.config.diffeo.t0
    assert gated.any()
    assert np.max(np.abs(report.theta_hole[gated] - report.theta_baseline[gated])) <= 1e-10


def test_support_violation_detected():
    config = default_config(support=Region(-3.0, 3.0))
    with pytest.raises(SupportViolation):
        run_baseline(config)


@pytest.mark.parametrize("lower, named", [(-9.0, "psi_r"), (-8.5, "psi_l")],
                         ids=["right_first", "same_snapshot"])
def test_support_violation_names_the_earliest_snapshot_left_first(lower, named):
    """Both branches leave these supports. From [-9, 6] the right branch
    leaves at t = 3.6 and the left at t = 4.0: the check meets the earliest
    snapshot first, so it names the right branch. From [-8.5, 6] both
    leave at t = 3.6, and within one snapshot the left branch is checked
    first."""
    with pytest.raises(SupportViolation,
                       match=rf"outside declared support at t=3\.6 \(branch '{named}'\)$"):
        run_baseline(default_config(support=Region(lower, 6.0)))


def test_insufficient_displacement_rejected():
    # displaced region overlaps U
    config = default_config(diffeo=make_translation_ramp(4.0, 0.8, 1.6, extent=40.0))
    with pytest.raises(InsufficientDisplacement):
        run_hole(config)
    # the same run is allowed when the gate is off
    report = run_hole(config, strict=False)
    assert abs(report.final_theta_hole) < abs(report.final_theta_baseline)


def test_bump_diffeo_cannot_clear_support():
    bump = make_bump_displacement(center=-1.0, radius=5.0, peak_shift=1.5,
                                  t0=0.8, t1=1.6)
    config = default_config(diffeo=bump)
    with pytest.raises(InsufficientDisplacement):
        run_hole(config)
    report = run_hole(config, strict=False)
    final = abs(report.final_theta_hole)
    assert final < abs(report.final_theta_baseline)
    assert final > 0.1  # deforms without displacing the support


def test_determinism_bit_identical():
    first = run_baseline(default_config())
    second = run_baseline(default_config())
    assert np.array_equal(first.theta_baseline, second.theta_baseline)
    third = run_hole(default_config())
    fourth = run_hole(default_config())
    assert np.array_equal(third.theta_hole, fourth.theta_hole)


def test_sweep_single_element_matches_direct_run():
    config = default_config()
    direct = run_hole(config)
    # The default ramp shifts by 17.5, so both entries reproduce it.
    for parameter, value in (("coupling", config.coupling), ("displacement", 17.5)):
        entry = sweep(config, parameter, [value])[0]
        assert entry.error is None, parameter
        assert np.array_equal(entry.report.theta_baseline, direct.theta_baseline), parameter
        assert np.array_equal(entry.report.theta_hole, direct.theta_hole), parameter


@pytest.mark.parametrize("parameter, values, evolves", [
    ("displacement", [0.0, 8.0, 17.5], 2),
    ("coupling", [0.0, 0.1, 0.2], 5),
    ("coupling", [0.1, 0.1], 2),
], ids=["displacement", "coupling", "repeated_coupling"])
def test_sweep_evolves_each_distinct_branch_once(monkeypatch, parameter, values, evolves):
    """A displacement changes only the map, so a displacement sweep evolves
    its two branches once; a coupling changes the dynamics of each run,
    and at zero coupling the two branches are one evolution. A repeated
    value reuses the branches of the value before it."""
    import holesim.hole_experiment as hole_experiment

    branches = []

    def counting(states, potentials, evolution, consume):
        branches.extend(states)
        return stream_branches(states, potentials, evolution, consume)

    monkeypatch.setattr(hole_experiment, "stream_branches", counting)
    entries = sweep(default_config(), parameter, values)
    assert all(e.error is None for e in entries)
    assert len(branches) == evolves


def test_displacement_sweep_entries_carry_their_own_config():
    entries = sweep(default_config(), "displacement", [0.0, 8.0])
    report = entries[0].report
    assert all(report.config.diffeo.is_identity_at(t) for t in report.times)
    assert np.array_equal(entries[1].report.config.diffeo.shift, [8.0])


def test_displacement_sweep_support_violation_reaches_every_entry():
    """The shared branches leave a too-narrow support: every value
    records that error, none aborts the sweep."""
    config = default_config(support=Region(-3.0, 3.0))
    entries = sweep(config, "displacement", [0.0, 5.0, 10.0])
    assert all(e.report is None for e in entries)
    assert all(e.error.startswith("SupportViolation") for e in entries)


def test_sweep_coupling_monotone():
    config = default_config()
    entries = sweep(config, "coupling", [0.0, 0.05, 0.1, 0.2])
    finals = [abs(e.report.final_theta_baseline) for e in entries]
    assert finals[0] == pytest.approx(1.0, abs=1e-12)
    for weaker, stronger in zip(finals, finals[1:]):
        assert stronger <= weaker + 1e-9


def test_sweep_displacement_decays_to_collapse():
    config = default_config()
    entries = sweep(config, "displacement", [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    assert all(e.error is None for e in entries)
    finals = [abs(e.report.final_theta_hole) for e in entries]
    baseline = abs(entries[0].report.final_theta_baseline)
    assert abs(finals[0] - baseline) <= 1e-6  # zero displacement = baseline
    for larger, smaller in zip(finals, finals[1:]):
        assert smaller <= larger + 1e-12
    assert finals[-1] <= 1e-3


def test_sweep_collects_errors_without_aborting():
    config = default_config()
    entries = sweep(config, "coupling", [0.1, -1.0])
    assert entries[0].error is None
    assert entries[1].report is None
    assert "DomainError" in entries[1].error


def test_failed_sweep_values_hold_no_fields_after_their_group():
    """A failed value keeps its error, not the error's frames, which held its
    group's packet, potentials and mask until the sweep returned: eight
    failed values of a 2D 128^2 sweep, one group each, trace no more than
    one does."""
    from holesim import EvolutionConfig

    config = default_config(grid=Grid((128, 128), (40.0, 40.0)),
                            diffeo=make_translation_ramp((1.0, 0.0), 0.8, 1.6,
                                                         extent=(40.0, 40.0)),
                            evolution=EvolutionConfig(0.05, 0.2, 4.0, 2))
    peaks = {}
    for count in (1, 8):
        tracemalloc.start()
        try:
            entries = sweep(config, "coupling", [0.05 + 0.01 * i for i in range(count)])
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(entry.error.startswith("InsufficientDisplacement") for entry in entries)
    assert peaks[8] < peaks[1] + 2**19


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow in the potential
def test_sweep_blowup_is_recorded_for_its_value_only():
    """A coupling that overflows the potential blows up at the first step:
    that value records the error, its neighbours complete."""
    with pytest.warns(StabilityWarning):
        entries = sweep(default_config(softening=0.9), "coupling", [0.1, 1.7e308, 0.05])
    assert entries[0].error is None and entries[2].error is None
    assert entries[1].report is None
    assert entries[1].error == ("NumericalBlowup: evolution of branch 'psi_l'"
                                " blew up at step 1")


def counted_calls(monkeypatch):
    """The states of each stream_branches call the sweep makes, in order."""
    import holesim.hole_experiment as hole_experiment

    calls = []

    def counting(states, potentials, evolution, consume):
        calls.append(len(states))
        return stream_branches(states, potentials, evolution, consume)

    monkeypatch.setattr(hole_experiment, "stream_branches", counting)
    return calls


def test_committed_coupling_sweep_evolves_in_one_call(monkeypatch):
    """The 7 distinct 1D branches of the committed coupling sweep (one at
    zero coupling, a pair at each other value) fit STACK_BYTES: one call."""
    from pathlib import Path

    from holesim.cli import load_config

    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "sweep_coupling.yaml")
    calls = counted_calls(monkeypatch)
    entries = sweep(*config.settings)
    assert all(e.error is None for e in entries)
    assert calls == [7]


def test_sweep_repeated_value_evolves_once_wherever_it_repeats(monkeypatch):
    calls = counted_calls(monkeypatch)
    entries = sweep(default_config(), "coupling", [0.1, 0.2, 0.1])
    assert all(e.error is None for e in entries)
    assert calls == [4]
    assert entries[0].report is entries[2].report  # one hole stage per distinct value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow in the potential
def test_sweep_values_beside_a_failed_group_match_lone_runs(monkeypatch):
    """One branch of the group of all three values blows up, and fails its
    own value only: the group evolves once, and its neighbours' series
    have the bits of lone run_hole calls."""
    config = default_config(softening=0.9)
    calls = counted_calls(monkeypatch)
    with pytest.warns(StabilityWarning):
        entries = sweep(config, "coupling", [0.1, 1.7e308, 0.05])
    assert entries[1].error.startswith("NumericalBlowup")
    assert calls == [6]
    for entry in (entries[0], entries[2]):
        lone = run_hole(default_config(softening=0.9, coupling=entry.value))
        assert np.array_equal(entry.report.theta_baseline, lone.theta_baseline)
        assert np.array_equal(entry.report.theta_hole, lone.theta_hole)


def test_non_finite_displacement_is_a_sweep_error():
    entries = sweep(default_config(), "displacement", [float("nan"), 8.0])
    assert entries[0].report is None
    assert entries[0].error.startswith("DomainError: shift must be finite")
    assert entries[1].error is None


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(DomainError):
        sweep(default_config(), "softening", [1.0])


def test_mass_sweep_runs():
    entries = sweep(default_config(), "mass", [4.0, 6.0])
    assert all(e.error is None for e in entries)
    assert all(abs(e.report.final_theta_hole) <= 1e-3 for e in entries)
    # a lighter particle spreads past the declared support: collected error
    light = sweep(default_config(), "mass", [2.0])[0]
    assert light.report is None
    assert "SupportViolation" in light.error


def test_config_validation():
    with pytest.raises(DomainError):
        default_config(coupling=-0.5)
    with pytest.raises(DomainError):
        default_config(support=Region(-30.0, 30.0))  # wider than the domain
    with pytest.raises(DomainError):
        default_config(diffeo=make_translation_ramp(17.5, -1.0, 0.5, extent=40.0))


def test_transformed_source_final_for_translation():
    report = run_hole(default_config())
    # -2.5 + 17.5 = 15.0, exact for the point-mass source.
    assert report.diagnostics["transformed_source_final"] == (15.0,)


def test_bump_map_reports_no_transformed_source():
    """A bump map turns the point mass into a tabulated potential, so no
    source position is reported (not the pre-onset one)."""
    bump = make_bump_displacement(center=-1.0, radius=5.0, peak_shift=1.5,
                                  t0=0.8, t1=1.6)
    report = run_hole(default_config(diffeo=bump), strict=False)
    assert report.diagnostics["transformed_source_final"] is None


def test_sweep_propagates_programming_errors(monkeypatch):
    import holesim.hole_experiment as hole_experiment

    def broken(*args):
        raise TypeError("bug, not a sweep outcome")

    monkeypatch.setattr(hole_experiment, "PushforwardPlan", broken)
    with pytest.raises(TypeError):
        sweep(default_config(), "coupling", [0.1])


@pytest.mark.parametrize("section, key, message", [
    ("diffeo", "two_sided", "diffeo.two_sided: missing key 'two_sided'"),
    ("packet", "center", "packet: missing key 'center'"),
    ("evolution", "dt", "evolution: missing key 'dt'"),
    ("support", None, "support: missing section"),
    ("packet", None, "packet: missing section"),
    ("grid", None, "grid: missing section"),
])
def test_missing_sections_and_keys_are_named(section, key, message):
    sections = dict(DEFAULT_SCENARIO)
    if key is None:
        del sections[section]
    else:
        sections[section] = {k: v for k, v in sections[section].items() if k != key}
    with pytest.raises(ConfigError) as info:
        config_from_sections(sections)
    assert message in info.value.messages
