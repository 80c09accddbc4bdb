"""Acceptance gate: every criterion at its stated tolerance, one
pass/fail line each (visible with pytest -s), with runtime budgets."""

import json
import time
from contextlib import contextmanager

import numpy as np
import yaml

from holesim import (
    DecoherenceObservable,
    Grid,
    commutation_check,
    coordinate_projectors,
    default_config,
    density_matrix,
    estimate_theta,
    evolve,
    EvolutionConfig,
    gaussian_packet,
    inner_product,
    interference_pattern,
    localized_basis,
    minkowski_metric,
    partial_trace,
    Potential,
    recover_background,
    run_hole,
    sample_form,
    translate_basis,
)
from holesim.background_recover import localization_index
from holesim.cli import main
from oracles import (
    dense_propagator,
    free_gaussian_width,
    haar_unitary,
    measured_width,
    random_wavefunction,
    sinusoidal_metric_family,
)
from holesim.harmonic import convergence_order, harmonic_residual


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f} s]")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"


def test_criterion_1_two_route_equivalence():
    """partial_trace == density_matrix(theta) entrywise to 1e-12,
    100 random pairs on a 256-point grid, under 1 s."""
    with criterion(1, "two-route density-matrix equivalence", 1.0):
        grid = Grid(256, 40.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = random_wavefunction(grid, rng)
            b = random_wavefunction(grid, rng)
            direct = partial_trace(a, b)
            via_theta = density_matrix(DecoherenceObservable(inner_product(a, b)))
            assert np.max(np.abs(direct.entries - via_theta.entries)) <= 1e-12


def test_criterion_2_propagator_oracle():
    """Split-step vs dense eigendecomposition: L2 error <= 1e-4 at t_end
    on 64 points; halving dt improves the error by [3, 5]. Under 10 s."""
    with criterion(2, "propagator oracle", 10.0):
        grid = Grid(64, 26.0)
        psi0 = gaussian_packet(grid, 0.0, 1.22)
        potential = Potential.point_mass(grid, 1.0, 0.5)  # softened point mass
        t_end = 1.0
        exact = dense_propagator(grid, potential.values, 1.0, t_end) @ psi0.amplitudes
        errors = []
        for dt in (0.02, 0.01):
            config = EvolutionConfig(dt=dt, t_end=t_end, mass=1.0,
                                     snapshot_stride=10**6)
            final = evolve(psi0, potential, config).final_state
            errors.append(np.sqrt(np.sum(np.abs(final.amplitudes - exact) ** 2)
                                  * grid.cell_volume))
        assert errors[0] <= 1e-4
        assert 3.0 <= errors[0] / errors[1] <= 5.0


def test_criterion_3_free_gaussian_dispersion():
    """Evolved width matches w0 sqrt(1 + (t/(2 m w0^2))^2) to 0.1% at
    t = 2 m w0^2. Under 5 s."""
    with criterion(3, "free-Gaussian dispersion", 5.0):
        grid = Grid(1024, 40.0)
        mass, width0 = 1.0, 1.0
        t_end = 2.0 * mass * width0**2
        psi0 = gaussian_packet(grid, 0.0, width0)
        free = Potential.tabulated(grid, np.zeros(grid.shape))
        config = EvolutionConfig(dt=0.05, t_end=t_end, mass=mass,
                                 snapshot_stride=10**6)
        final = evolve(psi0, free, config).final_state
        expected = free_gaussian_width(width0, mass, t_end)
        assert abs(measured_width(final) - expected) / expected <= 1e-3


def test_criterion_4_hole_argument_contrast():
    """Default weak-coupling config: |theta_baseline(T)| >= 0.9, one-sided
    |theta_hole(T)| <= 1e-3, two-sided control within 1e-6. Under 30 s on
    the 1024-point grid."""
    with criterion(4, "hole-argument contrast", 30.0):
        config = default_config()
        assert config.grid.shape == (1024,)
        one_sided = run_hole(config)
        assert abs(one_sided.final_theta_baseline) >= 0.9
        assert abs(one_sided.final_theta_hole) <= 1e-3
        two_sided = run_hole(default_config(two_sided=True))
        assert np.max(np.abs(two_sided.theta_hole - two_sided.theta_baseline)) <= 1e-6


def test_criterion_5_fringe_round_trip():
    """estimate_theta(interference_pattern(theta)) within 1e-3 over the
    5 x 8 grid of magnitudes and phases. Under 1 s."""
    with criterion(5, "fringe round trip", 1.0):
        screen = np.linspace(-2.0, 2.0, 256)
        wavenumber = 2.0 * np.pi
        for magnitude in (0.0, 0.25, 0.5, 0.75, 1.0):
            for phase in np.arange(8) * np.pi / 4:
                theta = magnitude * np.exp(1j * phase)
                pattern = interference_pattern(theta, screen, wavenumber)
                assert abs(estimate_theta(pattern).theta - theta) <= 1e-3


def test_criterion_6_background_recovery():
    """Planted 24-cell translation, n = 32: recovered projectors localize
    at the translated cells exactly; vacuum-change covariance to 1e-8.
    Under 5 s."""
    with criterion(6, "background recovery", 5.0):
        grid = Grid(256, 40.0)
        n, cells = 32, 24
        stride = grid.shape[0] // n
        basis_g = localized_basis(grid, n)
        basis_eta = translate_basis(basis_g, cells)
        sample = sample_form(basis_g, basis_eta, inner_product)
        background = recover_background(sample)
        for j, projector in enumerate(background.recovered_projectors):
            assert localization_index(projector) * stride \
                == (j * stride + cells) % grid.shape[0]

        # vacuum change: eta' = eta W; identification must not move
        rng = np.random.default_rng(11)
        w = haar_unitary(n, rng)
        from holesim import WaveFunction

        rotated = tuple(
            WaveFunction(grid, sum(w[m, j] * basis_eta[m].amplitudes for m in range(n)))
            for j in range(n)
        )
        sample2 = sample_form(basis_g, rotated, inner_product)
        projectors = coordinate_projectors(n)
        rotated_projectors = tuple(w.conj().T @ q @ w for q in projectors)
        first = recover_background(sample, projectors).recovered_projectors
        second = recover_background(sample2, rotated_projectors).recovered_projectors
        worst = max(np.max(np.abs(p - q)) for p, q in zip(first, second))
        assert worst <= 1e-8


def test_criterion_7_commutation():
    """Permutation-form B: commutator norm <= 1e-10 against the native
    position projectors; a generic unitary B leaves > 0.1. Under 5 s."""
    with criterion(7, "position-measurement commutation", 5.0):
        grid = Grid(256, 40.0)
        n = 32
        basis = localized_basis(grid, n)
        perm_sample = sample_form(basis, translate_basis(basis, 40), inner_product)
        background = recover_background(perm_sample)
        natives = coordinate_projectors(n)
        assert commutation_check(background, natives) <= 1e-10

        from holesim import FormSample

        rng = np.random.default_rng(13)
        generic = haar_unitary(n, rng)
        sample = FormSample(basis, basis, generic, float(np.linalg.cond(generic)))
        full = recover_background(sample)
        assert commutation_check(full, natives) > 0.1


def test_criterion_8_harmonic_residual():
    """Minkowski and constant metrics: exactly zero residual. Sinusoidal
    perturbation: observed order in [1.8, 2.2] between h and h/2.
    Under 5 s."""
    with criterion(8, "harmonic residual", 5.0):
        assert np.all(harmonic_residual(minkowski_metric((9, 9), (0.1, 0.1))) == 0.0)
        from holesim import MetricField

        g = np.zeros((5, 5, 5, 5, 4, 4))
        for mu, value in enumerate((-0.7, 1.3, 1.3, 1.3)):
            g[..., mu, mu] = value
        assert np.all(harmonic_residual(MetricField((0.1,) * 4, g)) == 0.0)
        report = convergence_order(sinusoidal_metric_family(), 0.05)
        assert report.order is not None
        assert 1.8 <= report.order <= 2.2


def test_criterion_9_determinism(tmp_path):
    """Re-executing a committed config produces byte-identical data files."""
    with criterion(9, "byte determinism", 60.0):
        config_path = tmp_path / "committed.yaml"
        config_path.write_text(yaml.safe_dump({
            "experiment": "hole",
            "output_dir": str(tmp_path / "out"),
            "grid": {"points": 512, "extent": 40.0},
            "evolution": {"dt": 0.04, "t_end": 2.4, "mass": 4.0,
                          "snapshot_stride": 10},
            "diffeo": {"kind": "translation_ramp", "shift": 17.5,
                       "t0": 0.8, "t1": 1.6},
        }))
        assert main(["run", "--config", str(config_path)]) == 0
        names = ("result.json", "theta_baseline.csv", "theta_hole.csv")
        snapshot = {n: (tmp_path / "out" / n).read_bytes() for n in names}
        assert main(["run", "--config", str(config_path)]) == 0
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == snapshot[name]
        report = json.loads(snapshot["result.json"].decode())
        assert report["contrast"] >= 0.9
