"""PushforwardPlan.apply on random resolved packets and maps: it keeps the
norm within PUSHFORWARD_NORM_TOL on each of its three paths (aligned roll,
Fourier shift, bump), translations compose as a group, pushing by s then
by t being pushing by s + t, and a Fourier shift is the spectral
interpolant at the preimages."""

import numpy as np
import pytest

from holesim import Grid, gaussian_packet, norm
from holesim.grid import spectral_sample
from holesim.diffeo import (
    _BUMP_SLOPE_MAX,
    PUSHFORWARD_NORM_TOL,
    PushforwardPlan,
    make_bump_displacement,
    make_translation_ramp,
)
from oracles import random_wavefunction

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Example counts keep the file near one second: a 2D bump builds a sampler
# over thousands of moved points.
PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)
BUMPS = settings(PROPERTY, max_examples=12)

GRIDS = [Grid(256, 40.0), Grid((128, 128), (40.0, 40.0))]


@st.composite
def packets(draw):
    """A packet on one of GRIDS, as wide as the 1e-12 boundary tail allows
    or narrower down to about three spacings, centred within three units
    of the origin, with momentum up to one."""
    grid = draw(st.sampled_from(GRIDS))
    center = draw(st.lists(st.floats(-3.0, 3.0), min_size=grid.dim, max_size=grid.dim))
    momentum = draw(st.lists(st.floats(-1.0, 1.0), min_size=grid.dim, max_size=grid.dim))
    width = draw(st.floats(1.0, 1.9))
    return gaussian_packet(grid, center, width, momentum)


def push(psi, phi):
    """The unrenormalized push of psi by phi at the end of its ramp, and the
    plan that made it."""
    plan = PushforwardPlan(phi, phi.t1, psi.grid)
    return plan.apply(psi, renormalize=False), plan


def by(psi, shift):
    return push(psi, make_translation_ramp(shift, 0.0, 1.0))[0]


def aligned(draw, grid):
    """A shift of up to 30 whole cells on every axis."""
    return np.array([draw(st.integers(-30, 30)) for _ in range(grid.dim)]) * grid.spacing


def off_grid(draw, grid):
    """A shift 5 to 95% of a cell off the grid on every axis: one within 1e-9
    of a cell of an aligned shift is rolled by whole cells."""
    fractions = np.array([draw(st.floats(0.05, 0.95)) for _ in range(grid.dim)])
    return aligned(draw, grid) + fractions * grid.spacing


@PROPERTY
@given(packets(), st.data())
def test_aligned_translation_keeps_the_norm(psi, data):
    pushed, plan = push(psi, make_translation_ramp(aligned(data.draw, psi.grid), 0.0, 1.0))
    assert plan.identity or plan.cells is not None
    assert abs(norm(pushed) - 1.0) <= PUSHFORWARD_NORM_TOL


@PROPERTY
@given(packets(), st.data())
def test_fourier_shift_keeps_the_norm(psi, data):
    pushed, plan = push(psi, make_translation_ramp(off_grid(data.draw, psi.grid), 0.0, 1.0))
    assert plan.phase is not None
    assert abs(norm(pushed) - 1.0) <= PUSHFORWARD_NORM_TOL


@BUMPS
@given(packets(), st.data())
def test_bump_keeps_the_norm(psi, data):
    """A bump over the packet with a radius of 8 to 12, contracting by at
    most 0.4, so that the grids resolve the pushed packet: a bump of radius
    7 that contracts by half drifts by 4.7e-6 on the 2D grid."""
    dim = psi.grid.dim
    radius = data.draw(st.floats(8.0, 12.0))
    center = [data.draw(st.floats(-2.0, 2.0)) for _ in range(dim)]
    peak = np.array([data.draw(st.floats(-1.0, 1.0)) for _ in range(dim)])
    magnitude = np.linalg.norm(peak)
    if magnitude > 0:  # scaled to the drawn contraction |peak| * max|B'| / radius
        peak *= data.draw(st.floats(0.05, 0.4)) * radius / _BUMP_SLOPE_MAX / magnitude
    pushed, _ = push(psi, make_bump_displacement(center, radius, peak, 0.0, 1.0))
    assert abs(norm(pushed) - 1.0) <= PUSHFORWARD_NORM_TOL


@PROPERTY
@given(packets(), st.data())
def test_aligned_translations_compose_exactly(psi, data):
    s, t = aligned(data.draw, psi.grid), aligned(data.draw, psi.grid)
    assert np.array_equal(by(by(psi, s), t).amplitudes, by(psi, s + t).amplitudes)


@PROPERTY
@given(packets(), st.data())
def test_fourier_shifts_compose_to_roundoff(psi, data):
    s, t = off_grid(data.draw, psi.grid), off_grid(data.draw, psi.grid)
    twice = by(by(psi, s), t).amplitudes
    assert np.max(np.abs(twice - by(psi, s + t).amplitudes)) <= 1e-13


# Small grids of each dimension: spectral_sample contracts every point
# against the whole spectrum.
SAMPLED_GRIDS = [Grid(64, 20.0), Grid((32, 16), (20.0, 12.0)), Grid((16, 8, 16), (12.0, 8.0, 10.0))]


@PROPERTY
@given(st.sampled_from(SAMPLED_GRIDS), st.integers(0, 2**32 - 1), st.data())
def test_fourier_shift_is_the_interpolant_at_the_preimages(grid, seed, data):
    """A non-aligned translation's push of a random band-limited state is
    spectral_sample of that state at the preimages x - s, to roundoff."""
    psi = random_wavefunction(grid, np.random.default_rng(seed))
    shift = off_grid(data.draw, grid)
    pushed, plan = push(psi, make_translation_ramp(shift, 0.0, 1.0))
    assert plan.phase is not None
    points = np.stack([m.ravel() for m in grid.coordinate_mesh()], axis=-1)
    sampled = spectral_sample(grid, psi.amplitudes, points - shift).reshape(grid.shape)
    assert np.max(np.abs(pushed.amplitudes - sampled)) <= 1e-13 * np.max(np.abs(psi.amplitudes))
