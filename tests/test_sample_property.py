"""spectral_sample is the trigonometric interpolant, however a chunk's last
coordinates repeat. Drawn over small 1D to 3D grids, random fields and
points whose last coordinates are all distinct, or repeat from a few values
on and off the grid, at chunk sizes from one point to all of them, so that
repeated values straddle chunk boundaries: every point matches the direct
sum over all modes to 1e-12."""

import numpy as np
import pytest

import holesim.grid as grid_module
from holesim import Grid
from holesim.diffeo import PushforwardPlan, make_bump_displacement
from holesim.grid import SpectralSampler, sample_point_bytes, spectral_sample
from oracles import trigonometric_interpolant_direct

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

GRIDS = [Grid(32, 10.0), Grid((16, 8), (10.0, 6.0)), Grid((8, 4, 8), (6.0, 5.0, 7.0))]


@st.composite
def sampled_points(draw, grid, rng):
    """(P, dim) points in and around the domain. Their last coordinates are
    all distinct, or each one of one to four values: grid coordinates, some
    shifted by whole extents, and points between them."""
    count = draw(st.integers(1, 40))
    points = rng.uniform(-0.7, 0.7, size=(count, grid.dim)) * np.asarray(grid.extent)
    if draw(st.booleans()):
        axis, L = grid.axes()[-1], grid.extent[-1]
        values = [draw(st.sampled_from(axis.tolist())) + L * draw(st.integers(-1, 1))
                  if draw(st.booleans()) else draw(st.floats(-0.7 * L, 0.7 * L))
                  for _ in range(draw(st.integers(1, 4)))]
        points[:, -1] = np.asarray(values)[rng.integers(len(values), size=count)]
    return points


@PROPERTY
@given(st.sampled_from(GRIDS), st.integers(0, 2**32 - 1), st.data(),
       st.sampled_from([1, 2, 3, 5, 8, 13, None]))
def test_sample_matches_the_direct_interpolant(grid, seed, data, chunk):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    points = data.draw(sampled_points(grid, rng))
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:  # chunks of that many points
            patch.setattr(grid_module, "SAMPLE_CHUNK_BYTES", chunk * sample_point_bytes(grid))
        sampler = SpectralSampler(grid, points)
        sampled = sampler(values)
    for part, _ in sampler._chunks:
        last = points[part, -1]
        inverse = sampler._tables(part)[1]
        assert (inverse is None) == (2 * len(np.unique(last)) > len(last))
    expected = trigonometric_interpolant_direct(grid, values, points)
    assert np.max(np.abs(sampled - expected)) <= 1e-12


def test_bump_2d_plan_tabulates_its_distinct_last_coordinates():
    """The benchmark's 2D bump moves no point along the last axis, so its
    793 preimages share the 31 last coordinates of their targets: the
    plan's one chunk keeps a last-axis table of 31 rows, the rows of those
    points' own table, and samples what a table per point samples."""
    grid = Grid((128, 128), (40.0, 40.0))
    phi = make_bump_displacement((0.0, 0.0), 5.0, (1.0, 0.0), 0.8, 1.6)
    plan = PushforwardPlan(phi, 1.6, grid)
    points = plan.sampler.points
    [(part, (tables, inverse))] = plan.sampler._chunks
    assert len(points) == 793 and len(np.unique(points[:, -1])) == 31
    assert tables[-1].shape == (31, 128) and tables[0].shape == (793, 128)
    L, k = grid.extent[-1], grid.wavenumbers()[-1]
    assert np.array_equal(tables[-1][inverse], np.exp(1j * np.outer(points[:, -1] + 0.5 * L, k)))
    values = np.random.default_rng(3).standard_normal(grid.shape)
    check = np.arange(0, len(points), 53)
    expected = trigonometric_interpolant_direct(grid, values, points[check])
    assert np.max(np.abs(plan.sampler(values)[check] - expected)) <= 1e-12
    assert np.max(np.abs(spectral_sample(grid, values, points)[check] - expected)) <= 1e-12
