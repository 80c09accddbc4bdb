"""The recovery reads the hole map back: for a full one-cell basis pushed by
a translation's PushforwardPlan, the background that recover_background
identifies is the plan's own matrix. Drawn over 1D to 3D grids of at most
64 points and shifts by whole or fractional cells, the sampled form has
condition number 1; the recovered unitary is the matrix whose columns are
the pushed cells' amplitudes times sqrt(cell_volume); each recovered
projector is its column's outer product; and a whole-cell shift localizes
every projector at its shifted cell."""

import numpy as np
import pytest

from holesim import Grid, WaveFunction, inner_product
from holesim.background_recover import localization_index, recover_background, sample_form
from holesim.diffeo import PushforwardPlan, make_translation_ramp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)
TOL = 1e-14
# Grids of at most 64 points, so at most 64 basis states, 2 points or more an axis.
SHAPES = [(2,), (8,), (32,), (64,), (4, 2), (2, 32), (4, 16), (8, 8),
          (2, 2, 2), (4, 4, 2), (2, 4, 8), (4, 4, 4)]


@st.composite
def grids(draw):
    shape = draw(st.sampled_from(SHAPES))
    extents = draw(st.lists(st.floats(4.0, 40.0), min_size=len(shape), max_size=len(shape)))
    return Grid(shape, tuple(extents))


def cell_basis(grid):
    """One normalized one-cell state per grid point, in row-major order."""
    amps = np.eye(grid.size, dtype=complex) / np.sqrt(grid.cell_volume)
    return tuple(WaveFunction(grid, row.reshape(grid.shape), f"cell_{i}")
                 for i, row in enumerate(amps))


@PROPERTY
@given(grid=grids(), data=st.data())
def test_recovery_reads_back_the_pushed_translation(grid, data):
    cells = [data.draw(st.integers(-(n - 1), n - 1)) for n in grid.shape]
    whole = data.draw(st.booleans())
    if not whole:
        cells = [c + data.draw(st.floats(0.1, 0.9)) for c in cells]
    shift = [c * dx for c, dx in zip(cells, grid.spacing)]
    plan = PushforwardPlan(make_translation_ramp(shift, 0.0, 1.0), 1.0, grid)
    basis = cell_basis(grid)
    pushed = [plan.apply(psi) for psi in basis]
    matrix = np.stack([psi.amplitudes.ravel() for psi in pushed], axis=1) \
        * np.sqrt(grid.cell_volume)

    sample = sample_form(basis, pushed, inner_product)
    background = recover_background(sample)

    assert abs(sample.condition_number - 1.0) <= TOL
    assert np.max(np.abs(background.unitary - matrix)) <= TOL
    for i, projector in enumerate(background.recovered_projectors):
        column = matrix[:, i]
        assert np.max(np.abs(projector - np.outer(column, column.conj()))) <= TOL
    if whole:
        origins = np.unravel_index(np.arange(grid.size), grid.shape)
        targets = np.ravel_multi_index(
            [(o + c) % n for o, c, n in zip(origins, cells, grid.shape)], grid.shape)
        assert [localization_index(p) for p in background.recovered_projectors] \
            == targets.tolist()
