"""The numerical error bar on theta for the committed baseline and hole
scenarios. Strang splitting is second order in dt: halving dt, with the
snapshot stride doubled so that the snapshot times match, cuts the change
of theta by four. The spectral grid is converged: theta at 512 and 1024
points agrees to roundoff. Both errors sit far below the contrasts the
runs report."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from holesim import Grid, run_baseline, run_hole
from holesim.cli import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCENARIOS = ["baseline", "hole"]


def committed(name):
    return load_config(CONFIGS / f"{name}.yaml").settings


def theta_series(config, name):
    if name == "baseline":
        return run_baseline(config).theta_baseline
    return run_hole(config).theta_hole


def refined(config, halvings):
    """The config with dt halved and the snapshot stride doubled
    ``halvings`` times."""
    evolution = config.evolution
    return dataclasses.replace(config, evolution=dataclasses.replace(
        evolution, dt=evolution.dt / 2**halvings,
        snapshot_stride=evolution.snapshot_stride * 2**halvings))


@pytest.mark.parametrize("name", SCENARIOS)
def test_theta_converges_at_second_order_in_dt(name):
    config = committed(name)
    series = [theta_series(refined(config, h), name) for h in range(3)]
    assert len({len(s) for s in series}) == 1
    coarse, fine = (np.max(np.abs(a - b)) for a, b in zip(series, series[1:]))
    assert fine > 0
    assert coarse / fine == pytest.approx(4.0, abs=0.1)


@pytest.mark.parametrize("name", SCENARIOS)
def test_final_theta_is_converged_on_the_grid(name):
    config = committed(name)
    assert config.grid.shape == (1024,)
    coarse = dataclasses.replace(config, grid=Grid(512, config.grid.extent))
    assert abs(theta_series(coarse, name)[-1] - theta_series(config, name)[-1]) <= 1e-12
