"""validate's memory estimate of a hole run bounds what the run allocates.
Drawn over accepted baseline, hole and sweep configs on grids that resolve
their packet (1D 256 points, 2D 64^2 and 3D 64^3), at strides 1, 3 and 10,
under a translation, a two-sided bump or the identity; sweeps of the
coupling or the displacement take 1 to 4 values. Load, execute and write
are traced together, and a run that ends in a HolesimError counts too: the
traced peak stays under the estimate that load_config checked."""

import tracemalloc

import pytest
import yaml

import holesim.cli as cli
from holesim import HolesimError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=25, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# (points per axis, extent, packet width) of each dimension: widths that pass
# check_packet_width on that grid.
GRIDS = {1: (256, 40.0, 1.0), 2: (64, 40.0, 1.9), 3: (64, 20.0, 0.95)}


def floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def first_axis(dim, value):
    return [value] + [0.0] * (dim - 1)


@st.composite
def run_configs(draw, out_dir):
    """An accepted config of a few strides. A bump is two-sided, as load
    requires, and only a translation is displacement-swept. On the 3D grid,
    where a pair's step costs about 25 ms, a run takes 10 steps, a sweep at
    most two values, and a bump is small: each of its plans samples the
    whole grid's spectrum."""
    experiment = draw(st.sampled_from(["baseline", "hole", "sweep"]))
    dim = draw(st.sampled_from(sorted(GRIDS)))
    points, extent, width = GRIDS[dim]
    dt = draw(st.sampled_from([0.02, 0.04]))
    t_end = dt * (10 if dim == 3 else draw(st.integers(10, 40)))
    config = {
        "experiment": experiment,
        "output_dir": str(out_dir),
        "grid": {"points": [points] * dim, "extent": extent},
        "packet": {"center": first_axis(dim, -1.0), "width": width, "momentum": 0.0},
        "potentials": {"left_position": first_axis(dim, -2.5),
                       "right_position": first_axis(dim, 2.5),
                       "coupling": draw(floats(0.0, 0.3))},
        "evolution": {"dt": dt, "t_end": t_end, "mass": 4.0,
                      "snapshot_stride": draw(st.sampled_from([1, 3, 10]))},
        # The default scenario's support on a 1D grid; all but a margin of
        # the box on the others, which no displaced image clears.
        "support": {"lower": -9.0, "upper": 7.0} if dim == 1 else
                   {"lower": -0.45 * extent, "upper": 0.45 * extent},
    }
    parameter = None
    if experiment == "sweep":
        parameter = draw(st.sampled_from(["coupling", "displacement"]))
        values = floats(0.0, 0.3) if parameter == "coupling" else floats(0.0, 0.45 * extent)
        config["sweep"] = {"parameter": parameter,
                           "values": draw(st.lists(values, min_size=1,
                                                   max_size=2 if dim == 3 else 4))}
    if experiment == "baseline":
        return config
    kinds = ["translation_ramp", "identity"]
    if parameter != "displacement":
        kinds.append("bump_displacement")
    kind = draw(st.sampled_from(kinds))
    t0 = t_end * draw(floats(0.0, 0.4))
    diffeo = {"kind": kind, "t0": t0, "t1": t0 + t_end * draw(floats(0.2, 0.5)),
              "two_sided": kind == "bump_displacement" or draw(st.booleans())}
    if kind == "translation_ramp":
        diffeo["shift"] = first_axis(dim, extent * draw(floats(-0.45, 0.45)))
    elif kind == "bump_displacement":
        radius = draw(floats(1.0, 1.5) if dim == 3 else floats(4.0, 8.0))
        diffeo.update(center=0.0, radius=radius,
                      peak_shift=first_axis(dim, radius * draw(floats(0.05, 0.2))))
    config["diffeo"] = diffeo
    return config


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("peak")


@PROPERTY
@given(data=st.data())
def test_the_traced_peak_stays_under_the_estimate(work_dir, data):
    raw = data.draw(run_configs(work_dir / "out"))
    path = work_dir / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    estimates, fits = [], cli._fits

    def recording(sized, peak, errors):
        estimates.append(peak)
        return fits(sized, peak, errors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_fits", recording)
        tracemalloc.start()
        try:
            config = cli.load_config(path)
            try:
                cli.write_bundle(cli.execute(config), config.output_dir, config.formats)
            except HolesimError:
                pass  # the run allocated what it did before it failed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    estimate, = estimates
    assert peak < estimate, (raw, peak, estimate)
