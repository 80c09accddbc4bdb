"""The config echo that result.json holds is itself a config: loaded again,
it gives the same echo, formats and output_dir, and the same run settings.
Drawn over accepted baseline, hole and sweep configs in 1D and 2D, with
every map kind, one- and two-sided, and each sweep parameter; load_config
only, so nothing runs."""

import json

import pytest
import yaml

from holesim.cli import load_config

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=80, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
EXTENT = 40.0

SETTINGS_FIELDS = ("grid", "evolution", "packet_center", "packet_width", "packet_momentum",
                   "source_left", "source_right", "coupling", "softening", "support",
                   "two_sided")


def per_axis(draw, dim, values):
    """One value for every axis, or a list of one value per axis."""
    if draw(st.booleans()):
        return draw(values)
    return draw(st.lists(values, min_size=dim, max_size=dim))


def floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def diffeo_sections(draw, dim, sweep_parameter):
    """A map section the config accepts: a one-sided bump cannot clear its
    support, and only a translation is displacement-swept."""
    kinds = ["translation_ramp"]
    if sweep_parameter != "displacement":
        kinds += ["bump_displacement", "identity"]
    kind = draw(st.sampled_from(kinds))
    t0 = draw(floats(0.0, 1.0))
    section = {"kind": kind, "two_sided": kind == "bump_displacement" or draw(st.booleans())}
    if kind == "translation_ramp":
        section.update(shift=per_axis(draw, dim, floats(-19.0, 19.0)),
                       t0=t0, t1=t0 + draw(floats(0.1, 1.0)))
    elif kind == "bump_displacement":
        radius = draw(floats(3.0, 8.0))
        section.update(center=per_axis(draw, dim, floats(-2.0, 2.0)), radius=radius,
                       peak_shift=per_axis(draw, dim, floats(-0.3 * radius, 0.3 * radius)),
                       t0=t0, t1=t0 + draw(floats(0.1, 1.0)))
    return section


SWEEP_VALUES = {"coupling": floats(0.0, 0.5), "mass": floats(0.5, 8.0),
                "displacement": floats(0.0, 19.0)}


@st.composite
def run_configs(draw, out_dir):
    """An accepted baseline, hole or sweep config; each optional section is
    given or left to the defaults."""
    experiment = draw(st.sampled_from(["baseline", "hole", "sweep"]))
    dim = draw(st.sampled_from([1, 2]))
    config = {
        "experiment": experiment,
        "output_dir": str(out_dir / draw(st.sampled_from(["a", "a/b"]))),
        "formats": draw(st.lists(st.sampled_from(["csv", "json"]), unique=True)),
        "grid": {"points": [draw(st.sampled_from([128, 256])) for _ in range(dim)],
                 "extent": per_axis(draw, dim, st.just(EXTENT))},
        "packet": {"center": per_axis(draw, dim, floats(-2.0, 2.0)),
                   "width": draw(floats(1.0, 1.8)),
                   "momentum": per_axis(draw, dim, floats(-1.0, 1.0))},
        "potentials": {"left_position": per_axis(draw, dim, floats(-4.0, -1.0)),
                       "right_position": per_axis(draw, dim, floats(1.0, 4.0)),
                       "coupling": draw(floats(0.0, 0.5)),
                       "softening": draw(st.none() | floats(0.5, 2.0))},
        "evolution": {"dt": draw(st.sampled_from([0.01, 0.02, 0.05])),
                      "t_end": draw(floats(0.5, 5.0)), "mass": draw(floats(0.5, 8.0)),
                      "snapshot_stride": draw(st.integers(1, 50))},
        "support": {"lower": per_axis(draw, dim, floats(-15.0, -5.0)),
                    "upper": per_axis(draw, dim, floats(5.0, 15.0))},
    }
    parameter = None
    if experiment == "sweep":
        parameter = draw(st.sampled_from(sorted(SWEEP_VALUES)))
        config["sweep"] = {"parameter": parameter,
                           "values": draw(st.lists(SWEEP_VALUES[parameter], min_size=1,
                                                   max_size=4))}
    if experiment != "baseline":
        config["diffeo"] = draw(diffeo_sections(dim, parameter))
    for name in ("formats", "packet", "potentials", "support"):
        if draw(st.booleans()):
            del config[name]
    return config


def hole_settings(run_config):
    config = run_config.settings
    if run_config.experiment == "sweep":
        config, parameter, values = config
        return config, (parameter, values)
    return config, None


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("echo")


@PROPERTY
@given(data=st.data())
def test_the_echo_reloads_as_the_same_config(work_dir, data):
    raw = data.draw(run_configs(work_dir))
    first_path, echo_path = work_dir / "first.yaml", work_dir / "echo.yaml"
    first_path.write_text(yaml.safe_dump(raw))
    first = load_config(first_path)
    echo = json.loads(json.dumps(first.echo))  # as result.json holds it
    echo_path.write_text(json.dumps(echo))
    second = load_config(echo_path)
    assert second.echo == first.echo
    assert second.formats == first.formats
    assert second.output_dir == first.output_dir
    (config_a, sweep_a), (config_b, sweep_b) = hole_settings(first), hole_settings(second)
    for name in SETTINGS_FIELDS:
        assert getattr(config_b, name) == getattr(config_a, name), name
    assert config_b.diffeo.kind == config_a.diffeo.kind
    assert sweep_b == sweep_a
