"""Config loading, validation aggregation, pipelines, serialization
contracts, and byte determinism."""

import dataclasses
import datetime
import importlib
import json
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from holesim import ConfigError, DomainError, HolesimError, default_config, sweep
from holesim.cli import (
    PEAK_BYTES_LIMIT,
    RENDER_BLOCK_ROWS,
    ResultBundle,
    _harmonic_peak_bytes,
    _parse_grid_field,
    _recover_peak_bytes,
    execute,
    load_config,
    main,
    read_metric_field,
    render_grid_field,
    write_bundle,
    write_metric_field,
)
from holesim.harmonic import MetricField, harmonic_residual, minkowski_metric
from holesim.hole_experiment import _group_branches, peak_bytes
from oracles import grid_field_rows, load_module, sinusoidal_metric_family

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


def test_minimal_baseline_config_fills_defaults(tmp_path):
    path = write_config(tmp_path, "minimal.yaml", {"experiment": "baseline"})
    config = load_config(path)
    assert config.experiment == "baseline"
    assert config.settings.coupling == 0.1
    assert config.settings.evolution.mass == 4.0
    assert config.echo["grid"]["points"] == 1024
    assert config.formats == ("csv", "json")


def test_negative_mass_error_names_the_key(tmp_path):
    path = write_config(tmp_path, "bad.yaml", {
        "experiment": "baseline",
        "evolution": {"mass": -1.0},
    })
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert any("mass" in message for message in info.value.messages)


def test_fractional_snapshot_stride_is_rejected(tmp_path):
    path = write_config(tmp_path, "stride.yaml", {
        "experiment": "baseline",
        "evolution": {"snapshot_stride": 2.5},
    })
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert any("snapshot_stride" in message for message in info.value.messages)


@pytest.mark.parametrize("sections, message", [
    ({"grid": {"points": 1024.9}}, "grid: points per axis must be whole numbers, got 1024.9"),
    ({"evolution": {"dt": -0.02}}, "evolution: dt must be positive and finite, got -0.02"),
    ({"grid": {"extent": -40.0}}, "grid: extent must be positive and finite, got -40.0"),
    ({"evolution": {"t_end": -1.0}}, "evolution: t_end must be non-negative, got -1.0"),
    ({"grid": {"points": [64, 64]}, "packet": {"center": [0.0, 0.0, 0.0]}},
     "packet: expected 2 components, got 3"),
    ({"packet": {"width": 0.0}}, "packet: width must be positive, got 0.0"),
    ({"support": {"lower": 5.0, "upper": -5.0}},
     "support: region needs upper > lower, got [5.0, -5.0]"),
    ({"potentials": {"softening": -1.0}},
     "experiment config: softening must be positive, got -1.0"),
    ({"potentials": {"softening": 0.0}}, "experiment config: softening must be positive, got 0.0"),
], ids=["fractional_points", "negative_dt", "negative_extent", "negative_t_end",
        "packet_center_components", "zero_packet_width", "inverted_support",
        "negative_softening", "zero_softening"])
def test_out_of_domain_run_numbers_fail_validate(tmp_path, capsys, sections, message):
    """A fractional point count is refused, not truncated, time steps
    forward only, and every number the run would refuse is refused at load:
    each under its own section, with the config exit code."""
    path = write_config(tmp_path, "run.yaml", {"experiment": "baseline", **sections})
    assert main(["validate", "--config", str(path)]) == ConfigError.exit_code
    assert f"config error: {message}" in capsys.readouterr().err


def test_validation_errors_aggregate(tmp_path):
    """A bad diffeo bound and a bad mass are reported together."""
    path = write_config(tmp_path, "multi.yaml", {
        "experiment": "hole",
        "evolution": {"mass": -1.0},
        "diffeo": {"kind": "bump_displacement", "radius": 2.0, "peak_shift": 1.0},
    })
    with pytest.raises(ConfigError) as info:
        load_config(path)
    messages = " | ".join(info.value.messages)
    assert "mass" in messages
    assert "diffeo" in messages and "steep" in messages


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, "unknown.yaml", {
        "experiment": "baseline",
        "grid": {"points": 256, "extents": 40.0},
        "frobnicate": 1,
    })
    with pytest.raises(ConfigError) as info:
        load_config(path)
    messages = " | ".join(info.value.messages)
    assert "grid.extents" in messages
    assert "frobnicate" in messages


def test_missing_experiment_kind(tmp_path):
    path = write_config(tmp_path, "none.yaml", {"output_dir": "x"})
    with pytest.raises(ConfigError):
        load_config(path)


def small_baseline(tmp_path, out_name="out", **extra):
    payload = {
        "experiment": "baseline",
        "output_dir": str(tmp_path / out_name),
        "grid": {"points": 256, "extent": 40.0},
        "evolution": {"dt": 0.05, "t_end": 1.0, "mass": 4.0, "snapshot_stride": 5},
    }
    payload.update(extra)
    return write_config(tmp_path, f"{out_name}.yaml", payload)


def test_baseline_run_csv_columns(tmp_path):
    path = small_baseline(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    csv_text = (tmp_path / "out" / "theta_baseline.csv").read_text()
    header, first, *_ = csv_text.splitlines()
    assert header == "t,re_theta,im_theta,abs_theta,arg_theta"
    values = first.split(",")
    assert float(values[0]) == 0.0
    assert float(values[3]) == pytest.approx(1.0, abs=1e-12)
    report = json.loads((tmp_path / "out" / "result.json").read_text())
    assert report["experiment"] == "baseline"
    assert 0.0 <= report["final"]["abs_theta"] <= 1.0 + 1e-9
    assert report["config"]["evolution"]["dt"] == 0.05


def test_hole_run_json_contrast(tmp_path):
    path = write_config(tmp_path, "hole.yaml", {
        "experiment": "hole",
        "output_dir": str(tmp_path / "hole_out"),
    })
    assert main(["run", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "hole_out" / "result.json").read_text())
    assert report["contrast"] >= 0.9
    assert report["final"]["abs_theta_hole"] <= 1e-3
    assert (tmp_path / "hole_out" / "theta_hole.csv").exists()
    assert (tmp_path / "hole_out" / "theta_baseline.csv").exists()
    density = np.array(report["final"]["density_matrix_hole"]["re"])
    assert density[0, 0] == pytest.approx(0.5, abs=1e-12)


# The default scenario on 256 points, run past the ramp's end (t1 = 1.6).
SHORT_SCENARIO = {"grid": {"points": 256, "extent": 40.0},
                  "evolution": {"dt": 0.05, "t_end": 2.0, "mass": 4.0, "snapshot_stride": 4}}


def test_diagnostics_reach_result_json_as_the_run_records_them(tmp_path, monkeypatch):
    """result.json's diagnostics are the report's, key for key: a key the
    CLI has never heard of reaches it, a time key is written as its repr,
    a tuple as a list, and an empty or None entry is left out."""
    import holesim.cli as cli

    real_run, reports = cli.run_hole, []

    def with_extra_keys(settings):
        report = real_run(settings)
        reports.append(report)
        return dataclasses.replace(report, diagnostics={
            **report.diagnostics, "premise_residual": 0.25, "margins": (1.0, 2.0),
            "unset": None, "empty": {}})

    monkeypatch.setattr(cli, "run_hole", with_extra_keys)
    out = tmp_path / "out"
    path = write_config(tmp_path, "hole.yaml",
                        {"experiment": "hole", "output_dir": str(out), **SHORT_SCENARIO})
    assert main(["run", "--config", str(path)]) == 0
    diagnostics = json.loads((out / "result.json").read_text())["diagnostics"]
    recorded = reports[0].diagnostics
    assert set(diagnostics) == {*recorded, "premise_residual", "margins"}
    assert diagnostics["premise_residual"] == 0.25
    assert diagnostics["margins"] == [1.0, 2.0]
    assert diagnostics["overlap_mass_after_ramp"] == {
        repr(t): mass for t, mass in recorded["overlap_mass_after_ramp"].items()}
    assert diagnostics["transformed_source_final"] == list(recorded["transformed_source_final"])
    for key in ("max_mass_outside_support", "softening", "max_pushforward_norm_drift"):
        assert diagnostics[key] == recorded[key]


def test_sweep_entry_has_the_finals_of_the_equal_hole_run(tmp_path):
    """A one-value displacement sweep at the hole config's own shift has
    the final abs and arg of each series and the contrast of that hole run,
    bit for bit."""
    hole = execute(load_config(write_config(tmp_path, "hole.yaml", {
        "experiment": "hole", "output_dir": str(tmp_path / "hole"), **SHORT_SCENARIO})))
    swept = execute(load_config(write_config(tmp_path, "sweep.yaml", {
        "experiment": "sweep", "output_dir": str(tmp_path / "sweep"), **SHORT_SCENARIO,
        "sweep": {"parameter": "displacement", "values": [17.5]}})))
    entry, = swept.data["entries"]
    final = hole.data["final"]
    for key in ("abs_theta_baseline", "arg_theta_baseline", "abs_theta_hole", "arg_theta_hole"):
        assert entry[key] == final[key]
    assert entry["contrast"] == hole.data["contrast"] > 0.9


def test_sweep_command_and_kind_check(tmp_path):
    sweep_path = write_config(tmp_path, "sweep.yaml", {
        "experiment": "sweep",
        "output_dir": str(tmp_path / "sweep_out"),
        "sweep": {"parameter": "coupling", "values": [0.0, 0.1]},
    })
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    csv_text = (tmp_path / "sweep_out" / "sweep.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0].startswith("value,abs_theta_baseline")
    assert len(lines) == 3
    # a baseline config is refused by the sweep command
    base_path = small_baseline(tmp_path, "not_sweep")
    assert main(["sweep", "--config", str(base_path)]) == ConfigError.exit_code


def test_sweep_error_row_through_the_cli(tmp_path):
    """A mass sweep that validates, then leaves its support at run time for
    its light value: that value is an error row of sweep.csv and an error
    entry of result.json, and the other value still runs."""
    out = tmp_path / "err_out"
    path = write_config(tmp_path, "err.yaml", {
        "experiment": "sweep",
        "output_dir": str(out),
        "evolution": {"t_end": 2.0},
        "sweep": {"parameter": "mass", "values": [4.0, 0.05]},
    })
    assert main(["run", "--config", str(path)]) == 0
    error = "SupportViolation: mass 5.183e-02 outside declared support at t=0.4 (branch 'psi_l')"
    header, ok_row, error_row = (out / "sweep.csv").read_text().splitlines()
    assert ok_row.startswith("4.0,") and ok_row.endswith(",ok")
    assert error_row == f"0.05,,,,,error:{error}"
    entries = json.loads((out / "result.json").read_text())["entries"]
    assert entries[1] == {"error": error, "value": 0.05}
    assert "error" not in entries[0]


def csv_columns(path) -> dict:
    """The columns of a CSV table by header name, as text."""
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def bits(values) -> list[str]:
    """The exact bits of each number, whether given as float or as text."""
    return [float(value).hex() for value in values]


def test_csv_tables_hold_the_numbers_of_result_json(tmp_path):
    """theta_*.csv and sweep.csv parse to the floats of result.json's theta
    blocks and sweep entries, bit for bit, for a baseline, a hole run and a
    sweep."""
    theta_columns = {"t": "times", "re_theta": "re", "im_theta": "im",
                     "abs_theta": "abs", "arg_theta": "arg"}
    for experiment, series in (("baseline", ["baseline"]), ("hole", ["baseline", "hole"])):
        out = tmp_path / experiment
        path = write_config(tmp_path, f"{experiment}.yaml",
                            {"experiment": experiment, "output_dir": str(out), **SHORT_SCENARIO})
        assert main(["run", "--config", str(path)]) == 0
        report = json.loads((out / "result.json").read_text())
        for name in series:
            columns = csv_columns(out / f"theta_{name}.csv")
            assert set(columns) == set(theta_columns)
            for column, key in theta_columns.items():
                assert bits(columns[column]) == bits(report[f"theta_{name}"][key])
    out = tmp_path / "sweep"
    path = write_config(tmp_path, "sweep.yaml", {
        "experiment": "sweep", "output_dir": str(out), **SHORT_SCENARIO,
        "sweep": {"parameter": "coupling", "values": [0.0, 0.05, 0.2]}})
    assert main(["run", "--config", str(path)]) == 0
    entries = json.loads((out / "result.json").read_text())["entries"]
    columns = csv_columns(out / "sweep.csv")
    assert columns["status"] == ("ok",) * len(entries)
    for column in ("value", "abs_theta_baseline", "arg_theta_baseline", "abs_theta_hole",
                   "contrast"):
        assert bits(columns[column]) == bits(entry[column] for entry in entries)


def test_recover_background_outputs(tmp_path):
    path = write_config(tmp_path, "recover.yaml", {
        "experiment": "recover-background",
        "output_dir": str(tmp_path / "rec_out"),
        "recover": {"points": 256, "n": 32, "translation_cells": 24},
    })
    assert main(["recover-background", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "rec_out" / "result.json").read_text())
    assert report["condition_number"] == pytest.approx(1.0, abs=1e-8)
    stride = 256 // 32
    for j, cell in enumerate(report["localization_cells"]):
        assert cell == (j * stride + 24) % 256
    matrix_re = np.array(report["form_matrix"]["re"])
    assert matrix_re.shape == (32, 32)


def test_recover_background_evolved_oracle(tmp_path):
    path = write_config(tmp_path, "recover_evolved.yaml", {
        "experiment": "recover-background",
        "output_dir": str(tmp_path / "rec_ev"),
        "recover": {"points": 128, "n": 8, "translation_cells": 16,
                    "oracle": "evolved"},
    })
    assert main(["run", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "rec_ev" / "result.json").read_text())
    assert np.isfinite(report["condition_number"])


def test_check_harmonic_run(tmp_path):
    metric, _ = sinusoidal_metric_family()(0.05)
    metric_path = tmp_path / "metric.gridfield"
    write_metric_field(metric_path, metric)
    path = write_config(tmp_path, "harm.yaml", {
        "experiment": "check-harmonic",
        "output_dir": str(tmp_path / "harm_out"),
        "harmonic": {"metric_file": str(metric_path)},
    })
    assert main(["check-harmonic", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "harm_out" / "result.json").read_text())
    assert report["max_abs_residual"] > 0.0
    assert len(report["max_abs_residual_per_index"]) == 2
    assert (tmp_path / "harm_out" / "residual.gridfield").exists()


def test_check_harmonic_missing_file(tmp_path):
    path = write_config(tmp_path, "missing.yaml", {
        "experiment": "check-harmonic",
        "harmonic": {"metric_file": str(tmp_path / "nope.gridfield")},
    })
    assert main(["run", "--config", str(path)]) == ConfigError.exit_code


def test_metric_field_round_trip(tmp_path):
    metric, _ = sinusoidal_metric_family()(0.1)
    path = tmp_path / "roundtrip.gridfield"
    write_metric_field(path, metric)
    loaded = read_metric_field(path)
    assert loaded.spacings == metric.spacings
    assert np.array_equal(loaded.components, metric.components)


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, -2.5e-17]


@pytest.mark.parametrize("components", [1, 4, 10])
@pytest.mark.parametrize("rows", [1, RENDER_BLOCK_ROWS - 1, RENDER_BLOCK_ROWS,
                                  RENDER_BLOCK_ROWS + 1, 2 * RENDER_BLOCK_ROWS + 3])
def test_render_grid_field_matches_per_row_oracle(rows, components):
    """The data block is byte-equal to one repr-joined line per grid point,
    whatever the row count against the render's block size, including
    signed zeros, subnormals and the extremes of the float range."""
    rng = np.random.default_rng(rows * components)
    values = rng.standard_normal((rows, components)) * 10.0 ** rng.integers(-300, 300, (rows, 1))
    flat = values.ravel()
    flat[:len(SPECIAL_VALUES)] = SPECIAL_VALUES[:len(flat)]
    text = render_grid_field("test", (0.5,), values)
    header, data = text.split("data:\n")
    assert header.endswith(f"components: {components}\n")
    assert data == grid_field_rows(values, axes=1)


def metric_16_4():
    """A 3+1 metric at 16^4 with full-length values, like the bench's."""
    rng = np.random.default_rng(16)
    noise = 0.02 * rng.uniform(-1.0, 1.0, (16,) * 4 + (4, 4))
    components = np.diag([-1.0, 1.0, 1.0, 1.0]) + noise + np.swapaxes(noise, -1, -2)
    return MetricField((0.25, 0.25, 0.5, 0.125), components)


def traced_peak(function, *args):
    """Traced peak bytes of one call."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_residual_text_is_written_block_by_block(tmp_path):
    """The 16^4 residual's 3 MiB of text is rendered block by block as
    write_bundle writes it, with the bytes of render_grid_field: the bundle
    holds none of it, and writing traces under half of it. A whole text
    traced its size again while it was written, as its encoded copy."""
    metric = metric_16_4()
    metric_path = tmp_path / "metric16.gridfield"
    write_metric_field(metric_path, metric)
    path = write_config(tmp_path, "harmonic16.yaml", {
        "experiment": "check-harmonic", "output_dir": str(tmp_path / "out"),
        "harmonic": {"metric_file": str(metric_path)}})
    config = load_config(path)
    bundle = execute(config)
    assert not isinstance(bundle.files["residual.gridfield"], str)
    peak = traced_peak(write_bundle, bundle, config.output_dir, config.formats)
    text = (config.output_dir / "residual.gridfield").read_text()
    assert len(text) > 3 * 2**20
    assert peak < len(text) / 2
    assert text == render_grid_field("residual", metric.spacings, harmonic_residual(metric))


def test_metric_field_16_4_round_trip(tmp_path):
    """A 3+1 metric at 16^4, larger than one render block, written by
    write_metric_field reads back bit-equal."""
    metric = metric_16_4()
    path = tmp_path / "metric16.gridfield"
    write_metric_field(path, metric)
    loaded = read_metric_field(path)
    assert loaded.spacings == metric.spacings
    assert np.array_equal(loaded.components, metric.components)


def test_grid_field_parse_holds_no_copy_of_the_text(tmp_path):
    """The 13.5 MB text of a 16^4 metric is streamed to loadtxt: the parse
    peaks under its 5 MiB of values plus 1 MiB."""
    path = tmp_path / "metric16.gridfield"
    write_metric_field(path, metric_16_4())
    values_bytes = 16**4 * 10 * 8
    assert path.stat().st_size > 2 * values_bytes
    assert traced_peak(_parse_grid_field, path) < values_bytes + 2**20


def test_write_metric_field_holds_one_render_block(tmp_path):
    """write_metric_field takes the upper triangle from the components one
    render block at a time and writes each block as it is formatted: a
    16^4 metric peaks under two blocks' formatting (per value a float
    object, a list and a tuple slot and its text), with no triangle."""
    metric = metric_16_4()
    block_bytes = RENDER_BLOCK_ROWS * 10 * (24 + 8 + 8 + 25)
    peak = traced_peak(write_metric_field, tmp_path / "metric16.gridfield", metric)
    assert peak < 2 * block_bytes


def test_write_metric_field_renders_the_upper_triangle(tmp_path):
    """The metric's text is render_grid_field of its upper-triangle
    components, bit for bit."""
    metric = metric_16_4()
    path = tmp_path / "metric16.gridfield"
    write_metric_field(path, metric)
    iu = np.triu_indices(metric.dim)
    expected = render_grid_field("metric", metric.spacings, metric.components[..., iu[0], iu[1]])
    assert path.read_text() == expected


def test_read_metric_field_holds_the_metric_and_its_inverse(tmp_path):
    """read_metric_field hands its unpacked tensor to MetricField, which
    keeps it with no copy: a 16^4 metric peaks under 2.2 tensors, the
    tensor and its inverse (the parsed triangle is freed first)."""
    path = tmp_path / "metric16.gridfield"
    write_metric_field(path, metric_16_4())
    tensor_bytes = 16**4 * 16 * 8
    assert traced_peak(read_metric_field, path) < 2.2 * tensor_bytes


def test_check_harmonic_run_holds_two_tensors(tmp_path):
    """A check-harmonic run of a 16^4 metric, loaded, executed and
    written, traces under 20 MiB: the metric and its inverse (8 MiB each),
    the residual and one render block."""
    metric_path = tmp_path / "metric16.gridfield"
    write_metric_field(metric_path, metric_16_4())
    path = write_config(tmp_path, "harmonic16.yaml", {
        "experiment": "check-harmonic", "output_dir": str(tmp_path / "out"),
        "harmonic": {"metric_file": str(metric_path)}})

    def run():
        config = load_config(path)
        write_bundle(execute(config), config.output_dir, config.formats)

    assert traced_peak(run) < 20 * 2**20


def grid_field_text(data: str, kind: str = "metric", **header) -> str:
    """A 2x2 metric grid field's text; ``header`` replaces entries, and an
    entry given as None is left out."""
    entries = {"kind": kind, "axes": "2", "shape": "2 2", "spacing": "0.25 0.25",
               "components": "3", **header}
    return ("# holesim grid-field v1\n"
            + "".join(f"{key}: {value}\n" for key, value in entries.items() if value is not None)
            + "data:\n" + data)


MINKOWSKI_ROWS = "-1.0 0.0 1.0\n" * 4


@pytest.mark.parametrize("text, message", [
    (grid_field_text("-1.0 0.0 1.0\n-1.0 0.0\n-1.0 0.0 1.0\n-1.0 0.0 1.0\n"),
     "cannot parse grid field: the number of columns changed from 3 to 2 at row 2; use"
     " `usecols` to select a subset and avoid this error"),
    (grid_field_text("-1.0 0.0 1.0\n-1.0 x 1.0\n-1.0 0.0 1.0\n-1.0 0.0 1.0\n"),
     "cannot parse grid field: could not convert string 'x' to float64 at row 1, column 2."),
    ("# holesim grid-field v1\n\nkind: metric\naxes 2\n", "malformed header line 4: 'axes 2'"),
    (b"# holesim grid-field v1\nkind: m\xe9tric\n",
     "cannot read grid field: 'utf-8' codec can't decode byte 0xe9 in position 31:"
     " invalid continuation byte"),
    (grid_field_text(MINKOWSKI_ROWS, components=None),
     "missing header entries ['components'] or data section"),
    (grid_field_text(MINKOWSKI_ROWS, shape="3 3 3"), "shape/spacing do not match axes=2"),
], ids=["ragged_row", "bad_token", "malformed_header", "latin1_header", "no_components",
        "shape_of_other_axes"])
def test_grid_field_parse_messages(tmp_path, text, message):
    """A malformed grid field's message, loadtxt's row and column included."""
    path = tmp_path / "bad.gridfield"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        read_metric_field(path)
    assert exc.value.messages == [f"{path}: {message}"]


def test_byte_determinism(tmp_path):
    """Re-executing one committed config overwrites with identical bytes."""
    path = small_baseline(tmp_path, "repeat")
    assert main(["run", "--config", str(path)]) == 0
    names = ("result.json", "theta_baseline.csv")
    first = {n: (tmp_path / "repeat" / n).read_bytes() for n in names}
    assert main(["run", "--config", str(path)]) == 0
    for name in names:
        assert (tmp_path / "repeat" / name).read_bytes() == first[name]


def test_formats_filtering(tmp_path):
    path = small_baseline(tmp_path, "jsononly", formats=["json"])
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "jsononly"
    assert (out / "result.json").exists()
    assert not (out / "theta_baseline.csv").exists()


def test_validate_command(tmp_path, capsys):
    path = small_baseline(tmp_path, "val")
    assert main(["validate", "--config", str(path)]) == 0
    assert "OK" in capsys.readouterr().out
    assert not (tmp_path / "val").exists()  # validation runs nothing


def test_version_command(capsys):
    assert main(["version"]) == 0
    from holesim import __version__

    assert capsys.readouterr().out.strip() == __version__


def test_result_bundle_rejects_nonfinite():
    with pytest.raises(DomainError, match=r"at data\.value$"):
        ResultBundle("baseline", {"value": float("nan")})
    with pytest.raises(DomainError, match=r"at data\.series\[1\]$"):
        ResultBundle("baseline", {"series": [0.5, float("inf")]})


def test_execute_validates_the_result_once(tmp_path, monkeypatch):
    """The render that writes result.json checks a result: a finite one
    renders, one that it refuses names its first bad value in the order the
    text is written."""
    import holesim.cli as cli

    real_run = cli.run_baseline

    def last_theta_nan(settings):
        report = real_run(settings)
        thetas = report.theta_baseline.copy()
        thetas[-1] = complex("nan")
        return dataclasses.replace(report, theta_baseline=thetas)

    path = write_config(tmp_path, "baseline.yaml", {
        "experiment": "baseline",
        "evolution": {"t_end": 0.2, "snapshot_stride": 5},
    })
    bundle = cli.execute(load_config(path))
    assert bundle.wall_time_s > 0
    monkeypatch.setattr(cli, "run_baseline", last_theta_nan)
    with pytest.raises(DomainError, match=r"^non-finite value at data\.final\.abs_theta$"):
        cli.execute(load_config(path))


def test_result_bundle_roundtrip_guard():
    bundle = ResultBundle("baseline", {"value": 0.1, "list": [1, 2.5]})
    assert bundle.data["value"] == 0.1


def test_result_bundle_refuses_what_json_cannot_encode():
    with pytest.raises(DomainError, match="does not round-trip through JSON"):
        ResultBundle("baseline", {"table": {(1, 2): 0.5}})


def test_result_json_is_the_text_the_bundle_checked(tmp_path):
    data = {"value": 0.1, "list": [1, 2.5], "nested": {"b": None, "a": "x"}}
    bundle = ResultBundle("baseline", data)
    write_bundle(bundle, tmp_path / "rj", formats=("json",))
    text = (tmp_path / "rj" / "result.json").read_text()
    assert text == bundle.json_text == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_write_bundle_meta_separate(tmp_path):
    bundle = ResultBundle("baseline", {"value": 1.0}, {"extra.csv": "a,b\n1.0,2.0\n"})
    written = write_bundle(bundle, tmp_path / "wb")
    names = {p.name for p in written}
    assert names == {"result.json", "extra.csv", "run_meta.json"}
    meta = json.loads((tmp_path / "wb" / "run_meta.json").read_text())
    assert "wall_time_s" in meta
    report = (tmp_path / "wb" / "result.json").read_text()
    assert "wall_time" not in report


def test_sweep_rows_do_not_depend_on_batch_size(tmp_path):
    """A displacement sweep shares its branches across values: the rows of
    one 3-value sweep are byte-equal to those of three 1-value sweeps."""
    values = [0.0, 7.3, 17.5]  # identity, off-grid and grid-aligned shifts
    payload = {
        "experiment": "sweep",
        "grid": {"points": 512, "extent": 40.0},
        "evolution": {"dt": 0.04, "t_end": 2.4, "mass": 4.0, "snapshot_stride": 20},
    }

    def rows(name, batch):
        out = tmp_path / name
        path = write_config(tmp_path, f"{name}.yaml", {
            **payload, "output_dir": str(out),
            "sweep": {"parameter": "displacement", "values": batch}})
        assert main(["run", "--config", str(path)]) == 0
        return (out / "sweep.csv").read_bytes().splitlines()[1:]

    batched = rows("batched", values)
    single = [row for i, value in enumerate(values) for row in rows(f"single_{i}", [value])]
    assert len(batched) == len(values)
    assert all(row.endswith(b",ok") for row in batched)
    assert batched == single


@pytest.mark.parametrize("name", ["hole_control", "sweep_coupling"])
def test_data_files_do_not_depend_on_core_count(tmp_path, monkeypatch, name):
    """Over a 16 KiB STACK_BYTES a committed 1D run steps each branch as its
    own part: one part on one core, one thread per part on four. Both
    write the data files of an unpatched run, byte for byte."""
    evolve_module = importlib.import_module("holesim.evolve")
    config = load_config(ROOT / "configs" / f"{name}.yaml")

    def data_files(out):
        written = write_bundle(execute(config), tmp_path / out, config.formats)
        return {p.name: p.read_bytes() for p in written if p.name != "run_meta.json"}

    unpatched = data_files("unpatched")
    monkeypatch.setattr(evolve_module, "STACK_BYTES", 16 * 1024)
    for cores in (1, 4):
        monkeypatch.setattr(evolve_module, "_cores", lambda: cores)
        assert data_files(f"cores_{cores}") == unpatched


def test_runtime_error_exit_codes(tmp_path):
    path = write_config(tmp_path, "leaky.yaml", {
        "experiment": "baseline",
        "output_dir": str(tmp_path / "leaky_out"),
        "support": {"lower": -3.0, "upper": 3.0},
    })
    from holesim import SupportViolation

    assert main(["run", "--config", str(path)]) == SupportViolation.exit_code


def test_default_scenario_has_one_source(tmp_path):
    """A config that sets nothing reproduces default_config()."""
    from holesim import default_config

    path = write_config(tmp_path, "defaults.yaml", {"experiment": "hole"})
    loaded = load_config(path).settings
    expected = default_config()
    for name in ("grid", "packet_center", "packet_width", "packet_momentum",
                 "source_left", "source_right", "coupling", "softening",
                 "evolution", "support"):
        assert getattr(loaded, name) == getattr(expected, name), name
    assert loaded.diffeo.kind == expected.diffeo.kind == "translation_ramp"
    assert np.array_equal(loaded.diffeo.shift, expected.diffeo.shift)
    assert (loaded.diffeo.t0, loaded.diffeo.t1) == (expected.diffeo.t0, expected.diffeo.t1)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_committed_config_loads(path):
    assert load_config(path).experiment == yaml.safe_load(path.read_text())["experiment"]


def test_scalar_sections_apply_on_every_grid_axis(tmp_path):
    """A 2D config that sets only the grid points, the support and the
    shift reads the scalar defaults as they are read by default_config.
    At 128 points on extent 40 the default packet width resolves the grid."""
    from holesim import Grid, Region, default_config, make_translation_ramp

    support = {"lower": [-9.0, -9.0], "upper": [7.0, 7.0]}
    path = write_config(tmp_path, "plane.yaml", {
        "experiment": "hole",
        "grid": {"points": [128, 128]},
        "support": support,
        "diffeo": {"shift": [17.5, 0.0]},
    })
    assert main(["validate", "--config", str(path)]) == 0
    loaded = load_config(path).settings
    expected = default_config(grid=Grid((128, 128), 40.0),
                              support=Region(support["lower"], support["upper"]),
                              diffeo=make_translation_ramp((17.5, 0.0), 0.8, 1.6,
                                                           extent=(40.0, 40.0)))
    for name in ("grid", "packet_center", "packet_width", "packet_momentum",
                 "source_left", "source_right", "coupling", "softening",
                 "evolution", "support"):
        assert getattr(loaded, name) == getattr(expected, name), name
    assert loaded.packet_center == (-1.0, -1.0)
    assert np.array_equal(loaded.diffeo.shift, expected.diffeo.shift)
    assert (loaded.diffeo.t0, loaded.diffeo.t1) == (expected.diffeo.t0, expected.diffeo.t1)


@pytest.mark.parametrize("experiment", ["baseline", "hole", "sweep"])
def test_run_over_the_memory_limit_fails_validate(tmp_path, capsys, experiment):
    """A 1024^3 grid holds 16 GiB per complex field: validate refuses it
    with the config exit code, without allocating a field."""
    path = write_config(tmp_path, "huge.yaml", {
        "experiment": experiment,
        "grid": {"points": [1024] * 3},
        "support": {"lower": [-9.0] * 3, "upper": [7.0] * 3},
        "diffeo": {"shift": [17.5, 0.0, 0.0]},
    })
    tracemalloc.start()
    try:
        code = main(["validate", "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == ConfigError.exit_code
    assert "config error: grid: a run on (1024, 1024, 1024) points needs" in capsys.readouterr().err
    assert peak < 2**20


def test_sweep_that_fits_one_value_at_a_time_validates(tmp_path):
    """One value of this 1D sweep has 40001 snapshots. Stored, they took
    about 1.3 GB, and the 7 distinct branches stacked about 4.6 GB. Streamed,
    its estimate counts SNAPSHOT_BYTES per snapshot and value, about 0.27 GB
    for the four values, and no snapshot fields: the 7 branches evolve in
    one call, and the sweep validates."""
    path = write_config(tmp_path, "long_sweep.yaml", {
        "experiment": "sweep",
        "evolution": {"dt": 0.001, "t_end": 40.0, "snapshot_stride": 1},
        "sweep": {"parameter": "coupling", "values": [0.0, 0.05, 0.1, 0.2]},
    })
    code, peak = validate_traced(path)
    assert code == 0
    assert peak < 2**20
    config = load_config(path).settings[0]
    assert _group_branches(config, 8) == 8
    assert 0.25e9 < peak_bytes(config, values=4) < 0.3e9 < PEAK_BYTES_LIMIT
    assert peak_bytes(config, values=4) < 1.05 * 4 * peak_bytes(config)


@pytest.mark.parametrize("sections", [
    {"grid": {"points": [128, 128], "extent": [40.0, 40.0]},
     "packet": {"center": [-1.0, 0.0], "width": 1.0, "momentum": [0.0, 0.0]},
     "potentials": {"left_position": [-2.5, 0.0], "right_position": [2.5, 0.0]},
     "diffeo": {"kind": "bump_displacement", "center": [0.0, 0.0], "radius": 5.0,
                "peak_shift": [1.0, 0.0], "t0": 0.8, "t1": 1.6, "two_sided": True},
     "support": {"lower": [-9.0, -9.0], "upper": [7.0, 9.0]}},
    {"grid": {"points": [64, 64, 64], "extent": [40.0] * 3},
     "packet": {"center": [-1.0, 0.0, 0.0], "width": 1.9, "momentum": [0.0] * 3},
     "potentials": {"left_position": [-2.5, 0.0, 0.0], "right_position": [2.5, 0.0, 0.0]},
     "diffeo": {"shift": [17.5, 0.0, 0.0], "two_sided": True},
     "support": {"lower": [-19.9] * 3, "upper": [19.9] * 3}},
], ids=["bump_2d", "translation_3d"])
def test_many_value_sweep_counts_one_group_of_plans(tmp_path, sections):
    """A sweep's groups run one after another, and a translation's plan
    holds no field: 1200 coupling values validate, of a 2D 128^2 bump,
    whose plans keep up to 32 MiB of sampler tables each, or of a 3D 64^3
    translation, of 4 MiB a field."""
    values = [round(0.01 + 0.0001 * i, 6) for i in range(1200)]
    path = write_config(tmp_path, "many.yaml", {
        "experiment": "sweep", **sections, "sweep": {"parameter": "coupling", "values": values}})
    code, peak = validate_traced(path)
    assert code == 0
    assert peak < 2**22
    config, _, values = load_config(path).settings
    assert peak_bytes(config, len(values)) < 0.25 * PEAK_BYTES_LIMIT


def validate_traced(path):
    """Exit code of validate, and the traced peak bytes it allocated."""
    tracemalloc.start()
    try:
        code = main(["validate", "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize("recover, message", [
    ({"points": 2**26, "n": 4, "translation_cells": 0}, "recover: n = 4 on 67108864 points"),
    ({"points": 2**12, "n": 2**12, "translation_cells": 1}, "recover: n = 4096 on 4096 points"),
], ids=["bases", "projectors"])
def test_recovery_over_the_memory_limit_fails_validate(tmp_path, capsys, recover, message):
    """Bases of 2^26 points, or 4096 projectors of 4096^2 entries, need
    far over the limit: validate refuses them with the config exit code,
    without allocating either."""
    path = write_config(tmp_path, "huge_recover.yaml", {
        "experiment": "recover-background", "recover": recover})
    code, peak = validate_traced(path)
    assert code == ConfigError.exit_code
    assert f"config error: {message} needs about" in capsys.readouterr().err
    assert peak < 2**20


def test_harmonic_over_the_memory_limit_fails_validate(tmp_path, capsys):
    """A metric file is sized at load, not read: a 400 MiB (sparse) file is
    refused with the config exit code within a small traced peak."""
    metric_path = tmp_path / "huge.gridfield"
    with metric_path.open("wb") as out:
        out.truncate(400 * 2**20)
    path = write_config(tmp_path, "huge_harmonic.yaml", {
        "experiment": "check-harmonic", "harmonic": {"metric_file": str(metric_path)}})
    code, peak = validate_traced(path)
    assert code == ConfigError.exit_code
    assert (f"config error: harmonic.metric_file: a check of {400 * 2**20} bytes of text"
            " needs about") in capsys.readouterr().err
    assert peak < 2**20


def traced_run_peak(path):
    """Traced peak bytes of loading and executing a config: a check-harmonic
    run parses its metric file at load."""
    return traced_peak(lambda: execute(load_config(path)))


# Runs whose peaks are held by different things: the bench's two-sided 2D
# 128^2 bump at seed 77, whose pushforward plans keep sampler tables; a short
# two-sided 3D 64^3 run with a grid-aligned shift, whose stacks dominate; a
# stride-1 1D baseline of 2001 snapshots and a stride-1 one-sided 1D hole
# run, whose series and result text dominate; a 2D 64^2 coupling sweep,
# whose 9 branches evolve in three groups; and a two-sided 2D 64^2 bump
# coupling sweep, whose groups of two runs keep two plans at once.
PEAK_HOLE_RUNS = {
    "bump_2d": {
        "experiment": "hole",
        "grid": {"points": [128, 128], "extent": [40.0, 40.0]},
        "packet": {"center": [-1.0, 0.0], "width": 1.0, "momentum": [0.0, 0.0]},
        "potentials": {"left_position": [-2.4744140220998423, 0.0],
                       "right_position": [2.3719440984767193, 0.0],
                       "coupling": 0.11143729234169973, "softening": 1.0},
        "diffeo": {"kind": "bump_displacement", "center": [0.0, 0.0], "radius": 5.0,
                   "peak_shift": [1.0, 0.0], "t0": 0.8, "t1": 1.6, "two_sided": True},
        "support": {"lower": [-9.0, -9.0], "upper": [7.0, 9.0]},
    },
    "aligned_3d": {
        "experiment": "hole",
        "grid": {"points": [64, 64, 64], "extent": [40.0, 40.0, 40.0]},
        "packet": {"center": [-1.0, 0.0, 0.0], "width": 1.9, "momentum": [0.0, 0.0, 0.0]},
        "evolution": {"dt": 0.04, "t_end": 0.4, "mass": 4.0, "snapshot_stride": 5},
        "diffeo": {"kind": "translation_ramp", "shift": [17.5, 0.0, 0.0],
                   "t0": 0.1, "t1": 0.3, "two_sided": True},
        "support": {"lower": [-19.9] * 3, "upper": [19.9] * 3},
    },
    "baseline_1d_stride_1": {
        "experiment": "baseline",
        "grid": {"points": 128, "extent": 40.0},
        "evolution": {"dt": 0.02, "t_end": 40.0, "mass": 4.0, "snapshot_stride": 1},
        "support": {"lower": -20.0, "upper": 20.0},
    },
    "one_sided_1d": {
        "experiment": "hole",
        "evolution": {"snapshot_stride": 1},
    },
    "sweep_2d": {
        "experiment": "sweep",
        "grid": {"points": [64, 64], "extent": [40.0, 40.0]},
        "packet": {"center": [-1.0, 0.0], "width": 1.9},
        "potentials": {"left_position": [-2.5, 0.0], "right_position": [2.5, 0.0]},
        "diffeo": {"shift": [17.5, 0.0], "two_sided": True},
        "support": {"lower": [-19.0, -19.0], "upper": [19.0, 19.0]},
        "sweep": {"parameter": "coupling", "values": [0.0, 0.05, 0.1, 0.2, 0.3]},
    },
    "bump_sweep_2d": {
        "experiment": "sweep",
        "grid": {"points": [64, 64], "extent": [40.0, 40.0]},
        "packet": {"center": [-1.0, 0.0], "width": 1.9},
        "potentials": {"left_position": [-2.5, 0.0], "right_position": [2.5, 0.0]},
        "diffeo": {"kind": "bump_displacement", "center": [0.0, 0.0], "radius": 10.0,
                   "peak_shift": [1.0, 0.0], "t0": 0.8, "t1": 1.6, "two_sided": True},
        "support": {"lower": [-19.0, -19.0], "upper": [19.0, 19.0]},
        "sweep": {"parameter": "coupling", "values": [0.05, 0.1, 0.2, 0.3]},
    },
}


def test_peak_estimates_bound_traced_runs(tmp_path):
    """The load-time estimates are upper bounds of what a run allocates,
    load and execute together: a static and an evolved recovery; a check
    of a Minkowski metric as write_metric_field writes it ("0.0"), and of a
    16^4 one as integer entries ("0"), the most values per byte of text the
    parser accepts, whose estimate is also under twice its traced peak, so
    the estimate follows what the check holds; and the runs of
    PEAK_HOLE_RUNS."""
    for recover in ({"points": 256, "n": 32},
                    {"points": 512, "n": 64, "oracle": "evolved", "translation_cells": 8}):
        path = write_config(tmp_path, "recover.yaml", {
            "experiment": "recover-background", "recover": recover})
        assert traced_run_peak(path) < _recover_peak_bytes(recover["points"], recover["n"])
    flat_path, short_path = tmp_path / "flat.gridfield", tmp_path / "short.gridfield"
    write_metric_field(flat_path, minkowski_metric((8,) * 4, (0.25,) * 4))
    write_metric_field(short_path, minkowski_metric((16,) * 4, (0.25,) * 4))
    short_path.write_text(short_path.read_text().replace("1.0", "1").replace("0.0", "0"))
    assert "\n-1 0 0 0 1 0 0 1 0 1\n" in short_path.read_text()
    assert short_path.stat().st_size == 1376370
    for metric_path in (flat_path, short_path):
        path = write_config(tmp_path, "flat.yaml", {
            "experiment": "check-harmonic", "harmonic": {"metric_file": str(metric_path)}})
        peak, estimate = traced_run_peak(path), _harmonic_peak_bytes(metric_path.stat().st_size)
        assert peak < estimate
    assert estimate < 2 * peak
    for name, sections in PEAK_HOLE_RUNS.items():
        path, bundles = write_config(tmp_path, f"{name}.yaml", sections), []
        peak = traced_peak(lambda: bundles.append(execute(load_config(path))))
        config = load_config(path)
        settings, _, values = (config.settings if config.experiment == "sweep"
                               else (config.settings, None, [None]))
        assert peak < peak_bytes(settings, len(values)), name
        assert ",error:" not in "".join(bundles[0].files.get("sweep.csv", "")), name


def test_aligned_3d_run_holds_two_fields_per_branch(tmp_path):
    """The two-sided 3D 64^3 run, loaded, executed and written, traces at
    most 30 MiB: per branch its stack and potential phase, the kinetic
    factor and the two pushed states, 28 MiB of 4 MiB fields. The packet
    and potentials are freed once the stacks are built; held over the
    stream, they made it 36.9 MiB."""
    path = write_config(tmp_path, "aligned_3d.yaml", {
        **PEAK_HOLE_RUNS["aligned_3d"], "output_dir": str(tmp_path / "out")})

    def run():
        config = load_config(path)
        write_bundle(execute(config), config.output_dir, config.formats)

    assert traced_peak(run) <= 30 * 2**20
    assert (tmp_path / "out" / "result.json").exists()


def test_hole_run_peak_does_not_grow_with_its_snapshot_count(tmp_path, monkeypatch):
    """The aligned 3D run traced at strides 1 (10 snapshots, some of them
    pushed off-grid mid-ramp) and 10 (one snapshot): within 2 MiB of each
    other, and below the 60.9 MiB that its stride-10 run traced while every
    snapshot was stored. At 1, 2 and 4 workers, the streamed run_hole and
    sweep have the bits of theta_time_series over collected evolve_branches
    trajectories, pushed one snapshot at a time."""
    from holesim import evolve_branches, pushforward_wavefunction, run_hole
    from holesim.evolve import Trajectory
    from holesim.observable import theta_time_series

    evolve_module = importlib.import_module("holesim.evolve")
    peaks = {}
    for stride in (1, 10):
        sections = PEAK_HOLE_RUNS["aligned_3d"]
        path = write_config(tmp_path, f"aligned_{stride}.yaml", {
            **sections, "evolution": {**sections["evolution"], "snapshot_stride": stride}})
        peaks[stride] = traced_run_peak(path)
    assert abs(peaks[1] - peaks[10]) < 2 * 2**20
    assert max(peaks.values()) < 60.9 * 2**20

    config = load_config(tmp_path / "aligned_1.yaml").settings
    phi = config.diffeo

    def pushed(trajectory):
        return Trajectory(trajectory.times, tuple(
            pushforward_wavefunction(psi, phi, t) for t, psi in zip(trajectory.times,
                                                                   trajectory.states)))

    psi0 = config.initial_packet()
    for workers in (1, 2, 4):
        monkeypatch.setattr(evolve_module, "_cores", lambda: workers)
        left, right = evolve_branches([psi0, psi0], config.branch_potentials(), config.evolution)
        times, baseline = theta_time_series(left, right)
        _, hole = theta_time_series(pushed(left), pushed(right))
        assert len(times) == 11
        streamed = run_hole(config)
        entry, = sweep(config, "coupling", [config.coupling])
        for report in (streamed, entry.report):
            assert np.array_equal(report.times, times), workers
            assert np.array_equal(report.theta_baseline, baseline), workers
            assert np.array_equal(report.theta_hole, hole), workers


def test_generated_bench_configs_validate(tmp_path, monkeypatch):
    workloads = load_module("bench_workloads", ROOT / "bench" / "workloads.py", monkeypatch)
    for workload in workloads.COMMITTED:
        for case in workloads.build(workload, ROOT, tmp_path, seed=0):
            assert main(["validate", "--config", str(case.config)]) == 0, case.name


@pytest.mark.parametrize("recover", [
    {"points": 100, "n": 10},  # not a power of two
], ids=["points"])
def test_recovery_grid_is_validated(tmp_path, capsys, recover):
    path = write_config(tmp_path, "recover.yaml", {
        "experiment": "recover-background",
        "recover": recover,
    })
    assert main(["validate", "--config", str(path)]) == ConfigError.exit_code
    assert "config error: recover:" in capsys.readouterr().err


def test_evolved_recovery_runs_on_an_extent_the_hole_map_would_refuse(tmp_path):
    """A recovery applies no map: on an extent under twice the default
    shift the evolved oracle validates, runs and recovers the planted cells."""
    path = write_config(tmp_path, "recover.yaml", {
        "experiment": "recover-background",
        "output_dir": str(tmp_path / "out"),
        "recover": {"extent": 20.0, "oracle": "evolved"},
    })
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "result.json").read_text())
    assert report["localization_cells"] == [(j * 8 + 24) % 256 for j in range(32)]


@pytest.mark.parametrize("recover", [
    {"points": 256.7},
    {"n": 32.9},
    {"translation_cells": 24.5},
], ids=["points", "n", "translation_cells"])
def test_fractional_recovery_sizes_are_rejected(tmp_path, capsys, recover):
    path = write_config(tmp_path, "recover.yaml", {
        "experiment": "recover-background",
        "recover": recover,
    })
    assert main(["validate", "--config", str(path)]) == ConfigError.exit_code
    key = next(iter(recover))
    assert f"recover: {key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("sections, message", [
    ({"experiment": "baseline", "packet": {"width": 0.05}}, "width 0.05 under-resolved"),
    ({"experiment": "baseline", "packet": {"width": 5.0}}, "envelope tail"),
    ({"experiment": "hole", "grid": {"points": [64, 64]}}, "width 1.0 under-resolved"),
], ids=["narrow", "wide", "default_width_on_64x64"])
def test_unresolved_packet_is_a_config_error(tmp_path, capsys, sections, message):
    """A packet narrower than 3 cells of its grid, or one whose tail
    reaches the boundary, fails at load time under packet:, instead of at
    run time; the default width is checked as well as a set one."""
    path = write_config(tmp_path, "packet.yaml", sections)
    assert main(["validate", "--config", str(path)]) == ConfigError.exit_code
    assert f"packet: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("sections, message", [
    ({"experiment": "sweep", "sweep": {"parameter": "coupling", "values": [-1.0, float("inf")]}},
     "non-finite value at config.sweep.values[1]"),
    ({"experiment": "sweep",
      "sweep": {"parameter": "displacement", "values": [float("nan"), 30.0, 8.0]}},
     "non-finite value at config.sweep.values[0]"),
    ({"experiment": "hole", "diffeo": {"shift": float("nan")}},
     "non-finite value at config.diffeo.shift"),
    ({"experiment": "hole",
      "diffeo": {"kind": "bump_displacement", "peak_shift": float("nan"), "two_sided": True}},
     "non-finite value at config.diffeo.peak_shift"),
    ({"experiment": "hole",
      "diffeo": {"kind": "bump_displacement", "center": float("nan"), "two_sided": True}},
     "non-finite value at config.diffeo.center"),
    ({"experiment": "baseline", "grid": {"points": float("inf")}},
     "non-finite value at config.grid.points"),
    ({"experiment": "baseline", "packet": {"momentum": datetime.date(2024, 1, 1)}},
     "non-serializable value of type date at config.packet.momentum"),
], ids=["sweep_inf_coupling", "sweep_nan_displacement", "nan_shift", "nan_bump_peak",
        "nan_bump_center", "inf_points", "yaml_date"])
def test_non_finite_numbers_fail_validate(tmp_path, capsys, sections, message):
    """The echoed config goes into result.json, which refuses non-finite
    numbers and values JSON cannot hold, such as a YAML date: validate
    refuses them first, with the config exit code."""
    path = write_config(tmp_path, "nonfinite.yaml", sections)
    assert main(["validate", "--config", str(path)]) == ConfigError.exit_code
    assert f"config error: {message}" in capsys.readouterr().err


def test_two_sided_must_be_a_boolean(tmp_path, capsys):
    path = write_config(tmp_path, "two_sided.yaml", {
        "experiment": "hole",
        "diffeo": {"two_sided": "false"},
    })
    assert main(["validate", "--config", str(path)]) == ConfigError.exit_code
    assert "config error: diffeo.two_sided: must be true or false, got 'false'" \
        in capsys.readouterr().err


def test_quoted_numbers_fail_validate(tmp_path, capsys):
    """A quoted number is a string, and a YAML yes or true a boolean, where
    the default is a number or a list of numbers, alone or in a list:
    validate refuses each such key with the config exit code, as it refuses
    a quoted boolean, where the run read the string as a number and
    result.json echoed it as a string, and read a boolean as 1."""
    path = write_config(tmp_path, "quoted.yaml", {
        "experiment": "sweep",
        "potentials": {"coupling": "0.1"},
        "evolution": {"t_end": "0.4", "dt": "0.02"},
        "packet": {"center": ["-1.0"]},
        "sweep": {"values": [0.1, "0.2"]},
    })
    booleans = tmp_path / "booleans.yaml"
    booleans.write_text("experiment: sweep\npotentials: {coupling: yes}\n"
                        "evolution: {snapshot_stride: true}\nsweep: {values: [true, 0.1]}\n"
                        "recover: {translation_cells: true}\n")
    for config, refused in (
            (path, (("potentials.coupling", "'0.1'"), ("evolution.t_end", "'0.4'"),
                    ("evolution.dt", "'0.02'"), ("packet.center", "['-1.0']"),
                    ("sweep.values", "[0.1, '0.2']"))),
            (booleans, (("potentials.coupling", "True"), ("evolution.snapshot_stride", "True"),
                        ("sweep.values", "[True, 0.1]"), ("recover.translation_cells", "True")))):
        assert main(["validate", "--config", str(config)]) == ConfigError.exit_code
        err = capsys.readouterr().err
        for key, value in refused:
            assert f"config error: {key}: must be a number, got {value}" in err
        assert err.count("must be a number") == len(refused)


@pytest.mark.parametrize("sections, message", [
    ({"experiment": "baseline", "output_dir": 5}, "output_dir: must be a path string, got 5"),
    ({"experiment": "check-harmonic", "harmonic": {"metric_file": 5}},
     "harmonic.metric_file: must be a path string, got 5"),
    ({"experiment": "baseline", "formats": [[1]]},
     "formats: must be a sublist of ['csv', 'json'], got [[1]]"),
], ids=["output_dir", "metric_file", "formats"])
def test_path_keys_must_be_strings(tmp_path, capsys, sections, message):
    path = write_config(tmp_path, "paths.yaml", sections)
    assert main(["validate", "--config", str(path)]) == ConfigError.exit_code
    assert f"config error: {message}" in capsys.readouterr().err


def test_unwritable_output_dir_is_a_config_error(tmp_path, capsys):
    """An output_dir under a regular file cannot be created: validate and
    run fail at load with the config exit code and name the key, and
    write_bundle, should the path change after load, names it too."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = small_baseline(tmp_path, output_dir=str(blocker / "out"))
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == ConfigError.exit_code
        assert f"output_dir: {blocker} is not a directory" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=re.escape(f"output_dir: cannot write {blocker / 'out'}:")):
        write_bundle(ResultBundle("baseline", {"value": 1.0}), blocker / "out")


def one_sided_bump(tmp_path):
    """The 2D 128^2 hole run whose one-sided bump lies inside the support,
    which run_hole's strict displacement gate refuses."""
    return {"experiment": "hole", "grid": {"points": [128, 128]},
            "support": {"lower": [-9.0, -9.0], "upper": [7.0, 9.0]},
            "diffeo": {"kind": "bump_displacement", "center": [0.0, 0.0], "radius": 5.0,
                       "peak_shift": [1.0, 0.0]}}, "diffeo: a one-sided bump_displacement"


def short_metric_file(tmp_path):
    """A metric file whose header says 4x4 points but that has one data row."""
    metric_path = tmp_path / "short.gridfield"
    metric_path.write_text("# holesim grid-field v1\nkind: metric\naxes: 2\nshape: 4 4\n"
                           "spacing: 0.25 0.25\ncomponents: 3\ndata:\n1.0 0.0 1.0\n")
    return ({"experiment": "check-harmonic", "harmonic": {"metric_file": str(metric_path)}},
            f"{metric_path}: data shape (1, 3), expected (16, 3)")


def latin1_metric_file(tmp_path):
    metric_path = tmp_path / "latin1.gridfield"
    metric_path.write_bytes(b"# holesim grid-field v1\nkind: m\xe9tric\n")
    return ({"experiment": "check-harmonic", "harmonic": {"metric_file": str(metric_path)}},
            f"{metric_path}: cannot read grid field:")


def empty_metric_data(tmp_path):
    """A metric file whose data section holds no row."""
    metric_path = tmp_path / "empty.gridfield"
    metric_path.write_text(grid_field_text(""))
    return ({"experiment": "check-harmonic", "harmonic": {"metric_file": str(metric_path)}},
            f"{metric_path}: empty data section, expected 4 rows")


def latin1_past_64_kib(tmp_path):
    """A Latin-1 byte in a data row past the first 64 KiB, which loadtxt
    meets while it streams the rows: a read error, not a parse error."""
    metric_path = tmp_path / "latin1_late.gridfield"
    write_metric_field(metric_path, minkowski_metric((100, 100), (0.25, 0.25)))
    text = metric_path.read_bytes()
    at = text.index(b"0.0", 70000) + 1
    metric_path.write_bytes(text[:at] + b"\xe9" + text[at + 1:])
    return ({"experiment": "check-harmonic", "harmonic": {"metric_file": str(metric_path)}},
            f"{metric_path}: cannot read grid field: 'utf-8' codec can't decode byte 0xe9")


def hole_diffeo(diffeo, message):
    """A case of a hole run whose diffeo section holds ``diffeo``."""
    return lambda tmp_path: ({"experiment": "hole", "diffeo": diffeo}, message)


def metric_text(text, message):
    """A case of a check-harmonic run of a metric file that holds ``text``."""
    def case(tmp_path):
        metric_path = tmp_path / "metric.gridfield"
        metric_path.write_text(text)
        return ({"experiment": "check-harmonic", "harmonic": {"metric_file": str(metric_path)}},
                f"{metric_path}: {message}")
    return case


@pytest.mark.parametrize("case", [
    one_sided_bump, short_metric_file, latin1_metric_file, empty_metric_data, latin1_past_64_kib,
    hole_diffeo({"t0": 1.6, "t1": 0.8}, "diffeo: ramp needs t0 < t1, got [1.6, 0.8]"),
    hole_diffeo({"t0": -1.0, "t1": 0.5},
                "experiment config: diffeo onset t0 must be >= 0, got -1.0"),
    hole_diffeo({"kind": "spiral"}, "diffeo: unknown kind 'spiral'"),
    hole_diffeo({"kind": "bump_displacement", "radius": 0.0, "two_sided": True},
                "diffeo: radius must be positive, got 0.0"),
    metric_text(grid_field_text(MINKOWSKI_ROWS, kind="residual"),
                "expected kind 'metric', got 'residual'"),
    metric_text(grid_field_text("-1.0 0.0 0.0 1.0\n" * 4, components="4"),
                "4 components per point, expected 3"),
], ids=["one_sided_bump", "short_metric_file", "latin1_metric_file", "empty_metric_data",
        "latin1_past_64_kib", "inverted_ramp", "negative_onset", "unknown_diffeo_kind",
        "zero_bump_radius", "residual_kind", "four_components"])
def test_validate_refuses_what_run_refuses(tmp_path, capsys, case):
    """validate and run refuse each config at load, with one message, the
    config exit code and no warning, before anything is computed or written."""
    sections, message = case(tmp_path)
    path = write_config(tmp_path, "refused.yaml", {**sections, "output_dir": str(tmp_path / "out")})
    for command in ("validate", "run"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(path)]) == ConfigError.exit_code
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("- experiment\n- hole\n", "config root must be a mapping, got list"),
    (None, "cannot read config {path}: [Errno 2] No such file or directory"),
    ("experiment: [hole\n", "config parse error in {path}: while parsing a flow sequence"),
], ids=["list_root", "missing_file", "yaml_parse_error"])
def test_unloadable_config_files_fail_validate(tmp_path, capsys, text, message):
    """A config file that cannot be read, parsed or taken as a mapping fails
    validate and run alike, with the config exit code."""
    path = tmp_path / "config.yaml"
    if text is not None:
        path.write_text(text)
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == ConfigError.exit_code
        assert f"config error: {message.format(path=path)}" in capsys.readouterr().err


@pytest.mark.parametrize("header, rows, message", [
    ({"shape": "3 3"}, "-1.0 0.0 1.0\n" * 8 + "nan 0.0 1.0\n", "non-finite metric components"),
    ({"shape": "3 3", "spacing": "1.0 -1.0"}, "-1.0 0.0 1.0\n" * 9,
     "spacings must be positive, got (1.0, -1.0)"),
    ({}, MINKOWSKI_ROWS, "need at least 3 samples per axis for interior points"),
], ids=["nan_component", "negative_spacing", "two_samples_per_axis"])
def test_metric_content_refusals_fail_validate(tmp_path, capsys, header, rows, message):
    """A metric file that parses but holds no metric fails validate and run
    alike with the metric's DomainError: the check-harmonic reader builds
    the metric at load."""
    metric_path = tmp_path / "metric.gridfield"
    metric_path.write_text(grid_field_text(rows, **header))
    path = write_config(tmp_path, "harmonic.yaml", {
        "experiment": "check-harmonic", "output_dir": str(tmp_path / "out"),
        "harmonic": {"metric_file": str(metric_path)}})
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == DomainError.exit_code
        assert capsys.readouterr().err == f"DomainError: {message}\n"
    assert not (tmp_path / "out").exists()


def test_recovery_reports_unknown_keys_of_other_sections(tmp_path):
    """Every section is merged, so a recovery config reports an unknown key
    of a section its run does not read."""
    path = write_config(tmp_path, "recover.yaml", {
        "experiment": "recover-background", "grid": {"extents": 40}})
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert "grid.extents: unknown key" in info.value.messages


@pytest.mark.parametrize("sections, message", [
    ({"diffeo": {"kind": "bump_displacement"}, "sweep": {"parameter": "displacement"}},
     "sweep.values[0]: displacement sweeps need a translation-ramp diffeo"),
    ({"sweep": {"parameter": "displacement", "values": [2.0, 25.0]}},
     "sweep.values[1]: shift component 25.0 exceeds half extent 20.0"),
    ({"sweep": {"parameter": "coupling", "values": [0.1, -0.5]}},
     "sweep.values[1]: coupling must be non-negative, got -0.5"),
    ({"sweep": {"parameter": "mass", "values": [4.0, 0.0]}},
     "sweep.values[1]: mass must be positive, got 0.0"),
], ids=["displacement_of_a_bump", "displacement_over_half_extent", "negative_coupling",
        "zero_mass"])
def test_sweep_values_that_cannot_run_fail_validate(tmp_path, capsys, sections, message):
    """Every sweep value's derived config is built at load time, as sweep()
    builds it, so no value is left to fail as an error row of the run."""
    path = write_config(tmp_path, "sweep.yaml", {"experiment": "sweep", **sections})
    assert main(["validate", "--config", str(path)]) == ConfigError.exit_code
    assert f"config error: {message}" in capsys.readouterr().err


def test_two_sided_sweep_is_the_control(tmp_path):
    """A sweep reads two_sided from its diffeo section as a hole run does:
    the transformed series keeps |theta| of the baseline."""
    out = tmp_path / "out"
    path = write_config(tmp_path, "control.yaml", {
        "experiment": "sweep", "output_dir": str(out),
        "diffeo": {"two_sided": True}, "sweep": {"parameter": "coupling", "values": [0.1]}})
    assert main(["run", "--config", str(path)]) == 0
    entry, = json.loads((out / "result.json").read_text())["entries"]
    assert entry["abs_theta_baseline"] > 0.9
    assert abs(entry["abs_theta_hole"] - entry["abs_theta_baseline"]) <= 1e-6


def test_displacement_sweep_over_the_identity(tmp_path):
    """The identity is the zero translation: a displacement sweep over it
    validates, moves along the first axis over the ramp [0, 1], and its
    value 0 reproduces the baseline."""
    path = write_config(tmp_path, "identity_sweep.yaml", {
        "experiment": "sweep", "output_dir": str(tmp_path / "out"),
        "grid": {"points": 256, "extent": 40.0},
        "evolution": {"dt": 0.05, "t_end": 1.0, "mass": 4.0, "snapshot_stride": 5},
        "diffeo": {"kind": "identity"},
        "sweep": {"parameter": "displacement", "values": [0.0, 2.0]}})
    assert main(["validate", "--config", str(path)]) == 0
    zero, moved = sweep(load_config(path).settings[0], "displacement", [0.0, 2.0])
    assert np.array_equal(zero.report.theta_hole, zero.report.theta_baseline)
    phi = moved.report.config.diffeo
    assert (phi.t0, phi.t1) == (0.0, 1.0)
    assert np.array_equal(phi.shift, [2.0])


def test_hole_estimate_counts_no_push_where_the_map_is_the_identity(tmp_path, monkeypatch):
    """An identity plan returns psi itself: a hole run whose map is the
    identity at t1 has the estimate of its baseline. A displacement sweep
    from a zero shift is bounded by its largest value's estimate, which
    pushes, as one from that shift is."""
    base = load_config(write_config(tmp_path, "base.yaml", {"experiment": "baseline"})).settings
    for diffeo in ({"kind": "identity"}, {"shift": 0.0}, {"shift": 0.0, "two_sided": True}):
        hole = load_config(write_config(tmp_path, "hole.yaml", {
            "experiment": "hole", "diffeo": diffeo})).settings
        assert peak_bytes(hole) == peak_bytes(base) < peak_bytes(dataclasses.replace(
            hole, diffeo=default_config().diffeo))
    import holesim.cli as cli

    estimates = []
    monkeypatch.setattr(cli, "_fits", lambda sized, peak, errors: estimates.append(peak) or True)
    for shift in (0.0, 17.5):
        load_config(write_config(tmp_path, "sweep.yaml", {
            "experiment": "sweep", "diffeo": {"shift": shift},
            "sweep": {"parameter": "displacement", "values": [0.0, 17.5]}}))
    assert estimates == [peak_bytes(default_config(), 2)] * 2


@pytest.mark.parametrize("experiment", ["hole", "sweep"])
def test_identity_echoes_only_the_keys_it_reads(tmp_path, experiment):
    """The identity map reads kind and two_sided only; the config echo in
    result.json holds no other key of its diffeo section."""
    out = tmp_path / "out"
    payload = {
        "experiment": experiment, "output_dir": str(out),
        "grid": {"points": 256, "extent": 40.0},
        "evolution": {"dt": 0.05, "t_end": 1.0, "mass": 4.0, "snapshot_stride": 5},
        "diffeo": {"kind": "identity"}}
    if experiment == "sweep":
        payload["sweep"] = {"parameter": "coupling", "values": [0.1]}
    path = write_config(tmp_path, "identity.yaml", payload)
    assert main(["run", "--config", str(path)]) == 0
    echo = json.loads((out / "result.json").read_text())["config"]["diffeo"]
    assert echo == {"kind": "identity", "two_sided": False}


def test_every_error_has_a_documented_exit_code():
    """Each HolesimError subclass sets its own exit code, and README's exit
    code table lists every code the CLI can return."""
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    errors = list(subclasses(HolesimError))
    assert [sub for sub in errors if "exit_code" not in vars(sub)] == []
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("### Exit codes"):].split("\n\n")[1]
    documented = {int(row.split("|")[1]) for row in table.splitlines()[2:]}
    assert {sub.exit_code for sub in (HolesimError, *errors)} <= documented
