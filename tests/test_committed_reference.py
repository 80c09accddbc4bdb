"""The committed configs still reproduce the reference outputs recorded in
bench/reference.json, checked the way the benchmark checks them."""

import json
from pathlib import Path

import pytest

from holesim import cli
from oracles import load_module

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield load_module("bench_workloads", ROOT / "bench" / "workloads.py", monkeypatch)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_committed_config_matches_reference(workloads, name):
    bundle = cli.execute(cli.load_config(ROOT / "configs" / f"{name}.yaml"))
    assert workloads._reference_check(REFERENCE[name])(bundle.data, bundle.files) == []
