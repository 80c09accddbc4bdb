"""The committed configs still reproduce the reference outputs recorded in
bench/reference.json, checked the way the benchmark checks them."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from holesim import cli

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_committed_config_matches_reference(workloads, name):
    bundle = cli.execute(cli.load_config(ROOT / "configs" / f"{name}.yaml"))
    assert workloads._reference_check(REFERENCE[name])(bundle.data, bundle.files) == []
