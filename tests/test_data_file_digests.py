"""The data files of the committed configs and the benchmark's generated
configs are byte-identical to the ones recorded in data_file_digests.json.

A change meant to move bits writes the manifest again, from a fresh
directory:

    python3 REPO/tools/data_files.py REPO out --inputs inputs --seed 31501
    cp out/digests.json REPO/tests/data_file_digests.json

and quotes ``tools/deviation.py`` for each file that moved. The generated
``harmonic_16`` config echoes its metric file's path into ``result.json``,
so the inputs are written under the relative path ``inputs`` of the
working directory, here and when the manifest is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from holesim import cli

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "tests" / "data_file_digests.json").read_text())


def load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_data_files_match_the_committed_digests(tmp_path, monkeypatch):
    if np.__version__ != MANIFEST["numpy"]:
        pytest.skip(f"the digests were written with numpy {MANIFEST['numpy']},"
                    f" this is numpy {np.__version__}")
    workloads = load("bench_workloads", ROOT / "bench" / "workloads.py", monkeypatch)
    data_files = load("data_files", ROOT / "tools" / "data_files.py", monkeypatch)
    monkeypatch.chdir(tmp_path)
    written = data_files.write_data_files(cli, workloads, ROOT, Path("out"), Path("inputs"),
                                          MANIFEST["seed"])
    assert written["cases"] == MANIFEST["cases"]
