"""The benchmark's tracer against the package: every name it wraps must
exist where its caller looks it up, so a refactor that drops or moves one
fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

from holesim import cli

ROOT = Path(__file__).resolve().parent.parent


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    layers = load_layers()
    tracer = layers.Tracer()
    layers.instrument(tracer)
    assert tracer._patches
    tracer.install()
    try:
        for owner, attribute, _, wrapper in tracer._patches:
            assert owner.__dict__[attribute] is wrapper, attribute
        cli.load_config(ROOT / "configs" / "hole.yaml")
    finally:
        tracer.uninstall()
    for owner, attribute, original, _ in tracer._patches:
        assert owner.__dict__[attribute] is original, attribute
    assert [span[0] for span in tracer.spans] == ["cli.load_config"]
