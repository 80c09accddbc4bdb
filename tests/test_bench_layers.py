"""The benchmark's tracer against the package: every name it wraps must
exist where its caller looks it up, so a refactor that drops or moves one
fails here rather than in a traced benchmark run."""

import ast
import types
from pathlib import Path

from holesim import cli
from oracles import load_module

ROOT = Path(__file__).resolve().parent.parent


def load_layers():
    return load_module("bench_layers", ROOT / "bench" / "layers.py")


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


def test_every_unused_import_is_a_name_the_tracer_wraps():
    """A module-level name that a package module imports but never uses is
    there only for bench/layers.py to wrap where its caller looks it up;
    any other unused import is stale."""
    layers = load_layers()
    tracer = layers.Tracer()
    layers.instrument(tracer)
    wrapped = {(owner.__name__, attribute) for owner, attribute, _, _ in tracer._patches
               if isinstance(owner, types.ModuleType)}
    unused = set()
    for path in sorted((ROOT / "src" / "holesim").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, ast.Import | ast.ImportFrom)
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        unused |= {(f"holesim.{path.stem}", name) for name in imported - used}
    assert sorted(unused - wrapped) == []
