"""The package namespace: each module's ``__all__`` re-exported as the same
objects, and an import that leaves the CLI and PyYAML unloaded."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import holesim
import holesim.errors

# Every module but the CLI, which the package leaves out, and errors, which has no __all__.
MODULES = sorted({info.name for info in pkgutil.iter_modules(holesim.__path__)} - {"cli", "errors"})


def test_package_reexports_each_module_all():
    assert len(MODULES) == 7
    for name in MODULES:
        module = importlib.import_module(f"holesim.{name}")
        for public in module.__all__:
            assert getattr(holesim, public, None) is getattr(module, public), f"{name}.{public}"
    for public, value in inspect.getmembers(holesim.errors, inspect.isclass):
        assert getattr(holesim, public) is value, public


def test_import_leaves_the_cli_and_yaml_unloaded():
    code = ("import sys, holesim; "
            "print(sorted({'holesim.cli', 'yaml'} & set(sys.modules)))")
    src = str(Path(holesim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
