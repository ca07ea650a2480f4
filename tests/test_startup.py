"""Start-up of the command line: importing revfront.cli generates no
record code.

The records are plain classes with written-out constructors, so no
module of the package is a dataclass and the import leaves the
dataclasses module unloaded.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import revfront

MODULES = [importlib.import_module("revfront." + m.name)
           for m in pkgutil.iter_modules(revfront.__path__)]


def test_no_class_is_a_dataclass():
    assert len(MODULES) >= 10
    for m in [revfront] + MODULES:
        for name, cls in vars(m).items():
            if isinstance(cls, type) and cls.__module__ == m.__name__:
                assert not hasattr(cls, "__dataclass_fields__"), name


def test_cli_import_leaves_dataclasses_unloaded():
    src = str(Path(revfront.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, revfront.cli; "
         "print(revfront.cli.__name__, 'dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["revfront.cli", "False"]
