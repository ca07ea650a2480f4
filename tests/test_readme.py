"""The README's examples run as written.

Each ```python block runs as a script and states its results as asserts,
so a result that changes fails here; each `revfront ...` command of a
```sh block runs through cli.run; both in a fresh directory.  A command
continues over lines that end in a backslash; other shell lines (pip,
pytest) are not examples of this package and are skipped.
"""

import re
import shlex
from pathlib import Path

import pytest

from revfront import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.replace("\\\n", " ").splitlines()
            if line.startswith("revfront ")]


def test_readme_has_examples():
    assert len(PYTHON) >= 2 and len(COMMANDS) >= 4


@pytest.mark.parametrize("source", PYTHON,
                         ids=[f"python{i}" for i in range(len(PYTHON))])
def test_python_example_runs(source, tmp_path, monkeypatch):
    assert "\nassert " in source and "print(" not in source
    monkeypatch.chdir(tmp_path)
    exec(compile(source, "README.md", "exec"), {"__name__": "__readme__"})


@pytest.mark.parametrize("command", COMMANDS,
                         ids=[c.split()[1] for c in COMMANDS])
def test_command_example_runs(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.run(shlex.split(command)[1:]) == 0, command
