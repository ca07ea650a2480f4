"""Each revfront module imports only modules at or below its own layer.

The layers are the parenthesised module names of the package docstring,
lowest first: (expr, jets), (quadrature), (legendre), (framed),
(revolution), (construct), (singular), (export, cli).  The check reads
the sources with ``ast``, so an import inside a function counts too.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "revfront"
DOCSTRING = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text()))
LAYERS = [re.split(r",\s*", names)
          for names in re.findall(r"\(([a-z]+(?:,\s*[a-z]+)*)\)", DOCSTRING)]
LAYER = {name: i for i, names in enumerate(LAYERS) for name in names}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def package_imports(source):
    """(line, module) for each import of a revfront module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.append((node.lineno, node.module.split(".")[0]))
            elif node.level:
                found += [(node.lineno, a.name) for a in node.names]
            elif (node.module or "").startswith("revfront."):
                found.append((node.lineno, node.module.split(".")[1]))
            elif node.module == "revfront":
                found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[1]) for a in node.names
                      if a.name.startswith("revfront.")]
    return found


def upward_imports(path):
    """(line, module) for each import of a module above path's layer."""
    own = LAYER[path.stem]
    return [(line, name) for line, name in package_imports(path.read_text())
            if LAYER[name] > own]


def test_the_docstring_layers_every_module():
    assert LAYERS == [["expr", "jets"], ["quadrature"], ["legendre"],
                      ["framed"], ["revolution"], ["construct"],
                      ["singular"], ["export", "cli"]]
    assert sorted(LAYER) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_stay_at_or_below_the_layer(path):
    assert upward_imports(path) == []


@pytest.mark.parametrize("source, module", [
    ("from .construct import _helper", "construct"),
    ("from . import construct", "construct"),
    ("from .construct.sub import x", "construct"),
    ("from revfront.construct import x", "construct"),
    ("from revfront import construct", "construct"),
    ("import revfront.construct", "construct"),
    ("def f():\n    from .construct import x", "construct"),
])
def test_the_check_sees_each_form(source, module):
    assert package_imports(source) == [(source.count("\n") + 1, module)]
