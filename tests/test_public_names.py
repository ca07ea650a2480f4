"""Every name the package exports has a caller outside the tests.

A caller is a use of the name, as a bare name or an attribute, in a
module of the package other than __init__, or in the benchmark harness.
Names bound by ``import ... as`` count as the name they import.  String
literals do not count, so a function that names itself in its own error
messages has no caller by that.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "revfront"


def exported_names():
    """{exported name: the name it was imported as} from __init__."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_names(path):
    tree = ast.parse(path.read_text())
    original = {alias.asname: alias.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.asname}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(original.get(node.id, node.id))
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_exported_name_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(used_names(p) for p in sources))
    exported = exported_names()
    assert exported, "no exports read from __init__"
    idle = sorted(name for name, orig in exported.items() if orig not in used)
    assert not idle, f"exported without a caller: {idle}"
