"""A revolved surface reads cos theta and sin theta from one table.

``RevolutionSurface._cos_sin`` builds the table from the angle grid's
first sector, and the grid fields and the OBJ writer's ring table both
read it, so the positions a field gives and the vertices a mesh prints
are the same numbers.  A second ``np.cos``/``np.sin`` of theta anywhere
else in ``revolution.py`` would let the two drift apart in the last bit.
The check reads the source with ``ast``, so strings and comments that
name these do not count.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "revfront" / "revolution.py"
TRIG = {"cos", "sin"}
BUILDER = "_cos_sin"


def called(node):
    """The name a call node calls, np.f or f alike; None for others."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)


def trig_calls(source):
    """(function, line, name) for each cos or sin call, with the name of
    the function whose body holds it (None at module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and called(child) in TRIG:
                found.append((owner, child.lineno, called(child)))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_cos_and_sin_are_called_in_the_table_builder_alone():
    calls = trig_calls(SOURCE.read_text())
    assert {name for _, _, name in calls} == TRIG
    assert [call for call in calls if call[0] != BUILDER] == []


@pytest.mark.parametrize("source", [
    "ct = np.cos(self.theta)",
    "def _field(self):\n    return np.sin(self.theta)",
    "class S:\n    def _ring_slots(self):\n        return cos(theta)",
    "def _cos_sin(self):\n    def helper():\n        return np.sin(t)",
])
def test_the_check_sees_each_form(source):
    assert [call for call in trig_calls(source) if call[0] != BUILDER]
