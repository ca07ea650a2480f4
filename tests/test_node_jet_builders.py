"""Every builder integrates its node jets and never samples a lattice.

``reconstruct_from_curvature`` and every construction (the gauss ratio,
(J, K), mean, (J, phi) and (H, phi)) hold every integrand as Taylor jets
at the grid nodes and integrate those (``quadrature.integrated``); the
gauss ratio also steps its system between the nodes on their jets.
Building a ``FineGrid``, or calling ``_lattice``, ``_values`` or
``expr.eval_values`` in one of them, would bring back a second
evaluation of the sources, whose bits differ from the jets'.  The check
reads the sources with ``ast``, so strings and comments that name these
do not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "revfront"
BUILDERS = {"legendre.py": {"reconstruct_from_curvature"},
            "construct.py": {"profile_from_gauss_ratio", "profile_from_JK",
                             "profile_from_mean_ratio", "profile_from_J_phi",
                             "profile_from_H_phi"}}
FORBIDDEN = {"FineGrid", "_lattice", "_values", "eval_values"}


def called(node):
    """The name a call node calls, m.f or f alike; None for others."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)


def lattice_calls(source, builders):
    """{builder: [(line, name)]} of the forbidden calls in the body of each
    top-level function named in builders, nested functions included."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in builders:
            found[node.name] = [
                (call.lineno, called(call)) for call in ast.walk(node)
                if isinstance(call, ast.Call) and called(call) in FORBIDDEN]
    return found


@pytest.mark.parametrize("module", sorted(BUILDERS))
def test_the_builders_take_no_lattice(module):
    found = lattice_calls((PACKAGE / module).read_text(), BUILDERS[module])
    assert found == {name: [] for name in BUILDERS[module]}


@pytest.mark.parametrize("source", [
    "def profile_from_mean_ratio(p, grid):\n    fg = FineGrid(grid)",
    "def profile_from_J_phi(J, phi):\n    return _lattice(grid, t0)",
    "def profile_from_H_phi(H):\n    return _values(H, s, 'H')",
    "def profile_from_H_phi(H):\n    def f():\n"
    "        return expr.eval_values(H, s)",
    "def profile_from_mean_ratio(p, grid):\n    q = quadrature.FineGrid(g)",
])
def test_the_check_sees_each_form(source):
    found = lattice_calls(source, BUILDERS["construct.py"])
    assert [calls for calls in found.values() if calls]
