"""The package computes its numbers; it fits none.

Every expansion and every removable quotient in ``src/revfront`` comes
from the jet algebra (``jets.Jet``, ``jets.Laurent``), so no module calls
a least-squares fit (``polyfit``, ``lstsq``) or uses ``numpy.polynomial``,
whose classes fit and extrapolate.  A jet's rows are read as a polynomial
by one Taylor shift and one Newton rule, ``jets.shift`` and
``jets.newton``, so ``np.polyval`` and ``np.polyder`` are called in
``jets.py`` alone.  The checks read the source with ``ast``, so strings
and comments that name these do not count.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "revfront"
FITS = {"polyfit", "lstsq"}
POLYNOMIAL = {"polyval", "polyder"}


def called(node):
    """The name a call node calls, np.f or f alike; None for others."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)


def fitted_uses(source):
    """(line, what) for each fit call and numpy.polynomial use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if called(node) in FITS:
                found.append((node.lineno, called(node)))
        elif isinstance(node, ast.Attribute) and node.attr == "polynomial":
            found.append((node.lineno, "numpy.polynomial"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("numpy.polynomial")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.polynomial") or (
                    node.module == "numpy"
                    and any(a.name == "polynomial" for a in node.names)):
                found.append((node.lineno, node.module))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_fits(path):
    assert fitted_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "np.polyfit(t, y, 3)",
    "numpy.linalg.lstsq(A, y)",
    "lstsq(A, y)",
    "np.polynomial.polynomial.polyval(t, c)",
    "P = np.polynomial.Polynomial",
    "import numpy.polynomial",
    "from numpy.polynomial import chebyshev",
    "from numpy import polynomial",
])
def test_the_check_sees_each_form(source):
    assert fitted_uses(source)


def polynomial_calls(source):
    """(line, name) for each call of polyval or polyder."""
    return [(node.lineno, called(node)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and called(node) in POLYNOMIAL]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_polynomials_are_read_in_jets_alone(path):
    calls = {name for _, name in polynomial_calls(path.read_text())}
    assert calls == (POLYNOMIAL if path.name == "jets.py" else set())


@pytest.mark.parametrize("source", [
    "np.polyval(p, d)",
    "numpy.polyder(p)",
    "polyval(p, d)",
    "out.append(np.polyval(np.polyder(p), d) / 2)",
])
def test_the_polynomial_check_sees_each_form(source):
    assert polynomial_calls(source)
