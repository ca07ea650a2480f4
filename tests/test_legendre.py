"""Legendre curves: structure equations, reconstruction, parallels, evolute.

Curvature formulas are cross-checked against sympy derivatives; the
evolute fixture is the classical tractrix/catenary pair.
"""

import numpy as np
import pytest
import sympy as sp

from revfront.legendre import (DegenerateCurvatureError, curvature_of,
                               legendre_from_expressions, parallel_curve,
                               plane_evolute, reconstruct_from_curvature,
                               verify_legendre)
from revfront.quadrature import uniform_grid

from oracles import congruence_align


def circle(grid):
    return legendre_from_expressions("cos(t)", "sin(t)", "cos(t)", "sin(t)",
                                     grid)


def tractrix(grid):
    # unit-speed-normal pair for (sin t, cos t + log tan(t/2))
    return legendre_from_expressions("sin(t)", "cos(t)+log(tan(t/2))",
                                     "cos(t)", "-sin(t)", grid)


def test_circle_is_legendre_with_unit_curvature():
    c = circle(uniform_grid(0.0, 6.0, 61))
    rep = verify_legendre(c)
    assert rep.passed
    pair = curvature_of(c)
    np.testing.assert_allclose(pair.ell.value, 1.0, atol=1e-12)
    np.testing.assert_allclose(pair.beta.value, 1.0, atol=1e-12)


def test_non_orthogonal_pair_fails_verification():
    g = uniform_grid(0.0, 1.0, 21)
    c = legendre_from_expressions("t", "t", "1", "0", g)
    rep = verify_legendre(c)
    assert not rep.passed
    assert rep.max_contact_residual > 0.5


def test_order_zero_jets_cannot_pass_verification():
    # gamma' = (1, 2t) is no multiple of nu's quarter-turn: at order 1 the
    # contact residual is 2.2; jets of order 0 hold no gamma', and the
    # check read it as 0 and passed
    g = uniform_grid(0.0, 1.0, 33)
    c = legendre_from_expressions("t", "t^2", "0.6", "0.8", g)
    rep = verify_legendre(c.truncated(1))
    assert not rep.passed and abs(rep.max_contact_residual - 2.2) < 1e-12
    with pytest.raises(ValueError, match="order-0 jet"):
        verify_legendre(c.truncated(0))


def test_cusp_curve_curvature_matches_sympy():
    t = sp.Symbol("t")
    r = sp.sqrt(9 * t**2 + 4)
    a_s, b_s = -3 * t / r, 2 / r
    x_s, z_s = t**2, t**3
    ell_s = sp.simplify(a_s * sp.diff(b_s, t) - b_s * sp.diff(a_s, t))
    beta_s = sp.simplify(sp.diff(z_s, t) * a_s - sp.diff(x_s, t) * b_s)
    g = uniform_grid(-1.0, 1.0, 41)
    c = legendre_from_expressions("t^2", "t^3",
                                  "-3*t/sqrt(9*t^2+4)", "2/sqrt(9*t^2+4)", g)
    assert verify_legendre(c).passed
    pair = curvature_of(c)
    want_ell = sp.lambdify(t, ell_s)(g)
    want_beta = sp.lambdify(t, beta_s)(g)
    np.testing.assert_allclose(pair.ell.value, want_ell, atol=1e-10)
    np.testing.assert_allclose(pair.beta.value, want_beta, atol=1e-10)


def test_reconstruct_closed_form_circle():
    g = uniform_grid(0.0, 3.0, 121)
    c = reconstruct_from_curvature("1", "1", g, theta0=0.0, x0=1.0, z0=0.0)
    np.testing.assert_allclose(c.curve.x.value, np.cos(g), atol=1e-12)
    np.testing.assert_allclose(c.curve.z.value, np.sin(g), atol=1e-12)
    np.testing.assert_allclose(c.normal.a.value, np.cos(g), atol=1e-12)


def test_reconstruct_round_trip_random():
    rng = np.random.default_rng(5)
    g = uniform_grid(0.0, 1.0, 81)
    for _ in range(12):
        c0 = rng.uniform(-1, 1, 6)
        ell = f"{c0[0]:.6f} + {c0[1]:.6f}*t + {c0[2]:.6f}*sin({1 + abs(c0[3]):.6f}*t)"
        beta = f"{c0[4]:.6f}*cos(2*t) + {c0[5]:.6f} + 0.1*t"
        c = reconstruct_from_curvature(ell, beta, g)
        assert verify_legendre(c).passed
        pair = curvature_of(c)
        from revfront import expr
        np.testing.assert_allclose(pair.ell.value, expr.eval_values(ell, g),
                                   atol=1e-9)
        np.testing.assert_allclose(pair.beta.value, expr.eval_values(beta, g),
                                   atol=1e-9)


def test_reconstruction_unique_up_to_congruence():
    g = uniform_grid(0.0, 2.0, 101)
    c1 = reconstruct_from_curvature("sin(t)", "1+t/2", g,
                                    theta0=0.0, x0=0.0, z0=0.0)
    c2 = reconstruct_from_curvature("sin(t)", "1+t/2", g,
                                    theta0=0.9, x0=-2.0, z0=3.5)
    al = congruence_align(c1, c2)
    assert al.residual <= 1e-9
    assert abs(al.angle - 0.9) < 1e-12
    np.testing.assert_allclose(al.translation, [-2.0, 3.5], atol=1e-9)


def test_parallel_curve_curvature_shift():
    g = uniform_grid(0.0, 2.0, 51)
    c = reconstruct_from_curvature("1+t", "cos(t)", g)
    for lam in (-0.7, 0.4, 2.0):
        p = parallel_curve(c, lam)
        assert verify_legendre(p).passed
        pc = curvature_of(p)
        base = curvature_of(c)
        np.testing.assert_allclose(pc.ell.value, base.ell.value, atol=1e-12)
        np.testing.assert_allclose(
            pc.beta.value, base.beta.value + lam * base.ell.value, atol=1e-12)
        # offset by the unit normal
        np.testing.assert_allclose(p.curve.x.value,
                                   c.curve.x.value + lam * c.normal.a.value,
                                   atol=1e-14)


def test_parallel_curves_share_evolute():
    g = uniform_grid(0.3, 2.0, 41)
    c = reconstruct_from_curvature("1+t/4", "cos(t)", g)
    e0 = plane_evolute(c)
    e1 = plane_evolute(parallel_curve(c, 0.8))
    np.testing.assert_allclose(e0.x.value, e1.x.value, atol=1e-10)
    np.testing.assert_allclose(e0.z.value, e1.z.value, atol=1e-10)


def test_tractrix_evolute_is_catenary():
    g = uniform_grid(0.3, np.pi - 0.3, 81)
    c = tractrix(g)
    ev = plane_evolute(c)
    np.testing.assert_allclose(ev.x.value, 1.0 / np.sin(g), atol=1e-10)
    np.testing.assert_allclose(ev.z.value, np.log(np.tan(g / 2)), atol=1e-10)
    # catenary relation x = cosh z
    np.testing.assert_allclose(ev.x.value, np.cosh(ev.z.value), atol=1e-10)


def test_evolute_of_line_is_degenerate():
    g = uniform_grid(0.0, 1.0, 21)
    c = legendre_from_expressions("t", "0", "0", "1", g)
    with pytest.raises(DegenerateCurvatureError):
        plane_evolute(c)


INCREASING = "grid must be finite and strictly increasing"
ONE_D = "grid must be a 1-d array with at least 1 node$"


@pytest.mark.parametrize("grid, message", [
    ([0.0, np.nan, 1.0], INCREASING), ([1.0, 0.0, 0.5], INCREASING),
    ([[0.0, 0.5], [1.0, 1.5]], ONE_D), ([], ONE_D)])
def test_expression_curve_checks_its_grid(grid, message):
    # before, the NaN grid gave a NaN x row without an error, and the
    # decreasing and 2-d grids were accepted; one node is a grid here
    with pytest.raises(ValueError, match=message):
        legendre_from_expressions("t", "1", "0", "1", grid)
    assert legendre_from_expressions("t", "1", "0", "1", [0.5]).t.size == 1
