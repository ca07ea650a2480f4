"""Legendre curves in the plane: frames, curvature, reconstruction.

A Legendre curve is a plane curve gamma = (x, z) together with a unit
normal field nu = (a, b) that stays orthogonal to the velocity; the curve
itself may have singular points (frontal).  The moving frame is (nu, mu)
with mu the quarter-turn of nu, and the curvature pair (ell, beta) is
defined by nu' = ell*mu and gamma' = beta*mu.  Everything here carries
truncated Taylor jets over a shared parameter grid so that downstream
classification can reach fifth derivatives.
"""

from __future__ import annotations

import numpy as np

from . import expr, jets
from .jets import ORDER_CAP, Jet
from .quadrature import (check_finite, check_tol, checked_grid, evaluated,
                         integrated)


class DegenerateCurvatureError(ValueError):
    """A precondition on (ell, beta) fails at some grid node."""


class CurveJet:
    """Jets of the two coordinate functions of a plane curve over a grid."""

    def __init__(self, t: np.ndarray, x: Jet, z: Jet):
        self.t, self.x, self.z = t, x, z


class NormalJet:
    def __init__(self, t: np.ndarray, a: Jet, b: Jet):
        self.t, self.a, self.b = t, a, b


class CurvaturePair:
    def __init__(self, t: np.ndarray, ell: Jet, beta: Jet):
        self.t, self.ell, self.beta = t, ell, beta


class LegendreCurve:
    def __init__(self, curve: CurveJet, normal: NormalJet,
                 curvature: CurvaturePair | None = None,
                 flags: dict | None = None):
        self.curve, self.normal, self.curvature = curve, normal, curvature
        self.flags = {} if flags is None else flags

    @property
    def t(self) -> np.ndarray:
        return self.curve.t

    def truncated(self, order: int) -> "LegendreCurve":
        """Every jet cut to order, the curvature pair read before the cut."""
        pair = curvature_pair_of(self)
        x, z, a, b, ell, beta = (j.truncated(order) for j in (
            self.curve.x, self.curve.z, self.normal.a, self.normal.b,
            pair.ell, pair.beta))
        return LegendreCurve(CurveJet(self.t, x, z), NormalJet(self.t, a, b),
                             CurvaturePair(self.t, ell, beta), self.flags)


class LegendreReport:
    def __init__(self, max_contact_residual: float, max_norm_residual: float,
                 passed: bool):
        self.max_contact_residual = max_contact_residual
        self.max_norm_residual = max_norm_residual
        self.passed = passed


def legendre_from_expressions(x_src, z_src, a_src, b_src,
                              grid) -> LegendreCurve:
    """An order-5 curve from four closed-form expressions of t on a finite,
    strictly increasing grid; one node will do."""
    grid, _ = checked_grid(grid, 1)
    xj, zj, aj, bj = (evaluated(n, expr.eval_jet, s, grid, ORDER_CAP)
                      for n, s in zip("xzab", (x_src, z_src, a_src, b_src)))
    return LegendreCurve(CurveJet(grid, xj, zj), NormalJet(grid, aj, bj))


def verify_legendre(c: LegendreCurve, tol: float = 1e-8) -> LegendreReport:
    """Check gamma'.nu = 0 and |nu| = 1 on the grid (ValueError at order 0)."""
    check_tol(tol)
    xd = c.curve.x.differentiated().value
    zd = c.curve.z.differentiated().value
    a, b = c.normal.a.value, c.normal.b.value
    contact = float(np.max(np.abs(xd * a + zd * b)))
    norm = float(np.max(np.abs(np.hypot(a, b) - 1.0)))
    return LegendreReport(contact, norm, contact <= tol and norm <= tol)


def curvature_of(c: LegendreCurve) -> CurvaturePair:
    """Curvature pair (ell, beta) as jets, one order below the inputs."""
    a, b = c.normal.a, c.normal.b
    ad, bd = a.differentiated(), b.differentiated()
    ell = a * bd - b * ad
    xd = c.curve.x.differentiated()
    zd = c.curve.z.differentiated()
    beta = zd * a - xd * b
    return CurvaturePair(c.t, ell, beta)


def reconstruct_from_curvature(ell_src, beta_src, grid, theta0: float = 0.0,
                               x0: float = 0.0,
                               z0: float = 0.0) -> LegendreCurve:
    """Integrate a curvature pair back to an order-5 Legendre curve.

    The normal direction is the antiderivative angle theta of ell, the
    curve the antiderivative of beta times the tangent frame vector, all
    anchored at the left end of the grid.  Each antiderivative integrates
    the order-5 node jets of its integrand (ell, -beta sin theta and
    beta cos theta) with the two-point Hermite rule (quadrature.integrated),
    which refuses an interval its jets do not resolve, and its jet
    coefficients above order zero are the integrand's, so the output
    satisfies the contact condition to rounding.
    """
    check_finite(theta0=theta0, x0=x0, z0=z0)
    g, _ = checked_grid(grid)
    ell_j = evaluated("ell", expr.eval_jet, ell_src, g, ORDER_CAP)
    beta_j = evaluated("beta", expr.eval_jet, beta_src, g, ORDER_CAP)
    sources = (("ell", ell_src), ("beta", beta_src))

    def integral(f, value, what):
        return integrated(f, g[0], value, sources, what)[0].truncated(
            ORDER_CAP)

    theta_j = integral(ell_j, theta0, "theta")
    b_j, a_j = jets.sin_cos(theta_j)
    x_j = integral(-(beta_j * b_j), x0, "x")
    z_j = integral(beta_j * a_j, z0, "z")
    pair = CurvaturePair(g, ell_j, beta_j)
    return LegendreCurve(CurveJet(g, x_j, z_j), NormalJet(g, a_j, b_j),
                         curvature=pair)


def curvature_pair_of(c: LegendreCurve) -> CurvaturePair:
    """Attached curvature if the curve carries one, else computed."""
    return c.curvature if c.curvature is not None else curvature_of(c)


def parallel_curve(c: LegendreCurve, lam: float) -> LegendreCurve:
    """Offset curve gamma + lam*nu with the same normal field."""
    check_finite(lam=lam)
    cj = CurveJet(c.t, c.curve.x + lam * c.normal.a,
                  c.curve.z + lam * c.normal.b)
    pair = None
    if c.curvature is not None:
        pair = CurvaturePair(c.t, c.curvature.ell,
                             c.curvature.beta + lam * c.curvature.ell)
    return LegendreCurve(cj, c.normal, curvature=pair)


def plane_evolute(c: LegendreCurve, tol: float = 1e-8) -> CurveJet:
    """Evolute gamma - (beta/ell)*nu; needs ell bounded away from zero."""
    check_tol(tol)
    pair = curvature_pair_of(c)
    ell_v = pair.ell.value
    threshold = tol * (1.0 + float(np.max(np.abs(ell_v))))
    bad = np.abs(ell_v) <= threshold
    if np.any(bad):
        t_bad = c.t[bad][0]
        raise DegenerateCurvatureError(
            "ell vanishes at t=%.17g; evolute undefined there" % t_bad)
    r = pair.beta / pair.ell
    return CurveJet(c.t, c.curve.x - r * c.normal.a,
                    c.curve.z - r * c.normal.b)
