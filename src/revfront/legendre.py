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

from dataclasses import dataclass, field

import numpy as np

from . import expr, jets
from .jets import Jet
from .quadrature import FineGrid, evaluated


class DegenerateCurvatureError(ValueError):
    """A precondition on (ell, beta) fails at some grid node."""


@dataclass
class CurveJet:
    """Jets of the two coordinate functions of a plane curve over a grid."""
    t: np.ndarray
    x: Jet
    z: Jet

    def points(self) -> np.ndarray:
        """(N, 2) array of curve points."""
        return np.stack([self.x.value, self.z.value], axis=-1)


@dataclass
class NormalJet:
    t: np.ndarray
    a: Jet
    b: Jet

    def vectors(self) -> np.ndarray:
        return np.stack([self.a.value, self.b.value], axis=-1)


@dataclass
class CurvaturePair:
    t: np.ndarray
    ell: Jet
    beta: Jet


@dataclass
class LegendreCurve:
    curve: CurveJet
    normal: NormalJet
    curvature: CurvaturePair | None = None
    flags: dict = field(default_factory=dict)

    @property
    def t(self) -> np.ndarray:
        return self.curve.t


@dataclass
class LegendreReport:
    max_contact_residual: float
    max_norm_residual: float
    passed: bool


@dataclass
class Alignment:
    angle: float
    translation: np.ndarray
    residual: float


def legendre_from_expressions(x_src, z_src, a_src, b_src, grid,
                              order: int = 5) -> LegendreCurve:
    """Build a curve from four closed-form expressions of t."""
    grid = np.asarray(grid, dtype=float)
    xj, zj, aj, bj = (evaluated(n, expr.eval_jet, s, grid, order)
                      for n, s in zip("xzab", (x_src, z_src, a_src, b_src)))
    return LegendreCurve(CurveJet(grid, xj, zj), NormalJet(grid, aj, bj))


def verify_legendre(c: LegendreCurve, tol: float = 1e-8) -> LegendreReport:
    """Check the contact condition gamma'.nu = 0 and |nu| = 1 on the grid."""
    xd = c.curve.x.derivative(1)
    zd = c.curve.z.derivative(1)
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


def reconstruct_from_curvature(ell_src, beta_src, grid,
                               theta0: float = 0.0,
                               x0: float = 0.0, z0: float = 0.0,
                               order: int = 5) -> LegendreCurve:
    """Integrate a curvature pair back to a Legendre curve.

    The normal direction is the antiderivative angle of ell, the curve the
    antiderivative of beta times the tangent frame vector.  Antiderivative
    values come from the lattice quadrature; every jet coefficient above
    order zero is chained analytically from the structure equations, so the
    output satisfies the contact condition to rounding.
    """
    fg = FineGrid(grid)
    ell_s = fg.eval_expr(ell_src)
    beta_s = fg.eval_expr(beta_src)
    theta_s = fg.cumulative(ell_s, theta0)
    x_s = fg.cumulative(-beta_s * np.sin(theta_s), x0)
    z_s = fg.cumulative(beta_s * np.cos(theta_s), z0)

    g = fg.grid
    ell_j = evaluated("ell", expr.eval_jet, ell_src, g, order)
    beta_j = evaluated("beta", expr.eval_jet, beta_src, g, order)
    theta_j = ell_j.antiderivative(fg.at_coarse(theta_s)).truncated(order)
    b_j, a_j = jets.sin_cos(theta_j)
    x_j = (-(beta_j * b_j)).antiderivative(fg.at_coarse(x_s)).truncated(order)
    z_j = (beta_j * a_j).antiderivative(fg.at_coarse(z_s)).truncated(order)
    pair = CurvaturePair(g, ell_j, beta_j)
    return LegendreCurve(CurveJet(g, x_j, z_j), NormalJet(g, a_j, b_j),
                         curvature=pair)


def curvature_pair_of(c: LegendreCurve) -> CurvaturePair:
    """Attached curvature if the curve carries one, else computed."""
    return c.curvature if c.curvature is not None else curvature_of(c)


def parallel_curve(c: LegendreCurve, lam: float) -> LegendreCurve:
    """Offset curve gamma + lam*nu with the same normal field."""
    cj = CurveJet(c.t, c.curve.x + lam * c.normal.a,
                  c.curve.z + lam * c.normal.b)
    pair = None
    if c.curvature is not None:
        pair = CurvaturePair(c.t, c.curvature.ell,
                             c.curvature.beta + lam * c.curvature.ell)
    return LegendreCurve(cj, c.normal, curvature=pair)


def plane_evolute(c: LegendreCurve, tol: float = 1e-8) -> CurveJet:
    """Evolute gamma - (beta/ell)*nu; needs ell bounded away from zero."""
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


def congruence_align(c1: LegendreCurve, c2: LegendreCurve) -> Alignment:
    """Best rigid motion taking c1 onto c2.

    The rotation angle is fixed by the normals at the middle sample, the
    translation is the least-squares optimum for that rotation, and the
    residual is the largest remaining pointwise distance.
    """
    if c1.t.shape != c2.t.shape:
        raise ValueError("curves must share a grid")
    mid = c1.t.size // 2
    n1, n2 = c1.normal.vectors(), c2.normal.vectors()
    ang = (np.arctan2(n2[mid, 1], n2[mid, 0])
           - np.arctan2(n1[mid, 1], n1[mid, 0]))
    rot = np.array([[np.cos(ang), -np.sin(ang)],
                    [np.sin(ang), np.cos(ang)]])
    p1, p2 = c1.curve.points(), c2.curve.points()
    moved = p1 @ rot.T
    shift = np.mean(p2 - moved, axis=0)
    residual = float(np.max(np.linalg.norm(moved + shift - p2, axis=1)))
    return Alignment(float(ang), shift, residual)
