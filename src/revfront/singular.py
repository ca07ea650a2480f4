"""Singular point classification for profiles and their revolutes.

Labels follow the fractional normal forms: a (j/i)-cusp means the curve
germ is equivalent to t -> (t^i, t^j).  Two independent criteria are
provided, one reading derivatives of the curve, one reading the
curvature pair, plus order-based results for the constant-ratio
constructions and the lift to surfaces of revolution.

Zero tests are relative: a quantity counts as zero when its magnitude is
at most tol * max(1, scale) with scale the largest derivative magnitude
entering the criterion.  Every zero test defaults to tol = EXACT_TOL
(1e-8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet
from .legendre import LegendreCurve, curvature_pair_of
from .revolution import cone_type_check

LABELS = ("regular", "cusp_3_2", "cusp_5_2", "cusp_4_3", "cusp_5_3",
          "cone_type", "axis_degenerate", "unresolved")

EXACT_TOL = 1e-8


class InconsistentInputError(ValueError):
    """Input data that contradict each other, such as zero orders that no
    profile of the family can have."""


@dataclass
class CuspLabel:
    label: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")


@dataclass
class GaussFrontStatus:
    status: str          # front | frontal_not_front | inconsistent
    ord_a: int
    ord_beta: int
    diagnostics: dict = field(default_factory=dict)


def _derivs(j: Jet, upto: int, node: int = 0):
    """Derivatives 0..min(upto, order) at one node, from one column read."""
    top = min(upto, j.order)
    column = j.coeffs[:top + 1].reshape(top + 1, -1)[:, node].tolist()
    return [math.factorial(k) * c for k, c in enumerate(column)]


def _amax(u, v):
    """max(|u|, |v|), NaN when either is NaN, as np.max gives it."""
    u, v = abs(u), abs(v)
    return u if u >= v or u != u else v


def ord_of(f: Jet, cap: int = 5, tol: float = EXACT_TOL) -> int:
    """Order of the zero of f at its base point.

    Returns 0 when f itself does not vanish, otherwise the index of the
    first non-vanishing derivative.  When every derivative up to
    top = min(cap, jet order) vanishes the saturated value top + 1 is
    returned, meaning "order at least top + 1": no derivative above the
    jet's own order is tested.
    """
    d = _derivs(f, cap)
    thr = tol * max(1.0, max(abs(v) for v in d))
    for k, v in enumerate(d):
        if abs(v) > thr:
            return k
    return len(d)


def _node_index(c, t0: float) -> int:
    return int(np.argmin(np.abs(np.asarray(c.t) - t0)))


def cusp_classify_derivatives(curve, t0: float,
                              tol: float = EXACT_TOL) -> CuspLabel:
    """Classify a singular curve point from jets of the parametrization.

    curve is a LegendreCurve or a CurveJet; the node nearest t0 is used.
    Returns regular when the velocity does not vanish; otherwise tests,
    in order, the 3/2, 5/2, 4/3 and 5/3 determinant criteria, and falls
    back to unresolved when none is certified.  Zero tests follow the
    module rule with scale the largest magnitude of the derivatives of
    orders 1 to 5, and its square for the determinants.
    """
    cj = curve.curve if isinstance(curve, LegendreCurve) else curve
    i = _node_index(cj, t0)
    dx = _derivs(cj.x, 5, i)
    dz = _derivs(cj.z, 5, i)
    top = min(len(dx), len(dz)) - 1
    scale = max(1.0, max(_amax(dx[k], dz[k]) for k in range(1, top + 1)))
    thr = tol * scale
    thr2 = tol * max(1.0, scale * scale)
    diag = {"t0": float(cj.t[i]), "node": i, "tol": tol,
            "threshold": thr, "det_threshold": thr2, "criterion": "derivative"}

    if _amax(dx[1], dz[1]) > thr:
        return CuspLabel("regular", diag)
    if top < 3:
        diag["note"] = "jet order too low for any cusp test"
        return CuspLabel("unresolved", diag)

    def det(k, m):
        return dx[k] * dz[m] - dz[k] * dx[m]

    if _amax(dx[2], dz[2]) > thr:
        d23 = det(2, 3)
        diag["det_d2_d3"] = d23
        if abs(d23) > thr2:
            return CuspLabel("cusp_3_2", diag)
        if top < 5:
            diag["note"] = "jet order too low for the 5/2 test"
            return CuspLabel("unresolved", diag)
        # the component where |d2| is largest (the first on a tie or NaN)
        u = dx if abs(dx[2]) >= abs(dz[2]) or dx[2] != dx[2] else dz
        C = float(np.divide(u[3], u[2]))    # inf or NaN, not an exception
        resid = _amax(dx[3] - C * dx[2], dz[3] - C * dz[2])
        diag["C"] = C
        diag["collinearity_residual"] = resid
        if resid <= tol * max(1.0, _amax(dx[3], dz[3])):
            q = (dx[2] * (3.0 * dz[5] - 10.0 * C * dz[4])
                 - dz[2] * (3.0 * dx[5] - 10.0 * C * dx[4]))
            diag["det_52"] = q
            if abs(q) > thr2 * (1.0 + abs(C)):
                return CuspLabel("cusp_5_2", diag)
        return CuspLabel("unresolved", diag)

    if top < 4:
        diag["note"] = "jet order too low for the 4/3 test"
        return CuspLabel("unresolved", diag)
    d34 = det(3, 4)
    diag["det_d3_d4"] = d34
    if abs(d34) > thr2:
        return CuspLabel("cusp_4_3", diag)
    if top < 5:
        diag["note"] = "jet order too low for the 5/3 test"
        return CuspLabel("unresolved", diag)
    d35 = det(3, 5)
    diag["det_d3_d5"] = d35
    if abs(d35) > thr2:
        return CuspLabel("cusp_5_3", diag)
    return CuspLabel("unresolved", diag)


def cusp_classify_curvature(ell: Jet, beta: Jet, tol: float = EXACT_TOL,
                            t0: float | None = None) -> CuspLabel:
    """Classify a singular point from scalar jets of the curvature pair.

    Requires beta to vanish at the base point (else regular).  The four
    tests read only (beta', beta'', ell, ell', ell''):

        3/2  iff  beta' * ell != 0
        5/2  iff  beta' != 0, ell = 0, beta''*ell' - beta'*ell'' != 0
        4/3  iff  beta' = 0, beta'' * ell != 0
        5/3  iff  beta' = ell = 0, beta'' * ell' != 0
    """
    return _curvature_label(_derivs(beta, 2), _derivs(ell, 2), tol, t0)


def _curvature_label(db, dl, tol, t0):
    if len(db) < 3 or len(dl) < 3:
        return CuspLabel("unresolved", {"note": "jet order too low", "tol": tol})
    b0, b1, b2 = db
    l0, l1, l2 = dl
    scale = max(1.0, abs(b1), abs(b2), abs(l0), abs(l1), abs(l2))
    thr = tol * scale
    thr2 = tol * max(1.0, scale * scale)
    diag = {"tol": tol, "threshold": thr, "det_threshold": thr2,
            "criterion": "curvature", "beta_jet": db, "ell_jet": dl}
    if t0 is not None:
        diag["t0"] = float(t0)
    if abs(b0) > thr:
        return CuspLabel("regular", diag)
    if abs(b1 * l0) > thr2:
        return CuspLabel("cusp_3_2", diag)
    if abs(b1) > thr and abs(l0) <= thr:
        q = b2 * l1 - b1 * l2
        diag["q_52"] = q
        if abs(q) > thr2:
            return CuspLabel("cusp_5_2", diag)
        return CuspLabel("unresolved", diag)
    if abs(b1) <= thr:
        if abs(b2 * l0) > thr2:
            return CuspLabel("cusp_4_3", diag)
        if abs(l0) <= thr:
            q = b2 * l1
            diag["q_53"] = q
            if abs(q) > thr2:
                return CuspLabel("cusp_5_3", diag)
    return CuspLabel("unresolved", diag)


def curve_cusp_by_derivatives(c: LegendreCurve, t0: float,
                              tol: float = EXACT_TOL) -> CuspLabel:
    return cusp_classify_derivatives(c, t0, tol)


def curve_cusp_by_curvature(c: LegendreCurve, t0: float,
                            tol: float = EXACT_TOL) -> CuspLabel:
    """Curvature-criterion label at the node nearest t0."""
    pair = curvature_pair_of(c)
    i = _node_index(c, t0)
    out = _curvature_label(_derivs(pair.beta, 2, i), _derivs(pair.ell, 2, i),
                           tol, float(c.t[i]))
    out.diagnostics["node"] = i
    return out


def gauss_front_status(a: Jet, beta: Jet, alpha0: float, x0: float,
                       cap: int = 5, tol: float = EXACT_TOL) -> GaussFrontStatus:
    """Front-versus-frontal decision for a constant-ratio profile point.

    At a singular point of a profile built with K = alpha*J, the
    vanishing orders of a = cos(phi) and beta decide the matter: equal
    orders give a front, a lower order of a gives a frontal that is not
    a front, and a higher order contradicts the defining relation.
    """
    if abs(x0) <= tol * max(1.0, abs(x0)):
        raise ValueError("gauss_front_status needs x(t0) != 0")
    if abs(alpha0) <= tol * max(1.0, abs(alpha0)):
        raise ValueError("gauss_front_status needs alpha(t0) != 0")
    n_beta = ord_of(beta, cap, tol)
    if n_beta == 0:
        raise ValueError("gauss_front_status expects a singular point "
                         "(beta(t0) = 0)")
    m_a = ord_of(a, cap, tol)
    diag = {"ord_a": m_a, "ord_beta": n_beta, "cap": cap, "tol": tol,
            "saturated": (m_a > min(cap, a.order)
                          or n_beta > min(cap, beta.order))}
    if m_a == n_beta:
        return GaussFrontStatus("front", m_a, n_beta, diag)
    if m_a < n_beta:
        return GaussFrontStatus("frontal_not_front", m_a, n_beta, diag)
    return GaussFrontStatus("inconsistent", m_a, n_beta, diag)


def constant_gauss_cusp(ord_a: int, ord_beta: int) -> CuspLabel:
    """Cusp label of a constant-ratio (gauss) profile from zero orders.

    ord_a and ord_beta are the vanishing orders of a = cos(phi) and beta
    at the singular point.  Only three resolvable patterns exist and a
    5/2-cusp is impossible for this family.
    """
    if ord_a > ord_beta:
        raise InconsistentInputError(
            f"orders ({ord_a}, {ord_beta}) violate ord(a) <= ord(beta)")
    diag = {"orders": (ord_a, ord_beta), "note": "5/2 impossible"}
    table = {(1, 1): "cusp_3_2", (2, 2): "cusp_4_3", (1, 2): "cusp_5_3"}
    return CuspLabel(table.get((ord_a, ord_beta), "unresolved"), diag)


def constant_mean_cusp(alpha: Jet, beta: Jet,
                       tol: float = EXACT_TOL) -> CuspLabel:
    """Cusp label of a constant-ratio (mean) profile at a singular point.

    alpha and beta are scalar jets at t0 with beta(t0) = 0.  A constant
    alpha admits no cusp of any of the four types; otherwise only 5/2
    and 5/3 can occur, decided by (beta', beta'', alpha').
    """
    da = _derivs(alpha, min(5, alpha.order))
    db = _derivs(beta, 2)
    scale = max(1.0, max(abs(v) for v in da), max(abs(v) for v in db))
    thr = tol * scale
    thr2 = tol * max(1.0, scale * scale)
    diag = {"tol": tol, "threshold": thr, "alpha_jet": da, "beta_jet": db[:3]}
    if len(db) < 3:
        diag["note"] = "jet order too low"
        return CuspLabel("unresolved", diag)
    if all(abs(v) <= thr for v in da[1:]):
        diag["note"] = "no j/i-cusp (alpha constant)"
        return CuspLabel("unresolved", diag)
    b1, b2 = db[1], db[2]
    a1 = da[1]
    if abs(b1 * a1) > thr2:
        return CuspLabel("cusp_5_2", diag)
    if abs(b1) <= thr and abs(b2 * a1) > thr2:
        return CuspLabel("cusp_5_3", diag)
    return CuspLabel("unresolved", diag)


def revolution_singularity_classify(c: LegendreCurve, t0: float,
                                    tol: float = EXACT_TOL) -> CuspLabel:
    """Singularity label of the z-axis revolute at (t0, any angle).

    Away from the axis the profile's cusp label lifts to the matching
    cuspidal edge.  On the axis the point is either conical, a
    degenerate normal form (+-t^(k+1), t) when x vanishes to finite
    order against a moving z, or unresolved.
    """
    i = _node_index(c, t0)
    xj = c.curve.x.at(i)
    x0 = float(xj.value)
    scale = max(1.0, abs(x0))
    if abs(x0) > tol * scale:
        out = cusp_classify_derivatives(c, t0, tol)
        out.diagnostics["lift"] = "cuspidal edge along the revolved parallel"
        out.diagnostics["x_t0"] = x0
        return out
    cone = cone_type_check(c, t0, axis="z", tol=tol)
    diag = {"t0": float(c.t[i]), "node": i, "tol": tol, "x_t0": x0}
    if cone.is_cone_type:
        diag["cone"] = cone.values
        return CuspLabel("cone_type", diag)
    k1 = ord_of(xj, tol=tol)
    dz1 = float(c.curve.z.at(i).derivative(1))
    diag["ord_x"] = k1
    diag["dz_t0"] = dz1
    if 1 <= k1 <= xj.order and abs(dz1) > tol * max(1.0, abs(dz1)):
        diag["normal_form"] = f"(+-t^{k1}, t)"
        return CuspLabel("axis_degenerate", diag)
    return CuspLabel("unresolved", diag)
