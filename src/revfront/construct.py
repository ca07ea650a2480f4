"""Profile construction from prescribed curvature data.

Five constructions produce Legendre curves in the (x, z) plane whose
z-axis revolute realizes prescribed curvature relations:

  * gauss ratio      K = alpha * J   (an ODE for the axis distance x)
  * (J, K)           both densities given, quadrature formulas
  * mean ratio       H = alpha * J   (the F/G/eta quadrature construction)
  * (J, phi)         density plus normal angle
  * (H, phi)         mean density plus normal angle

Each returns a LegendreCurve with jets chained analytically from the
defining relations; the numerical content is lattice quadrature (16 fine
steps per grid step) plus, for the gauss ratio, RK4 on the first-order
system or a Frobenius series at a regular singular point of the ratio.
Any finite, strictly increasing grid will do: RK4, the quadrature, the
flip locator and the series region all read the lattice's own steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr
from . import jets
from .jets import DIV_TOL, DomainError, Jet, jet_div_reduced
from .legendre import (CurveJet, CurvaturePair, LegendreCurve, NormalJet,
                       verify_legendre)
from .quadrature import ConstructionError, FineGrid, evaluated

FLIP_TOL = 1e-8          # fitted |sin phi| extremum within this of 1 -> branch flip
SIN_EXCESS_TOL = 1e-9    # |sin phi| beyond 1 + this -> inconsistent data
FLAG_TOL = 1e-12         # 1 - sin^2 below this at a node -> jets flagged
SAFE_COS = 1e-3          # |cos phi| above this -> plain jet division for ell
COS_TOL = 1e-8           # |cos phi| within this (relative) of 0 -> (H, phi) rejects


@dataclass
class GaussRatioProblem:
    """Data for the K = alpha*J construction.

    x0 is the value x(t0) at an ordinary point, or the leading series
    coefficient at a singular point of alpha; sin_phi0 seeds sin(phi) at
    t0 (ignored, and reported, when the series determines it); cos_sign,
    1 or -1, picks the initial branch of cos(phi).  When sin phi = +-1 at
    t0, a touch, cos_sign holds for t <= t0 and the other sign after t0.
    """
    alpha: str
    beta: str
    t0: float
    x0: float
    sin_phi0: float = 0.0
    cos_sign: float = 1.0
    z0: float = 0.0
    method: str = "auto"   # auto | rk4 | frobenius

    def __post_init__(self):
        _check_seeds(self.x0, self.sin_phi0, self.cos_sign)


@dataclass
class MeanRatioProblem:
    """Data for the H = alpha*J construction.

    c1 and c2 are the values of the two antiderivative combinations at the
    anchor; t0 defaults to the left end of the grid.
    """
    alpha: str
    beta: str
    c1: float
    c2: float
    t0: float | None = None
    z0: float = 0.0


@dataclass
class ConstructionReport:
    """Decisions and residuals of one construction; _assemble fills the
    contact and norm residuals.  dataclasses.asdict gives the JSON form."""
    method: str
    t0: float
    anchor_offset: float
    flips: list = field(default_factory=list)
    flagged_nodes: list = field(default_factory=list)
    ode_residual: float | None = None
    contact_residual: float = 0.0
    norm_residual: float = 0.0
    notes: dict = field(default_factory=dict)


def _check_seeds(x0, sin0=0.0, cos_sign=1.0):
    """ValueError unless x0 is finite, sin phi in [-1, 1], cos_sign +-1."""
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    if not -1.0 <= sin0 <= 1.0:
        raise ValueError(f"sin phi seed must lie in [-1, 1], got {sin0!r}")
    if cos_sign not in (1.0, -1.0):
        raise ValueError(f"cos_sign must be 1 or -1, got {cos_sign!r}")


def _values(src, t, what):
    return evaluated(what, expr.eval_values, src, t)


def _jet(src, t, order, what):
    return evaluated(what, expr.eval_jet_any_order, src, t, order)


def _padded(coeffs, n):
    """The first n entries of coeffs, padded with zeros to length n."""
    coeffs = np.ravel(coeffs)
    out = np.zeros(n)
    take = min(n, coeffs.size)
    out[:take] = coeffs[:take]
    return out


def _div_reduced(num, den, tol, width):
    """jet_div_reduced column by column over array-based jets.

    Each column strips the leading coefficients that are (near-)zero in
    both num and den, with the tolerances of jet_div_reduced; the columns
    of one strip count share one jet division.  Returns the quotient
    coefficients zero-padded (or cut) to width rows.  A pole raises the
    DomainError of the first failing column.
    """
    n = min(num.order, den.order)
    sn = np.fmax(np.max(np.abs(num.coeffs), axis=0), 1.0)
    sd = np.fmax(np.max(np.abs(den.coeffs), axis=0), 1.0)
    small = ((np.abs(num.coeffs[:n]) <= tol * sn) &
             (np.abs(den.coeffs[:n]) <= tol * sd))
    strip = np.logical_and.accumulate(small, axis=0).sum(axis=0)
    every = np.arange(strip.size)
    bad = (np.abs(den.coeffs[strip, every]) <
           DIV_TOL * (1.0 + np.abs(num.coeffs[strip, every])))
    if bad.any():
        i = int(np.argmax(bad))
        jet_div_reduced(num.at(i), den.at(i), tol=tol)   # raises
    out = np.zeros((width, strip.size))
    for k in np.unique(strip):
        cols = np.flatnonzero(strip == k)
        q = (Jet(num.t[cols], num.coeffs[k:n + 1, cols]) /
             Jet(den.t[cols], den.coeffs[k:n + 1, cols]))
        out[:n + 1 - k, cols] = q.coeffs[:width]
    return out


def _lattice(grid, t0, order):
    """Fine lattice, internal jet order, anchor node, anchor parameter and
    anchor offset.

    t0 snaps to the nearest fine lattice node (offset t0 - node); None
    anchors at the left end of the grid.
    """
    if order < 0:
        raise ValueError(f"jet order must be at least 0, got {order}")
    fg = FineGrid(grid)
    lo, hi = fg.grid[0], fg.grid[-1]
    if t0 is None:
        return fg, order + 2, 0, float(lo), 0.0
    span = hi - lo
    if not lo - 1e-12 * span <= t0 <= hi + 1e-12 * span:   # NaN fails too
        raise ConstructionError(f"t0={t0} lies outside the grid [{lo}, {hi}]")
    i0 = fg.nearest_fine_index(t0)
    return fg, order + 2, i0, t0, t0 - fg.s[i0]


def _lattice_angle(s, steps, S, i0, anchor, cos_sign, touch):
    """Branch signs, flips, clipped sin(phi) and cos(phi) on the lattice.

    cos(phi) has sign cos_sign at the anchor, nearest lattice sample i0,
    and flips where |sin phi| reaches 1: at the vertex of the parabola
    through a local maximum of |S| and its neighbours, spaced by the
    lattice's steps (steps[k] = s[k+1] - s[k]).  touch says the seed has
    |sin phi| = 1 at the anchor; then a flip fitted on sample i0 or a
    neighbour counts as lying at the anchor, so cos_sign holds up to it
    however the fit rounds.  Flips are reported as fitted.  Returns
    (sigma, flips, clipped S, sigma*sqrt(1 - S^2)).
    """
    absS = np.abs(S)
    excess = float(np.max(absS)) - 1.0
    if excess > SIN_EXCESS_TOL:
        raise ConstructionError(
            f"|sin phi| exceeds 1 by {excess:.3e}; prescribed data inconsistent",
            max_sin=float(np.max(absS)))
    y0, y1, y2 = absS[:-2], absS[1:-1], absS[2:]
    j = np.flatnonzero((y1 >= y0) & (y1 >= y2))   # local maxima at j + 1
    y0, y1, y2, h0, h1 = y0[j], y1[j], y2[j], steps[j], steps[j + 1]
    q = (h1 - h0) / (h0 + h1)    # 0 on equal steps: the symmetric fit
    curv = y0 - 2.0 * y1 + y2
    num = (y0 - y2) * (1.0 + q * q) + 2.0 * q * curv
    den = curv + q * (y0 - y2)
    delta = np.zeros_like(den)   # vertex offset in units of (h0 + h1)/2
    np.divide(0.5 * num, den, out=delta, where=den < 0.0)
    peak = y1 - 0.25 * num * delta / (1.0 - q * q)
    at = []
    for k in np.flatnonzero(peak >= 1.0 - FLIP_TOL):
        if not at or j[k] > j[at[-1]] + 1:   # else the twin of the same touch
            at.append(k)
    centre = j[at] + 1
    flips = s[centre] + delta[at] * (h0[at] + h1[at]) / 2
    marks = np.where(touch & (np.abs(centre - i0) <= 1), anchor, flips)
    # sign at position p: cos_sign * (-1)^(number of flips between anchor and p)
    n_before = np.searchsorted(marks, s, side="left")
    n_anchor = int(np.searchsorted(marks, anchor, side="left"))
    sigma = np.where((n_before - n_anchor) % 2 == 0, cos_sign, -cos_sign)
    Sc = np.clip(S, -1.0, 1.0)
    return (sigma, [float(f) for f in flips], Sc,
            sigma * np.sqrt(np.maximum(1.0 - Sc * Sc, 0.0)))


def _angle_jets(b_j, sigma, notes):
    """cos(phi) and ell jets from the sin(phi) jet b_j and branch signs sigma.

    cos phi = sigma*sqrt(1 - sin^2).  Columns where 1 - sin^2 falls below
    FLAG_TOL cannot support the square root jet: they are flagged and get a
    constant clamped radicand.  ell = (sin phi)'/cos phi, by reduced
    division where |cos phi| <= SAFE_COS.  A flagged column carries no
    usable derivative data, so both jets there are replaced by the Taylor
    shift of the nearest unflagged column (ties go to the lower index),
    accurate to the jet order since the functions are smooth in t; the
    rebuilt nodes go into notes.  Returns (a_j, ell_j, flagged nodes).
    """
    rad = 1.0 - b_j * b_j
    flagged = np.flatnonzero(np.atleast_1d(rad.value) < FLAG_TOL)
    clamped = rad.coeffs.copy()
    clamped[0, flagged] = FLAG_TOL
    clamped[1:, flagged] = 0.0
    sq = jets.sqrt(Jet(rad.t, clamped))
    a_j = Jet(sq.t, sq.coeffs * sigma)
    num = b_j.differentiated()
    den = a_j.truncated(num.order)
    unsafe = np.flatnonzero(~(np.abs(np.atleast_1d(a_j.value)) > SAFE_COS))
    patched = den.coeffs.copy()
    patched[0, unsafe] = 1.0
    ell_co = (num / Jet(den.t, patched)).coeffs
    ell_co[:, unsafe] = _div_reduced(num.at(unsafe), den.at(unsafe), 1e-7,
                                     ell_co.shape[0])
    outs = [a_j.coeffs.copy(), ell_co]
    t = b_j.t
    healthy = np.setdiff1d(np.arange(t.size), flagged)
    for i in flagged if healthy.size else ():
        donor = healthy[np.argmin(np.abs(healthy - i))]
        h = float(t[i] - t[donor])
        for co in outs:
            top = co.shape[0] - 1
            src = co[:, donor]
            for m in range(top + 1):
                acc = 0.0
                for k in range(top, m - 1, -1):
                    acc = acc * h + math.comb(k, m) * src[k]
                co[m, i] = acc
    flagged = [int(i) for i in flagged]
    if flagged and healthy.size:
        notes["flagged_jets_rebuilt"] = flagged
    return Jet(t, outs[0]), Jet(t, outs[1]), flagged


def _system_jets(beta_j, ab_j, x_vals, S_vals, order):
    """Jets of (x, sin phi) from x' = -beta*sinphi, (sin phi)' = (alpha beta) x.

    Picard iteration in the jet algebra; each pass fixes one more
    coefficient, so order+1 passes suffice.
    """
    x_j = jets.constant(x_vals, order, beta_j.t)
    s_j = jets.constant(S_vals, order, beta_j.t)
    for _ in range(order + 1):
        x_new = (-(beta_j * s_j)).antiderivative(x_vals).truncated(order)
        s_new = (ab_j * x_j).antiderivative(S_vals).truncated(order)
        x_j, s_j = x_new, s_new
    return x_j, s_j


def _rk4_step(xc, Sc, b0, a0, b1, a1, b2, a2, h):
    k1x = -b0 * Sc
    k1s = a0 * xc
    k2x = -b1 * (Sc + 0.5 * h * k1s)
    k2s = a1 * (xc + 0.5 * h * k1x)
    k3x = -b1 * (Sc + 0.5 * h * k2s)
    k3s = a1 * (xc + 0.5 * h * k2x)
    k4x = -b2 * (Sc + h * k3s)
    k4s = a2 * (xc + h * k3x)
    return (xc + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            Sc + h / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s))


def _prefix_products(m):
    """Products M_k ... M_1 M_0 of the 2x2 matrices m[:, :, k], in place,
    by Hillis-Steele doubling: log2(n) array passes."""
    d = 1
    while d < m.shape[-1]:
        m[..., d:] = np.einsum("ijk,jlk->ilk", m[..., d:], m[..., :-d])
        d *= 2


def _rk4_path(s, f_node, f_mid, i0, x0, S0):
    """Integrate x' = -beta(t)*S, S' = (alpha*beta)(t)*x over the lattice.

    f_node and f_mid hold (beta, alpha*beta) at the nodes and interval
    midpoints.  Returns arrays over the whole lattice, integrating from
    index i0 toward both ends with each interval's own step.  The system
    is linear, so an RK4 step is a 2x2 matrix (the step applied to the
    unit vectors) and each sweep is a prefix product of those matrices.
    """
    x = np.empty(s.size)
    S = np.empty(s.size)
    x[i0], S[i0] = x0, S0
    # forward from i0, then the backward sweep as a forward one over the
    # reversed lattice (its steps come out negative)
    for r, j in ((np.s_[:], i0), (np.s_[::-1], s.size - 1 - i0)):
        t, b, a, b_mid, a_mid = (v[r][j:] for v in (s, *f_node, *f_mid))
        coeffs = (b[:-1], a[:-1], b_mid, a_mid, b[1:], a[1:], np.diff(t))
        m = np.empty((2, 2, t.size - 1))
        m[0, 0], m[1, 0] = _rk4_step(1.0, 0.0, *coeffs)
        m[0, 1], m[1, 1] = _rk4_step(0.0, 1.0, *coeffs)
        _prefix_products(m)
        x[r][j + 1:], S[r][j + 1:] = m[:, 0] * x0 + m[:, 1] * S0
    return x, S


def _j_lattice(fg, i0, x0, z0, J_s, sin_s, cos_s, why=""):
    """Squared axis distance and z on the lattice from prescribed J and
    the normal angle phi.

    x^2 = x0^2 + 2*int(J sin phi) must stay positive; beta = -J/x and
    z = z0 + int(beta cos phi).  Returns (x^2, z) on the lattice.
    """
    s = fg.s
    x2_s = x0 * x0 + 2.0 * fg.cumulative_from(J_s * sin_s, i0, 0.0)
    bad = x2_s <= 0.0
    if bad.any():
        tb = s[bad][0]
        raise ConstructionError(
            f"squared axis distance becomes non-positive at t={tb:.6g}{why}",
            t=float(tb))
    return x2_s, fg.cumulative_from(-J_s / np.sqrt(x2_s) * cos_s, i0, z0)


def _j_jets(fg, io, x2_s, J_j, b_j):
    """The x and beta jets from the J and sin phi jets by the relations of
    _j_lattice, x^2 chained from its lattice values x2_s."""
    rad_j = (2.0 * (J_j * b_j)).antiderivative(fg.at_coarse(x2_s)).truncated(io)
    x_j = jets.sqrt(rad_j)
    return x_j, -(J_j / x_j)


def _assemble(fg, io, z_s, x_j, a_j, b_j, ell_j, beta_j, report):
    """The curve with z chained from its lattice values z_s; fills the
    report's contact and norm residuals from the internal-order jets,
    then cuts every jet to the order the caller asked for (io - 2)."""
    g = fg.grid
    z_j = (beta_j * a_j).antiderivative(fg.at_coarse(z_s)).truncated(io)
    rep = verify_legendre(LegendreCurve(CurveJet(g, x_j, z_j),
                                        NormalJet(g, a_j, b_j)))
    report.contact_residual = rep.max_contact_residual
    report.norm_residual = rep.max_norm_residual
    x_j, z_j, a_j, b_j, ell_j, beta_j = (
        j.truncated(io - 2) for j in (x_j, z_j, a_j, b_j, ell_j, beta_j))
    return LegendreCurve(CurveJet(g, x_j, z_j), NormalJet(g, a_j, b_j),
                         curvature=CurvaturePair(g, ell_j, beta_j),
                         flags={"construction": report})


# ---------------------------------------------------------------------------
# Gauss ratio: K = alpha * J
# ---------------------------------------------------------------------------

def _alpha_has_pole(alpha_src, t0):
    try:
        v = expr.eval_values(alpha_src, np.array([t0]))[0]
    except expr.ExponentError:
        return False    # not a pole; the RK4 path rejects alpha*beta
    except DomainError:
        return True
    return not np.isfinite(v)


def _frobenius_data(p, fg, i0, order_n=12):
    """Series solution x = sum c_k s^(k+r) of the profile ODE about t0.

    The coefficient functions are the locally analytic combinations
    p(s) = -s*beta'/beta (jet division) and q(s) = alpha*beta^2*s^2
    (least-squares polynomial fit on Chebyshev nodes, since alpha itself
    is singular at t0).  The series region spans at least four of the
    larger fine step beside the anchor node i0 on each side it covers.
    Returns (r, coeffs, delta, notes).
    """
    t0 = p.t0
    hi = order_n + 2
    beta_j = _jet(p.beta, t0, hi, "beta")
    iota = jets.variable(t0, hi) - t0
    try:
        p_jet = jet_div_reduced(-(iota * beta_j.differentiated().truncated(hi)),
                                beta_j, tol=1e-10)
    except DomainError as exc:
        raise ConstructionError(
            f"beta'/beta is not meromorphic enough at t0={t0}: {exc}") from exc
    p_co = _padded(p_jet.coeffs, order_n + 1)

    lo, hi_t = fg.grid[0], fg.grid[-1]
    span = hi_t - lo
    step = float(np.max(fg.fine_step[max(i0 - 1, 0):i0 + 1]))
    left, right = t0 - lo, hi_t - t0
    two_sided = left > 4 * step and right > 4 * step
    if two_sided:
        delta_fit = 0.6 * min(left, right)
    else:
        delta_fit = 0.6 * max(left, right)
    delta_fit = min(delta_fit, 0.5 * span)
    m = 64
    k = np.arange(m)
    cheb = np.cos(np.pi * k / (m - 1))
    if two_sided:
        s_nodes = delta_fit * cheb
    elif right >= left:
        s_nodes = delta_fit * 0.5 * (cheb + 1.0)
    else:
        s_nodes = -delta_fit * 0.5 * (cheb + 1.0)
    s_nodes = s_nodes[np.abs(s_nodes) > 1e-8 * delta_fit]
    tn = t0 + s_nodes
    ab2 = f"({p.alpha})*({p.beta})^2"
    w = _values(ab2, tn, "alpha*beta^2") * s_nodes ** 2
    if not np.all(np.isfinite(w)):
        raise ConstructionError(
            "alpha*beta^2*(t-t0)^2 is not finite near t0; t0 is not a regular "
            "singular point", t0=t0)
    q_poly = np.polynomial.polynomial.polyfit(s_nodes, w, order_n)

    # boundedness heuristic on a shrinking sequence (analyticity cannot be
    # certified numerically; recorded as a heuristic)
    shrink = delta_fit * 4.0 ** (-np.arange(1, 9, dtype=float))
    if not two_sided and left > right:
        shrink = -shrink
    try:
        wv = _values(ab2, t0 + shrink, "alpha*beta^2")
        wv = wv * shrink ** 2
        analytic_ok = bool(np.all(np.isfinite(wv)) and
                           np.max(np.abs(wv[-4:])) <=
                           100.0 * (1.0 + np.max(np.abs(wv[:4]))))
    except ConstructionError:
        analytic_ok = False

    p0, q0 = p_co[0], q_poly[0]
    disc = (p0 - 1.0) ** 2 - 4.0 * q0
    if disc < 0:
        raise ConstructionError(
            f"indicial roots complex (discriminant {disc:.3e}); oscillatory "
            "singular behaviour not representable", t0=t0)
    r = 0.5 * ((1.0 - p0) + np.sqrt(disc))
    if r < -1e-12:
        raise ConstructionError(
            f"larger indicial root {r:.6g} negative; profile unbounded at t0",
            t0=t0)
    r_int = round(r)
    if abs(r - r_int) > 1e-9:
        raise ConstructionError(
            f"non-integer indicial root {r:.6g}; the profile is not smooth "
            "at t0 and jets cannot represent it", t0=t0)
    r = float(r_int)

    q_co = _padded(q_poly, order_n + 1)

    def F(rho):
        return rho * (rho - 1.0) + p0 * rho + q0

    c = np.zeros(order_n + 1)
    c[0] = p.x0
    for n in range(1, order_n + 1):
        Fn = F(n + r)
        if abs(Fn) < 1e-9 * (1.0 + (n + r) ** 2):
            raise ConstructionError(
                f"indicial resonance at order {n} (roots differ by an "
                "integer); logarithmic solution not representable", t0=t0)
        acc = 0.0
        for j in range(1, n + 1):
            acc += (p_co[j] * (n - j + r) + q_co[j]) * c[n - j]
        c[n] = -acc / Fn

    delta = 0.9 * delta_fit
    while delta > 4 * step:
        terms = np.abs(c) * delta ** np.arange(order_n + 1)
        if terms[-1] < 1e-12 * max(terms.sum(), 1e-300):
            break
        delta *= 0.8
    else:
        raise ConstructionError(
            "Frobenius series does not settle inside the fit radius; "
            "refine the grid near t0 or move t0", t0=t0, delta_fit=delta_fit)

    notes = {"indicial_root": float(r), "series_order": order_n,
             "series_radius": float(delta),
             "analyticity_heuristic_passed": analytic_ok,
             "two_sided": bool(two_sided)}
    return r, c, delta, notes


def _series_eval(c, r, s):
    powers = s[:, None] ** (np.arange(c.size)[None, :] + r)
    x = powers @ c
    expo = np.arange(c.size) + r
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(s[:, None] != 0.0, s[:, None], 1.0)
        dpow = expo[None, :] * base ** (expo[None, :] - 1.0)
        dpow = np.where(s[:, None] == 0.0,
                        np.where(expo[None, :] == 1.0, 1.0, 0.0), dpow)
    dx = dpow @ c
    return x, dx


def _series_jets(c, r, t, s, order):
    """Jets of the series at the nodes t, offsets s from the expansion
    point; the columns where s == 0 hold the coefficients exactly."""
    iota = jets.variable(t, order) - (t - s)
    poly = jets.constant(0.0, order, t)
    for k in range(c.size - 1, -1, -1):
        poly = poly * iota + c[k]
    ri = int(round(r))
    for _ in range(ri):
        poly = poly * iota
    exact = np.zeros(order + 1)
    m = max(min(c.size, order + 1 - ri), 0)
    exact[ri:ri + m] = c[:m]
    poly.coeffs[:, s == 0.0] = exact[:, None]
    return poly


def profile_from_gauss_ratio(p: GaussRatioProblem, grid,
                             order: int = 5) -> LegendreCurve:
    """Profile whose z-axis revolute satisfies K = alpha * J.

    The axis distance x solves beta*x'' - beta'*x' + alpha*beta^3*x = 0,
    integrated as the first-order system x' = -beta*sinphi,
    (sin phi)' = alpha*beta*x, which is regular wherever alpha and beta
    are; a pole of alpha at t0 is handled by a Frobenius series whose
    leading coefficient is x0 and which determines sin_phi0 itself.
    """
    fg, io, i0, t0, offset = _lattice(grid, p.t0, order)
    g, s = fg.grid, fg.s
    if p.method not in ("auto", "rk4", "frobenius"):
        raise ConstructionError(f"unknown method {p.method!r}")
    use_series = (p.method == "frobenius" or
                  (p.method == "auto" and _alpha_has_pole(p.alpha, t0)))

    beta_s = _values(p.beta, s, "beta")
    mid = 0.5 * (s[:-1] + s[1:])
    beta_m = _values(p.beta, mid, "beta")
    ab = f"({p.alpha})*({p.beta})"
    notes = {}
    in_c = np.zeros(g.size, dtype=bool)   # coarse nodes inside the series

    if not use_series:
        ab_s = _values(ab, s, "alpha*beta")
        ab_m = _values(ab, mid, "alpha*beta")
        x0c, S0c = p.x0, p.sin_phi0
        if offset != 0.0:
            # carry the initial data from the true t0 to the snapped node
            ts = np.array([t0, 0.5 * (t0 + s[i0]), s[i0]])
            bv = _values(p.beta, ts, "beta")
            av = _values(ab, ts, "alpha*beta")
            x0c, S0c = _rk4_step(p.x0, p.sin_phi0, bv[0], av[0], bv[1], av[1],
                                 bv[2], av[2], -offset)
        x_s, S_s = _rk4_path(s, (beta_s, ab_s), (beta_m, ab_m), i0, x0c, S0c)
        method = "gauss_rk4"
    else:
        r, c, delta, notes = _frobenius_data(p, fg, i0)
        in_series = np.abs(s - t0) <= delta
        if not in_series.any():
            raise ConstructionError("series radius smaller than lattice step")
        idx = np.flatnonzero(in_series)
        iL, iR = int(idx[0]), int(idx[-1])
        x_s = np.empty_like(s)
        S_s = np.empty_like(s)
        xs, dxs = _series_eval(c, r, s[idx] - t0)
        x_s[idx] = xs
        with np.errstate(divide="ignore", invalid="ignore"):
            S_s[idx] = -dxs / beta_s[idx]
        if not np.all(np.isfinite(S_s[idx])):
            raise ConstructionError(
                "sin phi = -x'/beta is not finite inside the series region "
                "(beta vanishes without matching zero of x')", t0=t0)
        # RK4 from the hand-off nodes outward; alpha*beta is evaluated only
        # there, away from the pole
        for lo, hi, a in ((0, iL + 1, iL), (iR, s.size, 0)):
            if hi - lo > 1:
                ab_s = _values(ab, s[lo:hi], "alpha*beta")
                ab_m = _values(ab, mid[lo:hi - 1], "alpha*beta")
                x_s[lo:hi], S_s[lo:hi] = _rk4_path(
                    s[lo:hi], (beta_s[lo:hi], ab_s), (beta_m[lo:hi - 1], ab_m),
                    a, x_s[lo + a], S_s[lo + a])
        method = "gauss_frobenius"
        notes["sin_phi0_ignored"] = True
        notes["series_sin_phi0"] = float(S_s[i0])
        notes["ode_residual_excludes_series_nodes"] = True
        in_c = np.abs(g - t0) <= delta

    touch = abs(S_s[i0] if use_series else p.sin_phi0) == 1.0
    sigma, flips, Sc, C_s = _lattice_angle(s, fg.fine_step, S_s, i0, t0,
                                           p.cos_sign, touch)
    z_s = fg.cumulative_from(beta_s * C_s, i0, p.z0)

    beta_j = _jet(p.beta, g, io, "beta")
    if not use_series:
        ab_j = _jet(ab, g, io, "alpha*beta")
    else:   # alpha has its pole among the series nodes; zeros stand in there
        ab_co = np.zeros((io + 1, g.size))
        if (~in_c).any():
            ab_co[:, ~in_c] = _jet(ab, g[~in_c], io, "alpha*beta").coeffs
        ab_j = Jet(g, ab_co)
    x_j, b_j = _system_jets(beta_j, ab_j, fg.at_coarse(x_s),
                            fg.at_coarse(Sc), io)
    if in_c.any():   # series nodes: x from the series, sin phi = -x'/beta
        nodes = np.flatnonzero(in_c)
        xs_j = _series_jets(c, r, g[nodes], g[nodes] - t0, io)
        x_j.coeffs[:, nodes] = xs_j.coeffs
        b_j.coeffs[:, nodes] = _div_reduced(
            -xs_j.differentiated(), beta_j.at(nodes).truncated(io - 1), 1e-9,
            io + 1)
    a_j, ell_j, flagged = _angle_jets(b_j, sigma[fg.coarse_index], notes)

    resid = (beta_j.value * x_j.derivative(2)
             - beta_j.derivative(1) * x_j.derivative(1)
             + (ab_j * beta_j * beta_j * x_j).value)
    ode_res = float(np.max(np.abs(resid[~in_c]))) if (~in_c).any() else None
    report = ConstructionReport(method, t0, float(offset), flips=flips,
                                flagged_nodes=flagged, ode_residual=ode_res,
                                notes=notes)
    return _assemble(fg, io, z_s, x_j, a_j, b_j, ell_j, beta_j, report)


# ---------------------------------------------------------------------------
# Prescribed (J, K)
# ---------------------------------------------------------------------------

def profile_from_JK(J: str, K: str, x0: float, grid, t0: float | None = None,
                    sin0: float = 0.0, cos_sign: float = 1.0, z0: float = 0.0,
                    order: int = 5) -> LegendreCurve:
    """Profile with prescribed curvature densities J and K of the revolute.

    sin phi is the anchored antiderivative of -K (value sin0 at t0), the
    squared axis distance the anchored antiderivative of 2*J*sin phi
    (value x0^2 at t0, x0 > 0 required), and beta = -J/x.  t0 snaps to the
    nearest fine lattice node and the anchor values apply there; the
    offset is recorded in the construction report; cos_sign, 1 or -1, is
    the sign of cos phi there.  When |sin0| = 1, a touch at t0, cos_sign
    holds for t <= t0 and the other sign after t0.
    """
    _check_seeds(x0, sin0, cos_sign)
    if x0 <= 0:
        raise ConstructionError(f"x0 must be positive, got {x0}")
    fg, io, i0, t0, offset = _lattice(grid, t0, order)
    g, s = fg.grid, fg.s
    J_s = _values(J, s, "J")
    K_s = _values(K, s, "K")
    S_s = sin0 - fg.cumulative_from(K_s, i0, 0.0)
    sigma, flips, Sc, C_s = _lattice_angle(s, fg.fine_step, S_s, i0, t0,
                                           cos_sign, abs(sin0) == 1.0)

    x2_s, z_s = _j_lattice(fg, i0, x0, z0, J_s, Sc, C_s,
                           "; x0 anchor incompatible with prescribed (J, K)")
    J_j = _jet(J, g, io, "J")
    b_j = (-_jet(K, g, io, "K")).antiderivative(
        fg.at_coarse(S_s)).truncated(io)
    x_j, beta_j = _j_jets(fg, io, x2_s, J_j, b_j)
    notes = {}
    a_j, ell_j, flagged = _angle_jets(b_j, sigma[fg.coarse_index], notes)
    report = ConstructionReport("jk_quadrature", t0, float(offset),
                                flips=flips,
                                flagged_nodes=flagged, notes=notes)
    return _assemble(fg, io, z_s, x_j, a_j, b_j, ell_j, beta_j, report)


# ---------------------------------------------------------------------------
# Mean ratio: H = alpha * J
# ---------------------------------------------------------------------------

def profile_from_mean_ratio(p: MeanRatioProblem, grid,
                            order: int = 5) -> LegendreCurve:
    """Profile whose z-axis revolute satisfies H = alpha * J.

    Everything is explicit quadrature: eta = 2*int(alpha*beta), F and G
    are c1, c2 minus the antiderivatives of beta*cos(eta) and
    beta*sin(eta), the axis distance is sqrt(F^2+G^2), and the normal
    angle comes from (F, G, eta) without any branch ambiguity.  The
    anchor applies at the fine lattice node nearest t0.
    """
    fg, io, i0, t0, offset = _lattice(grid, p.t0, order)
    g, s = fg.grid, fg.s
    alpha_s = _values(p.alpha, s, "alpha")
    beta_s = _values(p.beta, s, "beta")
    eta_s = 2.0 * fg.cumulative_from(alpha_s * beta_s, i0, 0.0)
    F_s = p.c1 - fg.cumulative_from(beta_s * np.cos(eta_s), i0, 0.0)
    G_s = p.c2 - fg.cumulative_from(beta_s * np.sin(eta_s), i0, 0.0)
    x_s = np.hypot(F_s, G_s)
    scale = 1.0 + float(np.max(x_s))
    if np.min(x_s) <= 1e-12 * scale:
        tb = s[int(np.argmin(x_s))]
        raise ConstructionError(
            f"axis distance sqrt(F^2+G^2) vanishes near t={tb:.6g}; "
            "constants (c1, c2) incompatible with beta on this grid",
            t=float(tb))
    cos_s = (F_s * np.sin(eta_s) - G_s * np.cos(eta_s)) / x_s
    z_s = fg.cumulative_from(beta_s * cos_s, i0, p.z0)

    alpha_j = _jet(p.alpha, g, io, "alpha")
    beta_j = _jet(p.beta, g, io, "beta")
    eta_j = (2.0 * (alpha_j * beta_j)).antiderivative(
        fg.at_coarse(eta_s)).truncated(io)
    se, ce = jets.sin_cos(eta_j)
    F_j = (-(beta_j * ce)).antiderivative(fg.at_coarse(F_s)).truncated(io)
    G_j = (-(beta_j * se)).antiderivative(fg.at_coarse(G_s)).truncated(io)
    x_j = jets.sqrt(F_j * F_j + G_j * G_j)
    a_j = (F_j * se - G_j * ce) / x_j
    b_j = (F_j * ce + G_j * se) / x_j
    ell_j = -(beta_j * (a_j / x_j + 2.0 * alpha_j))

    ratio_resid = float(np.max(np.abs(
        np.atleast_1d((x_j * ell_j + beta_j * a_j).value) / 2.0
        + np.atleast_1d((alpha_j * beta_j * x_j).value))))
    report = ConstructionReport(
        "mean_ratio", t0, float(offset),
        notes={"mean_identity_residual": ratio_resid,
               "x_min": float(np.min(x_s))})
    return _assemble(fg, io, z_s, x_j, a_j, b_j, ell_j, beta_j, report)


# ---------------------------------------------------------------------------
# Prescribed (J, phi) and (H, phi)
# ---------------------------------------------------------------------------

def profile_from_J_phi(J: str, phi: str, x0: float, grid,
                       t0: float | None = None, z0: float = 0.0,
                       order: int = 5) -> LegendreCurve:
    """Profile with prescribed J and normal angle phi; x(t0) = x0 > 0.

    The anchor applies at the fine lattice node nearest t0.
    """
    _check_seeds(x0)
    if x0 <= 0:
        raise ConstructionError(f"x0 must be positive, got {x0}")
    fg, io, i0, t0, offset = _lattice(grid, t0, order)
    g, s = fg.grid, fg.s
    J_s = _values(J, s, "J")
    phi_s = _values(phi, s, "phi")
    x2_s, z_s = _j_lattice(fg, i0, x0, z0, J_s, np.sin(phi_s),
                           np.cos(phi_s))
    J_j = _jet(J, g, io, "J")
    phi_j = _jet(phi, g, io, "phi")
    b_j, a_j = jets.sin_cos(phi_j)
    x_j, beta_j = _j_jets(fg, io, x2_s, J_j, b_j)
    report = ConstructionReport("j_phi_quadrature", t0, float(offset))
    return _assemble(fg, io, z_s, x_j, a_j, b_j, phi_j.differentiated(),
                     beta_j, report)


def profile_from_H_phi(H: str, phi: str, grid, c_a: float = 0.0,
                       t0: float | None = None, z0: float = 0.0,
                       order: int = 5) -> LegendreCurve:
    """Profile with prescribed mean density H and normal angle phi.

    Requires cos(phi) bounded away from zero on the grid; c_a shifts the
    antiderivative of 2*H*sin(phi) and thereby scales the axis distance.
    The anchor applies at the fine lattice node nearest t0.
    """
    fg, io, i0, t0, offset = _lattice(grid, t0, order)
    g, s = fg.grid, fg.s
    H_s = _values(H, s, "H")
    phi_fine = _jet(phi, s, 1, "phi")
    phi_s = np.atleast_1d(phi_fine.value)
    dphi_s = np.atleast_1d(phi_fine.derivative(1))
    cos_s = np.cos(phi_s)
    thr = COS_TOL * (1.0 + float(np.max(np.abs(cos_s))))
    crossings = np.flatnonzero(cos_s[:-1] * cos_s[1:] < 0)
    if np.min(np.abs(cos_s)) <= thr or crossings.size:
        bad = int(crossings[0]) if crossings.size else int(np.argmin(np.abs(cos_s)))
        tb = s[bad]
        raise ConstructionError(
            f"cos(phi) vanishes near t={tb:.6g}; the (H, phi) formulas "
            "require a nonvanishing horizontal normal component", t=float(tb))
    A_s = c_a + fg.cumulative_from(2.0 * H_s * np.sin(phi_s), i0, 0.0)
    x_s = -A_s / cos_s
    z_s = fg.cumulative_from(2.0 * H_s - dphi_s * x_s, i0, z0)

    H_j = _jet(H, g, io, "H")
    phi_j = _jet(phi, g, io, "phi")
    b_j, a_j = jets.sin_cos(phi_j)
    A_j = (2.0 * (H_j * b_j)).antiderivative(fg.at_coarse(A_s)).truncated(io)
    x_j = -(A_j / a_j)
    dphi_j = phi_j.differentiated()
    beta_j = (2.0 * H_j - dphi_j * x_j) / a_j.truncated(io - 1)

    report = ConstructionReport("h_phi_quadrature", t0, float(offset))
    return _assemble(fg, io, z_s, x_j, a_j, b_j, dphi_j, beta_j, report)
