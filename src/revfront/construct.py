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
steps per grid step) plus, for the gauss ratio, RK4 sweeps of the
first-order system outward from seeded lattice nodes: the node nearest
the anchor, or every node within the radius of a Frobenius series at a
regular singular point of the ratio, its coefficients computed from the
Laurent jets of alpha and beta at t0 (expr.eval_laurent).  Every construction
holds its prescribed values at t0 itself (FineGrid.cumulative_from).
Any finite, strictly increasing grid will do: RK4, the quadrature, the
flip locator and the series region all read the lattice's own steps.
Each touch, where |sin phi| = 1, is expanded once (_angle_jets).
"""

from __future__ import annotations

import math

import numpy as np

from . import expr
from . import jets
from .jets import DIV_TOL, DomainError, Jet, Laurent
from .legendre import (CurveJet, CurvaturePair, LegendreCurve, NormalJet,
                       verify_legendre)
from .quadrature import (ConstructionError, FineGrid, check_finite, evaluated,
                         nearest_node)

FLIP_TOL = 1e-8          # fitted |sin phi| extremum within this of 1 -> branch flip
SIN_EXCESS_TOL = 1e-9    # |sin phi| beyond 1 + this -> inconsistent data
COS_TOL = 1e-8           # |cos phi| within this (relative) of 0 -> (H, phi) rejects
SERIES_ORDER = 12        # Frobenius coefficients c_0..c_12; data to twice that


class GaussRatioProblem:
    """Data for the K = alpha*J construction.

    x0 is the value x(t0) at an ordinary point, or the leading series
    coefficient at a singular point of alpha; sin_phi0 seeds sin(phi) at
    t0 (ignored, and reported, when the series determines it); cos_sign,
    1 or -1, picks the initial branch of cos(phi).  When sin phi = +-1 at
    t0, a touch, cos_sign holds for t <= t0 and the other sign after t0.
    method is auto, rk4 or frobenius.
    """

    def __init__(self, alpha: str, beta: str, t0: float, x0: float,
                 sin_phi0: float = 0.0, cos_sign: float = 1.0,
                 z0: float = 0.0, method: str = "auto"):
        _check_seeds(x0, sin_phi0, cos_sign, z0)
        if method not in ("auto", "rk4", "frobenius"):
            raise ValueError("method must be auto, rk4 or frobenius, "
                             f"got {method!r}")
        self.alpha, self.beta, self.t0, self.x0 = alpha, beta, t0, x0
        self.sin_phi0, self.cos_sign, self.z0 = sin_phi0, cos_sign, z0
        self.method = method


class MeanRatioProblem:
    """Data for the H = alpha*J construction.

    c1 and c2 are the values of the two antiderivative combinations at the
    anchor; t0 defaults to the left end of the grid.
    """

    def __init__(self, alpha: str, beta: str, c1: float, c2: float,
                 t0: float | None = None, z0: float = 0.0):
        check_finite(c1=c1, c2=c2, z0=z0)
        self.alpha, self.beta, self.c1, self.c2 = alpha, beta, c1, c2
        self.t0, self.z0 = t0, z0


class ConstructionReport:
    """Decisions and residuals of one construction; _assemble fills the
    contact and norm residuals.  as_dict gives the JSON form."""

    def __init__(self, method: str, t0: float, flips: list | None = None,
                 flagged_nodes: list | None = None,
                 ode_residual: float | None = None,
                 contact_residual: float = 0.0, norm_residual: float = 0.0,
                 notes: dict | None = None):
        self.method, self.t0 = method, t0
        self.flips = [] if flips is None else flips
        self.flagged_nodes = [] if flagged_nodes is None else flagged_nodes
        self.ode_residual = ode_residual
        self.contact_residual = contact_residual
        self.norm_residual = norm_residual
        self.notes = {} if notes is None else notes

    def as_dict(self) -> dict:
        """Every field by name, in the order of __init__."""
        return dict(vars(self))


def _check_seeds(x0, sin0=0.0, cos_sign=1.0, z0=0.0):
    """ValueError unless x0, z0 finite, sin phi in [-1, 1], cos_sign +-1."""
    check_finite(x0=x0, z0=z0)
    if not -1.0 <= sin0 <= 1.0:
        raise ValueError(f"sin phi seed must lie in [-1, 1], got {sin0!r}")
    if cos_sign not in (1.0, -1.0):
        raise ValueError(f"cos_sign must be 1 or -1, got {cos_sign!r}")


def _values(src, t, what):
    return evaluated(what, expr.eval_values, src, t)


def _jet(src, t, order, what):
    return evaluated(what, expr.eval_jet_any_order, src, t, order)


def _laurent_quotient(num, den):
    """num / den of array-based jets, column by column as jets.Laurent
    divides: the Jet quotient unless den's value vanishes, else a Taylor
    jet zero-padded (DomainError names the first pole)."""
    out = np.zeros((min(num.order, den.order) + 1, num.t.size))
    zero = np.abs(den.value) < DIV_TOL * (1.0 + np.abs(num.value))
    out[:, ~zero] = (num.at(~zero) / den.at(~zero)).coeffs
    for i in np.flatnonzero(zero):
        q = (Laurent(num.at(i)) / Laurent(den.at(i))).taylor().rows
        out[:len(q), i] = q
    return out


def _shift(rows, d, order):
    """Taylor coefficients 0..order at the offsets d (a scalar or an array)
    of the polynomial sum rows[k] (t - c)^k: its m-th derivative at d / m!."""
    p = np.asarray(rows)[::-1]
    return np.array([np.polyval(np.polyder(p, m), d) / math.factorial(m)
                     for m in range(order + 1)])


def _lattice(grid, t0, order):
    """Fine lattice, internal jet order, the fine node nearest the anchor
    and the anchor parameter, which None puts at the left end of the grid.
    """
    if order < 0:
        raise ValueError(f"jet order must be at least 0, got {order}")
    fg = FineGrid(grid)
    lo, hi = fg.grid[0], fg.grid[-1]
    if t0 is None:
        return fg, order + 2, 0, float(lo)
    span = hi - lo
    if not lo - 1e-12 * span <= t0 <= hi + 1e-12 * span:   # NaN fails too
        raise ConstructionError(f"t0={t0} lies outside the grid [{lo}, {hi}]")
    return fg, order + 2, nearest_node(fg.s, t0), t0


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


def _settled(c, delta, floor):
    """The radius at which the series sum c_k s^k settles: delta, times 0.8
    as often as needed for its last term to fall below 1e-12 of the sum of
    its terms' magnitudes; None once the radius reaches floor."""
    while delta > floor:
        terms = np.abs(c) * delta ** np.arange(c.size)
        if terms[-1] < 1e-12 * max(terms.sum(), 1e-300):
            return delta
        delta *= 0.8
    return None


def _angle_jets(fg, b_j, sigma, C_s, flips, expand, notes):
    """cos(phi) and ell jets from the sin(phi) jets b_j at the coarse nodes
    and the signs sigma on the lattice: sigma*sqrt(1 - sin^2) and
    (sin phi)'/cos phi node by node, except near a touch t* (README), the
    zero of (sin phi)' by Newton on the jets of the node nearest a flip or
    grid end (for an end, within a grid step or ConstructionError), where
    |sin phi| reaches 1 - FLIP_TOL.  Near it the jets are the Taylor shift
    of one expansion, from the sin phi jet expand(t*, n, at) (at(j): jet j
    at t*), and C_s, which z integrates, takes its values.  Returns (a_j,
    ell_j, the nodes near a touch).
    """
    g, s, io = fg.grid, fg.s, b_j.order
    a_co, ell_co = np.empty((io + 1, g.size)), np.empty((io, g.size))
    served = np.zeros(g.size, dtype=bool)
    h, span = float(np.max(np.diff(g))), float(g[-1] - g[0])
    stars = []
    for f in sorted(flips + [g[0], g[-1]]):
        i, ts = nearest_node(g, f), f
        col = b_j.coeffs[:, i]                   # sin phi in t - t_i
        with np.errstate(all="ignore"):          # no zero: NaN
            for _ in range(6):
                _, d1, d2 = _shift(col, ts - g[i], 2)
                ts -= d1 / (2.0 * d2)
        found = abs(ts - f) <= h
        ts = float(ts if found else f)
        S0, S1 = _shift(col, ts - g[i], 1)
        if (abs(S0) >= 1.0 - FLIP_TOL                        # a touch,
                and (not stars or ts - stars[-1][0] > h)):   # not its twin
            if not found and f in (g[0], g[-1]):
                raise ConstructionError(
                    f"|sin phi| reaches 1 at the grid end t={ts:.6g}, but "
                    f"(sin phi)' = {S1:.3g}: cos phi = 0, ell unbounded", t=ts)
            stars.append((ts, i))
    for ts, i in stars:
        S = expand(ts, 2 * io,
                   lambda j: _shift(j.coeffs[:, i], ts - g[i], 0)[0])
        S0, S1 = S.rows[:2]
        S = Jet(ts, [math.copysign(1.0, S0), 0.0] + S.rows[2:])
        g2 = Laurent(1.0 - S * S, -2).taylor()    # / (t - t*)^2
        room = min([abs(o - ts) / 2 for o, _ in stars if o != ts] + [span])
        side = 1.0 if ts + room / 4 <= s[-1] else -1.0   # sigma after t*:
        sign = side * sigma[nearest_node(s, ts + side * room / 4)]
        a = Laurent(sign * jets.sqrt(g2), 1).taylor()
        ell = (Laurent(S.differentiated()) / Laurent(a)).taylor()
        w = min(_settled(c.coeffs, room, h) or 0.0 for c in (a, ell))
        if not w:
            raise ConstructionError(
                f"the expansion at the touch t={ts:.6g} does not settle "
                "beyond a grid step: no simple touch", t=ts)
        near = np.flatnonzero(np.abs(g - ts) <= w)
        fine = np.abs(s - ts) <= w
        C_s[fine] = _shift(a.coeffs, s[fine] - ts, 0)[0]
        for out, c in ((a_co, a), (ell_co, ell)):
            out[:, near] = _shift(c.coeffs, g[near] - ts, len(out) - 1)
        served[near] = True
        notes.setdefault("touches", []).append(
            {"t": ts, "radius": float(w), "nodes": near.tolist(),
             "dropped_radicand": abs(1.0 - S0 * S0), "dropped_slope": abs(S1)})
    b = b_j.at(~served)
    sq = evaluated("cos phi", lambda _, r: jets.sqrt(r), "sqrt(1-sin(phi)^2)",
                   1.0 - b * b)
    a_co[:, ~served] = sq.coeffs * sigma[fg.coarse_index][~served]
    num = b.differentiated()
    ell_co[:, ~served] = (num / Jet(b.t, a_co[:io, ~served])).coeffs
    return Jet(g, a_co), Jet(g, ell_co), np.flatnonzero(served).tolist()


def _system_jets(beta_j, ab_j, x_vals, S_vals, order):
    """Jets of (x, sin phi) from x' = -beta*sinphi, (sin phi)' = (alpha beta) x.

    The Taylor recurrence of the system: k x_k = -sum_{i<k} beta_i S_{k-1-i}
    and k S_k = sum_{i<k} (alpha beta)_i x_{k-1-i}.  Each sum runs left to
    right and is negated and divided as Jet.__mul__ and antiderivative
    would, so the jets have the bits of the jet algebra's fixed point (of
    order+1 Picard passes), up to the sign of a NaN.
    """
    b, ab = beta_j.coeffs, ab_j.coeffs
    x = np.empty((order + 1,) + beta_j.t.shape)
    S = np.empty_like(x)
    x[0], S[0] = x_vals, S_vals
    for k in range(1, order + 1):
        dx = b[0] * S[k - 1]
        dS = ab[0] * x[k - 1]
        for i in range(1, k):
            dx += b[i] * S[k - 1 - i]
            dS += ab[i] * x[k - 1 - i]
        x[k] = -dx / k
        S[k] = dS / k
    return Jet(beta_j.t, x), Jet(beta_j.t, S)


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
    """Products M_k ... M_1 M_0 of the 2x2 matrices m[:, :, k] by
    Hillis-Steele doubling, log2(n) array passes between m and one more
    buffer; returns the buffer that holds them (m is overwritten)."""
    src, dst = m, np.empty_like(m)
    d = 1
    while d < m.shape[-1]:
        np.einsum("ijk,jlk->ilk", src[..., d:], src[..., :-d],
                  out=dst[..., d:])
        dst[..., :d] = src[..., :d]
        src, dst = dst, src
        d *= 2
    return src


def _rk4_path(s, f_node, f_mid, x0, S0):
    """Integrate x' = -beta(t)*S, S' = (alpha*beta)(t)*x along the lattice
    s from (x0, S0) at s[0].

    f_node and f_mid hold (beta, alpha*beta) at the nodes and interval
    midpoints, in the order of s.  Each interval takes its own step, so a
    reversed lattice (negative steps) integrates toward smaller t.  The
    system is linear, so an RK4 step is a 2x2 matrix (the step applied to
    the unit vectors) and the sweep is a prefix product of those matrices.
    Returns (x, S) at every node of s.
    """
    (b, a), (b_mid, a_mid) = f_node, f_mid
    coeffs = (b[:-1], a[:-1], b_mid, a_mid, b[1:], a[1:], np.diff(s))
    m = np.empty((2, 2, s.size - 1))
    m[0, 0], m[1, 0] = _rk4_step(1.0, 0.0, *coeffs)
    m[0, 1], m[1, 1] = _rk4_step(0.0, 1.0, *coeffs)
    m = _prefix_products(m)
    x = np.empty(s.size)
    S = np.empty(s.size)
    x[0], S[0] = x0, S0
    x[1:], S[1:] = m[:, 0] * x0 + m[:, 1] * S0
    return x, S


def _j_lattice(fg, t0, x0, z0, J_s, sin_s, cos_s, why=""):
    """Squared axis distance and z on the lattice from prescribed J and
    the normal angle phi.

    x^2 = x0^2 + 2*int(J sin phi) must stay positive; beta = -J/x and
    z = z0 + int(beta cos phi).  Returns (x^2, z) on the lattice.
    """
    s = fg.s
    x2_s = x0 * x0 + 2.0 * fg.cumulative_from(J_s * sin_s, t0, 0.0)
    bad = x2_s <= 0.0
    if bad.any():
        tb = s[bad][0]
        raise ConstructionError(
            f"squared axis distance becomes non-positive at t={tb:.6g}{why}",
            t=float(tb))
    return x2_s, fg.cumulative_from(-J_s / np.sqrt(x2_s) * cos_s, t0, z0)


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

def _alpha_expansion(p):
    """alpha about t0 as a jets.Laurent, or None for RK4: if it is forced,
    or under auto if alpha has no Laurent jet at t0 (log(t) at 0)."""
    if p.method == "rk4":
        return None
    try:
        return expr.eval_laurent(p.alpha, p.t0, 2 * SERIES_ORDER)
    except DomainError as exc:
        if p.method == "auto":
            return None
        raise ConstructionError(
            f"alpha cannot be expanded at t0={p.t0}: {exc}", t0=p.t0) from exc


def _frobenius_data(p, alpha, fg, i0):
    """Series solution x = sum c_k s^(k+r), s = t - t0, of the profile ODE
    s^2 x'' + s P x' + Q x = 0 about t0 (the Frobenius method).

    P = -s*beta'/beta and Q = alpha*beta^2*s^2, from the Laurent jets of
    alpha and beta at t0, are exact Taylor jets of order SERIES_ORDER once
    v(P) >= 0 and v(Q) >= 0 certify a regular singular point.  The series
    region spans at least four of the larger fine step beside the anchor
    node i0 on each side it covers.  Returns (r, coeffs, delta, notes,
    beta's Laurent jet at t0).
    """
    t0 = p.t0
    beta = evaluated("beta", expr.eval_laurent, p.beta, t0, 2 * SERIES_ORDER)
    b = jets.Laurent(beta.jet)    # beta = s^m b: s beta'/beta = m + s b'/b
    q = alpha * beta * beta
    m = jets.Laurent(jets.constant(beta.shift, 2 * SERIES_ORDER, t0))
    P = -(jets.Laurent(b.jet.differentiated(), 1) / b + m)
    Q = jets.Laurent(q.jet, q.shift + 2)
    for name, f, most in (("beta'/beta", P, 1), ("alpha*beta^2", Q, 2)):
        if f.valuation() < 0:
            raise ConstructionError(
                f"{name} has a pole of order {most - f.valuation()} at "
                f"t0={t0}, more than {most}: not a regular singular point",
                t0=t0)
    p_co, q_co = (f.taylor().rows[:SERIES_ORDER + 1] for f in (P, Q))
    order_n = min(len(p_co), len(q_co)) - 1

    p0, q0 = p_co[0], q_co[0]
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

    c = np.zeros(order_n + 1)
    c[0] = p.x0
    for n in range(1, order_n + 1):
        rho = n + r
        Fn = rho * (rho - 1.0) + p0 * rho + q0   # the indicial polynomial
        if abs(Fn) < 1e-9 * (1.0 + rho ** 2):
            raise ConstructionError(
                f"indicial resonance at order {n} (roots differ by an "
                "integer); logarithmic solution not representable", t0=t0)
        acc = 0.0
        for j in range(1, n + 1):
            acc += (p_co[j] * (n - j + r) + q_co[j]) * c[n - j]
        c[n] = -acc / Fn

    lo, hi = fg.grid[0], fg.grid[-1]
    step = float(np.max(fg.fine_step[max(i0 - 1, 0):i0 + 1]))
    left, right = t0 - lo, hi - t0
    two_sided = left > 4 * step and right > 4 * step
    room = min(0.6 * (min if two_sided else max)(left, right), 0.5 * (hi - lo))
    delta = _settled(c, 0.9 * room, 4 * step)
    if delta is None:
        raise ConstructionError(
            "Frobenius series does not settle inside its start radius; "
            "refine the grid near t0 or move t0", t0=t0, room=room)

    notes = {"indicial_root": float(r), "series_order": order_n,
             "series_radius": float(delta), "two_sided": bool(two_sided)}
    return r, c, delta, notes, beta


def profile_from_gauss_ratio(p: GaussRatioProblem, grid,
                             order: int = 5) -> LegendreCurve:
    """Profile whose z-axis revolute satisfies K = alpha * J.

    The axis distance x solves beta*x'' - beta'*x' + alpha*beta^3*x = 0,
    integrated as the first-order system x' = -beta*sinphi,
    (sin phi)' = alpha*beta*x, which is regular wherever alpha and beta
    are; a pole of alpha at t0 is handled by a Frobenius series whose
    leading coefficient is x0 and which determines sin_phi0 itself.

    Both methods seed lattice nodes, then sweep RK4 from the outermost
    seeded nodes to the ends.  RK4 seeds the node nearest t0, carried there
    from an off-lattice t0 by a partial step; the series seeds every node
    within its radius of t0.
    """
    fg, io, i0, t0 = _lattice(grid, p.t0, order)
    g, s = fg.grid, fg.s
    alpha = _alpha_expansion(p)
    use_series = alpha is not None and (p.method == "frobenius"
                                        or alpha.valuation() < 0)

    beta_s = _values(p.beta, s, "beta")
    mid = 0.5 * (s[:-1] + s[1:])
    beta_m = _values(p.beta, mid, "beta")
    ab = f"({p.alpha})*({p.beta})"

    def ab_values(t, beta_t):
        """alpha*beta at t as alpha's values times beta's, beta_t: the bits
        of the text ab, which a failure of alpha names."""
        return evaluated("alpha*beta",
                         lambda _, t: expr.eval_values(p.alpha, t) * beta_t,
                         ab, t)

    x_s, S_s = np.empty((2, s.size))

    if not use_series:
        method, notes, radius, sin_t0 = "gauss_rk4", {}, -np.inf, p.sin_phi0
        iL = iR = i0
        x_s[i0], S_s[i0] = p.x0, p.sin_phi0
        if s[i0] != t0:   # carry the seed from t0 to its node
            ts = np.array([t0, 0.5 * (t0 + s[i0]), s[i0]])
            bv = _values(p.beta, ts, "beta")
            av = ab_values(ts, bv)
            x_s[i0], S_s[i0] = _rk4_step(p.x0, p.sin_phi0, bv[0], av[0], bv[1],
                                         av[1], bv[2], av[2], s[i0] - t0)
    else:
        method = "gauss_frobenius"
        r, c, radius, notes, beta0 = _frobenius_data(p, alpha, fg, i0)
        rows = np.append(np.zeros(int(r)), c)   # x in powers of t - t0
        seeded = np.flatnonzero(np.abs(s - t0) <= radius)   # holds i0
        iL, iR = int(seeded[0]), int(seeded[-1])
        near = np.s_[iL:iR + 1]
        x_s[near], dx = _shift(rows, s[near] - t0, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            S_s[near] = -dx / beta_s[near]
        if s[i0] == t0 and abs(beta_s[i0]) < DIV_TOL * (1 + abs(dx[i0 - iL])):
            # beta vanishes at t0: divide as at the coarse nodes (README)
            q = -Laurent(Jet(t0, rows).differentiated()) / beta0
            S_s[i0] = q.taylor().value if q.valuation() >= 0 else np.nan
        if not np.all(np.isfinite(S_s[near])):
            raise ConstructionError(
                "sin phi = -x'/beta is not finite inside the series region "
                "(beta vanishes without matching zero of x')", t0=t0)
        sin_t0 = S_s[i0]
        notes.update(sin_phi0_ignored=True, series_sin_phi0=float(sin_t0),
                     ode_residual_excludes_series_nodes=True)

    # sweep from the seeded nodes to both ends, the left one over the
    # reversed lattice; alpha*beta is evaluated only here, away from a
    # pole at t0
    for nodes, mids, way in ((np.s_[:iL + 1], np.s_[:iL], np.s_[::-1]),
                             (np.s_[iR:], np.s_[iR:], np.s_[:])):
        t = s[nodes]
        if t.size > 1:
            b, b_mid = beta_s[nodes], beta_m[mids]
            f_node = (b[way], ab_values(t, b)[way])
            f_mid = (b_mid[way], ab_values(mid[mids], b_mid)[way])
            x, S = x_s[nodes][way], S_s[nodes][way]
            with np.errstate(over="ignore", invalid="ignore"):
                x[:], S[:] = _rk4_path(t[way], f_node, f_mid, x[0], S[0])
    bad = np.flatnonzero(~(np.isfinite(x_s) & np.isfinite(S_s)))
    if bad.size:   # both sweeps run outward: name the node nearest t0
        tb = float(s[bad[np.argmin(np.abs(s[bad] - t0))]])
        raise ConstructionError(
            f"the RK4 sweep overflows: x or sin phi is not finite at "
            f"t={tb:.6g}", t=tb)

    sigma, flips, Sc, C_s = _lattice_angle(s, fg.fine_step, S_s, i0, t0,
                                           p.cos_sign, abs(sin_t0) == 1.0)

    beta_j = _jet(p.beta, g, io, "beta")
    # coarse nodes inside the series radius (none for RK4); alpha may have
    # its pole among them, so zeros stand in for alpha*beta there
    in_c = np.abs(g - t0) <= radius
    ab_co = np.zeros((io + 1, g.size))
    if (~in_c).any():
        ab_co[:, ~in_c] = _jet(ab, g[~in_c], io, "alpha*beta").coeffs
    ab_j = Jet(g, ab_co)
    x_j, b_j = _system_jets(beta_j, ab_j, fg.at_coarse(x_s),
                            fg.at_coarse(Sc), io)
    if in_c.any():   # series nodes: x from the series, sin phi = -x'/beta
        nodes = np.flatnonzero(in_c)
        x_j.coeffs[:, nodes] = _shift(rows, g[nodes] - t0, io)
        b_j.coeffs[:, nodes] = 0.0
        xs_j = x_j.at(nodes)
        b_j.coeffs[:io, nodes] = _laurent_quotient(
            -xs_j.differentiated(), beta_j.at(nodes).truncated(io - 1))

    def expand(ts, n, at):   # the system's recurrence from x and sin phi
        return _system_jets(_jet(p.beta, ts, n, "beta"), _jet(
            ab, ts, n, "alpha*beta"), at(x_j), at(b_j), n)[1]

    a_j, ell_j, flagged = _angle_jets(fg, b_j, sigma, C_s, flips, expand,
                                      notes)
    z_s = fg.cumulative_from(beta_s * C_s, t0, p.z0)

    resid = (beta_j.value * x_j.derivative(2)
             - beta_j.derivative(1) * x_j.derivative(1)
             + ab_j.value * beta_j.value * beta_j.value * x_j.value)
    ode_res = float(np.max(np.abs(resid[~in_c]))) if (~in_c).any() else None
    report = ConstructionReport(method, t0, flips=flips,
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
    (value x0^2 at t0, x0 > 0 required), and beta = -J/x; cos_sign, 1 or
    -1, is the sign of cos phi at t0.  When |sin0| = 1, a touch at t0,
    cos_sign holds for t <= t0 and the other sign after t0.
    """
    _check_seeds(x0, sin0, cos_sign, z0)
    if x0 <= 0:
        raise ConstructionError(f"x0 must be positive, got {x0}")
    fg, io, i0, t0 = _lattice(grid, t0, order)
    g, s = fg.grid, fg.s
    J_s = _values(J, s, "J")
    K_s = _values(K, s, "K")
    S_s = sin0 - fg.cumulative_from(K_s, t0, 0.0)
    sigma, flips, Sc, C_s = _lattice_angle(s, fg.fine_step, S_s, i0, t0,
                                           cos_sign, abs(sin0) == 1.0)
    b_j = (-_jet(K, g, io, "K")).antiderivative(
        fg.at_coarse(S_s)).truncated(io)

    def expand(ts, n, at):   # the antiderivative of -K through sin phi
        return (-_jet(K, ts, n - 1, "K")).antiderivative(at(b_j))

    notes = {}
    a_j, ell_j, flagged = _angle_jets(fg, b_j, sigma, C_s, flips, expand,
                                      notes)
    x2_s, z_s = _j_lattice(fg, t0, x0, z0, J_s, Sc, C_s,
                           "; x0 anchor incompatible with prescribed (J, K)")
    x_j, beta_j = _j_jets(fg, io, x2_s, _jet(J, g, io, "J"), b_j)
    report = ConstructionReport("jk_quadrature", t0, flips=flips,
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
    angle comes from (F, G, eta) without any branch ambiguity.
    """
    fg, io, _, t0 = _lattice(grid, p.t0, order)
    g, s = fg.grid, fg.s
    alpha_s = _values(p.alpha, s, "alpha")
    beta_s = _values(p.beta, s, "beta")
    eta_s = 2.0 * fg.cumulative_from(alpha_s * beta_s, t0, 0.0)
    F_s = p.c1 - fg.cumulative_from(beta_s * np.cos(eta_s), t0, 0.0)
    G_s = p.c2 - fg.cumulative_from(beta_s * np.sin(eta_s), t0, 0.0)
    x_s = np.hypot(F_s, G_s)
    scale = 1.0 + float(np.max(x_s))
    if np.min(x_s) <= 1e-12 * scale:
        tb = s[int(np.argmin(x_s))]
        raise ConstructionError(
            f"axis distance sqrt(F^2+G^2) vanishes near t={tb:.6g}; "
            "constants (c1, c2) incompatible with beta on this grid",
            t=float(tb))
    cos_s = (F_s * np.sin(eta_s) - G_s * np.cos(eta_s)) / x_s
    z_s = fg.cumulative_from(beta_s * cos_s, t0, p.z0)

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
        "mean_ratio", t0,
        notes={"mean_identity_residual": ratio_resid,
               "x_min": float(np.min(x_s))})
    return _assemble(fg, io, z_s, x_j, a_j, b_j, ell_j, beta_j, report)


# ---------------------------------------------------------------------------
# Prescribed (J, phi) and (H, phi)
# ---------------------------------------------------------------------------

def profile_from_J_phi(J: str, phi: str, x0: float, grid,
                       t0: float | None = None, z0: float = 0.0,
                       order: int = 5) -> LegendreCurve:
    """Profile with prescribed J and normal angle phi; x(t0) = x0 > 0."""
    _check_seeds(x0, z0=z0)
    if x0 <= 0:
        raise ConstructionError(f"x0 must be positive, got {x0}")
    fg, io, _, t0 = _lattice(grid, t0, order)
    g, s = fg.grid, fg.s
    J_s = _values(J, s, "J")
    phi_s = _values(phi, s, "phi")
    x2_s, z_s = _j_lattice(fg, t0, x0, z0, J_s, np.sin(phi_s),
                           np.cos(phi_s))
    J_j = _jet(J, g, io, "J")
    phi_j = _jet(phi, g, io, "phi")
    b_j, a_j = jets.sin_cos(phi_j)
    x_j, beta_j = _j_jets(fg, io, x2_s, J_j, b_j)
    report = ConstructionReport("j_phi_quadrature", t0)
    return _assemble(fg, io, z_s, x_j, a_j, b_j, phi_j.differentiated(),
                     beta_j, report)


def profile_from_H_phi(H: str, phi: str, grid, c_a: float = 0.0,
                       t0: float | None = None, z0: float = 0.0,
                       order: int = 5) -> LegendreCurve:
    """Profile with prescribed mean density H and normal angle phi.

    Requires cos(phi) bounded away from zero on the grid; c_a shifts the
    antiderivative of 2*H*sin(phi) and thereby scales the axis distance.
    """
    check_finite(c_a=c_a, z0=z0)
    fg, io, _, t0 = _lattice(grid, t0, order)
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
    A_s = c_a + fg.cumulative_from(2.0 * H_s * np.sin(phi_s), t0, 0.0)
    x_s = -A_s / cos_s
    z_s = fg.cumulative_from(2.0 * H_s - dphi_s * x_s, t0, z0)

    H_j = _jet(H, g, io, "H")
    phi_j = _jet(phi, g, io, "phi")
    b_j, a_j = jets.sin_cos(phi_j)
    A_j = (2.0 * (H_j * b_j)).antiderivative(fg.at_coarse(A_s)).truncated(io)
    x_j = -(A_j / a_j)
    dphi_j = phi_j.differentiated()
    beta_j = (2.0 * H_j - dphi_j * x_j) / a_j.truncated(io - 1)

    report = ConstructionReport("h_phi_quadrature", t0)
    return _assemble(fg, io, z_s, x_j, a_j, b_j, dphi_j, beta_j, report)
