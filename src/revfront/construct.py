"""Profile construction from prescribed curvature data.

Five constructions produce Legendre curves in the (x, z) plane whose
z-axis revolute realizes prescribed curvature relations:

  * gauss ratio      K = alpha * J   (an ODE for the axis distance x)
  * (J, K)           both densities given, quadrature formulas
  * mean ratio       H = alpha * J   (the F/G/eta quadrature construction)
  * (J, phi)         density plus normal angle
  * (H, phi)         mean density plus normal angle

Each returns a LegendreCurve of order-ORDER_CAP (5) jets, chained
analytically from the defining relations at WORK_ORDER (7) and cut once
(_assemble); a caller who wants fewer coefficients calls .truncated(k).
Every construction works on the jets it holds at the grid nodes and reads
no value between them.  Each integrates the WORK_ORDER jets of its
integrands with the two-point Hermite rule (quadrature.integrated,
through _integrator), which refuses an interval whose jets do not
resolve the integrand and keeps the largest interval estimate in the
report's notes; each holds its prescribed values at t0 itself
(jets.integral).  The gauss ratio solves its linear first-order system
by the same rule: each grid interval's step is a 2x2 matrix Q^-1 P made
from the system's jets from the unit seeds at its two nodes
(_hermite_side), exact for solutions of degree up to 14, and a sweep
scans those steps outward from the seeded nodes in blocks of _RUN, O(n)
2x2 products (_rk4_path).  The seeds are the node nearest the anchor, or
every node within the radius of a Frobenius series at a regular singular
point of the ratio, its coefficients computed from the Laurent jets of
alpha and beta at t0 (expr.eval_laurent); a seed off the nodes reaches
its node through that node's own Taylor polynomials.  Any finite,
strictly increasing grid will do: every rule reads the grid's own steps.
Each touch, where |sin phi| = 1, is located and expanded once
(_angle_jets).
"""

from __future__ import annotations

import math

import numpy as np

from . import expr
from . import jets
from .jets import DIV_TOL, ORDER_CAP, DomainError, Jet, Laurent
from .legendre import (CurveJet, CurvaturePair, LegendreCurve, NormalJet,
                       verify_legendre)
from .quadrature import (ConstructionError, check_finite, checked_grid,
                         evaluated, integrated, nearest_node)

FLIP_TOL = 1e-8          # |sin phi| at a zero of (sin phi)' within this of 1 -> touch
SIN_EXCESS_TOL = 1e-9    # |sin phi| beyond 1 + this -> inconsistent data
COS_TOL = 1e-8           # |cos phi| within this (relative) of 0 -> (H, phi) rejects
SERIES_ORDER = 12        # Frobenius coefficients c_0..c_12; data to twice that
WORK_ORDER = ORDER_CAP + 2   # the jet order every construction computes at
_BLOCK = 4096            # matrices per block of the in-place doubling scan
_RUN = 16                # steps per block of the sweep's scan


class GaussRatioProblem:
    """Data for the K = alpha*J construction.

    x0 is the value x(t0) at an ordinary point, or the leading series
    coefficient at a singular point of alpha; sin_phi0 seeds sin(phi) at
    t0 (ignored, and reported, when the series determines it); cos_sign,
    1 or -1, picks the initial branch of cos(phi).  When sin phi = +-1 at
    a t0 inside the grid, cos_sign holds for t <= t0, the other sign after.
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


def _anchor(grid, t0):
    """The grid as a float array (checked_grid) and the anchor parameter,
    which None puts at the left end of the grid."""
    grid, _ = checked_grid(grid)
    lo, hi = grid[0], grid[-1]
    if t0 is None:
        return grid, float(lo)
    span = hi - lo
    if not lo - 1e-12 * span <= t0 <= hi + 1e-12 * span:   # NaN fails too
        raise ConstructionError(f"t0={t0} lies outside the grid [{lo}, {hi}]")
    return grid, t0


def _integrator(t0, sources):
    """(integral, estimates): integral(f, value, what) is the WORK_ORDER
    antiderivative of the node jets f equal to value at t0
    (quadrature.integrated, which names what it refuses and evaluates the
    sources there), and estimates collects the largest interval estimate
    of each integral taken."""
    estimates = []

    def integral(f, value, what):
        F, worst = integrated(f, t0, value, sources, what)
        estimates.append(worst)
        return F.truncated(WORK_ORDER)

    return integral, estimates


def _with_turns(f):
    """(t, values): the function of the node jets f at the grid nodes and,
    between them, at each zero of f' that jets.zeros locates, read off its
    node's polynomial, in the order of t.  Where f is least between two
    nodes, f' changes sign there, unless it has two zeros in one interval;
    where f' changes sign at no node, the scan is skipped."""
    g, df = f.t, f.differentiated()
    if not np.diff(df.value > 0).any():
        return g, f.value
    turns = [(t, i) for t, i, how in jets.zeros(
        df.coeffs, g, float(np.max(np.diff(g))))
        if how == "located" and g[0] < t < g[-1]]
    t = np.append(g, [t for t, _ in turns])
    v = np.append(f.value, [jets.shift(f.coeffs[:, i], t - g[i], 0)[0]
                            for t, i in turns])
    order = np.argsort(t, kind="stable")
    return t[order], v[order]


def _blocks(span):
    """The slice span of an array cut into blocks of _BLOCK entries."""
    return [slice(lo, min(lo + _BLOCK, span.stop))
            for lo in range(span.start, span.stop, _BLOCK)]


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


def _angle_jets(b_j, anchor, cos_sign, touch, expand, notes):
    """cos(phi) and ell jets from the sin(phi) jets b_j at the grid nodes,
    whose values it clips to [-1, 1] in place.

    |sin phi| is read at the nodes and at the zeros of (sin phi)' that the
    scan below locates between them: beyond 1 + SIN_EXCESS_TOL the data
    are refused as inconsistent.  A touch t* (README) is a zero of
    (sin phi)' (jets.zeros) with |sin phi| >= 1 - FLIP_TOL, past a grid
    end only as far as the end node's series settles.  cos(phi) has sign
    cos_sign at the anchor and flips at each t* strictly inside the grid,
    at the anchor itself if the seed is a touch and t* lies within a grid
    step of it.  Near each t* the jets come from one expansion, of the sin
    phi jet expand(t*, n, at) (at(j): jet j at t*).  A grid end with
    |sin phi| >= 1 - FLIP_TOL and no t*, or a node or turn with it away
    from every expansion, is refused.  Returns (a_j, ell_j, the nodes near
    a touch, the t*).
    """
    g = b_j.t
    a_co = np.empty((WORK_ORDER + 1, g.size))
    ell_co = np.empty((WORK_ORDER, g.size))
    served = np.zeros(g.size, dtype=bool)
    h, span = float(np.max(np.diff(g))), float(g[-1] - g[0])
    db = b_j.differentiated()                    # (sin phi)' in t - t_i
    turns = []   # (t, sin phi) at the zeros of (sin phi)' inside the grid

    def is_touch(t, i, how):   # |sin phi| at t; beyond the grid, as the clip
        col = b_j.coeffs[:, i]
        S = jets.shift(col, t - g[i], 0)[0]
        if how == "located" and g[0] < t < g[-1]:
            turns.append((t, S))
        S0 = abs(S)
        return S0 >= 1.0 - FLIP_TOL and (how != "beyond" or (
            S0 <= 1.0 + SIN_EXCESS_TOL
            and abs(t - g[i]) <= (_settled(col, span, h) or 0.0)))

    found = jets.zeros(db.coeffs, g, h, is_touch)
    t_read = np.append(g, [t for t, _ in turns])
    S_read = np.abs(np.append(b_j.value, [S for _, S in turns]))
    top = float(np.max(S_read))
    if top - 1.0 > SIN_EXCESS_TOL:
        raise ConstructionError(
            f"|sin phi| exceeds 1 by {top - 1.0:.3e}; prescribed data "
            "inconsistent", max_sin=top)
    np.clip(b_j.coeffs[0], -1.0, 1.0, out=b_j.coeffs[0])
    lost = t_read[S_read >= 1.0 - FLIP_TOL]   # expansions excuse their windows
    for ts, i, how in found:
        if how == "unlocated" and ts in (g[0], g[-1]):
            raise ConstructionError(
                f"|sin phi| reaches 1 at the grid end t={ts:.6g}, but "
                f"(sin phi)' = {db.coeffs[0, i]:.3g}: cos phi = 0, ell "
                "unbounded", t=ts)
    flips = [ts for ts, _, _ in found]
    marks = [m for m in (anchor if touch and abs(t - anchor) <= h else t
                         for t in flips) if g[0] < m < g[-1]]
    start = np.searchsorted(marks, anchor)

    def sign(t):
        """cos_sign * (-1)^(number of marks between the anchor and t)."""
        n = np.searchsorted(marks, t) - start
        return np.where(n % 2 == 0, cos_sign, -cos_sign)

    for ts, i, _ in found:
        S = expand(ts, 2 * WORK_ORDER,
                   lambda j: jets.shift(j.coeffs[:, i], ts - g[i], 0)[0])
        S0, S1 = S.rows[:2]
        S = Jet(ts, [math.copysign(1.0, S0), 0.0] + S.rows[2:])
        g2 = Laurent(1.0 - S * S, -2).taylor()    # / (t - t*)^2
        room = min([abs(o - ts) / 2 for o in flips if o != ts] + [span])
        side = 1.0 if ts + room / 4 <= g[-1] else -1.0   # sign after t*:
        after = side * sign(ts + side * room / 4)
        try:   # DomainError: 1 - sin^2 has no double zero at t*
            a = Laurent(after * jets.sqrt(g2), 1).taylor()
            ell = (Laurent(S.differentiated()) / Laurent(a)).taylor()
            w = min(_settled(c.coeffs, room, h) or 0.0 for c in (a, ell))
        except DomainError:
            w = 0.0
        if not w:
            raise ConstructionError(
                f"the expansion at the touch t={ts:.6g} does not settle "
                "beyond a grid step: no simple touch", t=ts)
        near = np.flatnonzero(np.abs(g - ts) <= w)
        lost = lost[np.abs(lost - ts) > w]
        for out, c in ((a_co, a), (ell_co, ell)):
            out[:, near] = jets.shift(c.coeffs, g[near] - ts, len(out) - 1)
        served[near] = True
        notes.setdefault("touches", []).append(
            {"t": ts, "radius": float(w), "nodes": near.tolist(),
             "dropped_radicand": abs(1.0 - S0 * S0), "dropped_slope": abs(S1)})
    if lost.size:   # two zeros of (sin phi)' in one grid interval (README)
        tb = float(np.min(lost))
        raise ConstructionError(f"|sin phi| reaches 1 at t={tb:.6g}, away "
                                "from every located touch", t=tb)
    free = ~served
    b = b_j.at(free)
    sq = evaluated("cos phi", lambda _, r: jets.sqrt(r), "sqrt(1-sin(phi)^2)",
                   1.0 - b * b)
    del b
    a_co[:, free] = sq.coeffs * sign(g[free])
    del sq
    ell_co[:, free] = (db.at(free) / Jet(g[free], a_co[:-1, free])).coeffs
    return (Jet(g, a_co), Jet(g, ell_co), np.flatnonzero(served).tolist(),
            flips)


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


def _unit_jets(beta_j, ab_j):
    """(WORK_ORDER + 1, 2, 2) + t.shape: coefficient k of the jets of
    (x, sin phi) (_system_jets) from the seed (1, 0) in column 0 and from
    (0, 1) in column 1.  The system is linear, so the jets from a seed y
    are these times y."""
    c = np.empty((WORK_ORDER + 1, 2, 2) + beta_j.t.shape)
    for col, seed in enumerate(((1.0, 0.0), (0.0, 1.0))):
        x, S = _system_jets(beta_j, ab_j, *seed, WORK_ORDER)
        c[:, 0, col], c[:, 1, col] = x.coeffs, S.coeffs
    return c


# k W_(k-1), k = 1..WORK_ORDER: the order-(WORK_ORDER - 1) Hermite weights
# on the derivative's coefficients k c_k, moved onto the c_k themselves
_STEP_WEIGHTS = [k * w for k, w in enumerate(
    jets.hermite_weights(WORK_ORDER - 1), 1)]


def _hermite_side(c, h):
    """I + sum_k k W_(k-1) h^k c[k], summed from k = WORK_ORDER down to 1:
    one end's share of a two-point Hermite step of length h, from the
    unit jets c (_unit_jets) at that end.  The step from a to b = a + h is
    Q^-1 P, P = _hermite_side(c(a), h) and Q = _hermite_side(c(b), -h):
    the rule (jets.hermite_weights) integrates the derivative's node jets,
    so the step is exact for solutions of degree up to 2 WORK_ORDER."""
    power = [h]
    for _ in range(WORK_ORDER - 1):
        power.append(power[-1] * h)
    out = (_STEP_WEIGHTS[-1] * power[-1]) * c[WORK_ORDER]
    for k in range(WORK_ORDER - 1, 0, -1):
        out += (_STEP_WEIGHTS[k - 1] * power[k - 1]) * c[k]
    out[0, 0] += 1.0
    out[1, 1] += 1.0
    return out


def _solve2(q, p):
    """q^-1 p of the stacked 2x2 matrices q and p, (2, 2, n) each, by the
    adjugate of q."""
    adj = np.array([[q[1, 1], -q[0, 1]], [-q[1, 0], q[0, 0]]])
    return (np.einsum("ijk,jlk->ilk", adj, p)
            / (q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]))


def _prefix_products(m):
    """Products M_k ... M_1 M_0 of the 2x2 matrices m[:, :, k], in place,
    by Hillis-Steele doubling: log2(n) passes, each over blocks of _BLOCK
    matrices taken from the last one down, so that a block reads only
    entries its pass has not written yet.  Returns m."""
    n = m.shape[-1]
    buf = np.empty(m.shape[:-1] + (min(n, _BLOCK),))
    d = 1
    while d < n:
        for blk in reversed(_blocks(slice(d, n))):
            out = buf[..., :blk.stop - blk.start]
            np.einsum("ijk,jlk->ilk", m[..., blk],
                      m[..., blk.start - d:blk.stop - d], out=out)
            m[..., blk] = out
        d *= 2
    return m


def _rk4_path(t, m, x0, S0):
    """(x, sin phi) at the nodes t, in their order, from (x0, S0) at t[0]:
    the 2x2 matrix m[..., k] carries them from t[k] to t[k + 1].

    The sweep runs in blocks of _RUN steps: the product of each block's
    steps, one pass per step across all blocks; the doubling scan over
    these block totals only (_prefix_products), which carries (x0, S0) to
    each block's start; then the steps from there, again one pass per
    step.  That is O(n) 2x2 products, not n log2 n.  Returns the rows x
    and S, (2, t.size).
    """
    n = t.size - 1
    nb = -(-n // _RUN)
    w = np.empty((2, 2, nb * _RUN))
    w[..., :n] = m
    w[..., n:] = np.eye(2)[..., None]   # the last block's padding
    w = w.reshape(2, 2, nb, _RUN)   # step j of block i: w[..., i, j]
    tot, buf = w[..., 0].copy(), np.empty((2, 2, nb))   # each block's product
    for j in range(1, _RUN):
        np.einsum("ijk,jlk->ilk", w[..., j], tot, out=buf)
        tot, buf = buf, tot
    tot = _prefix_products(tot[..., :-1])   # steps before each later block
    u = np.empty((2, nb))   # (x, S) at each block's start, then after step j
    u[:, :1] = [[x0], [S0]]
    u[:, 1:] = tot[:, 0] * x0 + tot[:, 1] * S0
    path = np.empty((2, nb, _RUN))
    for j in range(_RUN):
        u = np.einsum("ijk,jk->ik", w[..., j], u)
        path[:, :, j] = u
    return np.concatenate([[[x0], [S0]], path.reshape(2, -1)[:, :n]], axis=1)


def _positive_radicand(x2, t, why=""):
    """ConstructionError at the first point of t where the squared axis
    distance x2 is not positive."""
    bad = x2 <= 0.0
    if bad.any():
        tb = t[bad][0]
        raise ConstructionError(
            f"squared axis distance becomes non-positive at t={tb:.6g}{why}",
            t=float(tb))


def _j_jets(rad_j, J_j):
    """The x and beta jets from the squared axis distance and J jets:
    x = sqrt(x^2) and beta = -J/x."""
    x_j = jets.sqrt(rad_j)
    return x_j, -(J_j / x_j)


def _assemble(g, z_j, x_j, a_j, b_j, ell_j, beta_j, report):
    """The curve of the WORK_ORDER jets on the grid g, z's included; fills
    the report's contact and norm residuals from those jets, then cuts
    every jet to ORDER_CAP."""
    c = LegendreCurve(CurveJet(g, x_j, z_j), NormalJet(g, a_j, b_j),
                      curvature=CurvaturePair(g, ell_j, beta_j),
                      flags={"construction": report})
    rep = verify_legendre(c)
    report.contact_residual = rep.max_contact_residual
    report.norm_residual = rep.max_norm_residual
    return c.truncated(ORDER_CAP)


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


def _frobenius_data(p, alpha, g):
    """Series solution x = sum c_k s^(k+r), s = t - t0, of the profile ODE
    s^2 x'' + s P x' + Q x = 0 about t0 (the Frobenius method).

    P = -s*beta'/beta and Q = alpha*beta^2*s^2, from the Laurent jets of
    alpha and beta at t0, are exact Taylor jets of order SERIES_ORDER once
    v(P) >= 0 and v(Q) >= 0 certify a regular singular point.  The series
    region spans at least a quarter of the longer grid step that holds t0
    on each side it covers.  Returns (r, coeffs, delta, notes, beta's
    Laurent jet at t0).
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

    lo, hi = g[0], g[-1]
    # a quarter of the longer grid step that holds t0 (two, at a node)
    t = min(max(t0, lo), hi)
    quarter = 0.25 * float(np.max(np.diff(g)[(g[:-1] <= t) & (t <= g[1:])]))
    left, right = t0 - lo, hi - t0
    two_sided = left > quarter and right > quarter
    room = min(0.6 * (min if two_sided else max)(left, right), 0.5 * (hi - lo))
    delta = _settled(c, 0.9 * room, quarter)
    if delta is None:
        raise ConstructionError(
            "Frobenius series does not settle inside its start radius; "
            "refine the grid near t0 or move t0", t0=t0, room=room)

    notes = {"indicial_root": float(r), "series_order": order_n,
             "series_radius": float(delta), "two_sided": bool(two_sided)}
    return r, c, delta, notes, beta


def profile_from_gauss_ratio(p: GaussRatioProblem, grid) -> LegendreCurve:
    """Order-5 profile whose z-axis revolute satisfies K = alpha * J.

    The axis distance x solves beta*x'' - beta'*x' + alpha*beta^3*x = 0,
    integrated as the first-order system x' = -beta*sinphi,
    (sin phi)' = alpha*beta*x, which is regular wherever alpha and beta
    are; a pole of alpha at t0 is handled by a Frobenius series whose
    leading coefficient is x0 and which determines sin_phi0 itself.

    Both methods seed the grid, then sweep from the seeds to the ends,
    one two-point Hermite step a grid interval (_hermite_side) from the
    system's jets at its two nodes.  RK4 seeds the node nearest t0; the
    series gives every node within its radius of t0 and seeds each sweep
    at its edge point t0 -+ radius.  A seed off the nodes reaches its
    node through the node's own Taylor polynomials (carry).
    """
    g, t0 = _anchor(grid, p.t0)
    alpha = _alpha_expansion(p)
    use_series = alpha is not None and (p.method == "frobenius"
                                        or alpha.valuation() < 0)
    ab = f"({p.alpha})*({p.beta})"
    beta_j = _jet(p.beta, g, WORK_ORDER, "beta")

    x_c, S_c = np.empty(g.size), np.empty(g.size)
    if not use_series:
        method, notes, sin_t0 = "gauss_rk4", {}, p.sin_phi0
        in_c = np.zeros(g.size, dtype=bool)
    else:
        method = "gauss_frobenius"
        r, c, radius, notes, beta0 = _frobenius_data(p, alpha, g)
        rows = np.append(np.zeros(int(r)), c)   # x in powers of t - t0
        in_c = np.abs(g - t0) <= radius
        nodes = np.flatnonzero(in_c)
        x_ser = jets.shift(rows, g[nodes] - t0, WORK_ORDER)
        q = -Laurent(Jet(t0, rows).differentiated()) / beta0
        sin_t0 = q.taylor().value if q.valuation() >= 0 else np.nan
        try:   # sin phi = -x'/beta, a Laurent quotient where beta vanishes
            b_ser = _laurent_quotient(
                -Jet(g[nodes], x_ser).differentiated(),
                beta_j.at(nodes).truncated(WORK_ORDER - 1))
        except DomainError:
            b_ser = np.full((WORK_ORDER, nodes.size), np.nan)
        x_c[nodes], S_c[nodes] = x_ser[0], b_ser[0]
        notes.update(sin_phi0_ignored=True, series_sin_phi0=float(sin_t0),
                     ode_residual_excludes_series_nodes=True)

    # alpha*beta at every node the sweeps read, away from a pole at t0:
    # zeros stand in for it at the series nodes
    ab_co = np.zeros((WORK_ORDER + 1, g.size))
    if (~in_c).any():
        ab_co[:, ~in_c] = _jet(ab, g[~in_c], WORK_ORDER, "alpha*beta").coeffs
    ab_j = Jet(g, ab_co)
    unit = _unit_jets(beta_j, ab_j)
    h = np.diff(g)
    P, Q = _hermite_side(unit[..., :-1], h), _hermite_side(unit[..., 1:], -h)

    def carry(te, k, y):
        """(x, sin phi) y at the point te carried to the node k: y is the
        node's Taylor polynomials of the unit solutions at te times the
        values at the node, solved for those."""
        d, c = te - g[k], unit[..., k]
        T = c[WORK_ORDER]
        for j in range(WORK_ORDER - 1, -1, -1):
            T = T * d + c[j]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _solve2(T[..., None], y.reshape(2, 1, 1))[:, 0, 0]

    if not use_series:   # both sweeps start at the node nearest t0
        i0 = nearest_node(g, t0)
        y = np.array([p.x0, p.sin_phi0])
        if g[i0] != t0:
            y = carry(t0, i0, y)
        sweeps = [(i0, y, -1), (i0, y, 1)]
    else:   # each from the series' edge point, on a side with nodes beyond
        sweeps, ok = [], np.isfinite(sin_t0) and np.isfinite(b_ser[0]).all()
        for way, beyond in ((-1, ~in_c & (g < t0)), (1, ~in_c & (g > t0))):
            if beyond.any():
                te = t0 + way * radius
                x, dx = jets.shift(rows, te - t0, 1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    y = np.array([x, -dx / _jet(p.beta, te, 0, "beta").value])
                ok = ok and np.isfinite(y).all()
                k = np.flatnonzero(beyond)[0 if way > 0 else -1]
                sweeps.append((k, carry(te, k, y), way))
        if not ok:
            raise ConstructionError(
                "sin phi = -x'/beta is not finite inside the series region "
                "(beta vanishes without matching zero of x')", t0=t0)
    for k, y, way in sweeps:   # the left one steps by P^-1 Q, toward t[0]
        side = np.s_[k::-1] if way < 0 else np.s_[k:]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = (_solve2(P[..., :k], Q[..., :k])[..., ::-1] if way < 0
                 else _solve2(Q[..., k:], P[..., k:]))
            x_c[side], S_c[side] = (_rk4_path(g[side], m, *y)
                                    if m.shape[-1] else y)
    del unit, P, Q
    bad = np.flatnonzero(~(np.isfinite(x_c) & np.isfinite(S_c)))
    if bad.size:   # both sweeps run outward: name the node nearest t0
        tb = float(g[bad[np.argmin(np.abs(g[bad] - t0))]])
        raise ConstructionError(
            f"the RK4 sweep overflows: x or sin phi is not finite at "
            f"t={tb:.6g}", t=tb)

    x_j, b_j = _system_jets(beta_j, ab_j, x_c, S_c, WORK_ORDER)
    if in_c.any():   # series nodes: x from the series, sin phi = -x'/beta
        x_j.coeffs[:, nodes] = x_ser
        b_j.coeffs[:, nodes] = 0.0
        b_j.coeffs[:WORK_ORDER, nodes] = b_ser
    integral, estimates = _integrator(t0, (("alpha", p.alpha),
                                           ("beta", p.beta)))
    for f, what in ((b_j, "sin phi"), (x_j, "x")):   # refuse a pole between
        integral(f.differentiated(), 0.0, what)

    def expand(ts, n, at):   # the system's recurrence from x and sin phi
        return _system_jets(_jet(p.beta, ts, n, "beta"), _jet(
            ab, ts, n, "alpha*beta"), at(x_j), at(b_j), n)[1]

    a_j, ell_j, flagged, flips = _angle_jets(
        b_j, t0, p.cos_sign, abs(sin_t0) == 1.0, expand, notes)
    z_j = integral(beta_j * a_j, p.z0, "z")
    notes["quadrature_estimate"] = max(estimates)

    resid = (beta_j.value * x_j.derivative(2)
             - beta_j.derivative(1) * x_j.derivative(1)
             + ab_j.value * beta_j.value * beta_j.value * x_j.value)
    ode_res = float(np.max(np.abs(resid[~in_c]))) if (~in_c).any() else None
    report = ConstructionReport(method, t0, flips=flips,
                                flagged_nodes=flagged, ode_residual=ode_res,
                                notes=notes)
    return _assemble(g, z_j, x_j, a_j, b_j, ell_j, beta_j, report)


# ---------------------------------------------------------------------------
# Prescribed (J, K)
# ---------------------------------------------------------------------------

def profile_from_JK(J: str, K: str, x0: float, grid, t0: float | None = None,
                    sin0: float = 0.0, cos_sign: float = 1.0,
                    z0: float = 0.0) -> LegendreCurve:
    """Order-5 profile whose revolute has curvature densities J and K.

    sin phi is the anchored antiderivative of -K (value sin0 at t0), the
    squared axis distance the anchored antiderivative of 2*J*sin phi
    (value x0^2 at t0, x0 > 0 required), and beta = -J/x; cos_sign, 1 or
    -1, is the sign of cos phi at t0.  When |sin0| = 1 at a t0 inside
    the grid, cos_sign holds for t <= t0 and the other sign after t0.
    All three integrals, z's too, are of node jets.
    """
    _check_seeds(x0, sin0, cos_sign, z0)
    if x0 <= 0:
        raise ConstructionError(f"x0 must be positive, got {x0}")
    g, t0 = _anchor(grid, t0)
    J_j = _jet(J, g, WORK_ORDER, "J")
    K_j = _jet(K, g, WORK_ORDER, "K")
    integral, estimates = _integrator(t0, (("J", J), ("K", K)))
    b_j = integral(-K_j, sin0, "sin phi")

    def expand(ts, n, at):   # the antiderivative of -K through sin phi
        return (-_jet(K, ts, n - 1, "K")).antiderivative(at(b_j))

    notes = {}
    a_j, ell_j, flagged, flips = _angle_jets(
        b_j, t0, cos_sign, abs(sin0) == 1.0, expand, notes)
    rad_j = integral(2.0 * (J_j * b_j), x0 * x0, "x^2")
    _positive_radicand(*_with_turns(rad_j)[::-1],
                       "; x0 anchor incompatible with prescribed (J, K)")
    x_j, beta_j = _j_jets(rad_j, J_j)
    z_j = integral(beta_j * a_j, z0, "z")
    notes["quadrature_estimate"] = max(estimates)
    report = ConstructionReport("jk_quadrature", t0, flips=flips,
                                flagged_nodes=flagged, notes=notes)
    return _assemble(g, z_j, x_j, a_j, b_j, ell_j, beta_j, report)


# ---------------------------------------------------------------------------
# Mean ratio: H = alpha * J
# ---------------------------------------------------------------------------

def profile_from_mean_ratio(p: MeanRatioProblem, grid) -> LegendreCurve:
    """Order-5 profile whose z-axis revolute satisfies H = alpha * J.

    Everything is explicit quadrature of node jets: eta = 2*int(alpha*beta),
    F and G are c1, c2 minus the antiderivatives of beta*cos(eta) and
    beta*sin(eta), the axis distance is sqrt(F^2+G^2), and the normal
    angle comes from (F, G, eta) without any branch ambiguity.
    """
    g, t0 = _anchor(grid, p.t0)
    alpha_j = _jet(p.alpha, g, WORK_ORDER, "alpha")
    beta_j = _jet(p.beta, g, WORK_ORDER, "beta")
    integral, estimates = _integrator(t0, (("alpha", p.alpha),
                                           ("beta", p.beta)))
    eta_j = integral(2.0 * (alpha_j * beta_j), 0.0, "eta")
    se, ce = jets.sin_cos(eta_j)
    F_j = integral(-(beta_j * ce), p.c1, "F")
    G_j = integral(-(beta_j * se), p.c2, "G")
    x2_j = F_j * F_j + G_j * G_j
    t, x2 = _with_turns(x2_j)
    x_s = np.sqrt(np.maximum(x2, 0.0))
    x_min = float(np.min(x_s))
    if x_min <= 1e-12 * (1.0 + float(np.max(x_s))):
        tb = t[int(np.argmin(x_s))]
        raise ConstructionError(
            f"axis distance sqrt(F^2+G^2) vanishes near t={tb:.6g}; "
            "constants (c1, c2) incompatible with beta on this grid",
            t=float(tb))
    x_j = jets.sqrt(x2_j)
    a_j = (F_j * se - G_j * ce) / x_j
    b_j = (F_j * ce + G_j * se) / x_j
    ell_j = -(beta_j * (a_j / x_j + 2.0 * alpha_j))
    z_j = integral(beta_j * a_j, p.z0, "z")

    ratio_resid = float(np.max(np.abs(
        np.atleast_1d((x_j * ell_j + beta_j * a_j).value) / 2.0
        + np.atleast_1d((alpha_j * beta_j * x_j).value))))
    report = ConstructionReport(
        "mean_ratio", t0,
        notes={"mean_identity_residual": ratio_resid, "x_min": x_min,
               "quadrature_estimate": max(estimates)})
    return _assemble(g, z_j, x_j, a_j, b_j, ell_j, beta_j, report)


# ---------------------------------------------------------------------------
# Prescribed (J, phi) and (H, phi)
# ---------------------------------------------------------------------------

def profile_from_J_phi(J: str, phi: str, x0: float, grid,
                       t0: float | None = None,
                       z0: float = 0.0) -> LegendreCurve:
    """Order-5 profile of prescribed J and normal angle phi, x(t0) = x0 > 0.

    x^2 = x0^2 + 2*int(J sin phi) must stay positive at the grid nodes;
    beta = -J/x and z = z0 + int(beta cos phi), both integrals of node
    jets.
    """
    _check_seeds(x0, z0=z0)
    if x0 <= 0:
        raise ConstructionError(f"x0 must be positive, got {x0}")
    g, t0 = _anchor(grid, t0)
    J_j = _jet(J, g, WORK_ORDER, "J")
    phi_j = _jet(phi, g, WORK_ORDER, "phi")
    b_j, a_j = jets.sin_cos(phi_j)
    integral, estimates = _integrator(t0, (("J", J), ("phi", phi)))
    rad_j = integral(2.0 * (J_j * b_j), x0 * x0, "x^2")
    _positive_radicand(*_with_turns(rad_j)[::-1])
    x_j, beta_j = _j_jets(rad_j, J_j)
    z_j = integral(beta_j * a_j, z0, "z")
    report = ConstructionReport(
        "j_phi_quadrature", t0,
        notes={"quadrature_estimate": max(estimates)})
    return _assemble(g, z_j, x_j, a_j, b_j, phi_j.differentiated(),
                     beta_j, report)


def profile_from_H_phi(H: str, phi: str, grid, c_a: float = 0.0,
                       t0: float | None = None,
                       z0: float = 0.0) -> LegendreCurve:
    """Order-5 profile with prescribed mean density H and normal angle phi.

    Requires cos(phi) bounded away from zero at the grid nodes, without a
    sign change between them; c_a shifts the antiderivative A of
    2*H*sin(phi) and thereby scales the axis distance x = -A/cos(phi).
    z = z0 + int(beta cos phi); both integrals are of node jets.
    """
    check_finite(c_a=c_a, z0=z0)
    g, t0 = _anchor(grid, t0)
    H_j = _jet(H, g, WORK_ORDER, "H")
    phi_j = _jet(phi, g, WORK_ORDER, "phi")
    b_j, a_j = jets.sin_cos(phi_j)
    t, cos_t = _with_turns(a_j)
    thr = COS_TOL * (1.0 + float(np.max(np.abs(cos_t))))
    crossings = np.flatnonzero(cos_t[:-1] * cos_t[1:] < 0)
    if np.min(np.abs(cos_t)) <= thr or crossings.size:
        least = int(np.argmin(np.abs(cos_t)))
        tb = t[least if abs(cos_t[least]) <= thr else crossings[0]]
        raise ConstructionError(
            f"cos(phi) vanishes near t={tb:.6g}; the (H, phi) formulas "
            "require a nonvanishing horizontal normal component", t=float(tb))
    integral, estimates = _integrator(t0, (("H", H), ("phi", phi)))
    A_j = integral(2.0 * (H_j * b_j), c_a, "A")
    x_j = -(A_j / a_j)
    dphi_j = phi_j.differentiated()
    beta_j = (2.0 * H_j - dphi_j * x_j) / a_j.truncated(WORK_ORDER - 1)
    z_j = integral(beta_j * a_j, z0, "z")

    report = ConstructionReport(
        "h_phi_quadrature", t0,
        notes={"quadrature_estimate": max(estimates)})
    return _assemble(g, z_j, x_j, a_j, b_j, dphi_j, beta_j, report)
