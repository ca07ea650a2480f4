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
The mean, (J, phi) and (H, phi) constructions integrate the WORK_ORDER
jets of their integrands at the grid nodes with the two-point Hermite
rule (quadrature.integrated, through _integrator), which refuses an
interval whose jets do not resolve the integrand and keeps the largest
interval estimate in the report's notes.  The gauss ratio and (J, K)
read values between the nodes, and their numerical content is lattice
quadrature (16 fine steps per grid step) plus, for the gauss ratio, RK4
sweeps of the first-order system outward from seeded lattice nodes: the
node nearest the anchor, or every node within the radius of a Frobenius
series at a regular singular point of the ratio, its coefficients
computed from the Laurent jets of alpha and beta at t0
(expr.eval_laurent).  Every construction holds its prescribed values at
t0 itself (jets.integral, FineGrid.cumulative_from).  Each lattice array
is released once its values at the grid nodes or its antiderivative are
taken, the RK4 step matrices and the touch expansions fill their arrays
over blocks of _BLOCK samples, and an RK4 sweep scans its steps in blocks
of _RUN, so that a construction holds a few lattice-length arrays at a
time and a sweep costs O(n) 2x2 products (README).  Any finite, strictly
increasing grid will do: RK4, the quadrature and the series region read
the lattice's own steps, the node rule and the touch locator
(jets.zeros) the grid's.  Each touch, where |sin phi| = 1, is located and
expanded once (_angle_jets).
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from . import expr
from . import jets
from .jets import DIV_TOL, ORDER_CAP, DomainError, Jet, Laurent
from .legendre import (CurveJet, CurvaturePair, LegendreCurve, NormalJet,
                       verify_legendre)
from .quadrature import (ConstructionError, FineGrid, check_finite,
                         checked_grid, evaluated, integrated)

FLIP_TOL = 1e-8          # |sin phi| at a zero of (sin phi)' within this of 1 -> touch
SIN_EXCESS_TOL = 1e-9    # |sin phi| beyond 1 + this -> inconsistent data
COS_TOL = 1e-8           # |cos phi| within this (relative) of 0 -> (H, phi) rejects
SERIES_ORDER = 12        # Frobenius coefficients c_0..c_12; data to twice that
WORK_ORDER = ORDER_CAP + 2   # the jet order every construction computes at
_BLOCK = 4096            # lattice samples per block of a blocked lattice pass
_RUN = 16                # RK4 steps per block of the sweep's scan


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


def _lattice(grid, t0):
    """Fine lattice, the fine node nearest the anchor and the anchor
    parameter (_anchor)."""
    grid, t0 = _anchor(grid, t0)
    fg = FineGrid(grid)
    return fg, fg.nearest(t0), t0


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
    """The slice span of a lattice cut into blocks of _BLOCK samples."""
    return [slice(lo, min(lo + _BLOCK, span.stop))
            for lo in range(span.start, span.stop, _BLOCK)]


def _within(s, t, r):
    """The slice of the increasing lattice s where abs(s - t) <= r holds,
    as that array test decides it: s - t rounds monotonically, so the
    samples that pass are consecutive and two bisections find them."""
    nodes = range(s.size)
    lo = bisect.bisect_left(nodes, True, key=lambda k: s[k] - t >= -r)
    hi = bisect.bisect_left(nodes, True, key=lambda k: s[k] - t > r)
    return slice(lo, max(lo, hi))


def _clip_sin(S):
    """Clip sin(phi) on the lattice to [-1, 1] in place; ConstructionError
    where |sin phi| exceeds 1 by more than SIN_EXCESS_TOL."""
    top = max(float(np.max(S)), -float(np.min(S)))
    if top - 1.0 > SIN_EXCESS_TOL:
        raise ConstructionError(
            f"|sin phi| exceeds 1 by {top - 1.0:.3e}; prescribed data "
            "inconsistent", max_sin=top)
    np.clip(S, -1.0, 1.0, out=S)


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


def _angle_jets(fg, b_j, Sc, i0, anchor, cos_sign, touch, expand, notes):
    """cos(phi) and ell jets from the sin(phi) jets b_j at the coarse nodes,
    and cos(phi) on the lattice from its clipped sin(phi) samples Sc.

    A touch t* (README) is a zero of (sin phi)' (jets.zeros) with
    |sin phi| >= 1 - FLIP_TOL, past a grid end only as far as the end
    node's series settles.  cos(phi) has sign cos_sign at the anchor
    (sample i0) and flips at each t* off the lattice's end samples, at the
    anchor if near i0 and the seed is a touch.  Near each t* the jets and
    the lattice cos(phi) come from one expansion, of the sin phi jet
    expand(t*, n, at) (at(j): jet j at t*).  An end, or a sample beyond
    the expansions, with |sin phi| >= 1 - FLIP_TOL and no t* is refused.
    Returns (a_j, ell_j, the nodes near a touch, the t*, lattice cos phi).
    """
    g, s = fg.grid, fg.s
    a_co = np.empty((WORK_ORDER + 1, g.size))
    ell_co = np.empty((WORK_ORDER, g.size))
    served = np.zeros(g.size, dtype=bool)
    h, span = float(np.max(np.diff(g))), float(g[-1] - g[0])
    stars = []
    db = b_j.differentiated()                    # (sin phi)' in t - t_i

    def is_touch(t, i, how):   # |sin phi| at t; beyond the grid, as _clip_sin
        col = b_j.coeffs[:, i]
        S0 = abs(jets.shift(col, t - g[i], 0)[0])
        return S0 >= 1.0 - FLIP_TOL and (how != "beyond" or (
            S0 <= 1.0 + SIN_EXCESS_TOL
            and abs(t - g[i]) <= (_settled(col, span, h) or 0.0)))

    for ts, i, how in jets.zeros(db.coeffs, g, h, is_touch):
        if how == "unlocated" and ts in (g[0], g[-1]):
            raise ConstructionError(
                f"|sin phi| reaches 1 at the grid end t={ts:.6g}, but "
                f"(sin phi)' = {db.coeffs[0, i]:.3g}: cos phi = 0, ell "
                "unbounded", t=ts)
        stars.append((ts, i))
    flips = [ts for ts, _ in stars]
    js = [fg.nearest(t) for t in flips]   # an end sample marks nothing
    marks = [anchor if touch and abs(j - i0) <= 1 else t
             for t, j in zip(flips, js) if 0 < j < s.size - 1]
    start = np.searchsorted(marks, anchor)

    def sign(t):
        """cos_sign * (-1)^(number of marks between the anchor and t)."""
        n = np.searchsorted(marks, t) - start
        return np.where(n % 2 == 0, cos_sign, -cos_sign)

    # lattice samples at a touch
    lost = Sc >= 1.0 - FLIP_TOL
    lost |= Sc <= FLIP_TOL - 1.0
    expansions = []   # (lattice slice, t*, cos phi jet at t*) of each touch
    for ts, i in stars:
        S = expand(ts, 2 * WORK_ORDER,
                   lambda j: jets.shift(j.coeffs[:, i], ts - g[i], 0)[0])
        S0, S1 = S.rows[:2]
        S = Jet(ts, [math.copysign(1.0, S0), 0.0] + S.rows[2:])
        g2 = Laurent(1.0 - S * S, -2).taylor()    # / (t - t*)^2
        room = min([abs(o - ts) / 2 for o in flips if o != ts] + [span])
        side = 1.0 if ts + room / 4 <= s[-1] else -1.0   # sign after t*:
        after = side * sign(s[fg.nearest(ts + side * room / 4)])
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
        fine = _within(s, ts, w)
        expansions.append((fine, ts, a))
        lost[fine] = False
        for out, c in ((a_co, a), (ell_co, ell)):
            out[:, near] = jets.shift(c.coeffs, g[near] - ts, len(out) - 1)
        served[near] = True
        notes.setdefault("touches", []).append(
            {"t": ts, "radius": float(w), "nodes": near.tolist(),
             "dropped_radicand": abs(1.0 - S0 * S0), "dropped_slope": abs(S1)})
    if lost.any():   # two zeros of (sin phi)' in one grid interval (README)
        tb = float(s[lost][0])
        raise ConstructionError(f"|sin phi| reaches 1 at t={tb:.6g}, away "
                                "from every located touch", t=tb)
    del lost
    free = ~served
    b = b_j.at(free)
    sq = evaluated("cos phi", lambda _, r: jets.sqrt(r), "sqrt(1-sin(phi)^2)",
                   1.0 - b * b)
    del b
    a_co[:, free] = sq.coeffs * sign(g[free])
    del sq
    ell_co[:, free] = (db.at(free) / Jet(g[free], a_co[:-1, free])).coeffs

    # cos phi on the lattice, made once the coarse work is done: |cos phi|,
    # its sign flipped past each mark as sign() flips it (the samples
    # between two marks share the sign of the later), and each touch's
    # expansion near it
    C_s = np.multiply(Sc, Sc)
    np.subtract(1.0, C_s, out=C_s)
    np.maximum(C_s, 0.0, out=C_s)
    np.sqrt(C_s, out=C_s)
    ends = np.searchsorted(s, marks, side="right").tolist()
    for lo, hi, m in zip([0] + ends, ends + [s.size], marks + [math.inf]):
        if sign(m) < 0:
            np.multiply(-1.0, C_s[lo:hi], out=C_s[lo:hi])
    for fine, ts, a in expansions:
        for blk in _blocks(fine):
            C_s[blk] = jets.shift(a.coeffs, s[blk] - ts, 0)[0]
    return (Jet(g, a_co), Jet(g, ell_co), np.flatnonzero(served).tolist(),
            flips, C_s)


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


def _rk4_matrices(m, p0, q0, pm, qm, p1, q1, h):
    """Fill m (2, 2, ...) with the classical RK4 steps of x' = -p S,
    S' = q x, from (p, q) at the step's start, midpoint and end and its
    length h.  A = [[0, -p], [q, 0]] squares to -p q I, so the step
    I + h/6 (A0 + 4 Am + A1) + h^2/6 (Am A0 + Am^2 + A1 Am)
    + h^3/12 (Am^2 A0 + A1 Am^2) + h^4/24 A1 Am^2 A0 has the closed form
    below, with c = pm qm and v = h^2 c / 2.  Returns m."""
    c = pm * qm
    e, g = h * h, h / 6.0
    v = e * c
    v *= 0.5
    e /= 6.0
    d = 0.5 * v
    m[0, 0] = 1.0 - e * (pm * q0 + c + p1 * qm - d * p1 * q0)
    m[1, 1] = 1.0 - e * (qm * p0 + c + q1 * pm - d * q1 * p0)
    v -= 1.0
    m[0, 1] = g * (v * (p0 + p1) - 4.0 * pm)
    m[1, 0] = g * (4.0 * qm - v * (q0 + q1))
    return m


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


def _rk4_path(s, f_node, f_mid, x0, S0):
    """Integrate x' = -beta(t)*S, S' = (alpha*beta)(t)*x along the lattice
    s from (x0, S0) at s[0].

    f_node and f_mid hold (beta, alpha*beta) at the nodes and interval
    midpoints, in the order of s.  Each interval takes its own step, so a
    reversed lattice (negative steps) integrates toward smaller t.  The
    system is linear, so an RK4 step is a 2x2 matrix (_rk4_matrices), and
    the sweep runs in blocks of _RUN steps, one grid interval from a grid
    node: the product of each block's steps, one pass per step across all
    blocks; the doubling scan over these block totals only, which carries
    (x0, S0) to each block's start; then the steps from there, again one
    pass per step.  That is O(n) 2x2 products, not n log2 n.  Returns the
    rows x and S at every node of s, a view of one (2, 2, n) array.
    """
    (b, a), (b_mid, a_mid) = f_node, f_mid
    n = s.size - 1
    nb = -(-n // _RUN)
    m = np.empty((2, 2, 1 + nb * _RUN))   # column k + 1 holds step k
    for blk in _blocks(slice(0, n)):
        nxt = slice(blk.start + 1, blk.stop + 1)
        _rk4_matrices(m[..., nxt], b[blk], a[blk], b_mid[blk], a_mid[blk],
                      b[nxt], a[nxt], np.diff(s[blk.start:blk.stop + 1]))
    m[..., n + 1:] = np.eye(2)[..., None]   # the last block's padding
    w = m[..., 1:].reshape(2, 2, nb, _RUN)   # step j of block i: w[..., i, j]
    tot, buf = w[..., 0].copy(), np.empty((2, 2, nb))   # each block's product
    for j in range(1, _RUN):
        np.einsum("ijk,jlk->ilk", w[..., j], tot, out=buf)
        tot, buf = buf, tot
    tot = _prefix_products(tot[..., :-1])   # steps before each later block
    u, v = np.empty((2, nb)), np.empty((2, nb))   # (x, S) at each block's start
    u[:, :1] = [[x0], [S0]]
    u[:, 1:] = tot[:, 0] * x0 + tot[:, 1] * S0
    for j in range(_RUN):
        np.einsum("ijk,jk->ik", w[..., j], u, out=v)
        w[:, 0, :, j] = v
        u, v = v, u
    m[:, 0, 0] = x0, S0
    return m[:, 0, :n + 1]


def _positive_radicand(x2, t, why=""):
    """ConstructionError at the first sample of t where the squared axis
    distance x2 is not positive."""
    bad = x2 <= 0.0
    if bad.any():
        tb = t[bad][0]
        raise ConstructionError(
            f"squared axis distance becomes non-positive at t={tb:.6g}{why}",
            t=float(tb))


def _j_lattice(fg, t0, x0, z0, J_s, sin_s, cos_s, why=""):
    """Squared axis distance and z at the grid nodes from prescribed J and
    the normal angle phi on the lattice.

    x^2 = x0^2 + 2*int(J sin phi) must stay positive; beta = -J/x and
    z = z0 + int(beta cos phi).  Returns (x^2, z) at the grid nodes.
    """
    x2_s = x0 * x0 + 2.0 * fg.cumulative_from(J_s * sin_s, t0, 0.0)
    _positive_radicand(x2_s, fg.s, why)
    z_s = fg.cumulative_from(-J_s / np.sqrt(x2_s) * cos_s, t0, z0)
    return fg.at_coarse(x2_s), fg.at_coarse(z_s)


def _j_jets(rad_j, J_j):
    """The x and beta jets from the squared axis distance and J jets by
    the relations of _j_lattice."""
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
    # the larger fine step beside node i0: of fine intervals i0 - 1 and i0
    k = fg.refine
    step = float(np.max(fg.step[max(i0 - 1, 0) // k:
                                min(i0, fg.s.size - 2) // k + 1]))
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


def profile_from_gauss_ratio(p: GaussRatioProblem, grid) -> LegendreCurve:
    """Order-5 profile whose z-axis revolute satisfies K = alpha * J.

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
    fg, i0, t0 = _lattice(grid, p.t0)
    g, s = fg.grid, fg.s
    alpha = _alpha_expansion(p)
    use_series = alpha is not None and (p.method == "frobenius"
                                        or alpha.valuation() < 0)

    beta_s = _values(p.beta, s, "beta")
    beta_m = _values(p.beta, 0.5 * (s[:-1] + s[1:]), "beta")   # midpoints
    ab = f"({p.alpha})*({p.beta})"

    def ab_values(t, beta_t):
        """alpha*beta at t as alpha's values times beta's, beta_t: the bits
        of the text ab, which a failure of alpha names."""
        return evaluated("alpha*beta",
                         lambda _, t: expr.eval_values(p.alpha, t) * beta_t,
                         ab, t)

    # sin phi is kept on the lattice; x at the grid nodes, with whether it
    # is finite on the lattice, and at the seeded nodes the sweeps start from
    S_s, x_c = np.empty(s.size), np.empty(g.size)
    x_ok = np.empty(s.size, dtype=bool)

    def keep_x(lo, x):
        """Record x, given at the lattice samples lo, lo + 1, ..."""
        hi = lo + x.size
        np.isfinite(x, out=x_ok[lo:hi])
        k = slice(-(-lo // fg.refine), (hi - 1) // fg.refine + 1)
        x_c[k] = x[fg.coarse_index[k] - lo]

    if not use_series:
        method, notes, radius, sin_t0 = "gauss_rk4", {}, -np.inf, p.sin_phi0
        iL = iR = i0
        x_i0, S_s[i0] = p.x0, p.sin_phi0
        if s[i0] != t0:   # carry the seed from t0 to its node
            ts = np.array([t0, 0.5 * (t0 + s[i0]), s[i0]])
            bv = _values(p.beta, ts, "beta")
            av = ab_values(ts, bv)
            step = _rk4_matrices(np.empty((2, 2)), bv[0], av[0], bv[1],
                                 av[1], bv[2], av[2], s[i0] - t0)
            x_i0, S_s[i0] = step[:, 0] * p.x0 + step[:, 1] * p.sin_phi0
        seed_x = {i0: x_i0}
    else:
        method = "gauss_frobenius"
        r, c, radius, notes, beta0 = _frobenius_data(p, alpha, fg, i0)
        rows = np.append(np.zeros(int(r)), c)   # x in powers of t - t0
        near = _within(s, t0, radius)   # holds i0
        iL, iR = near.start, near.stop - 1
        for blk in _blocks(near):
            x, dx = jets.shift(rows, s[blk] - t0, 1)
            keep_x(blk.start, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                S_s[blk] = -dx / beta_s[blk]
        ends = jets.shift(rows, s[[iL, iR, i0]] - t0, 1)
        seed_x, dx0 = {iL: ends[0, 0], iR: ends[0, 1]}, ends[1, 2]
        if s[i0] == t0 and abs(beta_s[i0]) < DIV_TOL * (1 + abs(dx0)):
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

    def sweep(nodes, mids, way, seed):
        """RK4 over the lattice nodes, in the order way, from the seeded
        node seed; its arrays die with the call."""
        t = s[nodes]
        b, b_mid = beta_s[nodes], beta_m[mids]
        f_node = (b[way], ab_values(t, b)[way])
        f_mid = (b_mid[way], ab_values(0.5 * (t[:-1] + t[1:]), b_mid)[way])
        S = S_s[nodes][way]
        with np.errstate(over="ignore", invalid="ignore"):
            x, S[:] = _rk4_path(t[way], f_node, f_mid, seed_x[seed], S[0])
        keep_x(nodes.start, x[way])

    # sweep from the seeded nodes to both ends, the left one over the
    # reversed lattice; alpha*beta is evaluated only here, away from a
    # pole at t0
    for nodes, mids, way, seed in (
            (slice(0, iL + 1), slice(0, iL), np.s_[::-1], iL),
            (slice(iR, s.size), slice(iR, s.size - 1), np.s_[:], iR)):
        if nodes.stop - nodes.start > 1:
            sweep(nodes, mids, way, seed)
    del beta_m
    bad = np.flatnonzero(~(x_ok & np.isfinite(S_s)))
    if bad.size:   # both sweeps run outward: name the node nearest t0
        tb = float(s[bad[np.argmin(np.abs(s[bad] - t0))]])
        raise ConstructionError(
            f"the RK4 sweep overflows: x or sin phi is not finite at "
            f"t={tb:.6g}", t=tb)

    del x_ok
    _clip_sin(S_s)

    beta_j = _jet(p.beta, g, WORK_ORDER, "beta")
    # coarse nodes inside the series radius (none for RK4); alpha may have
    # its pole among them, so zeros stand in for alpha*beta there
    in_c = np.abs(g - t0) <= radius
    ab_co = np.zeros((WORK_ORDER + 1, g.size))
    if (~in_c).any():
        ab_co[:, ~in_c] = _jet(ab, g[~in_c], WORK_ORDER, "alpha*beta").coeffs
    ab_j = Jet(g, ab_co)
    x_j, b_j = _system_jets(beta_j, ab_j, x_c, fg.at_coarse(S_s), WORK_ORDER)
    if in_c.any():   # series nodes: x from the series, sin phi = -x'/beta
        nodes = np.flatnonzero(in_c)
        x_j.coeffs[:, nodes] = jets.shift(rows, g[nodes] - t0, WORK_ORDER)
        b_j.coeffs[:, nodes] = 0.0
        b_j.coeffs[:WORK_ORDER, nodes] = _laurent_quotient(
            -x_j.at(nodes).differentiated(),
            beta_j.at(nodes).truncated(WORK_ORDER - 1))

    def expand(ts, n, at):   # the system's recurrence from x and sin phi
        return _system_jets(_jet(p.beta, ts, n, "beta"), _jet(
            ab, ts, n, "alpha*beta"), at(x_j), at(b_j), n)[1]

    a_j, ell_j, flagged, flips, C_s = _angle_jets(
        fg, b_j, S_s, i0, t0, p.cos_sign, abs(sin_t0) == 1.0, expand, notes)
    del S_s
    beta_cos = np.multiply(beta_s, C_s, out=C_s)
    del beta_s, C_s
    z_c = fg.at_coarse(fg.cumulative_from(beta_cos, t0, p.z0))
    del beta_cos

    resid = (beta_j.value * x_j.derivative(2)
             - beta_j.derivative(1) * x_j.derivative(1)
             + ab_j.value * beta_j.value * beta_j.value * x_j.value)
    ode_res = float(np.max(np.abs(resid[~in_c]))) if (~in_c).any() else None
    report = ConstructionReport(method, t0, flips=flips,
                                flagged_nodes=flagged, ode_residual=ode_res,
                                notes=notes)
    z_j = (beta_j * a_j).antiderivative(z_c)
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
    """
    _check_seeds(x0, sin0, cos_sign, z0)
    if x0 <= 0:
        raise ConstructionError(f"x0 must be positive, got {x0}")
    fg, i0, t0 = _lattice(grid, t0)
    g, s = fg.grid, fg.s
    J_s = _values(J, s, "J")
    S_s = fg.cumulative_from(_values(K, s, "K"), t0, 0.0)
    S_c = fg.at_coarse(np.subtract(sin0, S_s, out=S_s))
    _clip_sin(S_s)
    b_j = (-_jet(K, g, WORK_ORDER, "K")).antiderivative(S_c)
    b_j = b_j.truncated(WORK_ORDER)

    def expand(ts, n, at):   # the antiderivative of -K through sin phi
        return (-_jet(K, ts, n - 1, "K")).antiderivative(at(b_j))

    notes = {}
    a_j, ell_j, flagged, flips, C_s = _angle_jets(
        fg, b_j, S_s, i0, t0, cos_sign, abs(sin0) == 1.0, expand, notes)
    x2_c, z_c = _j_lattice(fg, t0, x0, z0, J_s, S_s, C_s,
                           "; x0 anchor incompatible with prescribed (J, K)")
    del J_s, S_s, C_s
    J_j = _jet(J, g, WORK_ORDER, "J")
    rad_j = (2.0 * (J_j * b_j)).antiderivative(x2_c).truncated(WORK_ORDER)
    x_j, beta_j = _j_jets(rad_j, J_j)
    report = ConstructionReport("jk_quadrature", t0, flips=flips,
                                flagged_nodes=flagged, notes=notes)
    z_j = (beta_j * a_j).antiderivative(z_c)
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
