"""Surfaces of revolution of planar frontals.

The profile lives in the (x, z) plane as a Legendre curve (gamma, nu) with
gamma = (x, z) and nu = (a, b).  Rotating about the z-axis or the x-axis
produces a framed surface whose frame and invariants have closed forms in
the profile data; singular profile points sweep out singular circles (or
hit the axis) on the surface.

Both axes share one set of formulas, written for the axis-adapted profile:
radius r, height h, normal (n_r, n_h), turning density k and speed beta,
which obey r' = -beta n_h, h' = beta n_r, n_r' = -k n_h, n_h' = k n_r.
About z, (r, h, n_r, n_h, k) = (x, z, a, b, ell).  About x, (r, h, n_r,
n_h) = (z, x, -b, -a) and ell reverses sign, k = -ell.  The invariants
depend on t alone, so a revolute holds them as (n_t, 1) columns at the
meridian theta = 0, and revolution_curvature returns its FSCurvature
fields as 1-D arrays over t.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .framed import (BasicInvariants, FramedSurfaceGrid, FSCurvature,
                     curvature_of, parallel_surface)
from .jets import DomainError, Jet, Laurent, newton, shift
from .legendre import (LegendreCurve, NormalJet, curvature_pair_of,
                       parallel_curve, plane_evolute)
from .quadrature import check_finite, check_tol, nearest_node

VALID_AXES = ("z", "x")
_INVARIANTS = ("a1", "b1", "a2", "b2", "e1", "f1", "g1", "e2", "f2", "g2")

# Per axis: where the (r cos, r sin, h) components of a revolved vector go
# in space, and the sign and profile name that give n_r and k in the
# profile's own terms: (n_r, k) = sign * (that component of nu, ell).
_AXES = {"z": ((0, 1, 2), 1.0, "a"), "x": ((2, 0, 1), -1.0, "b")}

# Each grid field as a recipe over the axis-adapted profile columns of
# revolve: meridian(f, g) is f (cos, sin) in the radial plane plus g along
# the axis, turned(f) is the theta-derivative of f (cos, sin), and zero is
# the zero field.  s = turned(-1) = (sin, -cos, 0) and s_v = meridian(1, 0).
_FIELDS = {
    "x": ("meridian", "r", "h"), "n": ("meridian", "n_r", "n_h"),
    "s": ("turned", "minus_one"),
    "x_u": ("meridian", "r_t", "h_t"), "x_v": ("turned", "r"),
    "n_u": ("meridian", "n_r_t", "n_h_t"), "n_v": ("turned", "n_r"),
    "s_u": ("zero",), "s_v": ("meridian", "one", "zero"),
    "x_uv": ("turned", "r_t"), "n_uv": ("turned", "n_r_t"), "s_uv": ("zero",),
}

# Rings per block when validate() and parallel_commutation_check build
# the frame fields.
_RINGS = 64


class RevolutionSurface:
    """A revolved profile, held as its axis-adapted columns and theta.

    Every grid field is an outer product of profile columns with cos theta
    or sin theta, both read from one exactly symmetric table (_cos_sin), so
    the fields are built when read: ring_table(i0, i1)
    gives the positions of a block of rings, each distinct magnitude once
    plus a sign per coordinate, validate() checks the frame one block of
    rings at a time, and grid is the whole FramedSurfaceGrid, each field
    built on first read and kept.
    invariants holds the ten invariants and their cross derivatives as
    (n_t, 1) columns: the meridian theta = 0, with v = [0.0], since every
    meridian has the same values.
    """

    def __init__(self, axis: str, profile: LegendreCurve, theta: np.ndarray,
                 invariants: BasicInvariants, columns: dict):
        self.axis, self.profile, self.theta = axis, profile, theta
        self.invariants, self.columns = invariants, columns

    def _field(self, name: str, i0: int, i1: int) -> np.ndarray:
        """Rows i0:i1 of the grid field name, shape (rows, n_theta, 3)."""
        recipe, *names = _FIELDS[name]
        cols = [self.columns[k][i0:i1] for k in names]
        ct, st = self._cos_sin
        outer = np.multiply.outer
        if recipe == "meridian":
            f, g = cols
            comps = (outer(f, ct), outer(f, st), outer(g, np.ones(ct.size)))
        else:
            zero = np.zeros((self.columns["t"][i0:i1].size, ct.size))
            comps = (zero, zero, zero)
            if recipe == "turned":
                f, = cols
                comps = (-outer(f, st), outer(f, ct), zero)
        return np.stack([comps[k] for k in _AXES[self.axis][0]], axis=-1)

    def ring_table(self, i0: int, i1: int):
        """Positions of the rings i0:i1 as magnitudes, a gather order and
        signs.

        Each coordinate of a position is h or r times one of the cos theta_j
        and sin theta_j.  values, shape (rings, m + 1), holds |r| * mult for
        each of the m distinct multiplier magnitudes mult (distinct as bits),
        then |h|.  values[:, order], shape (rings, 3 * n_theta), is the
        magnitude of each coordinate and neg, of the same shape, its sign:
        sign(r) XOR sign(multiplier), or sign(h).  IEEE multiplication
        rounds |r| * |m| as it rounds r * m, so the coordinates are
        values[:, order] negated where neg, bit for bit as field x gives
        them, 0.0 and -0.0 included.  neg is False where the coordinate is
        NaN, which "%.17g" prints without a sign.
        """
        mult, order, is_h, sign = self._ring_slots
        r, h = self.columns["r"][i0:i1], self.columns["h"][i0:i1]
        values = np.column_stack([np.multiply.outer(np.abs(r), mult),
                                  np.abs(h)])
        neg = np.column_stack([np.signbit(r), np.signbit(h)])[:, is_h] ^ sign
        neg &= ~np.isnan(values)[:, order]
        return values, order, neg

    @cached_property
    def _cos_sin(self):
        """cos theta_j and sin theta_j, the one table the fields and
        ring_table read.

        The mirrors of the plane at pi/4 (when 4 | n_theta), at pi/2 (when
        2 | n_theta) and at pi map grid angles to grid angles.  Taken in
        that order, each copies the half of the arc [0, 2 pi / d] below
        its axis onto the half above, so the first sector, [0, pi/4],
        [0, pi/2] or [0, pi], gives every value: np.cos and np.sin of
        theta there, and sqrt(1/2) correctly rounded for both at pi/4.
        The table is then exactly symmetric, each value as close to the
        exact circle as its sector value, and every zero is +0.0.
        """
        n = self.theta.size
        c, s = np.cos(self.theta), np.sin(self.theta)
        if n % 8 == 0:
            c[n // 8] = s[n // 8] = np.sqrt(0.5)
        for d in (4, 2, 1):
            if n % d == 0:
                p = n // d      # the mirror at pi / d fixes theta_(p/2)
                j = np.arange(p // 2 + 1, min(p, n - 1) + 1)
                cj, sj = c[p - j], s[p - j]
                c[j], s[j] = {4: (sj, cj), 2: (-cj, sj), 1: (cj, -sj)}[d]
        return c, s

    @cached_property
    def _ring_slots(self):
        """What ring_table reads from theta: the distinct magnitudes mult of
        the cos theta_j and sin theta_j (33 at n_theta = 128), and per slot
        3j + c, component c of vertex j, its column of values, whether it
        is h, and the sign of its multiplier."""
        n = self.theta.size
        cs = np.concatenate(self._cos_sin)
        bits, inverse = np.unique(np.abs(cs).view(np.int64),
                                  return_inverse=True)
        # the components (r cos theta_j, r sin theta_j, h) in the axis's
        # order in space
        slot = np.arange(3 * n).reshape(3, n)[list(_AXES[self.axis][0])]
        slot = slot.T.ravel()
        order = np.concatenate([inverse, [bits.size] * n])[slot]
        is_h = (slot >= 2 * n).astype(np.intp)
        sign = np.concatenate([np.signbit(cs), np.zeros(n, bool)])[slot]
        return bits.view(np.float64), order, is_h, sign

    def _blocks(self):
        """The grid as _RevolvedGrid blocks of _RINGS rings each."""
        for i in range(0, self.columns["t"].size, _RINGS):
            yield _RevolvedGrid(self, i, i + _RINGS)

    @cached_property
    def grid(self) -> FramedSurfaceGrid:
        return _RevolvedGrid(self, 0, self.columns["t"].size)

    def validate(self, tol: float = 1e-8) -> dict:
        """FramedSurfaceGrid.validate, one block of rings at a time.

        Each residual is the max over the blocks, so the dict is the one
        the whole grid gives.
        """
        blocks = [block.validate(tol) for block in self._blocks()]
        res = {key: float(np.max([b[key] for b in blocks]))
               for key in blocks[0] if key != "passed"}
        res["passed"] = all(b["passed"] for b in blocks)
        return res


class _RevolvedGrid(FramedSurfaceGrid):
    """Rings i0:i1 of a revolved surface as a FramedSurfaceGrid.

    Each field is built from the surface's profile columns when first read
    and kept; the others are never built.
    """

    def __init__(self, surface: RevolutionSurface, i0: int, i1: int):
        self.u = surface.columns["t"][i0:i1]
        self.v = surface.theta
        self._rings = (surface, i0, i1)

    def __getattr__(self, name):
        if name not in _FIELDS:
            raise AttributeError(name)
        surface, i0, i1 = self._rings
        value = self.__dict__[name] = surface._field(name, i0, i1)
        return value


class FrontStatus:
    def __init__(self, is_front: bool, failures: list):
        self.is_front, self.failures = is_front, failures


def _adapted(c: LegendreCurve, axis: str):
    """The profile about axis as (t, r, h, n_r, n_h, k, beta)."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {VALID_AXES}, got {axis!r}")
    x, z = c.curve.x.value, c.curve.z.value
    a, b = c.normal.a.value, c.normal.b.value
    pair = curvature_pair_of(c)
    ell, beta = pair.ell.value, pair.beta.value
    if axis == "z":
        return c.curve.t, x, z, a, b, ell, beta
    return c.curve.t, z, x, -b, -a, -ell, beta


def _t_derivatives(n_r, n_h, k, beta):
    """(r', h', n_r', n_h') from the structure equations."""
    return -beta * n_h, beta * n_r, -k * n_h, k * n_r


def revolve(c: LegendreCurve, axis: str = "z", n_theta: int = 128) -> RevolutionSurface:
    """Rotate the profile about the chosen axis.

    The angular grid covers [0, 2*pi) half-open with n_theta >= 8 samples;
    meshing utilities re-add the seam.  The surface keeps the axis-adapted
    profile columns and builds its grid fields, exact partials and mixed
    partials included, when they are read (see RevolutionSurface).  The
    invariants are (n_t, 1) columns in closed form, with the exact cross
    derivatives the integrability check reads.
    """
    t, r, h, n_r, n_h, k, beta = _adapted(c, axis)
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    r_t, h_t, n_r_t, n_h_t = _t_derivatives(n_r, n_h, k, beta)
    ones = np.ones(t.size)
    columns = {"t": t, "r": r, "h": h, "n_r": n_r, "n_h": n_h,
               "r_t": r_t, "h_t": h_t, "n_r_t": n_r_t, "n_h_t": n_h_t,
               "one": ones, "minus_one": -ones, "zero": np.zeros(t.size)}
    zero = np.zeros((t.size, 1))
    inv = BasicInvariants(
        u=t, v=np.zeros(1),
        a1=zero, b1=-beta[:, None], a2=-r[:, None], b2=zero,
        e1=zero, f1=-k[:, None], g1=zero,
        e2=-n_r[:, None], f2=zero, g2=n_h[:, None],
        cross={"a1_v": zero, "a2_u": -r_t[:, None],
               "b1_v": zero, "b2_u": zero,
               "e1_v": zero, "e2_u": -n_r_t[:, None],
               "f1_v": zero, "f2_u": zero,
               "g1_v": zero, "g2_u": n_h_t[:, None]},
    )
    return RevolutionSurface(axis=axis, profile=c, theta=theta,
                             invariants=inv, columns=columns)


def revolution_curvature(c: LegendreCurve, axis: str = "z") -> FSCurvature:
    """J, K, H and the other determinants of the revolved surface.

    Each determinant is the 1-D array over the profile parameter u = t.
    """
    C = vars(curvature_of(revolve(c, axis).invariants))
    return FSCurvature(**{key: val if key in ("u", "v") else val[:, 0]
                          for key, val in C.items()})


def frontal_front_status(c: LegendreCurve, axis: str = "z",
                         tol: float = 1e-8) -> FrontStatus:
    """Whether the revolved frontal is a front, with witnesses when not.

    The surface is a front wherever (k, n_r) do not both vanish, that is
    (ell, a) about the z-axis and (ell, b) about the x-axis.  Nodes where
    both vanish are returned with the offending values in those names.
    """
    check_tol(tol)
    t, r, h, n_r, n_h, k, beta = _adapted(c, axis)
    _, sign, name = _AXES[axis]
    scale_l = tol * (1.0 + np.max(np.abs(k)))
    scale_p = tol * (1.0 + np.max(np.abs(n_r)))
    bad = (np.abs(k) <= scale_l) & (np.abs(n_r) <= scale_p)
    failures = [
        {"index": int(i), "t": float(t[i]), "ell": sign * float(k[i]),
         name: sign * float(n_r[i])}
        for i in np.flatnonzero(bad)
    ]
    return FrontStatus(is_front=not failures, failures=failures)


class ConeTypeReport:
    def __init__(self, is_cone_type: bool, values: dict):
        self.is_cone_type, self.values = is_cone_type, values


def cone_type_check(c: LegendreCurve, t0: float, axis: str = "z",
                    tol: float = 1e-8) -> ConeTypeReport:
    """Cone-point test at a parameter where the profile meets the axis.

    The revolved surface degenerates to a cone-type point at t0 when the
    distance to the axis vanishes there while beta and both normal
    components stay away from zero.
    """
    check_tol(tol)
    t, r, h, n_r, n_h, k, beta = _adapted(c, axis)
    i = nearest_node(t, t0)
    vals = {"t": float(t[i]), "axis_distance": float(r[i]),
            "beta": float(beta[i]), "a": float(c.normal.a.value[i]),
            "b": float(c.normal.b.value[i])}
    ok = (abs(vals["axis_distance"]) <= tol * (1.0 + np.max(np.abs(r)))
          and abs(vals["beta"]) > tol and abs(vals["a"]) > tol
          and abs(vals["b"]) > tol)
    return ConeTypeReport(is_cone_type=bool(ok), values=vals)


class EvoluteBundle:
    """The two focal loci of the z-axis revolved surface.

    first_profile is the planar evolute of the profile, promoted to a
    Legendre curve with the rotated normal, and first_surface its
    revolution (needs ell nonzero on the grid and jets of order >= 1).
    axis_curve is the locus on the rotation axis, z - x b / a: where a
    vanishes it is the Laurent quotient read at the zero of a
    (revolution_evolutes); axis_flags marks where it has a pole.
    Unavailable pieces are None with the reason in diagnostics.
    """

    def __init__(self, first_profile: LegendreCurve | None,
                 first_surface: RevolutionSurface | None,
                 axis_curve: np.ndarray | None, axis_flags: np.ndarray | None,
                 diagnostics: dict):
        self.first_profile, self.first_surface = first_profile, first_surface
        self.axis_curve, self.axis_flags = axis_curve, axis_flags
        self.diagnostics = diagnostics


def _quotient_at_zero(num, den, h, thr):
    """num / den at the node of these scalar-base jets, where den's value
    counts as zero: both re-expanded (jets.shift) at the zero d of den that
    jets.newton finds from the node (else the node itself), divided by the
    jets.Laurent rule with num's value there counted as zero when at most
    thr, and the quotient shifted back to the node.  DomainError at a pole.
    (jets.zeros on this one node, both its grid ends, would run it twice.)"""
    d = newton(den.rows, 0.0, 0.0, h) or 0.0   # None -> 0.0; no -0.0 arises
    n, m = (shift(j.rows, d, j.order) for j in (num, den))
    n[0], m[0] = (0.0 if abs(n[0]) <= thr else n[0]), 0.0
    q = Laurent(Jet(den.t + d, n)) / Laurent(Jet(den.t + d, m))
    return shift(q.taylor().rows, -d, 0)[0]


def revolution_evolutes(c: LegendreCurve, n_theta: int = 128,
                        tol: float = 1e-8) -> EvoluteBundle:
    """Both evolutes of the z-axis revolute of the profile.

    The axis locus is z - x b / a.  Where a vanishes, |a| <= tol (1 +
    max|a|), x b / a is the Laurent quotient read at the zero of a's jet
    and shifted back to the node, with x b's value there counted as zero
    when |x b| <= tol (1 + max|x b|) (_quotient_at_zero).  Order-0 jets
    take their first derivatives from the structure equations.  A node
    where that quotient has a pole is flagged and holds 0.0.
    """
    check_tol(tol)
    t, x, z, a, b, ell, beta = _adapted(c, "z")
    diagnostics = {}
    first = first_surface = None
    thr_l = tol * (1.0 + float(np.max(np.abs(ell))))
    ev = plane_evolute(c, tol=tol) if np.all(np.abs(ell) > thr_l) else None
    if ev is None:
        i = int(np.argmin(np.abs(ell)))
        diagnostics["first"] = (f"profile turning density vanishes near "
                                f"t={t[i]:.6g}; first evolute unavailable")
    elif min(ev.x.order, ev.z.order) < 1:
        diagnostics["first"] = ("evolute jets of order 0, its revolute needs "
                                "their derivatives; first evolute unavailable")
    else:
        # the evolute's tangent is along nu, so its unit normal is the
        # rotated profile normal mu = (-b, a)
        mu = NormalJet(c.normal.t, -c.normal.b, c.normal.a)
        first = LegendreCurve(ev, mu)
        first_surface = revolve(first, axis="z", n_theta=n_theta)

    thr_r = tol * (1.0 + float(np.max(np.abs(a))))
    good = np.abs(a) > thr_r
    axis_curve = axis_flags = None
    if good.any():
        axis_vals = z - x * b / np.where(good, a, 1.0)
        axis_flags = ~good
        jx, ja, jb = c.curve.x, c.normal.a, c.normal.b
        if min(j.order for j in (jx, ja, jb)) == 0:
            # values only: x', a', b' from the structure equations
            x_t, _, a_t, b_t = _t_derivatives(a, b, ell, beta)
            jx, ja, jb = (Jet(t, [v, v_t]) for v, v_t in
                          zip((x, a, b), (x_t, a_t, b_t)))
        thr_xb = tol * (1.0 + float(np.max(np.abs(x * b))))
        h = float(np.max(np.diff(t)))
        for i in np.flatnonzero(axis_flags):
            try:
                q = _quotient_at_zero(jx.at(i) * jb.at(i), ja.at(i), h, thr_xb)
            except DomainError:
                continue    # a pole: the node stays flagged
            axis_vals[i] = z[i] - q
            axis_flags[i] = False
        axis_vals[axis_flags] = 0.0
        axis_curve = np.zeros((t.size, 3))
        axis_curve[:, 2] = axis_vals
        if axis_flags.any():
            where = ", ".join(f"{t[i]:.6g}" for i in np.flatnonzero(axis_flags)[:6])
            diagnostics["axis"] = (f"axis evolute undefined at t in [{where}]"
                                   f"{'...' if axis_flags.sum() > 6 else ''}")
    else:
        diagnostics["axis"] = ("radial normal component vanishes on the whole "
                               "grid; axis evolute unavailable")
    return EvoluteBundle(first_profile=first, first_surface=first_surface,
                         axis_curve=axis_curve, axis_flags=axis_flags,
                         diagnostics=diagnostics)


class CommutationReport:
    def __init__(self, max_residuals: dict, passed: bool):
        self.max_residuals, self.passed = max_residuals, passed


def parallel_commutation_check(c: LegendreCurve, lam: float, axis: str = "z",
                               tol: float = 1e-10) -> CommutationReport:
    """Parallel-of-revolution versus revolution-of-parallel.

    Both orders must realize the same surface with the same invariants.
    The comparison covers the position, frame, first partials, mixed
    partials, and all ten invariants with their derivative grids.  About
    the x-axis the surface normal points opposite to the revolved profile
    normal, so the profile offset that matches a surface offset of lam is
    -lam there.  The grids are compared one block of rings at a time;
    parallel_surface is pointwise, so each residual is the max over the
    blocks, the value the whole grids give.
    """
    check_finite(lam=lam)
    check_tol(tol)
    surf_a = revolve(c, axis=axis, n_theta=16)
    profile_lam = _AXES[axis][1] * lam
    surf_b = revolve(parallel_curve(c, profile_lam), axis=axis, n_theta=16)
    blocks = []
    for block_a, grid_b in zip(surf_a._blocks(), surf_b._blocks()):
        grid_a, inv_a = parallel_surface(block_a, lam, surf_a.invariants)
        blocks.append([np.max(np.abs(getattr(grid_a, name)
                                     - getattr(grid_b, name)))
                       for name in _FIELDS])
    res = dict(zip(_FIELDS, np.max(blocks, axis=0).tolist()))
    inv_b = surf_b.invariants
    for name in _INVARIANTS:
        res[name] = float(np.max(np.abs(getattr(inv_a, name) - getattr(inv_b, name))))
    for key in inv_a.cross:
        res["d_" + key] = float(np.max(np.abs(inv_a.cross[key] - inv_b.cross[key])))
    return CommutationReport(res, passed=max(res.values()) <= tol)
