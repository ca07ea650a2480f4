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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .framed import (BasicInvariants, FramedSurfaceGrid, FSCurvature,
                     curvature_of, parallel_surface)
from .legendre import (LegendreCurve, NormalJet, curvature_pair_of,
                       parallel_curve, plane_evolute)

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

# Rings per block when validate() builds the frame fields.
_RINGS = 64


@dataclass
class RevolutionSurface:
    """A revolved profile, held as its axis-adapted columns and theta.

    Every grid field is an outer product of profile columns with cos theta
    or sin theta, so the fields are built when read: rings(i0, i1) gives
    the positions of a block of rings, validate() checks the frame one
    block of rings at a time, and grid is the whole FramedSurfaceGrid,
    each field built on first read and kept.  invariants holds the ten
    invariants and their cross derivatives as (n_t, 1) columns: the
    meridian theta = 0, with v = [0.0], since every meridian has the same
    values.
    """
    axis: str
    profile: LegendreCurve
    theta: np.ndarray
    invariants: BasicInvariants
    columns: dict = field(repr=False)

    def _field(self, name: str, i0: int, i1: int) -> np.ndarray:
        """Rows i0:i1 of the grid field name, shape (rows, n_theta, 3)."""
        recipe, *names = _FIELDS[name]
        cols = [self.columns[k][i0:i1] for k in names]
        ct, st = np.cos(self.theta), np.sin(self.theta)
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

    def rings(self, i0: int, i1: int) -> np.ndarray:
        """Positions of the rings i0:i1, shape (rings, n_theta, 3)."""
        return self._field("x", i0, i1)

    @cached_property
    def grid(self) -> FramedSurfaceGrid:
        return _RevolvedGrid(self, 0, self.columns["t"].size)

    def validate(self, tol: float = 1e-8) -> dict:
        """FramedSurfaceGrid.validate, one block of rings at a time.

        Each residual is the max over the blocks, so the dict is the one
        the whole grid gives.
        """
        n_t = self.columns["t"].size
        blocks = [_RevolvedGrid(self, i, i + _RINGS).validate(tol)
                  for i in range(0, n_t, _RINGS)]
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


class _OnRead:
    """A _RevolvedGrid field, built on first read."""

    def __init__(self, name):
        self.name = name

    def __get__(self, grid, owner=None):
        if grid is None:
            return self
        surface, i0, i1 = grid._rings
        value = grid.__dict__[self.name] = surface._field(self.name, i0, i1)
        return value


for _name in _FIELDS:
    setattr(_RevolvedGrid, _name, _OnRead(_name))


@dataclass
class FrontStatus:
    is_front: bool
    failures: list


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


@dataclass
class CongruenceReport:
    congruent: bool
    reason: str
    residual: float


def xz_congruence_check(c: LegendreCurve, tol: float = 1e-8) -> CongruenceReport:
    """Test whether revolving about the two axes gives congruent surfaces.

    Requires a straight profile with normal along (1, -1)/sqrt(2) (up to
    sign) and x - z constant, so that swapping the axes is realized by the
    reflection through the plane x = z composed with a translation.
    """
    t, x, z, a, b, ell, beta = _adapted(c, "z")
    scale_l = tol * (1.0 + np.max(np.abs(ell)))
    r_ell = float(np.max(np.abs(ell)))
    if r_ell > scale_l:
        return CongruenceReport(False, "profile normal turns (ell != 0)", r_ell)
    r_ab = float(np.max(np.abs(a + b)))
    if r_ab > tol:
        return CongruenceReport(False, "normal not along (1, -1) direction", r_ab)
    diff = x - z
    r_d = float(np.max(np.abs(diff - diff[0])))
    if r_d > tol * (1.0 + np.max(np.abs(diff))):
        return CongruenceReport(False, "x - z not constant along profile", r_d)
    return CongruenceReport(True, "axes swap realized by reflection x <-> z",
                            max(r_ell, r_ab, r_d))


@dataclass
class ConeTypeReport:
    is_cone_type: bool
    values: dict


def cone_type_check(c: LegendreCurve, t0: float, axis: str = "z",
                    tol: float = 1e-8) -> ConeTypeReport:
    """Cone-point test at a parameter where the profile meets the axis.

    The revolved surface degenerates to a cone-type point at t0 when the
    distance to the axis vanishes there while beta and both normal
    components stay away from zero.
    """
    t, r, h, n_r, n_h, k, beta = _adapted(c, axis)
    i = int(np.argmin(np.abs(t - t0)))
    vals = {"t": float(t[i]), "axis_distance": float(r[i]),
            "beta": float(beta[i]), "a": float(c.normal.a.value[i]),
            "b": float(c.normal.b.value[i])}
    ok = (abs(vals["axis_distance"]) <= tol * (1.0 + np.max(np.abs(r)))
          and abs(vals["beta"]) > tol and abs(vals["a"]) > tol
          and abs(vals["b"]) > tol)
    return ConeTypeReport(is_cone_type=bool(ok), values=vals)


@dataclass
class FlatReport:
    label: str
    details: dict


def flat_classification(c: LegendreCurve, axis: str = "z",
                        tol: float = 1e-8) -> FlatReport:
    """Classify profiles that sweep out flat revolved surfaces.

    Requires ell identically zero (straight-line profile normal); the
    result is then a point, circle, line, cylinder, plane, or cone
    depending on which of beta, the axis distance, and the normal
    components vanish identically.
    """
    t, r, h, n_r, n_h, k, beta = _adapted(c, axis)
    def max_abs(arr):
        return float(np.max(np.abs(arr)))
    details = {"max_ell": max_abs(k), "max_beta": max_abs(beta),
               "max_axis_distance": max_abs(r),
               "max_a": max_abs(c.normal.a.value),
               "max_b": max_abs(c.normal.b.value)}
    if details["max_ell"] > tol:
        return FlatReport("not_flat", details)
    if details["max_beta"] <= tol:
        label = "point" if details["max_axis_distance"] <= tol else "circle"
        return FlatReport(label, details)
    if details["max_axis_distance"] <= tol:
        return FlatReport("line", details)
    if max_abs(n_h) <= tol:
        return FlatReport("cylinder", details)
    if max_abs(n_r) <= tol:
        return FlatReport("plane", details)
    return FlatReport("cone", details)


@dataclass
class EvoluteBundle:
    """The two focal loci of the z-axis revolved surface.

    first_profile is the planar evolute of the profile, promoted to a
    Legendre curve with the rotated normal, and first_surface its
    revolution (needs ell nonzero on the whole grid).  axis_curve is the
    locus on the rotation axis (needs the radial normal component a
    nonzero, with isolated zeros patched by one-sided extrapolation when
    both sides agree); axis_flags marks nodes that stay undefined.
    Unavailable pieces are None with the reason in diagnostics.
    """
    first_profile: LegendreCurve | None
    first_surface: "RevolutionSurface | None"
    axis_curve: np.ndarray | None
    axis_flags: np.ndarray | None
    diagnostics: dict


def _extend_isolated_zeros(t, values, good, tol=1e-6):
    """Fill flagged nodes by cubic extrapolation from each side.

    A node is filled only when both one-sided fits exist and agree within
    tol relative to the local scale; otherwise it stays flagged.
    """
    vals = values.copy()
    flags = ~good
    scale = 1.0 + np.max(np.abs(values[good])) if good.any() else 1.0
    for i in np.flatnonzero(flags):
        left = [j for j in range(i - 1, -1, -1) if good[j]][:4]
        right = [j for j in range(i + 1, t.size) if good[j]][:4]
        est = []
        for side in (left, right):
            if len(side) == 4:
                idx = np.array(side)
                poly = np.polynomial.polynomial.polyfit(t[idx], values[idx], 3)
                est.append(np.polynomial.polynomial.polyval(t[i], poly))
        if len(est) == 2 and abs(est[0] - est[1]) <= tol * scale:
            vals[i] = 0.5 * (est[0] + est[1])
            flags[i] = False
    return vals, flags


def revolution_evolutes(c: LegendreCurve, n_theta: int = 128,
                        tol: float = 1e-8) -> EvoluteBundle:
    """Both evolutes of the z-axis revolute of the profile."""
    t, x, z, a, b, ell, beta = _adapted(c, "z")
    diagnostics = {}
    first = None
    first_surface = None
    thr_l = tol * (1.0 + float(np.max(np.abs(ell))))
    if np.all(np.abs(ell) > thr_l):
        ev = plane_evolute(c, tol=tol)
        # the evolute's tangent is along nu, so its unit normal is the
        # rotated profile normal mu = (-b, a)
        mu = NormalJet(c.normal.t, -c.normal.b, c.normal.a)
        first = LegendreCurve(ev, mu)
        first_surface = revolve(first, axis="z", n_theta=n_theta)
    else:
        i = int(np.argmin(np.abs(ell)))
        diagnostics["first"] = (f"profile turning density vanishes near "
                                f"t={t[i]:.6g}; first evolute unavailable")

    thr_r = tol * (1.0 + float(np.max(np.abs(a))))
    good = np.abs(a) > thr_r
    axis_curve = None
    axis_flags = None
    if good.any():
        raw = z - x * b / np.where(good, a, 1.0)
        raw = np.where(good, raw, 0.0)
        axis_vals, axis_flags = _extend_isolated_zeros(t, raw, good, tol=1e-6)
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


@dataclass
class CommutationReport:
    max_residuals: dict
    passed: bool


def parallel_commutation_check(c: LegendreCurve, lam: float, axis: str = "z",
                               tol: float = 1e-10) -> CommutationReport:
    """Parallel-of-revolution versus revolution-of-parallel.

    Both orders must realize the same surface with the same invariants.
    The comparison covers the position, frame, first partials, mixed
    partials, and all ten invariants with their derivative grids.  About
    the x-axis the surface normal points opposite to the revolved profile
    normal, so the profile offset that matches a surface offset of lam is
    -lam there.
    """
    surf = revolve(c, axis=axis, n_theta=16)
    grid_a, inv_a = parallel_surface(surf.grid, lam, surf.invariants)
    profile_lam = _AXES[axis][1] * lam
    surf_b = revolve(parallel_curve(c, profile_lam), axis=axis, n_theta=16)
    grid_b, inv_b = surf_b.grid, surf_b.invariants

    res = {}
    for name in _FIELDS:
        pa, pb = getattr(grid_a, name), getattr(grid_b, name)
        res[name] = float(np.max(np.abs(pa - pb)))
    for name in _INVARIANTS:
        res[name] = float(np.max(np.abs(getattr(inv_a, name) - getattr(inv_b, name))))
    for key in inv_a.cross:
        res["d_" + key] = float(np.max(np.abs(inv_a.cross[key] - inv_b.cross[key])))
    return CommutationReport(res, passed=max(res.values()) <= tol)
