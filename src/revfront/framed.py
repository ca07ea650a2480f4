"""Framed surfaces on rectangular parameter grids.

A framed surface is a map x(u, v) into 3-space together with an orthonormal
pair (n, s) such that n is normal to the surface; t = n x s completes the
frame.  The ten basic invariants are the frame coefficients of the partial
derivatives, the curvature data are determinants built from them, and the
six integrability conditions tie their derivatives together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CROSS_KEYS = ("a1_v", "a2_u", "b1_v", "b2_u", "e1_v",
               "e2_u", "f1_v", "f2_u", "g1_v", "g2_u")


def _dot(p, q):
    return np.einsum("...k,...k->...", p, q)


@dataclass
class FramedSurfaceGrid:
    u: np.ndarray
    v: np.ndarray
    x: np.ndarray
    n: np.ndarray
    s: np.ndarray
    x_u: np.ndarray
    x_v: np.ndarray
    n_u: np.ndarray
    n_v: np.ndarray
    s_u: np.ndarray
    s_v: np.ndarray
    x_uv: np.ndarray | None = None
    n_uv: np.ndarray | None = None
    s_uv: np.ndarray | None = None

    @property
    def t_frame(self) -> np.ndarray:
        return np.cross(self.n, self.s)

    @property
    def t_frame_u(self) -> np.ndarray:
        return np.cross(self.n_u, self.s) + np.cross(self.n, self.s_u)

    @property
    def t_frame_v(self) -> np.ndarray:
        return np.cross(self.n_v, self.s) + np.cross(self.n, self.s_v)

    def validate(self, tol: float = 1e-8) -> dict:
        """Frame orthonormality and tangency residual maxima."""
        res = {
            "unit_n": float(np.max(np.abs(_dot(self.n, self.n) - 1.0))),
            "unit_s": float(np.max(np.abs(_dot(self.s, self.s) - 1.0))),
            "n_dot_s": float(np.max(np.abs(_dot(self.n, self.s)))),
            "xu_dot_n": float(np.max(np.abs(_dot(self.x_u, self.n)))),
            "xv_dot_n": float(np.max(np.abs(_dot(self.x_v, self.n)))),
        }
        res["passed"] = all(r <= tol for r in res.values() if isinstance(r, float))
        return res


@dataclass
class BasicInvariants:
    """The ten invariant functions on the (u, v) grid.

    cross holds the mixed derivatives needed by the integrability check
    (a1_v, a2_u, ..., g2_u) when they are known analytically; without it
    the check falls back to finite differences on the invariant grids.
    A revolute's invariants depend on u alone: revolve gives them as
    (n_t, 1) columns with v = [0.0], always with cross, and curvature_of
    and the checks broadcast them like any other grid.
    """
    u: np.ndarray
    v: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    e1: np.ndarray
    f1: np.ndarray
    g1: np.ndarray
    e2: np.ndarray
    f2: np.ndarray
    g2: np.ndarray
    cross: dict | None = None


@dataclass
class FSCurvature:
    """Curvature densities and the remaining concomitant determinants."""
    u: np.ndarray
    v: np.ndarray
    J: np.ndarray
    K: np.ndarray
    H: np.ndarray
    det_ag: np.ndarray
    det_bg: np.ndarray
    det_eg: np.ndarray
    det_fg: np.ndarray
    det_ae: np.ndarray


@dataclass
class ImmersionStatus:
    regular: bool
    legendre_immersion: bool
    framed_immersion: bool
    label: str


@dataclass
class FocalRadii:
    roots: tuple
    multiplicities: tuple


def basic_invariants_of(S: FramedSurfaceGrid) -> BasicInvariants:
    """Read the ten invariants off a realized grid by frame projections."""
    t = S.t_frame
    inv = BasicInvariants(
        u=S.u, v=S.v,
        a1=_dot(S.x_u, S.s), b1=_dot(S.x_u, t),
        a2=_dot(S.x_v, S.s), b2=_dot(S.x_v, t),
        e1=_dot(S.n_u, S.s), f1=_dot(S.n_u, t), g1=_dot(S.s_u, t),
        e2=_dot(S.n_v, S.s), f2=_dot(S.n_v, t), g2=_dot(S.s_v, t),
    )
    if S.x_uv is not None and S.n_uv is not None and S.s_uv is not None:
        t_u, t_v = S.t_frame_u, S.t_frame_v
        inv.cross = {
            "a1_v": _dot(S.x_uv, S.s) + _dot(S.x_u, S.s_v),
            "a2_u": _dot(S.x_uv, S.s) + _dot(S.x_v, S.s_u),
            "b1_v": _dot(S.x_uv, t) + _dot(S.x_u, t_v),
            "b2_u": _dot(S.x_uv, t) + _dot(S.x_v, t_u),
            "e1_v": _dot(S.n_uv, S.s) + _dot(S.n_u, S.s_v),
            "e2_u": _dot(S.n_uv, S.s) + _dot(S.n_v, S.s_u),
            "f1_v": _dot(S.n_uv, t) + _dot(S.n_u, t_v),
            "f2_u": _dot(S.n_uv, t) + _dot(S.n_v, t_u),
            "g1_v": _dot(S.s_uv, t) + _dot(S.s_u, t_v),
            "g2_u": _dot(S.s_uv, t) + _dot(S.s_v, t_u),
        }
    return inv


def _cross_derivatives(I: BasicInvariants) -> tuple[dict, bool]:
    if I.cross is not None:
        return I.cross, False
    out = {}
    for key in _CROSS_KEYS:
        name, direction = key.split("_")
        grid = getattr(I, name)
        axis = 0 if direction == "u" else 1
        coord = I.u if direction == "u" else I.v
        out[key] = np.gradient(grid, coord, axis=axis)
    return out, True


@dataclass
class IntegrabilityReport:
    residuals: dict
    max_residual: float
    fd_derivatives: bool


def integrability_residual(I: BasicInvariants) -> IntegrabilityReport:
    """Maxima of the six compatibility defects."""
    d, fd = _cross_derivatives(I)
    r = {
        "mixed_s": (d["a1_v"] - I.b1 * I.g2) - (d["a2_u"] - I.b2 * I.g1),
        "mixed_t": (d["b1_v"] - I.a2 * I.g1) - (d["b2_u"] - I.a1 * I.g2),
        "mixed_n": (I.a1 * I.e2 + I.b1 * I.f2) - (I.a2 * I.e1 + I.b2 * I.f1),
        "frame_s": (d["e1_v"] - I.f1 * I.g2) - (d["e2_u"] - I.f2 * I.g1),
        "frame_t": (d["f1_v"] - I.e2 * I.g1) - (d["f2_u"] - I.e1 * I.g2),
        "frame_g": (d["g1_v"] - I.e1 * I.f2) - (d["g2_u"] - I.e2 * I.f1),
    }
    res = {k: float(np.max(np.abs(v))) for k, v in r.items()}
    return IntegrabilityReport(res, max(res.values()), fd)


def curvature_of(I: BasicInvariants) -> FSCurvature:
    """Curvature triple (J, K, H) plus the other five determinants."""
    J = I.a1 * I.b2 - I.a2 * I.b1
    K = I.e1 * I.f2 - I.e2 * I.f1
    H = -0.5 * ((I.a1 * I.f2 - I.a2 * I.f1) - (I.b1 * I.e2 - I.b2 * I.e1))
    return FSCurvature(
        u=I.u, v=I.v, J=J, K=K, H=H,
        det_ag=I.a1 * I.g2 - I.a2 * I.g1,
        det_bg=I.b1 * I.g2 - I.b2 * I.g1,
        det_eg=I.e1 * I.g2 - I.e2 * I.g1,
        det_fg=I.f1 * I.g2 - I.f2 * I.g1,
        det_ae=I.a1 * I.e2 - I.a2 * I.e1,
    )


def immersion_status(C: FSCurvature, node: tuple, tol: float = 1e-8) -> ImmersionStatus:
    """Strongest non-degeneracy certificate at one grid node."""
    i, j = node
    vals = [C.J[i, j], C.K[i, j], C.H[i, j], C.det_ag[i, j], C.det_bg[i, j],
            C.det_eg[i, j], C.det_fg[i, j], C.det_ae[i, j]]
    scale = 1.0 + max(abs(v) for v in vals)
    thr = tol * scale
    regular = abs(vals[0]) > thr
    legendre = any(abs(v) > thr for v in vals[:3])
    framed = any(abs(v) > thr for v in vals)
    if regular:
        label = "regular"
    elif legendre:
        label = "legendre_immersion"
    elif framed:
        label = "framed_immersion"
    else:
        label = "degenerate"
    return ImmersionStatus(regular, legendre, framed, label)


def parallel_surface(S: FramedSurfaceGrid, lam: float,
                     I: BasicInvariants | None = None):
    """Offset surface x + lam*n with its transformed invariants."""
    if I is None:
        I = basic_invariants_of(S)
    grid = FramedSurfaceGrid(
        u=S.u, v=S.v,
        x=S.x + lam * S.n, n=S.n, s=S.s,
        x_u=S.x_u + lam * S.n_u, x_v=S.x_v + lam * S.n_v,
        n_u=S.n_u, n_v=S.n_v, s_u=S.s_u, s_v=S.s_v,
        x_uv=None if S.x_uv is None else S.x_uv + lam * S.n_uv,
        n_uv=S.n_uv, s_uv=S.s_uv,
    )
    cross = None
    if I.cross is not None:
        cross = dict(I.cross)
        cross["a1_v"] = I.cross["a1_v"] + lam * I.cross["e1_v"]
        cross["a2_u"] = I.cross["a2_u"] + lam * I.cross["e2_u"]
        cross["b1_v"] = I.cross["b1_v"] + lam * I.cross["f1_v"]
        cross["b2_u"] = I.cross["b2_u"] + lam * I.cross["f2_u"]
    inv = BasicInvariants(
        u=I.u, v=I.v,
        a1=I.a1 + lam * I.e1, b1=I.b1 + lam * I.f1,
        a2=I.a2 + lam * I.e2, b2=I.b2 + lam * I.f2,
        e1=I.e1, f1=I.f1, g1=I.g1, e2=I.e2, f2=I.f2, g2=I.g2,
        cross=cross,
    )
    return grid, inv


def similar_surface(C: FSCurvature, r: float) -> FSCurvature:
    """Curvature data of the scaled surface r*x."""
    if r == 0:
        raise ValueError("similarity ratio must be nonzero")
    return FSCurvature(
        u=C.u, v=C.v, J=r * r * C.J, K=C.K.copy(), H=r * C.H,
        det_ag=r * C.det_ag, det_bg=r * C.det_bg,
        det_eg=C.det_eg.copy(), det_fg=C.det_fg.copy(),
        det_ae=r * C.det_ae,
    )


def focal_radii(C: FSCurvature, node: tuple, tol: float = 1e-8) -> FocalRadii:
    """Real roots lam of K*lam^2 - 2H*lam + J = 0 at one node.

    A double root (discriminant within tol^2 of zero) is reported once with
    multiplicity two.
    """
    i, j = node
    k, h, q = float(C.K[i, j]), float(C.H[i, j]), float(C.J[i, j])
    scale = 1.0 + max(abs(k), abs(h), abs(q))
    if abs(k) <= tol * scale:
        if abs(h) <= tol * scale:
            return FocalRadii((), ())
        return FocalRadii((q / (2.0 * h),), (1,))
    disc = h * h - k * q
    if abs(disc) <= tol * tol * scale * scale:
        return FocalRadii((h / k,), (2,))
    if disc < 0:
        return FocalRadii((), ())
    root = np.sqrt(disc)
    lam1, lam2 = (h - root) / k, (h + root) / k
    return FocalRadii(tuple(sorted((lam1, lam2))), (1, 1))
