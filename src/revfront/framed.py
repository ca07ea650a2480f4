"""Framed surfaces on rectangular parameter grids.

A framed surface is a map x(u, v) into 3-space together with an orthonormal
pair (n, s) such that n is normal to the surface; t = n x s completes the
frame.  The ten basic invariants are the frame coefficients of the partial
derivatives, the curvature data are determinants built from them, and the
six integrability conditions tie their derivatives together.
"""

from __future__ import annotations

import numpy as np

from .quadrature import check_finite, check_tol


def _dot(p, q):
    return np.einsum("...k,...k->...", p, q)


class FramedSurfaceGrid:
    """The parameters u and v of the grid, and on it the position x, the
    frame (n, s) and their partials as arrays of 3-vectors."""

    def __init__(self, u, v, x, n, s, x_u, x_v, n_u, n_v, s_u, s_v,
                 x_uv, n_uv, s_uv):
        self.u, self.v, self.x, self.n, self.s = u, v, x, n, s
        self.x_u, self.x_v, self.n_u, self.n_v = x_u, x_v, n_u, n_v
        self.s_u, self.s_v = s_u, s_v
        self.x_uv, self.n_uv, self.s_uv = x_uv, n_uv, s_uv

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
        check_tol(tol)
        res = {
            "unit_n": float(np.max(np.abs(_dot(self.n, self.n) - 1.0))),
            "unit_s": float(np.max(np.abs(_dot(self.s, self.s) - 1.0))),
            "n_dot_s": float(np.max(np.abs(_dot(self.n, self.s)))),
            "xu_dot_n": float(np.max(np.abs(_dot(self.x_u, self.n)))),
            "xv_dot_n": float(np.max(np.abs(_dot(self.x_v, self.n)))),
        }
        res["passed"] = all(r <= tol for r in res.values() if isinstance(r, float))
        return res


class BasicInvariants:
    """The ten invariant functions on the (u, v) grid.

    cross holds the exact mixed derivatives (a1_v, a2_u, ..., g2_u) that
    the integrability check reads; nothing is differenced on the grid.
    A revolute's invariants depend on u alone: revolve gives them as
    (n_t, 1) columns with v = [0.0], and curvature_of and the checks
    broadcast them like any other grid.
    """

    def __init__(self, u, v, a1, b1, a2, b2, e1, f1, g1, e2, f2, g2,
                 cross: dict):
        self.u, self.v = u, v
        self.a1, self.b1, self.a2, self.b2 = a1, b1, a2, b2
        self.e1, self.f1, self.g1 = e1, f1, g1
        self.e2, self.f2, self.g2 = e2, f2, g2
        self.cross = cross


class FSCurvature:
    """Curvature densities and the remaining concomitant determinants."""

    def __init__(self, u, v, J, K, H, det_ag, det_bg, det_eg, det_fg,
                 det_ae):
        self.u, self.v, self.J, self.K, self.H = u, v, J, K, H
        self.det_ag, self.det_bg, self.det_eg = det_ag, det_bg, det_eg
        self.det_fg, self.det_ae = det_fg, det_ae


class ImmersionStatus:
    def __init__(self, regular: bool, legendre_immersion: bool,
                 framed_immersion: bool, label: str):
        self.regular = regular
        self.legendre_immersion = legendre_immersion
        self.framed_immersion = framed_immersion
        self.label = label


def basic_invariants_of(S: FramedSurfaceGrid) -> BasicInvariants:
    """Read the ten invariants off a realized grid by frame projections."""
    t, t_u, t_v = S.t_frame, S.t_frame_u, S.t_frame_v
    return BasicInvariants(
        u=S.u, v=S.v,
        a1=_dot(S.x_u, S.s), b1=_dot(S.x_u, t),
        a2=_dot(S.x_v, S.s), b2=_dot(S.x_v, t),
        e1=_dot(S.n_u, S.s), f1=_dot(S.n_u, t), g1=_dot(S.s_u, t),
        e2=_dot(S.n_v, S.s), f2=_dot(S.n_v, t), g2=_dot(S.s_v, t),
        cross={
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
        },
    )


class IntegrabilityReport:
    def __init__(self, residuals: dict, max_residual: float):
        self.residuals, self.max_residual = residuals, max_residual


def integrability_residual(I: BasicInvariants) -> IntegrabilityReport:
    """Maxima of the six compatibility defects, from the exact cross
    derivatives in I.cross."""
    d = I.cross
    r = {
        "mixed_s": (d["a1_v"] - I.b1 * I.g2) - (d["a2_u"] - I.b2 * I.g1),
        "mixed_t": (d["b1_v"] - I.a2 * I.g1) - (d["b2_u"] - I.a1 * I.g2),
        "mixed_n": (I.a1 * I.e2 + I.b1 * I.f2) - (I.a2 * I.e1 + I.b2 * I.f1),
        "frame_s": (d["e1_v"] - I.f1 * I.g2) - (d["e2_u"] - I.f2 * I.g1),
        "frame_t": (d["f1_v"] - I.e2 * I.g1) - (d["f2_u"] - I.e1 * I.g2),
        "frame_g": (d["g1_v"] - I.e1 * I.f2) - (d["g2_u"] - I.e2 * I.f1),
    }
    res = {k: float(np.max(np.abs(v))) for k, v in r.items()}
    return IntegrabilityReport(res, max(res.values()))


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
    check_tol(tol)
    i, j = node
    vals = [C.J[i, j], C.K[i, j], C.H[i, j], C.det_ag[i, j], C.det_bg[i, j],
            C.det_eg[i, j], C.det_fg[i, j], C.det_ae[i, j]]
    scale = 1.0 + max(abs(v) for v in vals)
    thr = tol * scale
    regular = abs(vals[0]) > thr
    legendre = any(abs(v) > thr for v in vals[:3])
    framed = any(abs(v) > thr for v in vals)
    label = ("regular" if regular else "legendre_immersion" if legendre
             else "framed_immersion" if framed else "degenerate")
    return ImmersionStatus(regular, legendre, framed, label)


def parallel_surface(S: FramedSurfaceGrid, lam: float,
                     I: BasicInvariants | None = None):
    """Offset surface x + lam*n with its transformed invariants."""
    check_finite(lam=lam)
    if I is None:
        I = basic_invariants_of(S)
    grid = FramedSurfaceGrid(
        u=S.u, v=S.v,
        x=S.x + lam * S.n, n=S.n, s=S.s,
        x_u=S.x_u + lam * S.n_u, x_v=S.x_v + lam * S.n_v,
        n_u=S.n_u, n_v=S.n_v, s_u=S.s_u, s_v=S.s_v,
        x_uv=S.x_uv + lam * S.n_uv, n_uv=S.n_uv, s_uv=S.s_uv,
    )
    cross = dict(I.cross)
    for x, n in (("a1_v", "e1_v"), ("a2_u", "e2_u"), ("b1_v", "f1_v"),
                 ("b2_u", "f2_u")):
        cross[x] = I.cross[x] + lam * I.cross[n]
    inv = BasicInvariants(
        u=I.u, v=I.v,
        a1=I.a1 + lam * I.e1, b1=I.b1 + lam * I.f1,
        a2=I.a2 + lam * I.e2, b2=I.b2 + lam * I.f2,
        e1=I.e1, f1=I.f1, g1=I.g1, e2=I.e2, f2=I.f2, g2=I.g2,
        cross=cross,
    )
    return grid, inv
