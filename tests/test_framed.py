"""Framed surfaces on grids.

The main fixture is a torus with an explicit orthonormal frame; all of
its derivatives come from sympy, so the invariants, the integrability
defects, and the curvature ratios can be checked against classical
surface theory computed by an independent route (shape operator).
"""


import numpy as np
import sympy as sp

from revfront.framed import (BasicInvariants, FramedSurfaceGrid,
                             basic_invariants_of, curvature_of,
                             immersion_status, integrability_residual,
                             parallel_surface)

R0, r0 = 2.0, 0.7


def _lamb(exprs, u, v):
    fns = [sp.lambdify((u, v), e, "numpy") for e in exprs]
    return lambda uu, vv: np.stack([np.broadcast_to(f(uu, vv), uu.shape)
                                    for f in fns], axis=-1)


def torus_grid(nu=18, nv=23):
    u, v = sp.symbols("u v")
    x = sp.Matrix([(R0 + r0 * sp.cos(u)) * sp.cos(v),
                   (R0 + r0 * sp.cos(u)) * sp.sin(v),
                   r0 * sp.sin(u)])
    n = sp.Matrix([sp.cos(u) * sp.cos(v), sp.cos(u) * sp.sin(v), sp.sin(u)])
    s = sp.Matrix([-sp.sin(u) * sp.cos(v), -sp.sin(u) * sp.sin(v), sp.cos(u)])
    uu = np.linspace(0.2, 1.4, nu)
    vv = np.linspace(0.1, 2.3, nv)
    U, V = np.meshgrid(uu, vv, indexing="ij")
    fields = {}
    for name, vec in (("x", x), ("n", n), ("s", s)):
        fields[name] = _lamb(vec, u, v)(U, V)
        fields[name + "_u"] = _lamb(vec.diff(u), u, v)(U, V)
        fields[name + "_v"] = _lamb(vec.diff(v), u, v)(U, V)
        fields[name + "_uv"] = _lamb(vec.diff(u, v), u, v)(U, V)
    return FramedSurfaceGrid(u=uu, v=vv, **fields), (u, v, x, n)


def shape_operator_oracle(u, v, x, n, U, V):
    """Classical K and H from S = -(W^T W)^-1 W^T dn."""
    W = x.jacobian([u, v])
    dn = n.jacobian([u, v])
    S = -(W.T * W).inv() * (W.T * dn)
    Kf = sp.lambdify((u, v), sp.simplify(S.det()), "numpy")
    Hf = sp.lambdify((u, v), sp.simplify(S.trace() / 2), "numpy")
    return Kf(U, V), Hf(U, V)


def test_torus_invariants_match_direct_dot_products():
    S, (u, v, x, n) = torus_grid()
    I = basic_invariants_of(S)
    t_frame = np.cross(S.n, S.s)
    np.testing.assert_allclose(I.a1, np.einsum("ijk,ijk->ij", S.x_u, S.s),
                               atol=1e-12)
    np.testing.assert_allclose(I.b2, np.einsum("ijk,ijk->ij", S.x_v, t_frame),
                               atol=1e-12)
    np.testing.assert_allclose(I.f1, np.einsum("ijk,ijk->ij", S.n_u, t_frame),
                               atol=1e-12)
    np.testing.assert_allclose(I.g2, np.einsum("ijk,ijk->ij", S.s_v, t_frame),
                               atol=1e-12)


def test_torus_frame_validates_and_is_integrable():
    S, _ = torus_grid()
    val = S.validate()
    assert val["passed"]
    rep = integrability_residual(basic_invariants_of(S))
    assert rep.max_residual < 1e-10
    assert set(rep.residuals) == {"mixed_s", "mixed_t", "mixed_n",
                                  "frame_s", "frame_t", "frame_g"}


# Each entry of I.cross enters one defect with weight +-1.  On the torus
# b1 = f1 = g1 = 0 and e1 = 1, so a node of a2 enters mixed_n alone, with
# weight -e1 = -1 (f2 enters mixed_n with weight b1 = 0, and frame_g too).
SEEDED_DEFECTS = (
    ("a1_v", "mixed_s"), ("a2_u", "mixed_s"),
    ("b1_v", "mixed_t"), ("b2_u", "mixed_t"),
    ("e1_v", "frame_s"), ("e2_u", "frame_s"),
    ("f1_v", "frame_t"), ("f2_u", "frame_t"),
    ("g1_v", "frame_g"), ("g2_u", "frame_g"),
    ("a2", "mixed_n"),
)


def test_integrability_sees_each_seeded_defect():
    S, _ = torus_grid()
    I = basic_invariants_of(S)
    delta = 1e-3
    for name, defect in SEEDED_DEFECTS:
        if name in I.cross:
            bad = BasicInvariants(**{**vars(I), "cross": {
                **I.cross, name: I.cross[name] + delta}})
        else:
            grid = getattr(I, name).copy()
            grid[5, 7] += delta
            bad = BasicInvariants(**{**vars(I), name: grid})
        res = integrability_residual(bad).residuals
        assert abs(res[defect] - delta) < 1e-10, (name, res)
        assert all(r < 1e-10 for k, r in res.items() if k != defect), (name, res)


def test_torus_curvature_ratios_match_shape_operator():
    S, (u, v, x, n) = torus_grid()
    C = curvature_of(basic_invariants_of(S))
    U, V = np.meshgrid(S.u, S.v, indexing="ij")
    K_cl, H_cl = shape_operator_oracle(u, v, x, n, U, V)
    np.testing.assert_allclose(C.K / C.J, K_cl, atol=1e-10)
    np.testing.assert_allclose(C.H / C.J, H_cl, atol=1e-10)


def test_torus_nodes_are_regular():
    S, _ = torus_grid()
    C = curvature_of(basic_invariants_of(S))
    for node in ((0, 0), (5, 7), (17, 22)):
        st = immersion_status(C, node)
        assert st.label == "regular"
        assert st.regular and st.legendre_immersion and st.framed_immersion


def test_parallel_surface_dual_path():
    S, _ = torus_grid()
    I = basic_invariants_of(S)
    for lam in (-0.5, 0.3, 1.1):
        grid2, inv2 = parallel_surface(S, lam, I)
        recomputed = basic_invariants_of(grid2)
        for f in ("a1", "b1", "a2", "b2", "e1", "f1", "g1", "e2", "f2", "g2"):
            np.testing.assert_allclose(getattr(inv2, f), getattr(recomputed, f),
                                       atol=1e-11, err_msg=f)
        C, C2 = curvature_of(I), curvature_of(inv2)
        np.testing.assert_allclose(C2.J, C.J - 2 * C.H * lam + C.K * lam**2,
                                   atol=1e-11)
        np.testing.assert_allclose(C2.H, C.H - C.K * lam, atol=1e-11)
        np.testing.assert_allclose(C2.K, C.K, atol=1e-13)
