"""Acceptance suite: one test per shipped guarantee.

Each test is a single pass/fail gate at the stated tolerance; fixtures
with closed forms pin the numerics, randomized sweeps pin the algebraic
identities.
"""

import time

import numpy as np

from revfront import expr, export
from revfront.construct import (GaussRatioProblem, MeanRatioProblem,
                                profile_from_gauss_ratio,
                                profile_from_mean_ratio)
from revfront.framed import (FramedSurfaceGrid, basic_invariants_of,
                             integrability_residual, parallel_surface,
                             similar_surface)
from revfront.framed import curvature_of as surface_curvature
from revfront.legendre import (congruence_align, curvature_of,
                               legendre_from_expressions,
                               reconstruct_from_curvature)
from revfront.quadrature import uniform_grid
from revfront.revolution import (parallel_commutation_check, revolve,
                                 revolution_evolutes)
from revfront.singular import (constant_gauss_cusp, constant_mean_cusp,
                               curve_cusp_by_curvature,
                               curve_cusp_by_derivatives)

PI = float(np.pi)


def pseudo_sphere(grid):
    return legendre_from_expressions("sin(t)", "cos(t)+log(tan(t/2))",
                                     "cos(t)", "-sin(t)", grid)


def random_pair(rng):
    """Bounded-coefficient polynomial plus trig curvature expressions."""
    c = rng.uniform(-1.5, 1.5, 8)
    k1, k2 = rng.integers(1, 3, 2)
    ell = f"{c[0]:.8f}+{c[1]:.8f}*t+{c[2]:.8f}*t^2+{c[3]:.8f}*sin({k1}*t)"
    beta = f"{c[4]:.8f}+{c[5]:.8f}*t+{c[6]:.8f}*t^2+{c[7]:.8f}*cos({k2}*t)"
    return ell, beta


def random_profile(rng, grid):
    ell, beta = random_pair(rng)
    return reconstruct_from_curvature(ell, beta, grid,
                                      theta0=float(rng.uniform(-1.0, 1.0)),
                                      x0=float(rng.uniform(1.5, 3.0)),
                                      z0=float(rng.uniform(-1.0, 1.0)))


def test_pseudo_sphere_reproduction():
    start = time.perf_counter()
    g = uniform_grid(0.2, PI - 0.2, 400)
    prob = GaussRatioProblem(alpha="-1", beta="cot(t)", t0=PI / 2,
                             x0=1.0, sin_phi0=-1.0)
    c = profile_from_gauss_ratio(prob, g)

    ref = pseudo_sphere(g)
    align = congruence_align(c, ref)
    assert align.residual <= 1e-6
    x = np.atleast_1d(c.curve.x.value)
    assert np.max(np.abs(x - np.sin(g))) <= 1e-6

    surf = revolve(c, axis="z", n_theta=16)
    C = surface_curvature(surf.invariants)
    mask = np.abs(C.J) > 1e-3
    ratio = C.K[mask] / C.J[mask]
    assert np.max(np.abs(ratio + 1.0)) <= 1e-6
    assert time.perf_counter() - start < 5.0


def test_cusp_normal_form_suite():
    germs = [
        ("t^2", "t^3", "-3*t/sqrt(9*t^2+4)", "2/sqrt(9*t^2+4)", "cusp_3_2"),
        ("t^2", "t^5", "-5*t^3/sqrt(25*t^6+4)", "2/sqrt(25*t^6+4)", "cusp_5_2"),
        ("t^3", "t^4", "-4*t/sqrt(16*t^2+9)", "3/sqrt(16*t^2+9)", "cusp_4_3"),
        ("t^3", "t^5", "-5*t^2/sqrt(25*t^4+9)", "3/sqrt(25*t^4+9)", "cusp_5_3"),
    ]
    g = uniform_grid(-1.0, 1.0, 81)
    agreements = 0
    total = 0
    for x, z, a, b, want in germs:
        c = legendre_from_expressions(x, z, a, b, g)
        d = curve_cusp_by_derivatives(c, 0.0)
        k = curve_cusp_by_curvature(c, 0.0)
        assert d.label == want
        total += 1
        agreements += d.label == k.label

    ps = pseudo_sphere(uniform_grid(0.2, PI - 0.2, 161))
    d = curve_cusp_by_derivatives(ps, PI / 2)
    k = curve_cusp_by_curvature(ps, PI / 2)
    assert d.label == "cusp_3_2" and k.label == "cusp_3_2"
    total += 1
    agreements += d.label == k.label
    assert agreements == total


def test_curvature_round_trip():
    rng = np.random.default_rng(1234)
    g = uniform_grid(0.0, 1.0, 101)
    for _ in range(50):
        ell, beta = random_pair(rng)
        c = reconstruct_from_curvature(ell, beta, g,
                                       theta0=float(rng.uniform(-1, 1)),
                                       x0=float(rng.uniform(-2, 2)),
                                       z0=float(rng.uniform(-2, 2)))
        pair = curvature_of(c)
        ell_err = np.max(np.abs(np.atleast_1d(pair.ell.value)
                                - expr.eval_values(ell, g)))
        beta_err = np.max(np.abs(np.atleast_1d(pair.beta.value)
                                 - expr.eval_values(beta, g)))
        assert max(ell_err, beta_err) <= 1e-7, (ell, beta)

    ell, beta = random_pair(rng)
    c1 = reconstruct_from_curvature(ell, beta, g)
    c2 = reconstruct_from_curvature(ell, beta, g, theta0=0.8, x0=-1.5, z0=2.5)
    assert congruence_align(c1, c2).residual <= 1e-7


def test_integrability_residuals():
    rng = np.random.default_rng(77)
    g = uniform_grid(0.0, 1.0, 41)
    for _ in range(20):
        c = random_profile(rng, g)
        for axis in ("z", "x"):
            rep = integrability_residual(
                revolve(c, axis=axis, n_theta=12).invariants)
            assert len(rep.residuals) == 6
            assert rep.max_residual <= 1e-8, axis


def test_evolute_fixtures():
    g = uniform_grid(0.2, PI - 0.2, 161)
    bundle = revolution_evolutes(pseudo_sphere(g), n_theta=24)

    surf = bundle.first_surface
    assert surf is not None
    w = np.log(np.tan(g / 2.0))
    theta = surf.grid.v
    want = np.stack([np.outer(np.cosh(w), np.cos(theta)),
                     np.outer(np.cosh(w), np.sin(theta)),
                     np.repeat(w[:, None], theta.size, axis=1)], axis=-1)
    dist = np.linalg.norm(surf.grid.x - want, axis=-1)
    assert np.max(dist) <= 1e-6

    axis = bundle.axis_curve
    assert axis is not None
    assert np.all(np.isfinite(axis))
    ref = np.log(np.tan(g / 2.0)) + 1.0 / np.cos(g)
    ok = np.abs(np.cos(g)) > 2e-2
    assert np.max(np.abs(axis[ok, 2] - ref[ok])) <= 1e-6
    assert np.max(np.abs(axis[:, :2])) == 0.0
    # the two branches diverge with opposite signs at pi/2 (node 80) and
    # are odd around it, so the continuous symmetric extension is 0 there
    assert axis[80, 2] == 0.0
    assert abs(axis[79, 2] + axis[81, 2]) <= 1e-9


def test_parallel_commutation():
    rng = np.random.default_rng(2024)
    g = uniform_grid(0.0, 1.5, 41)
    for i in range(10):
        c = random_profile(rng, g)
        for lam in (-1.0, -0.3, 0.5, 2.0):
            rep = parallel_commutation_check(c, lam, axis="z", tol=1e-10)
            assert rep.passed, (i, lam)
            assert max(rep.max_residuals.values()) <= 1e-10


def test_curvature_transforms():
    rng = np.random.default_rng(55)
    surf = revolve(random_profile(rng, uniform_grid(0.2, 1.4, 33)),
                   axis="z", n_theta=16)
    S, I = surf.grid, surf.invariants
    C0 = surface_curvature(I)

    for lam in (-0.7, 0.5, 1.3):
        grid2, _ = parallel_surface(S, lam, I)
        C = surface_curvature(basic_invariants_of(grid2))
        assert np.max(np.abs(C.J - (C0.J - 2.0 * lam * C0.H
                                    + lam * lam * C0.K))) <= 1e-8
        assert np.max(np.abs(C.H - (C0.H - lam * C0.K))) <= 1e-8
        assert np.max(np.abs(C.K - C0.K)) <= 1e-8

    for r in (0.5, 2.0):
        scaled = FramedSurfaceGrid(
            u=S.u, v=S.v, x=r * S.x, n=S.n, s=S.s,
            x_u=r * S.x_u, x_v=r * S.x_v,
            n_u=S.n_u, n_v=S.n_v, s_u=S.s_u, s_v=S.s_v,
            x_uv=r * S.x_uv, n_uv=S.n_uv, s_uv=S.s_uv)
        C = surface_curvature(basic_invariants_of(scaled))
        rule = similar_surface(C0, r)
        assert np.max(np.abs(C.J - rule.J)) <= 1e-8
        assert np.max(np.abs(C.J - r * r * C0.J)) <= 1e-8
        assert np.max(np.abs(C.H - r * C0.H)) <= 1e-8
        assert np.max(np.abs(C.K - C0.K)) <= 1e-8


def test_constant_mean_fixtures():
    g = uniform_grid(-1.0, 1.0, 201)
    p = MeanRatioProblem(alpha="0", beta="t", c1=0.2, c2=0.3, t0=0.0)
    c = profile_from_mean_ratio(p, g)
    x = np.atleast_1d(c.curve.x.value)
    want = np.sqrt(0.3 ** 2 + (0.2 - g * g / 2.0) ** 2)
    assert np.max(np.abs(x - want)) <= 1e-9
    C = surface_curvature(revolve(c, axis="z", n_theta=12).invariants)
    assert np.max(np.abs(C.H)) <= 1e-8

    g2 = uniform_grid(0.0, 1.2, 161)
    for c1, c2 in ((0.2, 0.3), (0.2, 0.75)):
        p = MeanRatioProblem(alpha="-1/2", beta="t", c1=c1, c2=c2)
        c = profile_from_mean_ratio(p, g2)
        C = surface_curvature(revolve(c, axis="z", n_theta=12).invariants)
        mask = np.abs(C.J) > 1e-3
        assert np.max(np.abs(C.H[mask] / C.J[mask] + 0.5)) <= 1e-6, (c1, c2)


def test_five_halves_cusp_fixture():
    lab = constant_mean_cusp(expr.eval_jet("t", PI),
                             expr.eval_jet("sin(t)", PI))
    assert lab.label == "cusp_5_2"

    g = uniform_grid(PI - 2.0, PI + 1.0, 301)   # node 200 sits on pi
    p = MeanRatioProblem(alpha="t", beta="sin(t)", c1=0.2, c2=0.3, t0=PI)
    c = profile_from_mean_ratio(p, g)
    out = curve_cusp_by_derivatives(c, PI)
    assert out.label == "cusp_5_2"


def test_exclusion_properties():
    for m in range(1, 6):
        for n in range(1, 6):
            if m > n:
                try:
                    constant_gauss_cusp(m, n)
                except ValueError:
                    continue
                raise AssertionError(f"({m}, {n}) should be rejected")
            assert constant_gauss_cusp(m, n).label != "cusp_5_2"

    rng = np.random.default_rng(909)
    for _ in range(50):
        c = rng.uniform(-2.0, 2.0, 5)
        alpha = f"{c[0]:.8f}+{c[1]:.8f}*t+{c[2]:.8f}*sin(t)"
        if abs(c[1]) + abs(c[2]) < 1e-3:    # keep alpha non-constant
            alpha += "+t"
        beta = f"t*({c[3]:.8f}+{c[4]:.8f}*t)" if rng.random() < 0.5 \
            else f"t^2*({c[3]:.8f}+{c[4]:.8f}*t)"
        lab = constant_mean_cusp(expr.eval_jet(alpha, 0.0),
                                 expr.eval_jet(beta, 0.0))
        assert lab.label not in ("cusp_3_2", "cusp_4_3"), (alpha, beta)


def test_quadratic_factorization():
    rng = np.random.default_rng(4242)
    g = uniform_grid(0.1, 1.3, 33)
    for _ in range(20):
        c = random_profile(rng, g)
        surf = revolve(c, axis="z", n_theta=12)
        C = surface_curvature(surf.invariants)
        x = np.atleast_1d(c.curve.x.value)
        a = np.atleast_1d(c.normal.a.value)
        pair = curvature_of(c)
        ell = np.atleast_1d(pair.ell.value)
        beta = np.atleast_1d(pair.beta.value)
        for lam in rng.uniform(-2.0, 2.0, 4):
            left = C.K[:, 0] * lam * lam - 2.0 * C.H[:, 0] * lam + C.J[:, 0]
            right = -(a * lam + x) * (ell * lam + beta)
            assert np.max(np.abs(left - right)) <= 1e-10


def test_mesh_structure():
    g = uniform_grid(0.2, PI - 0.2, 161)
    surf = revolve(pseudo_sphere(g), axis="z", n_theta=64)
    lines = export.surface_obj_lines(surf)
    verts = [tuple(float(w) for w in ln.split()[1:])
             for ln in lines if ln.startswith("v ")]
    faces = [ln for ln in lines if ln.startswith("f ")]
    per_ring = 65                      # 64 angles plus the duplicated seam
    assert len(verts) == 161 * per_ring
    assert len(faces) == 2 * 160 * 64
    coords = np.array(verts)
    assert np.all(np.isfinite(coords))
    rings = coords.reshape(161, per_ring, 3)
    seam = np.linalg.norm(rings[:, 0, :] - rings[:, -1, :], axis=1)
    assert np.max(seam) <= 1e-12
