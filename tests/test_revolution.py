"""Surfaces of revolution of Legendre profiles.

Dual-path checks: the closed-form invariant grids attached by revolve()
against projection-based recomputation from the realized frame, and the
curvature densities against explicit formulas in the profile data.
"""

import tracemalloc

import numpy as np
import pytest

from revfront import export
from revfront.framed import (FramedSurfaceGrid, basic_invariants_of,
                             curvature_of, integrability_residual)
from revfront.framed import parallel_surface
from revfront.legendre import (curvature_pair_of, legendre_from_expressions,
                               parallel_curve, reconstruct_from_curvature)
from revfront.quadrature import uniform_grid
from revfront.revolution import (cone_type_check, flat_classification,
                                 frontal_front_status,
                                 parallel_commutation_check,
                                 revolution_curvature, revolution_evolutes,
                                 revolve, xz_congruence_check)

INV_FIELDS = ("a1", "b1", "a2", "b2", "e1", "f1", "g1", "e2", "f2", "g2")
GRID_FIELDS = ("u", "v", "x", "n", "s", "x_u", "x_v", "n_u", "n_v", "s_u",
               "s_v", "x_uv", "n_uv", "s_uv")


def pseudo_sphere(grid):
    return legendre_from_expressions("sin(t)", "cos(t)+log(tan(t/2))",
                                     "cos(t)", "-sin(t)", grid)


def random_profile(rng, grid):
    c = rng.uniform(-1, 1, 4)
    ell = f"{c[0]:.5f} + {c[1]:.5f}*sin(t)"
    beta = f"{c[2]:.5f}*cos(2*t) + {c[3]:.5f} + 1.5"
    return reconstruct_from_curvature(ell, beta, grid, x0=2.0, z0=0.5)


def test_revolve_validates_and_rejects_bad_args():
    c = pseudo_sphere(uniform_grid(0.3, 2.8, 33))
    for axis in ("z", "x"):
        surf = revolve(c, axis=axis, n_theta=16)
        assert surf.grid.validate()["passed"]
        assert surf.theta.size == 16
        assert surf.grid.x.shape == (33, 16, 3)
    with pytest.raises(ValueError):
        revolve(c, n_theta=4)
    for call in (lambda: revolve(c, axis="y"),
                 lambda: revolution_curvature(c, axis="y"),
                 lambda: frontal_front_status(c, axis="y"),
                 lambda: cone_type_check(c, 1.0, axis="y"),
                 lambda: flat_classification(c, axis="y"),
                 lambda: parallel_commutation_check(c, 0.1, axis="y")):
        with pytest.raises(ValueError, match="axis"):
            call()


def test_closed_form_invariants_match_frame_projections():
    rng = np.random.default_rng(11)
    g = uniform_grid(0.0, 2.0, 41)
    for axis in ("z", "x"):
        c = random_profile(rng, g)
        surf = revolve(c, axis=axis, n_theta=12)
        proj = basic_invariants_of(surf.grid)
        # the (n_t, 1) columns hold at every theta
        for f in INV_FIELDS:
            want = getattr(proj, f)
            np.testing.assert_allclose(
                np.broadcast_to(getattr(surf.invariants, f), want.shape),
                want, atol=1e-12, err_msg=f"{axis}:{f}")
        for key, val in surf.invariants.cross.items():
            want = proj.cross[key]
            np.testing.assert_allclose(np.broadcast_to(val, want.shape),
                                       want, atol=1e-12,
                                       err_msg=f"{axis}:{key}")


def test_invariants_constant_along_theta():
    c = pseudo_sphere(uniform_grid(0.3, 2.8, 25))
    surf = revolve(c, axis="z", n_theta=20)
    proj = basic_invariants_of(surf.grid)
    for f in INV_FIELDS:
        rows = getattr(proj, f)
        assert np.max(np.abs(rows - rows[:, :1])) < 1e-12


def test_integrability_of_revolutes():
    rng = np.random.default_rng(23)
    g = uniform_grid(0.0, 1.5, 31)
    for axis in ("z", "x"):
        for _ in range(3):
            surf = revolve(random_profile(rng, g), axis=axis, n_theta=12)
            rep = integrability_residual(surf.invariants)
            assert rep.max_residual < 1e-10, axis


def test_curvature_closed_forms_both_axes():
    g = uniform_grid(0.25, 2.9, 37)
    c = pseudo_sphere(g)
    x, z = c.curve.x.value, c.curve.z.value
    a, b = c.normal.a.value, c.normal.b.value
    pair = curvature_pair_of(c)
    ell, beta = pair.ell.value, pair.beta.value

    rc = revolution_curvature(c, axis="z")
    np.testing.assert_allclose(rc.J, -beta * x, atol=1e-12)
    np.testing.assert_allclose(rc.K, -a * ell, atol=1e-12)
    np.testing.assert_allclose(rc.H, (x * ell + beta * a) / 2, atol=1e-12)
    np.testing.assert_allclose(rc.det_bg, -beta * b, atol=1e-12)
    np.testing.assert_allclose(rc.det_fg, -ell * b, atol=1e-12)

    rx = revolution_curvature(c, axis="x")
    np.testing.assert_allclose(rx.J, -beta * z, atol=1e-12)
    np.testing.assert_allclose(rx.K, -b * ell, atol=1e-12)
    np.testing.assert_allclose(rx.H, -(z * ell + beta * b) / 2, atol=1e-12)
    np.testing.assert_allclose(rx.det_bg, beta * a, atol=1e-12)
    np.testing.assert_allclose(rx.det_fg, -ell * a, atol=1e-12)

    # same numbers through the framed-surface determinants
    for axis, r in (("z", rc), ("x", rx)):
        C = curvature_of(revolve(c, axis=axis, n_theta=10).invariants)
        np.testing.assert_allclose(C.J[:, 0], r.J, atol=1e-12)
        np.testing.assert_allclose(C.K[:, 0], r.K, atol=1e-12)
        np.testing.assert_allclose(C.H[:, 0], r.H, atol=1e-12)


def test_pseudo_sphere_has_unit_negative_curvature_ratio():
    g = uniform_grid(0.2, np.pi - 0.2, 161)
    rc = revolution_curvature(pseudo_sphere(g), axis="z")
    m = np.abs(rc.J) > 1e-3
    np.testing.assert_allclose(rc.K[m] / rc.J[m], -1.0, atol=1e-10)


def test_front_status_pairs():
    g = np.pi / 2 + uniform_grid(-1.2, 1.2, 41)
    assert frontal_front_status(pseudo_sphere(g), axis="z").is_front
    # ell = cos t vanishes at pi/2; pick theta0 so the normal angle
    # theta0 + sin t - sin(g[0]) hits pi/2 there, making a vanish too
    theta0 = np.pi / 2 - (1.0 - np.sin(g[0]))
    c = reconstruct_from_curvature("cos(t)", "1", g, theta0=theta0)
    st = frontal_front_status(c, axis="z")
    assert not st.is_front
    mid = g[np.argmin(np.abs(g - np.pi / 2))]
    assert any(abs(f["t"] - mid) < 1e-12 for f in st.failures)
    assert frontal_front_status(c, axis="x").is_front

    # about x the pair is (ell, b), reported in the profile's own signs
    g0 = uniform_grid(-1.0, 1.0, 41)
    # the normal angle is 1 + t^2 - 1 = t^2, so ell and b vanish at t = 0
    c = reconstruct_from_curvature("2*t", "1", g0, theta0=1.0)
    assert frontal_front_status(c, axis="z").is_front
    assert not frontal_front_status(c, axis="x").is_front
    # a loose tol makes nodes with nonzero ell and b count as failures too
    st = frontal_front_status(c, axis="x", tol=0.2)
    assert len(st.failures) > 1
    ell = curvature_pair_of(c).ell.value
    for f in st.failures:
        assert set(f) == {"index", "t", "ell", "b"}
        assert f["ell"] == ell[f["index"]]
        assert f["b"] == c.normal.b.value[f["index"]]
    assert any(f["t"] == 0.0 for f in st.failures)


def test_xz_congruence_only_for_diagonal_lines():
    g = uniform_grid(0.0, 1.0, 21)
    s = 0.7071067811865476
    line = legendre_from_expressions("t+1", "t", f"{s}", f"{-s}", g)
    rep = xz_congruence_check(line)
    assert rep.congruent
    circle = legendre_from_expressions("cos(t)", "sin(t)", "cos(t)", "sin(t)", g)
    rep2 = xz_congruence_check(circle)
    assert not rep2.congruent
    assert "ell" in rep2.reason


def test_cone_type_point():
    g = uniform_grid(-1.0, 1.0, 41)
    s = 0.7071067811865476
    # about x the profile is mirrored: (x, z, a, b) -> (z, x, b, a)
    for axis, exprs in (("z", ("t", "t", f"{s}", f"{-s}")),
                        ("x", ("t", "t", f"{-s}", f"{s}"))):
        cone = legendre_from_expressions(*exprs, g)
        rep = cone_type_check(cone, 0.0, axis=axis)
        assert rep.is_cone_type, axis
        assert abs(rep.values["beta"]) > 1.0
        off = cone_type_check(cone, 0.5, axis=axis)
        assert not off.is_cone_type, axis


def test_flat_classification_cases():
    g = uniform_grid(0.0, 1.0, 21)
    s = 0.7071067811865476
    cases = [
        (("1", "t", "1", "0"), "cylinder"),
        (("t+1", "1", "0", "1"), "plane"),
        (("t", "t", f"{s}", f"{-s}"), "cone"),
        (("2", "3", "1", "0"), "circle"),
        (("0", "0", "1", "0"), "point"),
        (("0", "t", "1", "0"), "line"),
        (("cos(t)", "sin(t)", "cos(t)", "sin(t)"), "not_flat"),
    ]
    for (x, z, a, b), want in cases:
        c = legendre_from_expressions(x, z, a, b, g)
        assert flat_classification(c, axis="z").label == want, (x, z, a, b)
        # the mirrored profile about x sweeps out the same surface
        m = legendre_from_expressions(z, x, b, a, g)
        assert flat_classification(m, axis="x").label == want, (z, x, b, a)


def test_evolute_bundle_pseudo_sphere():
    # grid places a node exactly at pi/2 where the axis formula degenerates
    g = uniform_grid(0.2, np.pi - 0.2, 161)
    c = pseudo_sphere(g)
    bundle = revolution_evolutes(c, n_theta=12)
    assert bundle.first_profile is not None
    np.testing.assert_allclose(bundle.first_profile.curve.x.value,
                               1 / np.sin(g), atol=1e-9)
    np.testing.assert_allclose(bundle.first_profile.curve.z.value,
                               np.log(np.tan(g / 2)), atol=1e-9)
    assert bundle.first_surface is not None
    assert bundle.first_surface.grid.validate()["passed"]
    flagged = np.flatnonzero(bundle.axis_flags)
    assert list(flagged) == [80]
    ref = np.log(np.tan(g / 2)) + 1 / np.cos(g)
    ok = np.abs(np.cos(g)) > 2e-2
    np.testing.assert_allclose(bundle.axis_curve[ok, 2], ref[ok], atol=1e-9)
    assert "axis" in bundle.diagnostics


def test_evolute_bundle_degenerate_turning():
    g = uniform_grid(-0.5, 0.5, 41)
    c = reconstruct_from_curvature("t", "1", g, x0=2.0)   # ell crosses zero
    bundle = revolution_evolutes(c, n_theta=12)
    assert bundle.first_profile is None
    assert "first" in bundle.diagnostics


def test_parallel_commutation_both_axes():
    rng = np.random.default_rng(31)
    g = uniform_grid(0.0, 1.5, 41)
    for axis in ("z", "x"):
        for lam in (-0.4, 0.8):
            c = random_profile(rng, g)
            rep = parallel_commutation_check(c, lam, axis=axis)
            assert rep.passed, (axis, lam)
            assert max(rep.max_residuals.values()) <= 1e-10


def test_x_axis_parallel_pairs_with_negated_offset():
    # the x-axis frame normal is the negative of the revolved profile
    # normal, so offsetting the surface by lam matches revolving the
    # profile offset by -lam
    rng = np.random.default_rng(7)
    g = uniform_grid(0.0, 1.2, 31)
    c = random_profile(rng, g)
    lam = 0.6
    surf = revolve(c, axis="x", n_theta=10)
    off_grid, _ = parallel_surface(surf.grid, lam)
    direct = revolve(parallel_curve(c, -lam), axis="x", n_theta=10)
    np.testing.assert_allclose(off_grid.x, direct.grid.x, atol=1e-12)


def eager_grid(c, axis, n_theta):
    """The framed grid with all twelve fields built at once.

    The reference for the grid that revolve builds on read: the adapted
    profile is written out per axis, and every field is an outer product
    of a profile column with cos theta or sin theta.
    """
    x, z = c.curve.x.value, c.curve.z.value
    a, b = c.normal.a.value, c.normal.b.value
    pair = curvature_pair_of(c)
    ell, beta = pair.ell.value, pair.beta.value
    if axis == "z":
        r, h, n_r, n_h, k, order = x, z, a, b, ell, (0, 1, 2)
    else:
        r, h, n_r, n_h, k, order = z, x, -b, -a, -ell, (2, 0, 1)
    r_t, h_t, n_r_t, n_h_t = -beta * n_h, beta * n_r, -k * n_h, k * n_r
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    ct, st = np.cos(theta), np.sin(theta)
    ones, zero = np.ones(c.t.size), np.zeros((c.t.size, n_theta))
    outer = np.multiply.outer

    def lift(*comps):
        return np.stack([comps[i] for i in order], axis=-1)

    def meridian(f, g):
        return lift(outer(f, ct), outer(f, st), outer(g, np.ones(n_theta)))

    def turned(f):
        return lift(-outer(f, st), outer(f, ct), zero)

    X = meridian(r, h)
    return FramedSurfaceGrid(
        u=c.t, v=theta, x=X, n=meridian(n_r, n_h),
        s=lift(outer(ones, st), -outer(ones, ct), zero),
        x_u=meridian(r_t, h_t), x_v=turned(r),
        n_u=meridian(n_r_t, n_h_t), n_v=turned(n_r),
        s_u=np.zeros_like(X), s_v=lift(outer(ones, ct), outer(ones, st), zero),
        x_uv=turned(r_t), n_uv=turned(n_r_t), s_uv=np.zeros_like(X))


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_dict(got, want):
    assert list(got) == list(want)
    for key in want:
        assert type(got[key]) is type(want[key]), key
        assert_same_bytes(got[key], want[key], key)


@pytest.mark.parametrize("n_t", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("axis", ["z", "x"])
def test_fields_on_read_match_eager_grid(n_t, axis):
    c = pseudo_sphere(np.linspace(0.3, 2.8, n_t))
    want = eager_grid(c, axis, 24)
    surf = revolve(c, axis=axis, n_theta=24)
    for name in GRID_FIELDS:
        assert_same_bytes(getattr(surf.grid, name), getattr(want, name), name)
    step = export._OBJ_RINGS
    for i0, i1 in ([(i, i + step) for i in range(0, n_t, step)]
                   + [(0, n_t), (0, n_t + 10), (5, 70), (n_t - 1, n_t)]):
        assert_same_bytes(surf.rings(i0, i1), want.x[i0:i1], (i0, i1))
    assert_same_dict(surf.validate(), want.validate())
    assert_same_dict(surf.validate(tol=1e-18), want.validate(tol=1e-18))


def test_validate_by_blocks_matches_eager_grid_on_random_profiles():
    rng = np.random.default_rng(5)
    g = uniform_grid(0.0, 2.0, 200)
    for axis in ("z", "x"):
        c = random_profile(rng, g)
        want = eager_grid(c, axis, 16)
        surf = revolve(c, axis=axis, n_theta=16)
        assert_same_dict(surf.validate(), want.validate())
        assert_same_bytes(surf.rings(0, 200), want.x, axis)


def test_validate_by_blocks_keeps_nan():
    # a NaN in a late block must survive the max over blocks, as it does
    # in one np.max over the whole grid
    c = pseudo_sphere(np.linspace(0.3, 2.8, 130))
    c.normal.a.coeffs[0, 100] = np.nan
    want = eager_grid(c, "z", 16).validate()
    got = revolve(c, axis="z", n_theta=16).validate()
    assert np.isnan(got["unit_n"]) and not got["passed"]
    assert_same_dict(got, want)


def test_commutation_report_matches_eager_grids():
    rng = np.random.default_rng(31)
    g = uniform_grid(0.0, 1.5, 41)
    for axis, sign in (("z", 1.0), ("x", -1.0)):
        for lam in (-0.4, 0.8):
            c = random_profile(rng, g)
            pc = parallel_curve(c, sign * lam)
            grid_a, inv_a = parallel_surface(
                eager_grid(c, axis, 16), lam,
                revolve(c, axis=axis, n_theta=16).invariants)
            grid_b = eager_grid(pc, axis, 16)
            inv_b = revolve(pc, axis=axis, n_theta=16).invariants
            want = {name: float(np.max(np.abs(getattr(grid_a, name)
                                              - getattr(grid_b, name))))
                    for name in GRID_FIELDS[2:]}
            for name in INV_FIELDS:
                want[name] = float(np.max(np.abs(getattr(inv_a, name)
                                                 - getattr(inv_b, name))))
            for key in inv_a.cross:
                want["d_" + key] = float(np.max(np.abs(inv_a.cross[key]
                                                       - inv_b.cross[key])))
            rep = parallel_commutation_check(c, lam, axis=axis)
            assert_same_dict(rep.max_residuals, want)
            assert rep.passed == (max(want.values()) <= 1e-10)


def test_grid_builds_only_the_fields_read():
    c = pseudo_sphere(np.linspace(0.3, 2.8, 40))
    grid = revolve(c, axis="x", n_theta=12).grid
    assert isinstance(grid, FramedSurfaceGrid)
    assert grid.x.shape == (40, 12, 3)
    assert not {"n", "s", "x_u", "s_uv"} & set(vars(grid))
    assert grid.x is grid.x


def test_rings_and_validate_stay_below_one_full_field():
    # the OBJ writer's ring blocks and the frame check hold one block of
    # rings at a time, never a whole (n_t, n_theta, 3) field
    n_t, n_theta = 2000, 128
    c = pseudo_sphere(np.linspace(0.3, 2.8, n_t))
    full_field = n_t * n_theta * 3 * 8
    tracemalloc.start()
    try:
        surf = revolve(c, n_theta=n_theta)
        for i in range(0, n_t, export._OBJ_RINGS):
            surf.rings(i, i + export._OBJ_RINGS)
        assert surf.validate()["passed"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_field, peak
