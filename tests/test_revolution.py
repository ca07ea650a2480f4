"""Surfaces of revolution of Legendre profiles.

Dual-path checks: the closed-form invariant grids attached by revolve()
against projection-based recomputation from the realized frame, and the
curvature densities against explicit formulas in the profile data.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest

from revfront import export
from revfront.framed import (FramedSurfaceGrid, basic_invariants_of,
                             curvature_of, immersion_status,
                             integrability_residual)
from revfront.framed import parallel_surface
from revfront.legendre import (CurveJet, LegendreCurve, NormalJet,
                               curvature_pair_of, legendre_from_expressions,
                               parallel_curve, plane_evolute,
                               reconstruct_from_curvature, verify_legendre)
from revfront.quadrature import uniform_grid
from revfront.revolution import (cone_type_check, frontal_front_status,
                                 parallel_commutation_check,
                                 revolution_curvature, revolution_evolutes,
                                 revolve)

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


@pytest.mark.parametrize("t0", [float("nan"), float("inf"), -float("inf")])
def test_cone_type_check_refuses_a_t0_that_is_not_finite(t0):
    # argmin gave node 0 here, and the check reported on t = -1
    cone = legendre_from_expressions("t", "t", "0.7", "-0.7",
                                     uniform_grid(-1.0, 1.0, 41))
    with pytest.raises(ValueError, match="t0 must be finite"):
        cone_type_check(cone, t0)


# every public zero test that takes a tol, called on a profile and a tol
TOL_USERS = {
    "verify_legendre": lambda c, tol: verify_legendre(c, tol),
    "plane_evolute": lambda c, tol: plane_evolute(c, tol),
    "frontal_front_status": lambda c, tol: frontal_front_status(c, "z", tol),
    "cone_type_check": lambda c, tol: cone_type_check(c, 0.6, "z", tol),
    "revolution_evolutes": lambda c, tol: revolution_evolutes(c, 8, tol),
    "parallel_commutation_check":
        lambda c, tol: parallel_commutation_check(c, 0.1, "z", tol),
    "RevolutionSurface.validate":
        lambda c, tol: revolve(c, n_theta=8).validate(tol),
    "FramedSurfaceGrid.validate":
        lambda c, tol: revolve(c, n_theta=8).grid.validate(tol),
    "immersion_status": lambda c, tol: immersion_status(
        curvature_of(revolve(c, n_theta=8).invariants), (0, 0), tol),
    "invariants_records": lambda c, tol: export.invariants_records(
        revolve(c, n_theta=8).invariants, tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("name", sorted(TOL_USERS))
def test_zero_tests_refuse_a_tol_that_is_no_tolerance(name, tol):
    # with tol = NaN every comparison is false: revolution_evolutes called
    # both evolutes unavailable, invariants_records labelled J = -2
    # degenerate, plane_evolute skipped its ell = 0 refusal
    c = reconstruct_from_curvature("1", "1", uniform_grid(0.2, 1, 21), x0=2)
    TOL_USERS[name](c, 1e-8)
    with pytest.raises(ValueError, match="tol must be finite and "
                                         "non-negative"):
        TOL_USERS[name](c, tol)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
def test_offsets_refuse_a_lam_that_is_not_finite(lam):
    # parallel_curve and parallel_surface returned all-NaN geometry, and
    # parallel_commutation_check reported passed=False
    c = reconstruct_from_curvature("1", "1", uniform_grid(0.2, 1, 21), x0=2)
    surf = revolve(c, n_theta=8)
    for offset in (lambda lam: parallel_curve(c, lam),
                   lambda lam: parallel_surface(surf.grid, lam,
                                                surf.invariants),
                   lambda lam: parallel_commutation_check(c, lam)):
        offset(0.1)
        with pytest.raises(ValueError, match="lam must be finite"):
            offset(lam)


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
    # x b = -1 there over a simple zero of a = cos t: a pole
    assert bundle.axis_curve[80, 2] == 0.0
    assert bundle.diagnostics["axis"] == "axis evolute undefined at t in [1.5708]"


def sphere(centre, radius, grid):
    return legendre_from_expressions(f"{radius!r}*sin(t)",
                                     f"{centre!r}+{radius!r}*cos(t)",
                                     "sin(t)", "cos(t)", grid)


def paraboloid(k, grid):
    """x = t, z = k t^2: focal point 1/(2k) above the vertex t = 0."""
    w = f"sqrt(1+{4 * k * k!r}*t^2)"
    return legendre_from_expressions("t", f"{k!r}*t^2", f"-{2 * k!r}*t/{w}",
                                      f"1/{w}", grid)


# the zero of a at a grid end, and 3e-10 and 2.2e-8 off a node (node 20
# here); at 2.2e-8 the tol rule calls a zero at node 20 but not x b
AT_END, OFF_NODE = (0.0, 1.0), (-1.0 + 3e-10, 1.0 + 3e-10)
FURTHER_OFF = (-1.0 + 2.2e-8, 1.0 + 2.2e-8)


@pytest.mark.parametrize("pad", [0.0, 3e-10])
def test_axis_locus_of_a_sphere_is_its_centre(pad):
    # the normal passes through the centre, also at the poles, where
    # x b / a = r sin t cos t / sin t is removable
    rng = np.random.default_rng(29)
    for _ in range(5):
        centre, radius = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        g = uniform_grid(-pad, np.pi + pad, 41)
        bundle = revolution_evolutes(sphere(centre, radius, g), n_theta=8)
        assert not bundle.axis_flags.any()
        assert "axis" not in bundle.diagnostics
        assert np.max(np.abs(bundle.axis_curve[:, 2] - centre)) <= 1e-14


@pytest.mark.parametrize("ends", [AT_END, OFF_NODE, FURTHER_OFF])
@pytest.mark.parametrize("k", [0.05, 0.3, 1.0, 2.5])
def test_axis_locus_of_a_paraboloid(k, ends):
    g = uniform_grid(*ends, 41)
    bundle = revolution_evolutes(paraboloid(k, g), n_theta=8)
    assert not bundle.axis_flags.any()
    want = k * g * g + 1.0 / (2.0 * k)
    assert np.max(np.abs(bundle.axis_curve[:, 2] - want)) <= 1e-14
    vertex = np.argmin(np.abs(g))
    assert abs(bundle.axis_curve[vertex, 2] - 1.0 / (2.0 * k)) <= 1e-14


@pytest.mark.parametrize("e, pad", [(1.0, 3e-10), (1.0, 8e-9), (0.01, 3e-10),
                                    (0.01, 2.2e-8), (0.01, 4e-7)])
def test_axis_locus_off_a_node_where_the_quotient_has_a_slope(e, pad):
    # x = t, z = e t^2 + t^3: x b / a = -1/(2e + 3t), whose slope is 3/(4e^2)
    # at the zero t = 0 of a, pad off node 20 and inside the tol band there
    g = uniform_grid(-0.5 + pad, 0.5 + pad, 41)
    w = f"sqrt(1+({2 * e!r}*t+3*t^2)^2)"
    c = legendre_from_expressions("t", f"{e!r}*t^2+t^3",
                                  f"-({2 * e!r}*t+3*t^2)/{w}", f"1/{w}", g)
    a = c.normal.a.value
    assert abs(a[20]) <= 1e-8 * (1.0 + np.max(np.abs(a)))   # read at the zero
    bundle = revolution_evolutes(c, n_theta=8)
    assert not bundle.axis_flags.any()
    want = e * g * g + g ** 3 + 1.0 / (2.0 * e + 3.0 * g)
    err = np.abs(bundle.axis_curve[:, 2] - want)
    assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(want)))


def test_axis_locus_from_jets_of_order_zero():
    # theta = t^2/2 - t + pi/2 + 3/8: a = cos theta vanishes at nodes 10
    # (t = 0.5, where x0 puts the profile on the axis) and 30 (t = 1.5,
    # off it: a pole); ell = t - 1 vanishes at node 20, so there is no
    # first evolute, which needs jets of order 1
    g = uniform_grid(0.0, 2.0, 41)
    theta0 = np.pi / 2 + 0.375
    x0 = -reconstruct_from_curvature("t-1", "1", g, theta0=theta0).curve.x.value[10]
    axis = {}
    top = reconstruct_from_curvature("t-1", "1", g, theta0=theta0, x0=x0)
    for order in (0, 5):
        c = top.truncated(order)
        bundle = revolution_evolutes(c, n_theta=8)
        assert np.flatnonzero(bundle.axis_flags).tolist() == [30]
        axis[order] = bundle.axis_curve[:, 2]
    # at node 10, x b / a = (x b)' / a' = (-beta b^2) / (-ell b) = -2
    assert abs(axis[0][10] - (c.curve.z.value[10] + 2.0)) <= 1e-14
    assert np.max(np.abs(axis[0] - axis[5])) <= 1e-14


# each profile with a grid on which a vanishes at some node
VANISHING_A = {
    "sphere": (lambda g: sphere(0.5, 1.0, g), (0.0, np.pi)),
    "paraboloid": (lambda g: paraboloid(1.0, g), AT_END),
    "pseudo-sphere": (pseudo_sphere, (0.2, np.pi - 0.2)),
}


@pytest.mark.parametrize("name", sorted(VANISHING_A))
def test_axis_locus_keeps_the_direct_formula_where_a_does_not_vanish(name):
    profile, ends = VANISHING_A[name]
    c = profile(uniform_grid(*ends, 161))
    x, z = c.curve.x.value, c.curve.z.value
    a, b = c.normal.a.value, c.normal.b.value
    direct = np.abs(a) > 1e-8 * (1.0 + np.max(np.abs(a)))
    assert not direct.all()
    axis = revolution_evolutes(c, n_theta=8).axis_curve[:, 2]
    want = z[direct] - x[direct] * b[direct] / a[direct]
    assert np.array_equal(axis[direct], want)


def test_evolute_bundle_degenerate_turning():
    g = uniform_grid(-0.5, 0.5, 41)
    c = reconstruct_from_curvature("t", "1", g, x0=2.0)   # ell crosses zero
    bundle = revolution_evolutes(c, n_theta=12)
    assert bundle.first_profile is None
    assert "first" in bundle.diagnostics


def _pair_profile(ell, x0):
    return lambda g, order: reconstruct_from_curvature(
        ell, "1", g, x0=x0).truncated(order)


def _expression_profile(g, order):
    """The expression curve's x, z, a and b jets cut to order, with no
    curvature pair: its evolute jets are one order lower (truncated would
    attach the order-5 pair, cut to order)."""
    c = legendre_from_expressions("2+cos(t)", "sin(t)", "cos(t)", "sin(t)",
                                  g)
    x, z, a, b = (j.truncated(order) for j in (c.curve.x, c.curve.z,
                                                c.normal.a, c.normal.b))
    return LegendreCurve(CurveJet(g, x, z), NormalJet(g, a, b))


@pytest.mark.parametrize("profile, order, span", [
    # the unit circle about the origin: both evolutes are its centre, and
    # at pi/2, where a = cos t vanishes, the structure equations give the
    # first derivatives the order-0 jets lack
    (_pair_profile("1", 1.0), 0, (0.0, np.pi)),
    # ell and beta of order-1 expressions are of order 0, and so is the
    # evolute
    (_expression_profile, 1, (0.0, 3.0)),
    (_pair_profile("1+t/4", 2.0), 0, (0.2, 1.4)),
    (_expression_profile, 1, (0.2, 1.4)),
], ids=["circle-0", "expressions-1-to-3", "pair-0", "expressions-1"])
def test_order_zero_evolute_jets_keep_the_axis_locus(profile, order, span):
    # the evolute's jets are of order 0: its revolute would differentiate
    # them, so the first evolute is left out as where ell vanishes, and
    # the axis locus, which needs values only, is kept and matches the
    # order-5 run (before, revolve raised "cannot differentiate an order-0
    # jet")
    g = uniform_grid(*span, 41)
    bundle = revolution_evolutes(profile(g, order), n_theta=8)
    assert list(bundle.diagnostics) == ["first"]
    assert "order 0" in bundle.diagnostics["first"]
    assert bundle.first_profile is None and bundle.first_surface is None
    want = revolution_evolutes(profile(g, 5), n_theta=8)
    assert "first" not in want.diagnostics
    assert want.first_surface is not None
    np.testing.assert_array_equal(bundle.axis_flags, want.axis_flags)
    np.testing.assert_allclose(bundle.axis_curve, want.axis_curve,
                               atol=1e-9)
    if span == (0.0, np.pi):   # the circle's centre, flagged nowhere
        assert np.flatnonzero(bundle.axis_flags).tolist() == []
        np.testing.assert_allclose(bundle.axis_curve, np.zeros((41, 3)),
                                   atol=1e-9)


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


TABLE_SIZES = (8, 12, 16, 30, 64, 128, 129, 130, 256)


def table(n):
    """theta and the cos/sin table of a revolute on n angles."""
    surf = revolve(pseudo_sphere(np.linspace(0.3, 2.8, 5)), n_theta=n)
    return surf.theta, *surf._cos_sin


@pytest.mark.parametrize("n", TABLE_SIZES)
def test_cos_sin_table_is_exactly_symmetric(n):
    # == is exact; the zeros' signs are checked on their own below
    _, c, s = table(n)
    j = np.arange(1, n)
    assert np.array_equal(c[n - j], c[j]) and np.array_equal(s[n - j], -s[j])
    if n % 2 == 0:
        j = np.arange(n // 2)
        assert np.array_equal(c[j + n // 2], -c[j])
        assert np.array_equal(s[j + n // 2], -s[j])
    if n % 4 == 0:
        j = np.arange(3 * n // 4)
        assert np.array_equal(c[j + n // 4], -s[j])
        assert np.array_equal(s[j + n // 4], c[j])
        j = np.arange(n // 4 + 1)
        assert np.array_equal(c[n // 4 - j], s[j])


@pytest.mark.parametrize("n", TABLE_SIZES)
def test_cos_sin_table_zeros_are_positive(n):
    _, c, s = table(n)
    cs = np.concatenate([c, s])
    zeros = cs[cs == 0.0]
    assert zeros.size == 1 + (n % 2 == 0) + 2 * (n % 4 == 0)
    assert not np.signbit(zeros).any()


@pytest.mark.parametrize("n", TABLE_SIZES)
def test_cos_sin_table_sector_is_numpys(n):
    # the first sector: [0, pi/4], [0, pi/2] or [0, pi]; at pi/4 sin takes
    # the value of cos, sqrt(1/2) correctly rounded
    theta, c, s = table(n)
    d = 8 if n % 4 == 0 else 4 if n % 2 == 0 else 2
    j = np.arange(n // d + 1)
    assert np.array_equal(c[j], np.cos(theta[j]))
    if n % 8 == 0:
        assert c[n // 8] == s[n // 8] == np.sqrt(0.5)
        j = j[:-1]
    assert np.array_equal(s[j], np.sin(theta[j]))


@pytest.mark.parametrize("n", TABLE_SIZES)
def test_cos_sin_table_is_no_farther_from_the_circle_than_numpy(n):
    theta, c, s = table(n)

    def error(cos, sin):
        with mpmath.workdps(40):
            angle = [2 * mpmath.pi * j / n for j in range(n)]
            return max(max(abs(mpmath.mpf(float(v)) - f(a))
                           for v, a in zip(vals, angle))
                       for vals, f in ((cos, mpmath.cos), (sin, mpmath.sin)))

    assert error(c, s) <= error(np.cos(theta), np.sin(theta))


@pytest.mark.parametrize("n, count", zip(TABLE_SIZES,
                                         (3, 4, 5, 16, 17, 33, 130, 66, 65)))
def test_ring_slots_count_the_sector_magnitudes(n, count):
    surf = revolve(pseudo_sphere(np.linspace(0.3, 2.8, 5)), n_theta=n)
    assert surf._ring_slots[0].size == count


@pytest.mark.parametrize("axis", ["z", "x"])
def test_mirrored_vertices_print_equal_magnitudes(axis, tmp_path):
    n = 128
    surf = revolve(pseudo_sphere(np.linspace(0.3, 2.8, 70)), axis=axis,
                   n_theta=n)
    export.write_surface_obj(surf, tmp_path / "mesh.obj")
    lines = (tmp_path / "mesh.obj").read_text().splitlines()
    rings = np.array([line.replace("-", "").split()[1:]
                      for line in lines if line.startswith("v ")])
    rings = rings.reshape(70, n + 1, 3)[:, :n]
    j = np.arange(1, n)
    assert (rings[:, n - j] == rings[:, j]).all()
    # the quarter turn is exact: r cos(pi/2) prints 0
    r = "xyz".index({"z": "x", "x": "y"}[axis])
    assert (rings[:, n // 4, r] == "0").all()


def eager_grid(c, axis, n_theta):
    """The framed grid with all twelve fields built at once.

    The reference for the grid that revolve builds on read: the adapted
    profile is written out per axis, and every field is an outer product
    of a profile column with cos theta or sin theta, read from the
    surface's one table (its identities are tested above).
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
    ct, st = revolve(c, axis=axis, n_theta=n_theta)._cos_sin
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


def positions(surf, i0, i1):
    """The positions of rings i0:i1 gathered from ring_table, signed."""
    values, order, neg = surf.ring_table(i0, i1)
    magnitudes = values[:, order]
    return np.where(neg, -magnitudes, magnitudes)


def ring_rows(x):
    """A block of field x as one row of 3 * n_theta numbers per ring."""
    return x.reshape(x.shape[0], 3 * x.shape[1])


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
        assert_same_bytes(positions(surf, i0, i1), ring_rows(want.x[i0:i1]),
                          (i0, i1))
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
        assert_same_bytes(positions(surf, 0, 200), ring_rows(want.x), axis)


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
            surf.ring_table(i, i + export._OBJ_RINGS)
        assert surf.validate()["passed"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_field, peak


def test_obj_writer_stays_below_four_mib(tmp_path):
    # the writer holds one block of rings at a time, as number and index
    # cells and their text; a whole-mesh index table (516 000 ids) or the
    # whole text would not fit
    c = pseudo_sphere(np.linspace(0.3, 2.8, 4000))
    surf = revolve(c, n_theta=128)
    tracemalloc.start()
    try:
        export.write_surface_obj(surf, tmp_path / "mesh.obj")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak


def test_commutation_check_stays_below_three_full_fields():
    # the check compares the two surfaces one block of rings at a time; on
    # whole grids it held every field of both sides, about 31 full fields
    n_t = 2000
    c = pseudo_sphere(np.linspace(0.3, 2.8, n_t))
    full_field = n_t * 16 * 3 * 8
    tracemalloc.start()
    try:
        assert parallel_commutation_check(c, 0.4).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * full_field, peak
