"""Profile construction from prescribed curvature data.

Every fixture has a closed-form solution; the asserts pin both the
profile and the identity the construction is supposed to enforce.
"""

from dataclasses import asdict

import numpy as np
import pytest

from revfront.construct import (ConstructionError, GaussRatioProblem,
                                MeanRatioProblem, profile_from_H_phi,
                                profile_from_J_phi, profile_from_JK,
                                profile_from_gauss_ratio,
                                profile_from_mean_ratio)
from revfront.legendre import (curvature_pair_of, legendre_from_expressions,
                               reconstruct_from_curvature, verify_legendre)
from revfront.quadrature import FineGrid, uniform_grid
from revfront.revolution import revolution_curvature

PI = np.pi


def report_of(c):
    return c.flags["construction"]


def test_gauss_rk4_pseudo_sphere():
    g = uniform_grid(0.2, PI - 0.2, 400)
    p = GaussRatioProblem(alpha="-1", beta="cot(t)", t0=0.2,
                          x0=np.sin(0.2), sin_phi0=-np.sin(0.2))
    c = profile_from_gauss_ratio(p, g)
    np.testing.assert_allclose(c.curve.x.value, np.sin(g), atol=1e-12)
    assert verify_legendre(c).passed
    rc = revolution_curvature(c, axis="z")
    m = np.abs(rc.J) > 1e-3
    np.testing.assert_allclose(rc.K[m] / rc.J[m], -1.0, atol=1e-12)
    rep = report_of(c)
    assert rep.method == "gauss_rk4"
    np.testing.assert_allclose(rep.flips, [PI / 2], atol=1e-9)
    assert rep.flagged_nodes == []
    assert rep.ode_residual < 1e-10
    assert rep.anchor_offset == 0.0


def test_gauss_rk4_harmonic_oscillator():
    # alpha = beta = 1 turns the profile equation into x'' = -x
    g = uniform_grid(0.0, 2.0, 161)
    p = GaussRatioProblem(alpha="1", beta="1", t0=0.5, x0=0.4, sin_phi0=0.2)
    c = profile_from_gauss_ratio(p, g)
    want = 0.4 * np.cos(g - 0.5) - 0.2 * np.sin(g - 0.5)
    np.testing.assert_allclose(c.curve.x.value, want, atol=1e-12)
    rc = revolution_curvature(c, axis="z")
    m = np.abs(rc.J) > 1e-3
    np.testing.assert_allclose(rc.K[m] / rc.J[m], 1.0, atol=1e-12)


def test_gauss_rk4_off_lattice_anchor():
    g = uniform_grid(0.2, PI - 0.2, 161)
    p = GaussRatioProblem(alpha="-1", beta="cot(t)", t0=0.7001234,
                          x0=np.sin(0.7001234), sin_phi0=-np.sin(0.7001234))
    c = profile_from_gauss_ratio(p, g)
    rep = report_of(c)
    assert rep.anchor_offset != 0.0
    assert abs(rep.anchor_offset) <= (g[1] - g[0]) / 32 + 1e-12
    np.testing.assert_allclose(c.curve.x.value, np.sin(g), atol=1e-12)
    pair = curvature_pair_of(c)
    np.testing.assert_allclose(pair.ell.value, -1.0, atol=1e-8)


def test_non_uniform_grids_keep_uniform_accuracy():
    # 150 + 50 nodes split at t = 1: RK4 on s[1] - s[0] used to return
    # max |x - sin t| = 9.6e-2 here; RK4 now steps by each interval's own h
    g = np.concatenate([np.linspace(0.4, 1.0, 150),
                        np.linspace(1.0, 1.5, 51)[1:]])
    p = GaussRatioProblem(alpha="-1", beta="cot(t)", t0=1.0,
                          x0=np.sin(1.0), sin_phi0=-np.sin(1.0))
    c = profile_from_gauss_ratio(p, g)
    assert np.max(np.abs(c.curve.x.value - np.sin(g))) < 1e-12
    u = profile_from_gauss_ratio(p, uniform_grid(0.4, 1.5, 200))
    np.testing.assert_allclose(u.curve.x.value, np.sin(u.t), atol=1e-12)
    # uniform step 0.005 shares 0.4 and the 51 nodes of [1, 1.5] with g
    u = profile_from_gauss_ratio(p, uniform_grid(0.4, 1.5, 221))
    _, ig, iu = np.intersect1d(np.round(g, 12), np.round(u.t, 12),
                               return_indices=True)
    assert ig.size == 52
    np.testing.assert_allclose(c.curve.x.value[ig], u.curve.x.value[iu],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.normal.b.value[ig], u.normal.b.value[iu],
                               rtol=0, atol=1e-12)
    # the Frobenius series region, sized from the fine steps at t0 = 0
    g = np.concatenate([np.linspace(0.0, 0.2, 41),
                        np.linspace(0.2, 0.45, 21)[1:]])
    p = GaussRatioProblem(alpha="-2/t^2", beta="1", t0=0.0, x0=1.0)
    c = profile_from_gauss_ratio(p, g)
    assert report_of(c).method == "gauss_frobenius"
    assert np.max(np.abs(c.curve.x.value - g ** 2)) <= 1e-12
    # the flip locator: the pseudo-sphere's flip at pi/2 lies in the
    # second block of steps, three times longer than the first
    g = np.concatenate([np.linspace(0.2, 1.0, 100),
                        np.linspace(1.0, PI - 0.2, 301)[1:]])
    c = profile_from_JK("-cos(t)", "cos(t)", x0=np.sin(0.2), grid=g,
                        t0=0.2, sin0=-np.sin(0.2))
    assert np.max(np.abs(c.curve.x.value - np.sin(g))) <= 1e-10
    flips = report_of(c).flips
    assert len(flips) == 1 and abs(flips[0] - PI / 2) <= 1e-10
    np.testing.assert_allclose(c.normal.a.value, np.cos(g), atol=1e-7)


TOUCH_GRIDS = {
    # node 200 lies one ulp below pi/2
    "uniform": uniform_grid(0.2, PI - 0.2, 401),
    # pi/2 is the break between a coarse and a fine block
    "split": np.concatenate([np.linspace(0.2, PI / 2, 61),
                             np.linspace(PI / 2, PI - 0.2, 301)[1:]]),
}
TOUCH_BUILDS = {   # the pseudo-sphere x = sin t seeded at t0
    "gauss": lambda g, cos_sign, t0=PI / 2: profile_from_gauss_ratio(
        GaussRatioProblem(alpha="-1", beta="cot(t)", t0=t0, x0=np.sin(t0),
                          sin_phi0=-np.sin(t0), cos_sign=cos_sign), g),
    "jk": lambda g, cos_sign, t0=PI / 2: profile_from_JK(
        "-cos(t)", "cos(t)", x0=np.sin(t0), grid=g, t0=t0,
        sin0=-np.sin(t0), cos_sign=cos_sign),
}


@pytest.mark.parametrize("grid", TOUCH_GRIDS.values(), ids=TOUCH_GRIDS.keys())
@pytest.mark.parametrize("build", TOUCH_BUILDS.values(),
                         ids=TOUCH_BUILDS.keys())
@pytest.mark.parametrize("cos_sign", [1.0, -1.0])
def test_cos_sign_holds_up_to_a_touch_at_the_anchor(grid, build, cos_sign):
    # |sin phi(t0)| = 1: the flip is fitted a rounding error to either
    # side of t0, which used to decide whether the profile came out
    # mirrored in z; cos_sign now holds for t <= t0 and flips after it
    assert np.min(np.abs(grid - PI / 2)) <= 1e-15
    c = build(grid, cos_sign)
    np.testing.assert_allclose(c.curve.x.value, np.sin(grid), atol=1e-9)
    np.testing.assert_allclose(c.normal.a.value, cos_sign * np.cos(grid),
                               atol=1e-6)
    flips = report_of(c).flips
    assert len(flips) == 1 and abs(flips[0] - PI / 2) <= 1e-9


def test_flip_near_an_anchor_that_is_no_touch_stays_fitted():
    # t0 a third of a fine step right of the touch at pi/2, whose sample
    # is still the anchor's: |sin phi(t0)| < 1, so the flip stays at pi/2,
    # left of t0, and cos phi = cos t on both sides.  (The gauss path
    # carries its seed from t0 to the lattice; J-K applies it at the node.)
    g = TOUCH_GRIDS["uniform"]
    t0 = PI / 2 + 0.35 * (g[1] - g[0]) / 16
    c = TOUCH_BUILDS["gauss"](g, -1.0, t0)
    assert report_of(c).anchor_offset > 0.0
    flips = report_of(c).flips
    assert len(flips) == 1 and abs(flips[0] - PI / 2) <= 1e-9
    np.testing.assert_allclose(c.curve.x.value, np.sin(g), atol=1e-9)
    np.testing.assert_allclose(c.normal.a.value, np.cos(g), atol=1e-6)


def test_gauss_sin_band_violation():
    g = uniform_grid(0.0, 3.0, 101)
    p = GaussRatioProblem(alpha="1", beta="2", t0=0.0, x0=1.0, sin_phi0=0.9)
    with pytest.raises(ConstructionError) as ei:
        profile_from_gauss_ratio(p, g)
    assert "sin" in str(ei.value)


def test_gauss_frobenius_euler_equation():
    # alpha = -2/t^2, beta = 1: x'' - (2/t^2) x = 0 with bounded branch t^2
    g = uniform_grid(0.0, 0.45, 101)
    p = GaussRatioProblem(alpha="-2/t^2", beta="1", t0=0.0, x0=1.0)
    c = profile_from_gauss_ratio(p, g)
    rep = report_of(c)
    assert rep.method == "gauss_frobenius"
    assert rep.notes["indicial_root"] == 2.0
    np.testing.assert_allclose(c.curve.x.value, g**2, atol=1e-12)
    # S = -x'/beta = -2t
    np.testing.assert_allclose(c.normal.b.value, -2 * g, atol=1e-10)
    assert verify_legendre(c).passed


def test_gauss_frobenius_scales_with_leading_coefficient():
    g = uniform_grid(0.0, 0.4, 81)
    p = GaussRatioProblem(alpha="-2/t^2", beta="1", t0=0.0, x0=0.25)
    c = profile_from_gauss_ratio(p, g)
    np.testing.assert_allclose(c.curve.x.value, 0.25 * g**2, atol=1e-12)


def test_gauss_frobenius_rejects_non_integer_root():
    g = uniform_grid(0.0, 0.4, 81)
    p = GaussRatioProblem(alpha="-0.75/t^2", beta="1", t0=0.0, x0=1.0)
    with pytest.raises(ConstructionError) as ei:
        profile_from_gauss_ratio(p, g)
    assert "indicial" in str(ei.value)


def test_gauss_forced_rk4_at_pole_fails():
    g = uniform_grid(0.0, 0.4, 81)
    p = GaussRatioProblem(alpha="-2/t^2", beta="1", t0=0.0, x0=1.0,
                          method="rk4")
    with pytest.raises(ConstructionError):
        profile_from_gauss_ratio(p, g)


def test_gauss_auto_t_dependent_exponent_is_not_a_pole():
    # alpha = 2^t cannot be evaluated at t0, but that is no pole: auto
    # picks RK4, which rejects alpha*beta on the grid
    g = uniform_grid(0.0, 0.4, 41)
    p = GaussRatioProblem(alpha="2^t", beta="1", t0=0.2, x0=1.0)
    with pytest.raises(ConstructionError,
                       match=r"^alpha\*beta cannot be evaluated on the grid: "
                             "exponent must be a single constant"):
        profile_from_gauss_ratio(p, g)


def test_jk_quadrature_pseudo_sphere():
    g = uniform_grid(0.2, PI - 0.2, 400)
    c = profile_from_JK("-cos(t)", "cos(t)", x0=np.sin(0.2), grid=g,
                        t0=0.2, sin0=-np.sin(0.2))
    np.testing.assert_allclose(c.curve.x.value, np.sin(g), atol=1e-10)
    rc = revolution_curvature(c, axis="z")
    np.testing.assert_allclose(rc.J, -np.cos(g), atol=1e-10)
    np.testing.assert_allclose(rc.K, np.cos(g), atol=1e-10)
    assert report_of(c).method == "jk_quadrature"


# (J, K) and (J, phi) share the x^2 = x0^2 + 2*int(J sin phi) step; the
# second argument gives sin phi = 0.5 there
J_CONSTRUCTIONS = {
    "jk": lambda J, x0, g: profile_from_JK(J, "0", x0=x0, grid=g, sin0=0.5),
    "j_phi": lambda J, x0, g: profile_from_J_phi(J, "0.5235987755982988",
                                                 x0=x0, grid=g),
}


@pytest.mark.parametrize("build", J_CONSTRUCTIONS.values(),
                         ids=J_CONSTRUCTIONS.keys())
def test_jk_rejects_nonpositive_radicand(build):
    g = uniform_grid(0.0, 1.0, 51)
    with pytest.raises(ConstructionError,
                       match="squared axis distance becomes non-positive") as ei:
        build("-5", 0.5, g)
    assert ei.value.info["t"] > 0.0


@pytest.mark.parametrize("build", J_CONSTRUCTIONS.values(),
                         ids=J_CONSTRUCTIONS.keys())
def test_jk_rejects_x0_nonpositive(build):
    g = uniform_grid(0.0, 1.0, 51)
    with pytest.raises(ConstructionError, match="x0 must be positive"):
        build("1", 0.0, g)


@pytest.mark.parametrize("cos_sign", [7.0, 0.5, 0.0, -2.0])
def test_cos_sign_must_be_one_or_minus_one(cos_sign):
    g = uniform_grid(0.0, 1.0, 51)
    with pytest.raises(ValueError, match="cos_sign must be 1 or -1"):
        GaussRatioProblem(alpha="-1", beta="1", t0=0.5, x0=1.0,
                          cos_sign=cos_sign)
    with pytest.raises(ValueError, match="cos_sign must be 1 or -1"):
        profile_from_JK("1", "0", x0=1.0, grid=g, cos_sign=cos_sign)


@pytest.mark.parametrize("sin0", [2.0, -1.0000001, np.nan, np.inf])
def test_sin_phi_seed_must_lie_in_the_unit_interval(sin0):
    # before, 2.0 failed later as a ConstructionError (exit 2) and NaN
    # gave an all-NaN profile with no error
    g = uniform_grid(0.0, 1.0, 51)
    with pytest.raises(ValueError, match=r"sin phi seed must lie in \[-1, 1\]"):
        GaussRatioProblem(alpha="-1", beta="1", t0=0.5, x0=1.0,
                          sin_phi0=sin0, method="rk4")
    with pytest.raises(ValueError, match=r"sin phi seed must lie in \[-1, 1\]"):
        profile_from_JK("1", "0", x0=1.0, grid=g, sin0=sin0)
    # the ends of the interval are seeds like any other
    for end in (-1.0, 1.0):
        assert GaussRatioProblem(alpha="-1", beta="1", t0=0.5, x0=1.0,
                                 sin_phi0=end).sin_phi0 == end


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_x0_seed_must_be_finite(x0):
    g = uniform_grid(0.0, 1.0, 51)
    with pytest.raises(ValueError, match="x0 must be finite"):
        GaussRatioProblem(alpha="-1", beta="1", t0=0.5, x0=x0)
    with pytest.raises(ValueError, match="x0 must be finite"):
        profile_from_JK("1", "0", x0=x0, grid=g)
    with pytest.raises(ValueError, match="x0 must be finite"):
        profile_from_J_phi("1", "t", x0=x0, grid=g)


def test_mean_flat_catenoid_profile():
    g = uniform_grid(0.0, 2.0, 200)
    p = MeanRatioProblem(alpha="0", beta="t", c1=0.2, c2=0.3)
    c = profile_from_mean_ratio(p, g)
    want = np.sqrt(0.3**2 + (0.2 - g**2 / 2) ** 2)
    np.testing.assert_allclose(c.curve.x.value, want, atol=1e-12)
    rc = revolution_curvature(c, axis="z")
    np.testing.assert_allclose(rc.H, 0.0, atol=1e-12)
    rep = report_of(c)
    assert rep.method == "mean_ratio"
    assert rep.notes["x_min"] > 0.29


def test_mean_ratio_identity():
    g = uniform_grid(0.0, 2.0, 151)
    for c1, c2 in ((0.2, 0.3), (0.2, 0.75)):
        p = MeanRatioProblem(alpha="-1/2", beta="t", c1=c1, c2=c2)
        c = profile_from_mean_ratio(p, g)
        rc = revolution_curvature(c, axis="z")
        m = np.abs(rc.J) > 1e-3
        np.testing.assert_allclose(rc.H[m] / rc.J[m], -0.5, atol=1e-12)
        assert verify_legendre(c).passed


def test_mean_rejects_vanishing_axis_distance():
    g = uniform_grid(0.0, 1.0, 51)
    p = MeanRatioProblem(alpha="0", beta="t", c1=0.0, c2=0.0)
    with pytest.raises(ConstructionError):
        profile_from_mean_ratio(p, g)


def test_j_phi_semicircle():
    g = uniform_grid(0.0, 0.9, 91)
    half_pi = "1.5707963267948966"
    c = profile_from_J_phi("-t", half_pi, x0=1.0, grid=g)
    np.testing.assert_allclose(c.curve.x.value, np.sqrt(1 - g**2), atol=1e-12)
    pair = curvature_pair_of(c)
    np.testing.assert_allclose(pair.ell.value, 0.0, atol=1e-14)
    rc = revolution_curvature(c, axis="z")
    np.testing.assert_allclose(rc.J, -g, atol=1e-12)
    assert report_of(c).method == "j_phi_quadrature"


def test_h_phi_cylinder():
    g = uniform_grid(0.0, 2.0, 64)
    c = profile_from_H_phi("1/2", "0", g, c_a=-1.0)
    np.testing.assert_allclose(c.curve.x.value, 1.0, atol=1e-14)
    np.testing.assert_allclose(c.curve.z.value, g, atol=1e-12)
    pair = curvature_pair_of(c)
    np.testing.assert_allclose(pair.beta.value, 1.0, atol=1e-12)
    assert report_of(c).method == "h_phi_quadrature"


def test_h_phi_general_prescription():
    g = uniform_grid(0.0, 1.2, 121)
    c = profile_from_H_phi("cos(t)", "0.3*sin(t)", g, c_a=-1.0)
    rc = revolution_curvature(c, axis="z")
    np.testing.assert_allclose(rc.H, np.cos(g), atol=1e-12)
    assert verify_legendre(c).passed


def test_h_phi_rejects_vanishing_cosine():
    g = uniform_grid(0.0, 2.5, 101)
    with pytest.raises(ConstructionError):
        profile_from_H_phi("1", "t", g)


def test_construction_report_shape():
    g = uniform_grid(0.0, 1.0, 51)
    c = profile_from_H_phi("1/2", "0", g, c_a=-1.0)
    rep = report_of(c)
    d = asdict(rep)
    for key in ("method", "t0", "anchor_offset", "flips", "flagged_nodes",
                "ode_residual", "contact_residual", "norm_residual", "notes"):
        assert key in d, key
    assert d["contact_residual"] <= 1e-10
    assert c.curvature is not None


def _entry_points(bad):
    """Every way to build a curve from expressions, with bad as one input."""
    return {
        "fine grid": lambda g: FineGrid(g).eval_expr(bad),
        "reconstruct ell": lambda g: reconstruct_from_curvature(bad, "1", g),
        "reconstruct beta": lambda g: reconstruct_from_curvature("1", bad, g),
        "expressions": lambda g: legendre_from_expressions(
            "2", bad, "1", "0", g),
        "gauss alpha": lambda g: profile_from_gauss_ratio(GaussRatioProblem(
            alpha=bad, beta="1", t0=0.5, x0=1.0), g),
        "gauss beta": lambda g: profile_from_gauss_ratio(GaussRatioProblem(
            alpha="1", beta=bad, t0=0.5, x0=1.0), g),
        "JK": lambda g: profile_from_JK(bad, "1", x0=1.0, grid=g, t0=0.5),
        "mean": lambda g: profile_from_mean_ratio(MeanRatioProblem(
            alpha="1", beta=bad, c1=1.0, c2=1.0, t0=0.5), g),
        "J phi": lambda g: profile_from_J_phi(bad, "0", x0=1.0, grid=g,
                                              t0=0.5),
        "H phi": lambda g: profile_from_H_phi(bad, "0", g, c_a=-1.0, t0=0.5),
    }


@pytest.mark.parametrize("bad, lo, hi", [("1/t", -1.0, 1.0),
                                         ("log(t)", 0.0, 1.0)])
def test_unevaluable_expression_raises_one_class(bad, lo, hi):
    # 1/t has a pole at the grid node 0; log(t) leaves its domain there
    g = uniform_grid(lo, hi, 21)
    for name, build in _entry_points(bad).items():
        with pytest.raises(Exception) as ei:
            build(g)
        assert type(ei.value) is ConstructionError, name
        assert "cannot be evaluated on the grid" in str(ei.value), name
        assert bad in ei.value.info["source"], name


# every entry point that builds the fine lattice; t0 is the anchor where
# the construction takes one
LATTICE_BUILDS = {
    "fine grid": lambda g, t0: FineGrid(g),
    "reconstruct": lambda g, t0: reconstruct_from_curvature("1", "1", g),
    "gauss": lambda g, t0: profile_from_gauss_ratio(GaussRatioProblem(
        alpha="-1", beta="1", t0=t0, x0=1.0), g),
    "JK": lambda g, t0: profile_from_JK("1", "0", x0=1.0, grid=g, t0=t0),
    "mean": lambda g, t0: profile_from_mean_ratio(MeanRatioProblem(
        alpha="0", beta="t", c1=0.2, c2=0.3, t0=t0), g),
    "J phi": lambda g, t0: profile_from_J_phi("-t", "1", x0=1.0, grid=g,
                                              t0=t0),
    "H phi": lambda g, t0: profile_from_H_phi("0.5", "0", g, c_a=-1.0,
                                              t0=t0),
}


@pytest.mark.parametrize("grid", [[0.0, np.nan, 0.5, 1.0], [0.0, 0.5, np.inf],
                                  [-np.inf, 0.0, 1.0], [0.0, 1.0, np.nan]])
def test_non_finite_grid_node_rejected(grid):
    # np.diff(grid) <= 0 is False for NaN: these grids used to pass, and
    # one NaN node gave NaN profiles without an error
    for name, build in LATTICE_BUILDS.items():
        with pytest.raises(ValueError,
                           match="grid must be finite and strictly "
                                 "increasing"):
            build(grid, 0.5)


@pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf, 1.5])
def test_anchor_outside_the_grid_rejected(t0):
    # every comparison with NaN is False: t0 = nan used to pass the range
    # test and give NaN profiles, reported as t0: NaN
    g = uniform_grid(0.0, 1.0, 41)
    for name, build in LATTICE_BUILDS.items():
        if name in ("fine grid", "reconstruct"):
            continue
        with pytest.raises(ConstructionError, match="lies outside the grid"):
            build(g, t0)


@pytest.mark.parametrize("order", [-1, -3])
def test_negative_jet_order_rejected(order):
    # -1 used to build order-1 jets silently, -3 to fail deep in numpy
    g = uniform_grid(0.3, 1.2, 40)
    builds = {
        "jk": lambda: profile_from_JK("-cos(t)", "cos(t)", 1.0, g,
                                      order=order),
        "gauss": lambda: profile_from_gauss_ratio(GaussRatioProblem(
            alpha="-1", beta="cot(t)", t0=0.5, x0=1.0), g, order=order),
        "mean": lambda: profile_from_mean_ratio(MeanRatioProblem(
            alpha="0", beta="t", c1=0.2, c2=0.3, t0=0.5), g, order=order),
        "J phi": lambda: profile_from_J_phi("-t", "1", x0=1.0, grid=g,
                                            order=order),
        "H phi": lambda: profile_from_H_phi("0.5", "0", g, order=order),
    }
    for name, build in builds.items():
        with pytest.raises(ValueError, match=f"order .*got {order}"):
            build()


@pytest.mark.parametrize("order", range(6))
def test_every_builder_returns_the_order_asked_for(order):
    # the constructions used to return curve and normal jets of order + 2
    # and curvature jets of order + 1
    g = uniform_grid(0.3, 0.9, 40)
    builds = {
        "jk": lambda: profile_from_JK("-cos(t)", "cos(t)", 1.0, g,
                                      order=order),
        "gauss": lambda: profile_from_gauss_ratio(GaussRatioProblem(
            alpha="-1", beta="cot(t)", t0=0.5, x0=1.0), g, order=order),
        "mean": lambda: profile_from_mean_ratio(MeanRatioProblem(
            alpha="0", beta="t", c1=0.2, c2=0.3, t0=0.5), g, order=order),
        "J phi": lambda: profile_from_J_phi("-t", repr(PI / 2), x0=1.0,
                                            grid=g, order=order),
        "H phi": lambda: profile_from_H_phi("0.5", "0", g, c_a=-1.0,
                                            order=order),
        "reconstruct": lambda: reconstruct_from_curvature(
            "1+0.3*sin(t)", "1.2+0.2*cos(t)", g, order=order),
        "expressions": lambda: legendre_from_expressions(
            "sin(t)", "cos(t)", "cos(t)", "-sin(t)", g, order=order),
    }
    for name, build in builds.items():
        c = build()
        jets = [c.curve.x, c.curve.z, c.normal.a, c.normal.b]
        if c.curvature is not None:
            jets += [c.curvature.ell, c.curvature.beta]
        assert [j.order for j in jets] == [order] * len(jets), name
