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


def test_fixed_step_paths_reject_non_uniform_grid():
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
    # Frobenius hand-off
    g = np.concatenate([np.linspace(0.0, 0.2, 41),
                        np.linspace(0.2, 0.45, 21)[1:]])
    p = GaussRatioProblem(alpha="-2/t^2", beta="1", t0=0.0, x0=1.0)
    with pytest.raises(ValueError, match="non-uniform grid"):
        profile_from_gauss_ratio(p, g)
    # the flip locator: the J-K quadrature itself takes any grid, but the
    # pseudo-sphere's flip at pi/2 is located with the fixed step
    g = np.concatenate([np.linspace(0.2, 1.0, 100),
                        np.linspace(1.0, PI - 0.2, 301)[1:]])
    with pytest.raises(ValueError, match="non-uniform grid"):
        profile_from_JK("-cos(t)", "cos(t)", x0=np.sin(0.2), grid=g,
                        t0=0.2, sin0=-np.sin(0.2))
    c = profile_from_JK("-cos(t)", "cos(t)", x0=np.sin(0.2), grid=g[g < 1.4],
                        t0=0.2, sin0=-np.sin(0.2))
    np.testing.assert_allclose(c.curve.x.value, np.sin(c.t), atol=1e-10)


def test_non_uniform_rejection_names_the_fixed_step():
    g = np.concatenate([np.linspace(0.0, 0.2, 41),
                        np.linspace(0.2, 0.45, 21)[1:]])
    p = GaussRatioProblem(alpha="-2/t^2", beta="1", t0=0.0, x0=1.0)
    with pytest.raises(ValueError, match="non-uniform grid: .* but the "
                       "Frobenius series region needs equal grid intervals"):
        profile_from_gauss_ratio(p, g)
    g = np.concatenate([np.linspace(0.2, 1.0, 100),
                        np.linspace(1.0, PI - 0.2, 301)[1:]])
    with pytest.raises(ValueError, match="non-uniform grid: .* but the "
                       "flip locator needs equal grid intervals"):
        profile_from_JK("-cos(t)", "cos(t)", x0=np.sin(0.2), grid=g,
                        t0=0.2, sin0=-np.sin(0.2))


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
