"""Profile construction from prescribed curvature data.

Every fixture has a closed-form solution; the asserts pin both the
profile and the identity the construction is supposed to enforce.
"""

import csv
import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from revfront.cli import run
from revfront.construct import (ConstructionError, GaussRatioProblem,
                                MeanRatioProblem, _alpha_expansion,
                                _frobenius_data, profile_from_H_phi,
                                profile_from_J_phi, profile_from_JK,
                                profile_from_gauss_ratio,
                                profile_from_mean_ratio)
from revfront.jets import ORDER_CAP
from revfront.legendre import (curvature_pair_of, legendre_from_expressions,
                               reconstruct_from_curvature, verify_legendre)
from revfront.quadrature import (INTERVAL_TOL, FineGrid, nearest_node,
                                 uniform_grid)
from revfront.revolution import revolution_curvature
from revfront.singular import revolution_singularity_classify

PI = np.pi


def report_of(c):
    return c.flags["construction"]


def value_at(jet, t0):
    """The jet's value at t0, by its Taylor series at the nearest node."""
    i = nearest_node(jet.t, t0)
    return np.polyval(jet.coeffs[::-1, i], t0 - jet.t[i])


def pseudo_sphere_z(t, t0, z0=0.0):
    """z of the pseudo-sphere x = sin t, z' = cos(t)^2 / sin(t), z(t0) = z0."""
    def f(u):
        return np.cos(u) + np.log(np.tan(u / 2))
    return z0 + f(t) - f(t0)


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
    # the touch's expansion serves the nodes within its radius
    (touch,) = rep.notes["touches"]
    assert abs(touch["t"] - PI / 2) <= 1e-15
    assert 0.3 < touch["radius"] < 1.0
    assert rep.flagged_nodes == touch["nodes"] == list(
        np.flatnonzero(np.abs(g - touch["t"]) <= touch["radius"]))
    assert max(touch["dropped_radicand"], touch["dropped_slope"]) <= 1e-12
    assert rep.ode_residual < 1e-10
    assert c.curve.z.value[0] == p.z0
    np.testing.assert_allclose(c.curve.z.value, pseudo_sphere_z(g, 0.2),
                               rtol=0, atol=1e-9)


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
    assert p.t0 not in FineGrid(g).s
    c = profile_from_gauss_ratio(p, g)
    np.testing.assert_allclose(c.curve.x.value, np.sin(g), atol=1e-12)
    np.testing.assert_allclose(c.curve.z.value, pseudo_sphere_z(g, p.t0),
                               rtol=0, atol=1e-9)
    pair = curvature_pair_of(c)
    np.testing.assert_allclose(pair.ell.value, -1.0, atol=1e-8)


@pytest.mark.parametrize("where", ["left end", "right end", "off lattice"])
def test_gauss_rk4_pseudo_sphere_seeded_anywhere(where):
    # a seed at either end leaves one sweep empty; an off-lattice seed is
    # carried to its node, and both sweeps start there; z holds z0 at t0
    R = 1.3
    g = uniform_grid(0.2, PI - 0.2, 161)
    t0 = {"left end": g[0], "right end": g[-1],
          "off lattice": 2.2001234}[where]
    p = GaussRatioProblem(alpha=repr(-1.0 / R**2), beta=f"{R!r}*cot(t)",
                          t0=t0, x0=R * np.sin(t0), sin_phi0=-np.sin(t0))
    c = profile_from_gauss_ratio(p, g)
    np.testing.assert_allclose(c.curve.x.value, R * np.sin(g), rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(c.normal.b.value, -np.sin(g), rtol=0,
                               atol=1e-12)
    assert (t0 not in FineGrid(g).s) == (where == "off lattice")
    np.testing.assert_allclose(value_at(c.curve.z, t0), 0.0, rtol=0,
                               atol=1e-12)
    rep = report_of(c)
    assert rep.method == "gauss_rk4"
    np.testing.assert_allclose(rep.flips, [PI / 2], atol=1e-9)


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
    # the touch locator: the pseudo-sphere's touch at pi/2 lies in the
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
    # |sin phi(t0)| = 1: the touch is located a rounding error to either
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
    # left of t0, and cos phi = cos t on both sides.  Both paths hold
    # their seed at t0 itself, off the lattice.
    g = TOUCH_GRIDS["uniform"]
    t0 = PI / 2 + 0.35 * (g[1] - g[0]) / 16
    assert t0 not in FineGrid(g).s
    for name, build in TOUCH_BUILDS.items():
        c = build(g, -1.0, t0)
        flips = report_of(c).flips
        assert len(flips) == 1 and abs(flips[0] - PI / 2) <= 1e-9, name
        np.testing.assert_allclose(c.curve.x.value, np.sin(g), atol=1e-9)
        np.testing.assert_allclose(c.normal.a.value, np.cos(g), atol=1e-6)


def test_gauss_sin_band_violation():
    g = uniform_grid(0.0, 3.0, 101)
    p = GaussRatioProblem(alpha="1", beta="2", t0=0.0, x0=1.0, sin_phi0=0.9)
    with pytest.raises(ConstructionError) as ei:
        profile_from_gauss_ratio(p, g)
    assert "sin" in str(ei.value)


def test_gauss_rk4_overflow_is_a_construction_error():
    # alpha = -1, beta = 30: x grows like exp(30 t) and leaves the doubles
    # at t = 23.7, where the sweep overflows: a ConstructionError that says
    # so, with no numpy warning, rather than a DomainError from jets built
    # on the overflowed values.  beta = exp(30 t) with alpha = 1, whose
    # lattice RK4 overflowed at t = 0.359, turns by 4 rad a grid step at
    # t = 0.225, where its node jets no longer resolve it: it is refused
    # there, as unresolved between the nodes
    p = GaussRatioProblem(alpha="-1", beta="30", t0=0.0, x0=1.0,
                          sin_phi0=0.1)
    q = GaussRatioProblem(alpha="1", beta="exp(30*t)", t0=0.0, x0=1.0,
                          sin_phi0=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstructionError,
                           match=r"RK4 sweep overflows.*t=23\.7\b"):
            profile_from_gauss_ratio(p, uniform_grid(0.0, 30.0, 1001))
        with pytest.raises(ConstructionError,
                           match="cannot be integrated between the grid "
                                 "nodes t=0.225 and t=0.23"):
            profile_from_gauss_ratio(q, uniform_grid(0.0, 0.4, 81))


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


# alpha and beta at t0 = 0 that are refused, with a word of the reason;
# -1/t^3 and log(t) were refused as a non-integer indicial root.  Under
# auto, log(t) has no Laurent jet and goes to RK4, which refuses its value
SERIES_REFUSALS = [
    ("-1/t^3", "1", "auto", "pole of order 3"),
    ("log(t)", "1", "frobenius", "alpha cannot be expanded"),
    ("log(t)", "1", "auto", "log of a non-positive value"),
    ("1/t^2", "1", "auto", "indicial roots complex"),
    # beta = t^2 vanishes at t0, and so does x' = 3t^2: sin phi = -3
    ("-2/t^2", "t^2", "auto", "exceeds 1"),
    # beta = t vanishes at t0 to a higher order than x' = 1: a pole
    ("1/t^4", "t", "auto", "not finite"),
]


@pytest.mark.parametrize("alpha, beta, method, reason", SERIES_REFUSALS)
def test_gauss_frobenius_refusals_name_their_reason(alpha, beta, method,
                                                    reason):
    p = GaussRatioProblem(alpha=alpha, beta=beta, t0=0.0, x0=1.0,
                          method=method)
    with pytest.raises(ConstructionError, match=reason):
        profile_from_gauss_ratio(p, uniform_grid(0.0, 0.4, 81))


@pytest.mark.parametrize("beta, sin0", [("t", -0.6), ("t^2", -0.9)])
def test_gauss_frobenius_divides_at_a_vanishing_beta(beta, sin0):
    # sin phi = -x'/beta at t0 = 0, where both vanish, is the Laurent
    # quotient of the series' x' over beta, as at the coarse nodes
    g = uniform_grid(0.0, 0.5, 33)
    c = profile_from_gauss_ratio(
        GaussRatioProblem(alpha="-2/t^2", beta=beta, t0=0.0, x0=0.3), g)
    rep = report_of(c)
    assert rep.method == "gauss_frobenius"
    assert rep.notes["series_sin_phi0"] == pytest.approx(sin0, abs=1e-15)
    assert c.normal.b.value[0] == rep.notes["series_sin_phi0"]
    if beta == "t":   # x = 0.3 sqrt(2) t I_1(sqrt(2) t), sin phi = -0.6 I_0
        w = math.sqrt(2.0) * g
        np.testing.assert_allclose(c.normal.b.value, -0.6 * special.i0(w),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(c.curve.x.value,
                                   0.3 * math.sqrt(2.0) * g * special.i1(w),
                                   rtol=0, atol=1e-13)


def test_gauss_frobenius_beta_rounding_to_zero_at_t0(tmp_path):
    # sin(pi) is 1.2e-16, which the value rule of a division reads as 0,
    # and x'(pi) = 0: plain division gave sin phi(t0) = -0.0, against
    # 0.6 from the same data at the coarse node
    pi = repr(math.pi)
    base = str(tmp_path / "sin")
    assert run(["construct", "gauss", "--alpha", f"-2/(t-{pi})^2",
                "--beta", "sin(t)", "--t0", pi, "--x0", "0.3",
                "--grid", f"{pi}:{math.pi + 0.4!r}:33", "--out", base]) == 0
    notes = json.loads(Path(base + ".json").read_text())["report"]["notes"]
    with open(base + ".csv") as fh:
        b0 = float(next(csv.DictReader(fh))["b"])
    assert notes["series_sin_phi0"] == b0 == pytest.approx(0.6, abs=1e-15)


# alphas analytic at t0 whose Taylor coefficients grow fast, or that have
# no jet there (exp(-1/s^2), smooth but not analytic at t0): auto keeps
# the seeds and runs RK4
@pytest.mark.parametrize("alpha, t0, n", [
    ("1/exp(27*t)", 0.0, 81), ("1/sqrt(t+0.25)", 0.0, 81),
    ("exp(-1/(t-0.2013)^2)", 0.2013, 41)])
def test_gauss_auto_keeps_rk4_where_alpha_has_no_pole(alpha, t0, n):
    p = GaussRatioProblem(alpha=alpha, beta="1", t0=t0, x0=1.0,
                          sin_phi0=0.1)
    c = profile_from_gauss_ratio(p, uniform_grid(0.0, 0.4, n))
    assert c.flags["construction"].method == "gauss_rk4"
    if t0 == 0.0:
        assert c.curve.x.value[0] == 1.0
        assert c.normal.b.value[0] == 0.1


def test_gauss_refuses_a_kink_of_alpha_between_nodes():
    # sqrt((t-0.2013)^2) = |t - 0.2013| has no jet at t0 = 0.2013, so auto
    # runs RK4, whose node jets cannot follow the kink between the nodes
    # 0.2 and 0.21: refused there (the lattice RK4 stepped over it)
    p = GaussRatioProblem(alpha="sqrt((t-0.2013)^2)", beta="1", t0=0.2013,
                          x0=1.0, sin_phi0=0.1)
    with pytest.raises(ConstructionError,
                       match="cannot be integrated between the grid nodes "
                             "t=0.2 and t=0.21"):
        profile_from_gauss_ratio(p, uniform_grid(0.0, 0.4, 41))


@pytest.mark.parametrize("alpha", ["sin(t-0.2)/(t-0.2)", "t/t"])
def test_gauss_auto_refuses_a_removable_singularity_at_t0(alpha):
    # alpha's valuation is 0: RK4 takes it and meets the 0/0 at t0 instead
    # of a series that would replace the seeds x0 and sin_phi0
    p = GaussRatioProblem(alpha=alpha, beta="1", t0=0.2, x0=1.0,
                          sin_phi0=0.1)
    with pytest.raises(ConstructionError, match="division by"):
        profile_from_gauss_ratio(p, uniform_grid(0.0, 0.4, 41))


@pytest.mark.parametrize("alpha, beta, c1", [
    ("-2/(t^2*exp(30*t))", "1", -15.0), ("-2/t^2", "exp(30*t)", 45.0)])
def test_gauss_frobenius_data_with_fast_growing_coefficients(alpha, beta, c1):
    # Q = alpha*beta^2*s^2 = -2 + q1 s + ..., P = -s*beta'/beta = p1 s + ...:
    # the indicial roots are 2 and -1 however large the higher coefficients
    # grow, and c_1 = -(2 p1 + q1)/4 with (p1, q1) = (0, 60), (-30, -120)
    p = GaussRatioProblem(alpha=alpha, beta=beta, t0=0.0, x0=1.0)
    r, c, *_ = _frobenius_data(p, _alpha_expansion(p),
                               uniform_grid(0.0, 0.4, 81))
    assert r == 2.0 and c[0] == 1.0
    assert c[1] == pytest.approx(c1, rel=1e-13)


@pytest.mark.parametrize("grid", [uniform_grid(0.0, 0.4, 121),
                                  uniform_grid(-0.4, 0.4, 121)])
def test_gauss_frobenius_exact_series_with_nonzero_terms(grid):
    # alpha = -(t^2+4t+2)/t^2, beta = 1: x = 0.5 t^2 e^t, so c_k = 0.5/k!;
    # with fitted coefficients the one-sided jets at t0 were off by 7.3e-11
    # (x) and 1.3e-8 (sin phi)
    p = GaussRatioProblem(alpha="-(t^2+4*t+2)/t^2", beta="1", t0=0.0,
                          x0=0.5)
    r, c, _, notes, _ = _frobenius_data(p, _alpha_expansion(p), grid)
    assert r == 2.0 and notes["series_order"] == 12
    want = 0.5 / np.array([math.factorial(k) for k in range(13)])
    np.testing.assert_allclose(c, want, rtol=1e-13, atol=0)
    prof = profile_from_gauss_ratio(p, grid)
    assert report_of(prof).method == "gauss_frobenius"
    i = nearest_node(grid, 0.0)
    x = [0.0, 0.0] + [0.5 / math.factorial(k) for k in range(4)]
    # sin phi = -x' = -sum 0.5 (k+2)/k! t^(k+1)
    b = [0.0] + [-0.5 * (k + 2) / math.factorial(k) for k in range(5)]
    np.testing.assert_allclose(prof.curve.x.coeffs[:, i], x, rtol=0,
                               atol=1e-13)
    np.testing.assert_allclose(prof.normal.b.coeffs[:, i], b, rtol=0,
                               atol=1e-12)


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_frobenius_requests_are_exact_series():
    # alpha = -2/(k t)^2, beta = k: x = x0 t^2 exactly, so c_1.. are 0 and
    # sin phi = -2 x0 t / k; the fit gave |c_k| up to 0.16 and jets off by
    # 3.3e-7.  Seeds 1-40 of the benchmark's solve pass 0.
    workloads = _bench_workloads()
    for seed in range(1, 41):
        for spec in workloads.solve_pass(seed, 0):
            if spec["kind"] != "gauss_frobenius":
                continue
            k, x0, t0 = float(spec["beta"]), spec["x0"], spec["t0"]
            g = np.linspace(*spec["grid"][:2], spec["grid"][2])
            p = GaussRatioProblem(alpha=spec["alpha"], beta=spec["beta"],
                                  t0=t0, x0=x0, method="frobenius")
            _, c, *_ = _frobenius_data(p, _alpha_expansion(p), g)
            assert c[0] == x0 and np.max(np.abs(c[1:])) <= 1e-12, seed
            prof = profile_from_gauss_ratio(p, g)
            rep = report_of(prof)
            assert rep.method == spec["expect"]["method"]
            label = revolution_singularity_classify(prof, t0).label
            assert label == spec["expect"]["label"]
            i = np.abs(g - t0) <= rep.notes["series_radius"]
            s = g[i]
            zero = np.zeros_like(s)
            exact = {"x": [x0 * s * s, 2 * x0 * s, x0 + zero],
                     "b": [-2 * x0 * s / k, -2 * x0 / k + zero]}
            for name, jet in (("x", prof.curve.x), ("b", prof.normal.b)):
                want = np.zeros((jet.order + 1, s.size))
                want[:len(exact[name])] = exact[name]
                err = np.abs(jet.coeffs[:, i] - want) / np.fmax(1.0,
                                                               np.abs(want))
                assert np.max(err) <= 1e-12, (seed, name)


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


@pytest.mark.parametrize("method", ["RK4", "series", "", None])
def test_gauss_method_must_be_known(method):
    # before, an unknown method was refused only when the profile was built
    with pytest.raises(ValueError,
                       match="method must be auto, rk4 or frobenius"):
        GaussRatioProblem(alpha="-1", beta="1", t0=0.5, x0=1.0, method=method)
    for known in ("auto", "rk4", "frobenius"):
        assert GaussRatioProblem(alpha="-1", beta="1", t0=0.5, x0=1.0,
                                 method=known).method == known


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


# every seed of the five constructions and of reconstruct_from_curvature,
# each built with that one field set to the bad value
SEEDED = {
    "gauss z0": lambda v: GaussRatioProblem(alpha="-1", beta="1", t0=0.5,
                                            x0=1.0, z0=v),
    "jk z0": lambda v: profile_from_JK("1", "0", x0=1.0, z0=v,
                                       grid=uniform_grid(0.0, 1.0, 51)),
    "mean c1": lambda v: MeanRatioProblem(alpha="0", beta="t", c1=v, c2=0.3),
    "mean c2": lambda v: MeanRatioProblem(alpha="0", beta="t", c1=0.2, c2=v),
    "mean z0": lambda v: MeanRatioProblem(alpha="0", beta="t", c1=0.2,
                                          c2=0.3, z0=v),
    "j_phi z0": lambda v: profile_from_J_phi("1", "t", x0=1.0, z0=v,
                                             grid=uniform_grid(0.0, 1.0, 51)),
    "h_phi c_a": lambda v: profile_from_H_phi(
        "cos(t)", "0.2*sin(t)", uniform_grid(0.0, 1.2, 41), c_a=v),
    "h_phi z0": lambda v: profile_from_H_phi(
        "cos(t)", "0.2*sin(t)", uniform_grid(0.0, 1.2, 41), c_a=-1.2, z0=v),
    "reconstruct theta0": lambda v: reconstruct_from_curvature(
        "1", "1", uniform_grid(0.0, 1.0, 33), theta0=v),
    "reconstruct x0": lambda v: reconstruct_from_curvature(
        "1", "1", uniform_grid(0.0, 1.0, 33), x0=v),
    "reconstruct z0": lambda v: reconstruct_from_curvature(
        "1", "1", uniform_grid(0.0, 1.0, 33), z0=v),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", SEEDED)
def test_seeds_must_be_finite(case, bad):
    # before, a NaN z0 gave a curve whose z was all NaN, which
    # verify_legendre passed, and c_a = nan and x0 = inf were taken too
    field = case.split()[1]
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SEEDED[case](bad)
    SEEDED[case](0.5)


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


# ---------------------------------------------------------------------------
# Anchors off the lattice: every construction holds its values at t0 itself
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t0", [0.7, 1.0, 1.0001, 1.3])
def test_jk_anchor_off_the_lattice(t0):
    # consistent pseudo-sphere data; held at the nearest fine node instead,
    # sin phi peaked below 1, so no flip and max |a - cos t| = 1.96, or
    # above 1, and t0 = 1.0001 was refused as inconsistent
    g = uniform_grid(0.2, 2.94, 400)
    assert t0 not in FineGrid(g).s
    c = profile_from_JK("-cos(t)", "cos(t)", x0=np.sin(t0), grid=g, t0=t0,
                        sin0=-np.sin(t0))
    np.testing.assert_allclose(c.curve.x.value, np.sin(g), rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(c.normal.a.value, np.cos(g), rtol=0,
                               atol=1e-10)
    flips = report_of(c).flips
    assert len(flips) == 1 and abs(flips[0] - PI / 2) <= 1e-9


def test_mean_anchor_off_the_lattice():
    # F = c1 - (t^2 - t0^2)/2 and G = c2; 1.1e-6 off when held at the node
    g = uniform_grid(-1.0, 1.0, 201)
    t0 = 0.0071
    assert t0 not in FineGrid(g).s
    c = profile_from_mean_ratio(MeanRatioProblem(alpha="0", beta="t", c1=0.2,
                                                 c2=0.3, t0=t0), g)
    np.testing.assert_allclose(c.curve.x.value,
                               np.hypot(0.3, 0.2 - (g * g - t0 * t0) / 2),
                               rtol=0, atol=1e-12)


def test_j_phi_anchor_off_the_lattice():
    # x^2 = x0^2 - 0.7*(t^2 - t0^2); 1.4e-6 off when held at the node
    g = uniform_grid(0.0, 0.9, 201)
    t0 = 0.3001
    assert t0 not in FineGrid(g).s
    c = profile_from_J_phi("-0.7*t", "1.5707963267948966", x0=1.2, grid=g,
                           t0=t0)
    np.testing.assert_allclose(c.curve.x.value,
                               np.sqrt(1.44 - 0.7 * (g * g - t0 * t0)),
                               rtol=0, atol=1e-12)


def test_h_phi_anchor_off_the_lattice():
    # A = -x cos(phi) = c_a + int_t0^t 2 H sin(phi); for H = cos t and
    # phi = 0.3 sin t that is c_a + (cos(0.3 sin t0) - cos(0.3 sin t))/0.15.
    # A(t0) - c_a was 2.9e-5 when held at the node
    g = uniform_grid(0.0, 1.2, 121)
    t0, c_a = 0.30017, -1.0
    assert t0 not in FineGrid(g).s
    c = profile_from_H_phi("cos(t)", "0.3*sin(t)", g, c_a=c_a, t0=t0)
    A = -c.curve.x.value * c.normal.a.value
    want = c_a + (np.cos(0.3 * np.sin(t0)) - np.cos(0.3 * np.sin(g))) / 0.15
    np.testing.assert_allclose(A, want, rtol=0, atol=1e-12)
    A_t0 = -value_at(c.curve.x, t0) * value_at(c.normal.a, t0)
    assert abs(A_t0 - c_a) <= 1e-12


def test_gauss_z_anchor_off_the_lattice():
    # x and sin phi were carried to t0 by a partial RK4 step, but z was
    # held at the nearest node: z(t0) - z0 was 2.9e-4
    g = uniform_grid(0.0, 2.0, 161)
    t0, z0 = 0.5003, 0.25
    assert t0 not in FineGrid(g).s
    p = GaussRatioProblem(alpha="1", beta="1", t0=t0, x0=0.4, sin_phi0=0.2,
                          z0=z0)
    c = profile_from_gauss_ratio(p, g)
    want = 0.4 * np.cos(g - t0) - 0.2 * np.sin(g - t0)
    np.testing.assert_allclose(c.curve.x.value, want, rtol=0, atol=1e-12)
    assert abs(value_at(c.curve.z, t0) - z0) <= 1e-12


def test_construction_report_shape():
    g = uniform_grid(0.0, 1.0, 51)
    c = profile_from_H_phi("1/2", "0", g, c_a=-1.0)
    rep = report_of(c)
    d = rep.as_dict()
    assert list(d) == ["method", "t0", "flips", "flagged_nodes",
                       "ode_residual", "contact_residual", "norm_residual",
                       "notes"]
    assert d["contact_residual"] <= 1e-10
    assert c.curvature is not None
    # every construction keeps its largest interval estimate
    est = d["notes"]["quadrature_estimate"]
    assert type(est) is float and 0.0 <= est <= INTERVAL_TOL
    # a touch adds one record per located t* to the notes; none, no key
    assert "touches" not in d["notes"]
    frobenius = profile_from_gauss_ratio(GaussRatioProblem(
        alpha="-2/t^2", beta="1", t0=0.0, x0=1.0), uniform_grid(0, 0.45, 41))
    notes = report_of(frobenius).as_dict()["notes"]
    assert report_of(frobenius).method == "gauss_frobenius"
    assert type(notes["quadrature_estimate"]) is float
    assert 0.0 <= notes["quadrature_estimate"] <= INTERVAL_TOL
    for build in TOUCH_BUILDS.values():   # gauss_rk4 and jk_quadrature
        rep = report_of(build(uniform_grid(0.2, PI - 0.2, 61), 1.0))
        est = rep.as_dict()["notes"]["quadrature_estimate"]
        assert type(est) is float and 0.0 <= est <= INTERVAL_TOL
        (touch,) = rep.as_dict()["notes"]["touches"]
        assert list(touch) == ["t", "radius", "nodes", "dropped_radicand",
                               "dropped_slope"]
        assert rep.flagged_nodes == touch["nodes"]
        assert all(type(i) is int for i in touch["nodes"])
        assert all(type(touch[k]) is float for k in
                   ("t", "radius", "dropped_radicand", "dropped_slope"))


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


# every builder, on a grid where each succeeds
BUILDS = {
    "jk": lambda g: profile_from_JK("-cos(t)", "cos(t)", 1.0, g),
    "gauss": lambda g: profile_from_gauss_ratio(GaussRatioProblem(
        alpha="-1", beta="cot(t)", t0=0.5, x0=1.0), g),
    "mean": lambda g: profile_from_mean_ratio(MeanRatioProblem(
        alpha="0", beta="t", c1=0.2, c2=0.3, t0=0.5), g),
    "J phi": lambda g: profile_from_J_phi("-t", repr(PI / 2), x0=1.0,
                                          grid=g),
    "H phi": lambda g: profile_from_H_phi("0.5", "0", g, c_a=-1.0),
    "reconstruct": lambda g: reconstruct_from_curvature(
        "1+0.3*sin(t)", "1.2+0.2*cos(t)", g),
    "expressions": lambda g: legendre_from_expressions(
        "sin(t)", "cos(t)", "cos(t)", "-sin(t)", g),
}


@pytest.mark.parametrize("order", [-1, -3])
def test_negative_jet_order_rejected(order):
    # an order is asked for by truncated alone: on these order-5 curves -1
    # used to give empty jets, and -3 order-3 jets, as the slice counted
    # from the end
    g = uniform_grid(0.3, 0.9, 40)
    for name, build in BUILDS.items():
        with pytest.raises(ValueError, match=f"order .*got {order}"):
            build(g).truncated(order)


@pytest.mark.parametrize("order", range(6))
def test_every_builder_returns_the_order_asked_for(order):
    # every builder returns order-ORDER_CAP jets, which truncated cuts to
    # the order asked for (the constructions used to return curve and
    # normal jets two orders above the order asked for, curvature jets one)
    g = uniform_grid(0.3, 0.9, 40)
    for name, build in BUILDS.items():
        c = build(g)
        for got, want in ((c, ORDER_CAP), (c.truncated(order), order)):
            jets = [got.curve.x, got.curve.z, got.normal.a, got.normal.b]
            if c.curvature is not None:   # an expression curve has none
                jets += [got.curvature.ell, got.curvature.beta]
            assert [j.order for j in jets] == [want] * len(jets), name
