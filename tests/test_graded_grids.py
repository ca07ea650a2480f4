"""Every construction on random strictly increasing grids.

Each grid g keeps the ends, every fourth node and a drawn share of the
other nodes of a uniform grid u, and adds drawn points inside some of its
intervals, so its steps vary by orders of magnitude from one interval to
the next.  On g the profiles must pass the same checks as on u, and agree
with the profiles built on u at the nodes the two grids share.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from revfront import expr
from revfront.construct import (GaussRatioProblem, profile_from_JK,
                                profile_from_gauss_ratio)
from revfront.framed import integrability_residual
from revfront.legendre import (curvature_of, reconstruct_from_curvature,
                               verify_legendre)
from revfront.revolution import revolve

NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]
PI = float(np.pi)
SEEDS = st.integers(0, 2**32 - 1)


def graded_grid(seed, lo, hi, m):
    """(u, g, ig, iu): u = linspace(lo, hi, m), g as in the module
    docstring, and the nodes g[ig] = u[iu] the two share."""
    rng = np.random.default_rng(seed)
    u = np.linspace(lo, hi, m)
    keep = rng.random(m) < rng.uniform(0.2, 1.0)
    keep[::4] = True
    keep[-1] = True
    kept = u[keep]
    gaps = np.diff(kept)
    add = rng.random(gaps.size) < rng.uniform(0.0, 0.5)
    extra = kept[:-1][add] + rng.uniform(0.05, 0.95, add.sum()) * gaps[add]
    g = np.union1d(kept, extra)
    return u, g, np.searchsorted(g, kept), np.flatnonzero(keep)


def values(c):
    return np.stack([np.atleast_1d(j.value) for j in
                     (c.curve.x, c.curve.z, c.normal.a, c.normal.b)])


def assert_shared_nodes_agree(on_u, on_g, iu, ig, atol):
    """x, z, a, b of on_g at ig within atol (one bound, or one per row)
    of those of on_u at iu."""
    for got, want, tol in zip(values(on_g)[:, ig], values(on_u)[:, iu],
                              np.broadcast_to(atol, 4)):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def assert_integrable(c):
    for axis in ("z", "x"):
        rep = integrability_residual(revolve(c, axis=axis,
                                             n_theta=8).invariants)
        assert rep.max_residual <= 1e-8, axis


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(seed=SEEDS, c=st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8),
       k=st.sampled_from([1, 2]), theta0=st.floats(-1.0, 1.0),
       x0=st.floats(1.5, 3.0))
def test_curvature_pair_on_a_random_grid(seed, c, k, theta0, x0):
    ell = "%.8f+%.8f*t+%.8f*t^2+%.8f*sin(%d*t)" % (*c[:4], k)
    beta = "%.8f+%.8f*t+%.8f*t^2+%.8f*cos(%d*t)" % (*c[4:], k)
    u, g, ig, iu = graded_grid(seed, 0.0, 1.0, 81)
    on_g = reconstruct_from_curvature(ell, beta, g, theta0=theta0, x0=x0)
    rep = verify_legendre(on_g)
    assert max(rep.max_contact_residual, rep.max_norm_residual) <= 1e-8
    pair = curvature_of(on_g)
    for jet, src in ((pair.ell, ell), (pair.beta, beta)):
        err = np.max(np.abs(jet.value - expr.eval_values(src, g)))
        assert err <= 1e-7, src
    assert_integrable(on_g)
    on_u = reconstruct_from_curvature(ell, beta, u, theta0=theta0, x0=x0)
    assert_shared_nodes_agree(on_u, on_g, iu, ig, 1e-9)


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(seed=SEEDS, R=st.floats(0.6, 1.6), lo=st.floats(0.15, 0.3),
       gauss=st.booleans())
def test_pseudo_sphere_flip_on_a_random_grid(seed, R, lo, gauss):
    # x = R sin t with its touch |sin phi| = 1 at pi/2, from the Gauss
    # ratio K = -J/R^2 or from J = -R^2 cos t and K = cos t
    def build(grid):
        if gauss:
            return profile_from_gauss_ratio(GaussRatioProblem(
                alpha=repr(-1.0 / (R * R)), beta="%r*cot(t)" % R, t0=lo,
                x0=R * np.sin(lo), sin_phi0=-np.sin(lo)), grid)
        return profile_from_JK("%r*cos(t)" % (-R * R), "cos(t)",
                               x0=R * np.sin(lo), grid=grid, t0=lo,
                               sin0=-np.sin(lo))

    u, g, ig, iu = graded_grid(seed, lo, PI - lo, 201)
    on_g = build(g)
    rep = on_g.flags["construction"]
    assert max(rep.contact_residual, rep.norm_residual) <= 1e-8
    np.testing.assert_allclose(on_g.curve.x.value, R * np.sin(g), atol=1e-9)
    np.testing.assert_allclose(on_g.normal.a.value, np.cos(g), atol=1e-6)
    # the parabola's error is third order in the fine step
    h = np.max(np.diff(g)) / 16
    assert len(rep.flips) == 1 and abs(rep.flips[0] - PI / 2) <= h ** 3
    assert_integrable(on_g)
    # cos phi = sqrt(1 - sin^2) turns an error e of sin phi near the touch
    # into one of sqrt(2 e) in a, and z integrates a
    assert_shared_nodes_agree(build(u), on_g, iu, ig,
                              [1e-9, 1e-6, 1e-6, 1e-9])


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(seed=SEEDS, k=st.floats(0.8, 1.6), x0=st.floats(0.6, 1.4))
def test_frobenius_series_on_a_random_grid(seed, k, x0):
    # alpha = -2/(k t)^2, beta = k: the bounded branch is x = x0 t^2,
    # regular singular at t0 = 0, the left end of the grid
    u, g, ig, iu = graded_grid(seed, 0.0, 0.45 * k / x0, 101)

    def build(grid):
        return profile_from_gauss_ratio(GaussRatioProblem(
            alpha="-2/(%r*t)^2" % k, beta=repr(k), t0=0.0, x0=x0,
            method="frobenius"), grid)

    on_g = build(g)
    rep = on_g.flags["construction"]
    assert rep.method == "gauss_frobenius"
    assert max(rep.contact_residual, rep.norm_residual) <= 1e-8
    np.testing.assert_allclose(on_g.curve.x.value, x0 * g ** 2, rtol=0,
                               atol=1e-10)
    assert_integrable(on_g)
    assert_shared_nodes_agree(build(u), on_g, iu, ig, 1e-9)
