"""Jets at a touch, where |sin phi| = 1 and cos phi changes sign.

There ell = (sin phi)'/cos phi is a removable 0/0, and cos phi =
sigma*sqrt(1 - sin^2) has a radicand with a double zero, so a node a
distance d from the touch t* reads both with errors that grow like d^-k
in coefficient k.  Each construction expands the touch once at t* and
Taylor-shifts the expansion to the nodes near it; these tests hold the
result to the closed forms on grids of up to 4001 nodes, with t* on a
node and between two.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from revfront.construct import (ConstructionError, GaussRatioProblem,
                                profile_from_JK, profile_from_gauss_ratio)
from revfront.quadrature import uniform_grid

NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]
PI = float(np.pi)


def sphere(grid):
    """The unit sphere: x = cos t, sin phi = sin t, cos phi = cos t and
    ell = 1, with touches at +-pi/2."""
    return profile_from_gauss_ratio(GaussRatioProblem(
        alpha="1", beta="1", t0=0.0, x0=1.0, sin_phi0=0.0), grid), 1.0


def pseudo_sphere(grid, R=1.0, lo=0.3, jk=False):
    """The pseudo-sphere of radius R: x = R sin t, sin phi = -sin t,
    cos phi = cos t and ell = -1, with its touch at pi/2; seeded there
    (the Gauss ratio) or at lo (J and K)."""
    if jk:
        return profile_from_JK("%r*cos(t)" % (-R * R), "cos(t)",
                               x0=R * np.sin(lo), grid=grid, t0=lo,
                               sin0=-np.sin(lo)), -1.0
    return profile_from_gauss_ratio(GaussRatioProblem(
        alpha=repr(-1.0 / (R * R)), beta="%r*cot(t)" % R, t0=PI / 2, x0=R,
        sin_phi0=-1.0), grid), -1.0


def assert_touch_jets(c, ell0, ell_tol=1e-8, cos_tol=1e-10):
    ell = c.curvature.ell
    for k, want in enumerate((ell0, 0.0, 0.0)):
        err = np.max(np.abs(ell.derivative(k) - want))
        assert err <= ell_tol, (k, err)
    err = np.max(np.abs(c.normal.a.value - np.cos(c.t)))
    assert err <= cos_tol, err


@pytest.mark.parametrize("n", [161, 1001, 4001])
def test_sphere_touch_jets_converge(n):
    # at 4001 nodes, ell'' was off by 139 where each node took its own
    # square root, and cos phi by 2.2e-9
    c, ell0 = sphere(uniform_grid(-2.5, 2.5, n))
    assert_touch_jets(c, ell0)
    assert len(c.flags["construction"].notes["touches"]) == 2


@pytest.mark.parametrize("n", [161, 1001, 4001])
@pytest.mark.parametrize("jk", [False, True], ids=["gauss", "jk"])
def test_pseudo_sphere_touch_jets_converge(n, jk):
    # at 4001 nodes ell'' was off by 0.41 (RK4) and 5.3 (J and K)
    c, ell0 = pseudo_sphere(np.linspace(0.3, PI - 0.3, n), jk=jk)
    assert_touch_jets(c, ell0)


@pytest.mark.parametrize("n", [101, 160, 1001])
@pytest.mark.parametrize("lo, hi", [(-PI / 2, PI / 2), (0.0, PI / 2),
                                    (-PI / 2, 0.3)])
def test_touches_at_the_grid_ends(lo, hi, n):
    # the sphere meets the axis at +-pi/2, here grid ends, where no flip
    # can be fitted; each node there used to take its neighbour's jets,
    # and ell'' was off by 2e-5 to 21
    c, ell0 = sphere(uniform_grid(lo, hi, n))
    assert_touch_jets(c, ell0)
    touches = c.flags["construction"].notes["touches"]
    ends = [t for t in (lo, hi) if abs(t) == PI / 2]
    assert [t["t"] for t in touches] == pytest.approx(ends, abs=1e-9)


def test_a_touch_that_is_not_simple_is_refused():
    # sin phi = 1 - (t - 1)^4: cos phi = (t - 1)^2 sqrt(2 - (t - 1)^4)
    # keeps its sign, which a flip of the branch cannot represent; the
    # expansion at t = 1 does not settle, and the data are refused
    with pytest.raises(ConstructionError, match="does not settle"):
        profile_from_JK("-0.1", "4*(t-1)^3", x0=1.0,
                        grid=np.linspace(0.5, 1.5, 101), t0=1.0, sin0=1.0)


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(half=st.integers(20, 2000), odd=st.booleans(),
       case=st.sampled_from(["sphere", "gauss", "jk"]),
       R=st.floats(0.6, 1.6), lo=st.floats(0.15, 0.3))
def test_touch_jets_match_the_closed_forms(half, odd, case, R, lo):
    # the pseudo-sphere's grid is symmetric about its touch at pi/2, which
    # an odd node count puts on the middle node, an even one between two
    n = 2 * half + odd
    if case == "sphere":
        c, ell0 = sphere(uniform_grid(-2.5, 2.5, n))
    else:
        c, ell0 = pseudo_sphere(uniform_grid(lo, PI - lo, n), R, lo,
                                jk=case == "jk")
    assert_touch_jets(c, ell0)
    # t* is the zero of (sin phi)' of the constructed profile, as right
    # as its lattice values (1.5e-11 on the sphere at 40 nodes)
    touches = c.flags["construction"].notes["touches"]
    assert any(abs(t["t"] - PI / 2) <= 1e-9 for t in touches)
    for t in touches:
        assert max(t["dropped_radicand"], t["dropped_slope"]) <= 1e-10
