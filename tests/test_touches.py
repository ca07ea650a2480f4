"""Jets at a touch, where |sin phi| = 1 and cos phi changes sign.

There ell = (sin phi)'/cos phi is a removable 0/0, and cos phi =
sigma*sqrt(1 - sin^2) has a radicand with a double zero, so a node a
distance d from the touch t* reads both with errors that grow like d^-k
in coefficient k.  Each construction expands the touch once at t* and
Taylor-shifts the expansion to the nodes near it; these tests hold the
result to the closed forms on grids of up to 4001 nodes, with t* on a
node and between two.
"""

import json

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from revfront import jets
from revfront.cli import run
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
    # the sphere meets the axis at +-pi/2, here grid ends, where no
    # lattice maximum lies; each node there used to take its neighbour's
    # jets, and ell'' was off by 2e-5 to 21
    c, ell0 = sphere(uniform_grid(lo, hi, n))
    assert_touch_jets(c, ell0)
    touches = c.flags["construction"].notes["touches"]
    ends = [t for t in (lo, hi) if abs(t) == PI / 2]
    assert [t["t"] for t in touches] == pytest.approx(ends, abs=1e-9)


@pytest.mark.parametrize("n", [16, 33])
def test_a_grid_end_with_a_nonzero_slope_is_refused(n):
    # sin phi = -t reaches -1 at the right end with (sin phi)' = -1: cos phi
    # vanishes there and ell is unbounded, which no flip of the branch
    # makes a touch; the end node read a = 0.052 and ell = -11.7, then a
    # bare DomainError
    with pytest.raises(ConstructionError, match=r"grid end t=1\b.*= -1\b"):
        profile_from_JK("-1", "1", x0=1.0, grid=uniform_grid(0.0, 1.0, n))


def test_an_extremum_beyond_the_end_past_one_is_no_touch():
    # sin phi = -t + 50 (t - 1)^2 reaches -1 at t = 1 with slope -1 and
    # turns at 1.01, beyond the end, where |sin phi| = 1.005: no touch,
    # so the end stays refused
    with pytest.raises(ConstructionError, match=r"grid end t=1\b.*= -1\b"):
        profile_from_JK("-1", "1-100.0*(t-1)", x0=1.0,
                        grid=uniform_grid(0.9, 1.0, 33), t0=0.9, sin0=-0.4)


def test_a_grid_end_with_a_nonzero_slope_exits_two(tmp_path):
    base = str(tmp_path / "end")
    assert run(["construct", "gauss-jk", "--J", "-1", "--K", "1", "--x0", "1",
                "--grid", "0:1:33", "--out", base]) == 2
    diag = json.loads((tmp_path / "end.json").read_text())
    assert diag["error"] == "ConstructionError"
    assert "grid end t=1" in diag["message"]


def test_a_touch_that_is_not_simple_is_refused():
    # sin phi = 1 - (t - 1)^4: cos phi = (t - 1)^2 sqrt(2 - (t - 1)^4)
    # keeps its sign, which a flip of the branch cannot represent; the
    # expansion at t = 1 does not settle, and the data are refused
    with pytest.raises(ConstructionError, match="does not settle"):
        profile_from_JK("-0.1", "4*(t-1)^3", x0=1.0,
                        grid=np.linspace(0.5, 1.5, 101), t0=1.0, sin0=1.0)


def test_a_touch_that_is_not_simple_exits_two(tmp_path):
    # t = 1 is a node, where (sin phi)' = -4(t - 1)^3 and its slope vanish:
    # the touch sits at the node, and the radicand's quotient
    # (1 - sin^2)/(t - 1)^2, zero there, has no square root to expand
    base = str(tmp_path / "quartic")
    assert run(["construct", "gauss-jk", "--J", "-0.1", "--K", "4*(t-1)^3",
                "--x0", "1", "--t0", "1", "--sin0", "1",
                "--grid", "0.5:1.5:101", "--out", base]) == 2
    diag = json.loads((tmp_path / "quartic.json").read_text())
    assert diag["error"] == "ConstructionError"
    assert "does not settle" in diag["message"]


def touch_ts(c):
    """The t* of the report's touches, which are also its flips."""
    report = c.flags["construction"]
    ts = [t["t"] for t in report.notes.get("touches", [])]
    assert report.flips == ts
    return ts


def test_flips_are_the_located_touches():
    # construct gauss --alpha 1 --beta 1 --t0 0 --x0 1 --grid -3:3:97,
    # whose flips were the lattice parabola's vertices, 5e-10 off +-pi/2
    c, _ = sphere(uniform_grid(-3.0, 3.0, 97))
    assert touch_ts(c) == pytest.approx([-PI / 2, PI / 2], rel=0, abs=1e-11)


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       graded=st.booleans(), where=st.floats(0.0, 1.0))
def test_a_touch_on_a_graded_grid_is_located_once(seed, n, graded, where):
    # the J-K pseudo-sphere on grid steps up to 200 times apart, in runs
    # of 4 or each its own, with its touch at pi/2 between the second node
    # and the last but one; (sin phi)' = -cos t, so Newton on its jets
    # lands on pi/2.  The steps are those the lattice parabola was tested
    # on, 1e-5 to 2e-3, times the 16 fine steps of a grid step
    h = np.random.default_rng(seed).uniform(1.6e-4, 3.2e-2, n)
    if graded:
        h = np.repeat(h[:n // 4 + 1], 4)[:n]
    u = np.append(0.0, np.cumsum(h))
    g = PI / 2 - (u[1] + where * (u[-2] - u[1])) + u
    c = profile_from_JK("-cos(t)", "cos(t)", x0=np.sin(g[0]), grid=g,
                        t0=g[0], sin0=-np.sin(g[0]))
    ts = touch_ts(c)
    assert len(ts) == 1 and abs(ts[0] - PI / 2) <= 1e-12


def test_a_touch_a_few_steps_from_a_fine_grid_end_is_located():
    # steps of 1e-5 put |sin phi| within 1e-8 of 1 at the left end, five
    # steps from the touch at pi/2: Newton from that end lands on the
    # touch beyond its one-step reach, and the end counts as that touch
    # instead of one where |sin phi| reaches 1 with a slope
    g = PI / 2 + 1e-5 * np.arange(-5, 35)
    c = profile_from_JK("-cos(t)", "cos(t)", x0=np.sin(g[0]), grid=g,
                        t0=g[0], sin0=-np.sin(g[0]))
    assert touch_ts(c) == pytest.approx([PI / 2], rel=0, abs=1e-12)


def test_touches_beyond_both_grid_ends_are_located():
    # the sphere's touches at -pi/2 and 3pi/2 lie 0.077 beyond the ends of
    # this grid, more than a grid step: Newton from each end lands on them
    # within the radius where the end node's sin phi series settles, and
    # their expansions serve the nodes near the ends, where ell'' was off
    # by 8e-8
    half = 3.0638
    c, ell0 = sphere(uniform_grid(PI / 2 - half, PI / 2 + half, 513))
    assert np.max(np.abs(c.curvature.ell.derivative(2))) <= 1e-10
    assert_touch_jets(c, ell0)
    assert touch_ts(c) == pytest.approx([-PI / 2, PI / 2, 3 * PI / 2], rel=0,
                                        abs=1e-9)


def test_touches_beyond_the_settle_radius_are_not_flipped(monkeypatch):
    # the sphere's touches at -pi/2 and 3pi/2 lie 0.1416 beyond the ends
    # of this grid.  The scan of the end nodes' (sin phi)' jets finds both
    # (2.2e-10 off), but the end nodes' sin phi series settle only within
    # 0.069 of the ends, so the construction keeps neither: its flips stay
    # [pi/2], and ell'' at the ends is still 1.5e-9 off
    scans = []

    def scan(coeffs, grid, h, keep):
        scans.append(real(coeffs, grid, h))   # every zero, kept or not
        return real(coeffs, grid, h, keep)

    real = jets.zeros
    monkeypatch.setattr(jets, "zeros", scan)
    c, _ = sphere(uniform_grid(PI / 2 - 3.0, PI / 2 + 3.0, 513))
    [found] = scans
    assert [(i, how) for _, i, how in found if how == "beyond"] == [
        (0, "beyond"), (512, "beyond")]
    assert [t for t, _, how in found if how == "beyond"] == pytest.approx(
        [-PI / 2, 3 * PI / 2], rel=0, abs=1e-9)
    assert touch_ts(c) == pytest.approx([PI / 2], rel=0, abs=1e-12)


def test_a_touch_a_step_after_an_extremum_is_located():
    # sin phi = 1 - t^2 - 200 t^3 / 3 has a minimum 0.99997 at -0.01 and
    # touches 1 at 0, in the next grid interval and within a step of it.
    # Both are zeros of (sin phi)'; when the minimum, found first, hid the
    # touch as its twin, the construction went through with no flip and
    # cos phi of one sign on both sides.  Located, the touch is refused:
    # sin phi reaches 1 again at -0.015, so its expansion does not settle
    # beyond a step
    g = np.append(-0.0145, -0.005 + 0.012 * np.arange(17))
    u = g[0]
    with pytest.raises(ConstructionError, match="touch t=.*does not settle"
                       ) as err:
        profile_from_JK("1", "2*t+200*t^2", x0=1.0, grid=g, t0=u,
                        sin0=1 - u * u - 200 * u ** 3 / 3)
    assert abs(err.value.info["t"]) <= 1e-12


def test_a_touch_a_step_after_an_extremum_flips_cos_phi():
    # sin phi = 1 - w^2, w = t + 50 t^2: a minimum at -0.01 and a touch at
    # 0, in adjacent intervals of a 0.012 grid, with the left end's Newton
    # on the minimum too.  The touch is located, and cos phi, a multiple
    # of -w, changes sign there with w
    g = -0.013 + 0.012 * np.arange(11)
    w = g + 50 * g * g
    c = profile_from_JK("1", "2*(t+50*t^2)*(1+100*t)", x0=1.0, grid=g,
                        t0=g[0], sin0=1 - w[0] ** 2)
    assert touch_ts(c) == pytest.approx([0.0], rel=0, abs=1e-12)
    assert np.array_equal(np.sign(c.normal.a.coeffs[0]), -np.sign(w))


def test_an_end_whose_far_zero_is_no_touch_is_refused():
    # sin phi = 0.5 + 2 (t - 0.5)^2 reaches 1 at the right end t = 1 with
    # slope 2.  Newton on (sin phi)' = 4 (t - 0.5) from that end lands on
    # the minimum at 0.5, four steps inside, where |sin phi| = 0.5: no
    # touch, so the end is refused as one where cos phi = 0
    with pytest.raises(ConstructionError, match=r"grid end t=1\b.*= 2\b"):
        profile_from_JK("1", "-4*(t-0.5)", x0=1.0,
                        grid=uniform_grid(0.2, 1.0, 9), t0=0.2, sin0=0.68)


@pytest.mark.parametrize("n", [40, 101])
@pytest.mark.parametrize("jk", [False, True], ids=["gauss", "jk"])
def test_two_starts_at_one_touch_give_one_touch(n, jk):
    # pi/2 lies midway between the last two nodes: the secant zero of the
    # last interval and the grid end both converge on it
    g = 0.3 + (PI / 2 - 0.3) / (n - 1.5) * np.arange(n)
    c, ell0 = pseudo_sphere(g, jk=jk)
    assert touch_ts(c) == pytest.approx([PI / 2], rel=0, abs=1e-12)
    assert_touch_jets(c, ell0)


@pytest.mark.parametrize("n", [111, 1000])
def test_touches_a_few_steps_apart_are_each_located(n):
    # sin phi = cos(5 pi t) touches +-1 every 0.2, each touch 20 steps from
    # the next at 111 nodes; cos phi = sin(5 pi t) changes sign at each
    w = 5 * PI
    g = uniform_grid(0.05, 1.15, n)
    c = profile_from_JK("-1", "%r*sin(%r*t)" % (w, w), x0=1.0, grid=g,
                        t0=0.05, sin0=np.cos(w * 0.05))
    assert touch_ts(c) == pytest.approx(0.2 * np.arange(1, 6), rel=0,
                                        abs=1e-12)
    assert np.max(np.abs(c.normal.a.value - np.sin(w * g))) <= 1e-8
    assert np.max(np.abs(c.curvature.ell.value + w)) <= 1e-8


def test_sin_phi_beyond_one_is_refused():
    # sin phi = 0.5 + t reaches 1.5 on [0, 1]
    with pytest.raises(ConstructionError, match="exceeds 1"):
        profile_from_JK("-1", "-1", x0=1.0, grid=uniform_grid(0.0, 1.0, 33),
                        sin0=0.5)


@pytest.mark.parametrize("cos_sign", [1.0, -1.0])
@pytest.mark.parametrize("end", ["left", "right"])
@pytest.mark.parametrize("jk", [False, True], ids=["gauss", "jk"])
def test_a_touch_seed_at_a_grid_end_keeps_cos_sign(jk, end, cos_sign):
    # the pseudo-sphere seeded at its touch t0 = pi/2, an end of the grid:
    # the grid lies on one side of t0 only, and cos phi has the sign
    # cos_sign on all of it.  With t0 the left end, the located touch at
    # the anchor used to flip cos phi, and z with it, on every later sample
    g = (np.linspace(PI / 2, 2.9, 65) if end == "left"
         else np.linspace(0.3, PI / 2, 65))
    if jk:
        c = profile_from_JK("-cos(t)", "cos(t)", x0=1.0, grid=g, t0=PI / 2,
                            sin0=-1.0, cos_sign=cos_sign)
    else:
        c = profile_from_gauss_ratio(GaussRatioProblem(
            alpha="-1", beta="cot(t)", t0=PI / 2, x0=1.0, sin_phi0=-1.0,
            cos_sign=cos_sign), g)
    assert np.max(np.abs(c.normal.a.value
                         - cos_sign * np.abs(np.cos(g)))) <= 1e-12
    assert touch_ts(c) == pytest.approx([PI / 2], rel=0, abs=1e-12)


def test_a_touch_beside_an_extremum_in_one_grid_step_is_refused():
    # sin phi = 1 - 100 (t^4/4 - t^3/120 + 3 t^2/40000) touches 1 at t = 0,
    # has a minimum at 0.01 and a maximum below 1 at 0.015.  The touch and
    # the minimum share the grid interval [-0.001, 0.011], where
    # (sin phi)' keeps its sign, so no start reaches the touch; the
    # construction went through with cos phi of one sign on both sides
    g = -0.001 + 0.012 * np.arange(-40, 40)
    u = g[0]
    sin0 = 1 - 100 * (u ** 4 / 4 - u ** 3 / 120 + 3 * u ** 2 / 40000)
    with pytest.raises(ConstructionError,
                       match=r"reaches 1 at t=-0\.001\b.*located touch"):
        profile_from_JK("1", "100*t*(t-0.01)*(t-0.015)", x0=2.0, grid=g,
                        t0=u, sin0=sin0)


@pytest.mark.parametrize("jk", [False, True], ids=["gauss", "jk"])
def test_a_touch_is_expanded_at_one_order(jk, tmp_path):
    # the pseudo-sphere seeded at its touch t0 = pi/2, a node: at order 0
    # to 2 the touch's sin phi jet had order 2(order + 2), too short to
    # settle, and the construction failed.  Every order now expands it as
    # order 5 does, so its jets are order 5's, truncated
    g = uniform_grid(0.2, 2.9415926535897931, 65)
    args = (["gauss-jk", "--J", "-cos(t)", "--K", "cos(t)"] if jk else
            ["gauss", "--alpha", "-1", "--beta", "cot(t)"])

    def build(order):
        if jk:
            return profile_from_JK("-cos(t)", "cos(t)", x0=1.0, grid=g,
                                   t0=PI / 2, sin0=-1.0, order=order)
        return profile_from_gauss_ratio(GaussRatioProblem(
            alpha="-1", beta="cot(t)", t0=PI / 2, x0=1.0, sin_phi0=-1.0),
            g, order=order)

    top = build(5)
    for order in range(5):
        c = build(order)
        assert touch_ts(c) == touch_ts(top) == [PI / 2]
        for got, want in ((c.curvature.ell, top.curvature.ell),
                          (c.normal.a, top.normal.a)):
            assert np.array_equal(got.coeffs, want.truncated(order).coeffs)
    assert run(["construct", *args, "--t0", repr(PI / 2), "--x0", "1",
                "--sin0", "-1", "--grid", "0.2:2.9415926535897931:65",
                "--out", str(tmp_path / "ps")]) == 0


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
