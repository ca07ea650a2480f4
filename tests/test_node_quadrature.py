"""Antiderivatives from node jets: the rule, its accuracy and its refusals.

reconstruct_from_curvature and the mean, (J, phi) and (H, phi)
constructions integrate the Taylor jets they hold at the grid nodes with
the two-point Hermite rule (jets.integral).  The closed forms below are
met to rounding, where the 16-step lattice missed them by up to 1.2e-9;
and an integrand that the node jets cannot resolve, as a pole between two
nodes, is refused (quadrature.integrated), where the lattice built a
wrong curve unless one of its samples hit the pole.
"""

import json
import math

import numpy as np
import pytest
from scipy import integrate

from revfront import jets
from revfront.cli import run
from revfront.construct import (MeanRatioProblem, profile_from_H_phi,
                                profile_from_J_phi, profile_from_mean_ratio)
from revfront.expr import eval_jet
from revfront.legendre import reconstruct_from_curvature
from revfront.quadrature import INTERVAL_TOL, ConstructionError, uniform_grid


def test_the_order_five_weights():
    want = [1 / 2, 5 / 44, 1 / 33, 1 / 132, 1 / 660, 1 / 5544]
    np.testing.assert_allclose(jets.hermite_weights(5), want, rtol=1e-15)
    assert jets.hermite_weights(0) == [0.5]   # the trapezoid rule


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_the_rule_is_exact_to_degree_2m_plus_1(m):
    g = np.array([0.0, 0.3, 0.5, 1.1, 1.2])
    p = 2 * m + 1     # t^p and its Taylor coefficients C(p, k) t^(p-k)
    f = jets.Jet(g, [math.comb(p, k) * g ** (p - k) for k in range(m + 1)])
    F, est = jets.integral(f, 0.0, 0.0)
    np.testing.assert_allclose(F, g ** (p + 1) / (p + 1),
                               rtol=1e-14, atol=1e-16)
    assert est.shape == (g.size - 1,)


def test_the_value_is_held_at_t0():
    g = uniform_grid(0.0, 1.0, 11)
    f = eval_jet("cos(t)", g)
    F, _ = jets.integral(f, 0.3, 0.75)   # on node 3
    assert F[3] == 0.75
    np.testing.assert_allclose(F, 0.75 + np.sin(g) - math.sin(0.3),
                               rtol=0, atol=1e-15)
    # between nodes 3 and 4: node 3's order-5 polynomial over 0.03 drops
    # the t^7 term of sin, 0.03^7 / 5040 = 4.3e-15
    F, _ = jets.integral(f, 0.33, 0.75)
    np.testing.assert_allclose(F, 0.75 + np.sin(g) - math.sin(0.33),
                               rtol=0, atol=1e-14)


def test_order_zero_jets_are_refused():
    with pytest.raises(ValueError, match="order at least 1"):
        jets.integral(jets.Jet(np.array([0.0, 1.0]), [[1.0, 1.0]]), 0.0, 0.0)


A = 0.4   # theta0; x0 = 2, z0 = -0.5 on [0, 1]
CLOSED = {
    # ell, beta constant: theta = A + l t, gamma' = b (-sin, cos) theta
    "ell=3,beta=1.7": ("3", "1.7", 17, lambda t: A + 3 * t,
                       lambda t: 2 + 1.7 / 3 * (np.cos(A + 3 * t)
                                                - math.cos(A)),
                       lambda t: -0.5 + 1.7 / 3 * (np.sin(A + 3 * t)
                                                   - math.sin(A))),
    "ell=20,beta=1": ("20", "1", 33, lambda t: A + 20 * t,
                      lambda t: 2 + (np.cos(A + 20 * t) - math.cos(A)) / 20,
                      lambda t: -0.5 + (np.sin(A + 20 * t)
                                        - math.sin(A)) / 20),
    # beta = t: int s sin(A + s) = sin(A + s) - s cos(A + s)
    "ell=1,beta=t": ("1", "t", 17, lambda t: A + t,
                     lambda t: 2 - (np.sin(A + t) - t * np.cos(A + t)
                                    - math.sin(A)),
                     lambda t: -0.5 + (t * np.sin(A + t) + np.cos(A + t)
                                       - math.cos(A))),
}


@pytest.mark.parametrize("case", sorted(CLOSED))
def test_reconstruct_meets_closed_forms(case):
    # the 16-step lattice missed these by 1.1e-10, 1.2e-9 and 4.2e-12
    ell, beta, n, theta, x, z = CLOSED[case]
    g = uniform_grid(0.0, 1.0, n)
    c = reconstruct_from_curvature(ell, beta, g, theta0=A, x0=2.0, z0=-0.5)
    for got, want in ((c.curve.x, x(g)), (c.curve.z, z(g)),
                      (c.normal.a, np.cos(theta(g))),
                      (c.normal.b, np.sin(theta(g)))):
        np.testing.assert_allclose(got.value, want, rtol=0, atol=1e-14)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_reconstruct_meets_quad_on_the_golden_profile():
    # the command line goldens' --ell/--beta profile; the lattice: 3.7e-12
    g = uniform_grid(0.0, 2.0, 40)
    c = reconstruct_from_curvature("1+0.3*sin(t)", "1.2+0.2*cos(t)", g,
                                   theta0=0.3, x0=1.5, z0=0.2)

    def theta(s):
        return 0.3 + s + 0.3 * (1.0 - math.cos(s))

    def beta(s):
        return 1.2 + 0.2 * math.cos(s)

    def quad(f, t):
        return integrate.quad(f, 0.0, t, epsabs=1e-15, epsrel=1e-15,
                              limit=200)[0]

    x = [1.5 - quad(lambda s: beta(s) * math.sin(theta(s)), t) for t in g]
    z = [0.2 + quad(lambda s: beta(s) * math.cos(theta(s)), t) for t in g]
    np.testing.assert_allclose(c.curve.x.value, x, rtol=0, atol=1e-14)
    np.testing.assert_allclose(c.curve.z.value, z, rtol=0, atol=1e-14)


# a pole between the nodes -0.0526 and 0.0526 of the 20-node grid on
# [-1, 1]: no lattice sample hit it, and each of these built a curve
POLE = "1/(t-0.0001)"
POLE_GRID = uniform_grid(-1.0, 1.0, 20)
POLE_BUILDS = {
    "reconstruct ell": lambda: reconstruct_from_curvature(POLE, "1",
                                                          POLE_GRID),
    "reconstruct beta": lambda: reconstruct_from_curvature("1", POLE,
                                                           POLE_GRID),
    "mean alpha": lambda: profile_from_mean_ratio(MeanRatioProblem(
        alpha=POLE, beta="1", c1=1.0, c2=1.0, t0=0.5), POLE_GRID),
    "mean beta": lambda: profile_from_mean_ratio(MeanRatioProblem(
        alpha="0", beta=POLE, c1=1.0, c2=1.0, t0=0.5), POLE_GRID),
    "J phi J": lambda: profile_from_J_phi(POLE, "0", x0=1.0, grid=POLE_GRID,
                                          t0=0.5),
    "J phi phi": lambda: profile_from_J_phi("1", "0.01*" + POLE, x0=3.0,
                                            grid=POLE_GRID, t0=0.5),
    "H phi H": lambda: profile_from_H_phi(POLE, "0.1", POLE_GRID, c_a=-1.0,
                                          t0=0.5),
    "H phi phi": lambda: profile_from_H_phi("1", "0.01*" + POLE, POLE_GRID,
                                            c_a=-1.0, t0=0.5),
}


@pytest.mark.parametrize("name", sorted(POLE_BUILDS))
def test_a_pole_between_nodes_is_refused(name):
    with pytest.raises(ConstructionError,
                       match="cannot be integrated between the grid nodes "
                             "t=-0.157895 and t=-0.0526316") as ei:
        POLE_BUILDS[name]()
    a, b = ei.value.info["interval"]
    assert a < b < 0.0001 and ei.value.info["estimate"] > INTERVAL_TOL


# x^2 of (J, phi) dips below 0, cos phi of (H, phi) touches 0 and the
# mean's axis distance vanishes at t = 0.5, between the nodes 4/9 and 5/9
# of the 10-node grid on [0, 1]: each refusal reads the node jets where
# the function turns between nodes
TURN_GRID = uniform_grid(0.0, 1.0, 10)
TURNS = {
    "J phi": (lambda: profile_from_J_phi(
        "t-0.5", repr(math.pi / 2), x0=math.sqrt(0.249), grid=TURN_GRID),
              "squared axis distance becomes non-positive at t=0.5"),
    "H phi": (lambda: profile_from_H_phi(
        "1", "1.5707963267948966-(t-0.5)^2", TURN_GRID, c_a=-1.0),
              r"cos\(phi\) vanishes near t=0.5;"),
    # F = t - 0.5, G = 0: the axis distance |t - 0.5|
    "mean": (lambda: profile_from_mean_ratio(MeanRatioProblem(
        alpha="0", beta="-1", c1=-0.5, c2=0.0), TURN_GRID),
             r"axis distance sqrt\(F\^2\+G\^2\) vanishes near t=0.5;"),
}


@pytest.mark.parametrize("name", sorted(TURNS))
def test_a_refusal_between_nodes_is_kept(name):
    build, message = TURNS[name]
    with pytest.raises(ConstructionError, match=message) as ei:
        build()
    assert abs(ei.value.info["t"] - 0.5) < 1e-6


def test_a_branch_point_beside_the_grid_is_refused():
    # sqrt(t + 0.001): its jets at t = 0 see the branch point at -0.001
    with pytest.raises(ConstructionError, match="estimate 94.3 exceeds"):
        reconstruct_from_curvature("sqrt(t+0.001)", "1",
                                   uniform_grid(0.0, 1.0, 16))


def test_a_fast_smooth_integrand_still_builds():
    # about 3 rad a step; its largest estimate is 8.6e-10
    g = uniform_grid(0.0, 1.0, 16)
    c = reconstruct_from_curvature("sin(20*t)", "1", g)
    theta = (1.0 - np.cos(20.0 * g)) / 20.0
    np.testing.assert_allclose(c.normal.b.value, np.sin(theta), rtol=0,
                               atol=1e-8)


def test_the_command_line_refuses_a_pole_between_nodes(tmp_path):
    base = str(tmp_path / "pole")
    code = run(["curve", "from-curvature", "--ell", POLE, "--beta", "1",
                "--grid", "-1:1:20", "--out", base])
    assert code == 2
    with open(base + ".json") as fh:
        diag = json.load(fh)
    assert diag["error"] == "ConstructionError"
    assert "cannot be integrated between the grid nodes" in diag["message"]
    assert not (tmp_path / "pole.csv").exists()


@pytest.mark.parametrize("build", [
    lambda g: profile_from_mean_ratio(MeanRatioProblem(
        alpha="0", beta="0.9*t", c1=0.25, c2=0.4, t0=0.0), g),
    lambda g: profile_from_J_phi("(-0.75)*t", repr(math.pi / 2), x0=1.25,
                                 grid=g),
    lambda g: profile_from_H_phi("1.1*cos(t)", "0.25*sin(t)", g, c_a=-1.25),
], ids=["mean", "j_phi", "h_phi"])
def test_the_report_keeps_the_largest_estimate(build):
    est = build(uniform_grid(0.0, 0.9, 41)).flags["construction"].notes[
        "quadrature_estimate"]
    assert type(est) is float and 0.0 <= est <= INTERVAL_TOL
