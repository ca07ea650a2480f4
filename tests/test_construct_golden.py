"""Golden bits and working memory of every construction at benchmark size.

Each case is shaped like a request of the benchmark's solve workload:
the gauss ratio by RK4 on the 4000-node pseudo-sphere, with its touch at
pi/2 on node 2000, the Frobenius branch of alpha = -2/(k t)^2, and the
(J, K), mean, (J, phi), (H, phi) and curvature-pair constructions on
2000 nodes.  The sha256 of each profile's x, z, a, b, ell and beta jet
coefficients and of its ConstructionReport is compared with the value
recorded after every construction integrated its node jets instead of
sampling the 16-step lattice (the mean, (J, phi), (H, phi) and
curvature-pair cases one change before the gauss ratio and (J, K); each
case's comment gives how far its values moved and its error against the
closed form before and after); any bit that moves fails here.  The
second test holds each construction's traced peak of memory, its output
included, to what it needs: no construction holds a lattice, and the
largest arrays are the jets at the grid nodes (0.24 MiB an order-7 jet
of the 4000-node grid).
"""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from revfront import construct
from revfront.legendre import reconstruct_from_curvature
from revfront.quadrature import uniform_grid

PI = math.pi
RK4_LO = 0.2


def gauss_rk4():
    grid = uniform_grid(RK4_LO, RK4_LO + 3999 * (PI / 2 - RK4_LO) / 2000, 4000)
    prob = construct.GaussRatioProblem(
        alpha="(-0.6944444444444445)", beta="1.2*cot(t)", t0=PI / 2, x0=1.2,
        sin_phi0=-1.0)
    return construct.profile_from_gauss_ratio(prob, grid)


def gauss_frobenius():
    prob = construct.GaussRatioProblem(alpha="-2/(1.2*t)^2", beta="1.2",
                                       t0=0.0, x0=1.0, method="frobenius")
    return construct.profile_from_gauss_ratio(
        prob, uniform_grid(0.0, 0.54, 2000))


def gauss_jk():
    return construct.profile_from_JK(
        "(-1.21)*cos(t)", "cos(t)", x0=1.1 * math.sin(0.2),
        grid=uniform_grid(0.2, PI - 0.25, 2000), t0=0.2, sin0=-math.sin(0.2))


def mean():
    prob = construct.MeanRatioProblem(alpha="0", beta="0.9*t", c1=0.25,
                                      c2=0.4, t0=0.0)
    return construct.profile_from_mean_ratio(prob,
                                             uniform_grid(-1.0, 1.0, 2001))


def j_phi():
    return construct.profile_from_J_phi("(-0.75)*t", repr(PI / 2), x0=1.25,
                                        grid=uniform_grid(0.0, 0.9, 2000))


def h_phi():
    return construct.profile_from_H_phi("1.1*cos(t)", "0.25*sin(t)",
                                        uniform_grid(0.0, 1.2, 2000),
                                        c_a=-1.25)


def reconstruct():
    return reconstruct_from_curvature(
        "1.1+0.3*t+(-0.2)*t^2+0.5*sin(2*t)",
        "0.9+(-0.2)*t+0.1*t^2+0.3*cos(1*t)", uniform_grid(0.0, 1.0, 2000),
        theta0=0.3, x0=2.0, z0=-0.5)


CASES = {f.__name__: f for f in (gauss_rk4, gauss_frobenius, gauss_jk, mean,
                                  j_phi, h_phi, reconstruct)}

GOLDEN = {
    # node sweep, not lattice RK4: values moved by at most 2.4e-12 (ell;
    # x 3.3e-14); max |x - t^2| 3.4e-14 before, 1.4e-15 after
    "gauss_frobenius":
        "a54d51e7185755f832fa2e3964dd2ecaec3e73466e5a319eaefd0fcec6c54890",
    # node jets, not the lattice: values moved by at most 2.9e-13 (beta;
    # x 1.8e-14); max |x - 1.1 sin t| 1.9e-14 before, 8.9e-16 after
    "gauss_jk":
        "29504661bc4b0161cfa1738478d2b811cbcc97aa9227c7a8be6c88d054ef5ecc",
    # node sweep, not lattice RK4: values moved by at most 3.2e-13 (ell;
    # x 1.4e-13); max |x - 1.2 sin t| 1.2e-13 before, 2.7e-14 after
    "gauss_rk4":
        "8062b8b644769ed2983507663f96c355ada23785ae3e54ac68c45d14912772c2",
    "h_phi":   # node jets, not the lattice
        "586b28199a970e74d880bab283dc3d21903a06d20af0fba5e98727a078abd4ac",
    "j_phi":   # node jets, not the lattice
        "ceed89c64b801edbb644d18a7498eb21fcd9d81d80f885882d097e12f7ed2d79",
    "mean":   # node jets, not the lattice
        "7133470e78910886418aca6379afcd59c4707ac9c8781eaebd43902323e69117",
    "reconstruct":   # node jets, not the lattice
        "5270c0976a4b78863965c3615f40f1feab2a2012ded5536a19df22730335165c",
}

# traced peak in MiB, measured 2.66 (the 4000-node RK4 case), 1.59
# (Frobenius), 1.55 (J, K), 2.14 (mean), 1.41 ((J, phi), (H, phi)) and
# 1.0 (curvature pair); the gauss ratio and (J, K) peaked at 4.12, 2.25
# and 2.48 on the lattice
PEAK_MIB = {"gauss_rk4": 3.0, "gauss_frobenius": 1.8, "gauss_jk": 1.8,
            "mean": 3.5, "j_phi": 3.5, "h_phi": 2.5, "reconstruct": 3.5}


def digest(c):
    h = hashlib.sha256()
    for jet in (c.curve.x, c.curve.z, c.normal.a, c.normal.b,
                c.curvature.ell, c.curvature.beta):
        h.update(np.ascontiguousarray(jet.coeffs, dtype=float).tobytes())
    report = c.flags.get("construction")
    if report is not None:
        h.update(json.dumps(report.as_dict(), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_construction_bits(case):
    assert digest(CASES[case]()) == GOLDEN[case]


def test_rk4_sweeps_as_the_tracer_counts_them(monkeypatch):
    # the benchmark's tracer wraps construct._rk4_path and counts
    # t.size - 1 steps a call (construct.rk4_steps): the pseudo-sphere
    # sweeps once on each side of its seed node 2000, one step a grid
    # interval
    steps = []
    sweep = construct._rk4_path

    def counted(t, m, x0, S0):
        steps.append(t.size - 1)
        return sweep(t, m, x0, S0)

    monkeypatch.setattr(construct, "_rk4_path", counted)
    gauss_rk4()
    assert sorted(steps) == [1999, 2000]


@pytest.mark.parametrize("case", sorted(CASES))
def test_construction_peak_memory(case):
    build = CASES[case]
    build()                  # parse and cache the expressions first
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        c = build()
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if not tracing:
            tracemalloc.stop()
    assert c.t.size in (2000, 2001, 4000)
    assert peak <= PEAK_MIB[case], f"{case} peaks at {peak:.2f} MiB"
