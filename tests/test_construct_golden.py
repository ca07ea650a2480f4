"""Golden bits and working memory of every construction at benchmark size.

Each case is shaped like a request of the benchmark's solve workload:
the gauss ratio by RK4 on the 4000-node pseudo-sphere, with its touch at
pi/2 on node 2000, the Frobenius branch of alpha = -2/(k t)^2, and the
(J, K), mean, (J, phi), (H, phi) and curvature-pair constructions on
2000 nodes.  The sha256 of each profile's x, z, a, b, ell and beta jet
coefficients and of its ConstructionReport is compared with the value
recorded before the lattice work was done in blocks and in place (the
two gauss ratio cases: after the RK4 sweep became a scan blocked by
grid interval, which reassociates its matrix products; the mean, (J, phi),
(H, phi) and curvature-pair cases: after they integrated their node jets
with the two-point Hermite rule instead of the lattice, which moved
their x and z values by at most 1.1e-14 (z of (H, phi)) toward closed
forms and scipy quad references, and added the report's
quadrature_estimate); any bit that moves fails here.  The second test holds each construction's
traced peak of memory, its output included, to a few lattice-length
arrays: the fine lattice of the 4000-node grid holds 63 985 samples,
0.49 MiB an array.
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
    "gauss_frobenius":
        "5023d0d12deb9568c9d34689f0e6ec207cdb0be287b3b5d1f14df33093efe8fd",
    "gauss_jk":
        "5d7805043e72a884d1d4a6550c91ce075ffe146630b759dfc249772b5e6ea9e5",
    "gauss_rk4":
        "5cd90fa3a0adcc4d6db60a9132bb26ab5bba2b68cfdde7edda16c317cd564011",
    "h_phi":   # node jets, not the lattice
        "586b28199a970e74d880bab283dc3d21903a06d20af0fba5e98727a078abd4ac",
    "j_phi":   # node jets, not the lattice
        "ceed89c64b801edbb644d18a7498eb21fcd9d81d80f885882d097e12f7ed2d79",
    "mean":   # node jets, not the lattice
        "7133470e78910886418aca6379afcd59c4707ac9c8781eaebd43902323e69117",
    "reconstruct":   # node jets, not the lattice
        "5270c0976a4b78863965c3615f40f1feab2a2012ded5536a19df22730335165c",
}

# traced peak in MiB: the 4000-node RK4 case, and each 2000-node case
PEAK_MIB = {name: 4.5 if name == "gauss_rk4" else 3.5 for name in CASES}
PEAK_MIB["h_phi"] = 2.5   # phi's lattice jet is taken block by block


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
    # the benchmark's tracer wraps construct._rk4_path and counts s.size - 1
    # steps a call (construct.rk4_steps): the pseudo-sphere sweeps once on
    # each side of its seed node, over the 63 985 lattice samples
    steps = []
    sweep = construct._rk4_path

    def counted(s, f_node, f_mid, x0, S0):
        steps.append(s.size - 1)
        return sweep(s, f_node, f_mid, x0, S0)

    monkeypatch.setattr(construct, "_rk4_path", counted)
    gauss_rk4()
    assert len(steps) == 2 and sum(steps) == 63984


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
