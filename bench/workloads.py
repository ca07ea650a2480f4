"""Seeded request generators for the three benchmark workloads.

Only the benchmark driver imports this module; the worker process that
runs revfront receives the generated requests, never the seed.

Every request is a JSON-ready dict with a "kind" and its inputs, plus an
"expect" entry that the worker's output check reads.  A seed changes the
coefficients of every request but never a size: grid node counts, theta
counts and the number of requests of each kind per pass are constants.
Each pass draws fresh coefficients, so no two passes of a run repeat an
input and a result cache in the program cannot turn later passes into
lookups.
"""

from __future__ import annotations

import math
import random

PI = math.pi

WORKLOADS = ("mesh", "solve", "classify")

# mesh: CLI runs as a user types them
MESH_GAUSS_NODES = 4000
MESH_NODES = 2000
MESH_THETA = 128

# solve: library constructions
SOLVE_RK4_NODES = 4000
SOLVE_NODES = 2000
SOLVE_KINDS = ("gauss_rk4", "gauss_frobenius", "gauss_jk", "mean",
               "j_phi", "h_phi", "reconstruct")
SOLVE_REPEATS = 2               # requests of each kind per pass

# classify: many small labelling requests
PAIR_NODES = 33
SWEEP_NODES = 257
CUSP_LABELS = ("cusp_3_2", "cusp_5_2", "cusp_4_3", "cusp_5_3")
GAUSS_ORDERS = {(1, 1): "cusp_3_2", (2, 2): "cusp_4_3", (1, 2): "cusp_5_3"}
# Requests of each kind per pass.  The scalar-jet kinds (gauss_orders,
# mean_jets) and the cone-type revolution requests take well under 1 ms
# and make up two thirds of a pass, so the median latency sits inside that
# group rather than on the gap between it and the ~1.5 ms profile
# requests; the sweeps, half a percent of a pass, set the tail.
CLASSIFY_COUNTS = {
    "pair": 400,
    "gauss_orders": 720,
    "mean_jets": 480,
    "revolution": 390,
    "sweep": 10,
}


def num(x: float) -> str:
    """Expression literal that parses back to exactly x."""
    s = repr(float(x))
    return "(%s)" % s if x < 0 else s


def _rng(seed: int, workload: str, index) -> random.Random:
    return random.Random(f"revfront-bench:{workload}:{seed}:{index}")


def _signed(r: random.Random, lo: float, hi: float) -> float:
    return r.uniform(lo, hi) * r.choice((-1.0, 1.0))


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def _smooth_profile_args(r: random.Random, grid: str):
    """--ell/--beta profile with ell >= 0.3 and beta >= 0.3 on [0, 1].

    ell stays away from zero so the first evolute exists; beta stays away
    from zero so every node is regular and no check depends on a
    singular-point tolerance.
    """
    ell = "%s+%s*sin(%s*t)" % (num(r.uniform(0.8, 1.6)),
                               num(r.uniform(-0.5, 0.5)),
                               num(r.uniform(1.0, 3.0)))
    beta = "%s+%s*t+%s*cos(t)" % (num(r.uniform(0.8, 1.5)),
                                  num(r.uniform(-0.3, 0.3)),
                                  num(r.uniform(-0.2, 0.2)))
    return ["--ell", ell, "--beta", beta,
            "--theta0", repr(r.uniform(-1.0, 1.0)),
            "--x0", repr(r.uniform(1.5, 3.0)),
            "--z0", repr(r.uniform(1.5, 3.0)),
            "--grid", grid, "--theta", str(MESH_THETA)]


def _mesh_request(r: random.Random, kind: str) -> dict:
    grid = "0:1:%d" % MESH_NODES
    if kind == "construct_gauss":
        # pseudo-sphere of radius R: K = -J/R^2, profile x = R sin t
        R = r.uniform(0.6, 1.6)
        lo = r.uniform(0.15, 0.3)
        hi = PI - r.uniform(0.15, 0.3)
        argv = ["construct", "gauss", "--alpha", num(-1.0 / (R * R)),
                "--beta", "%s*cot(t)" % num(R), "--t0", repr(PI / 2),
                "--x0", repr(R), "--sin0", "-1",
                "--grid", "%r:%r:%d" % (lo, hi, MESH_GAUSS_NODES),
                "--theta", str(MESH_THETA)]
        return {"kind": kind, "argv": argv,
                "expect": {"nodes": MESH_GAUSS_NODES, "theta": MESH_THETA,
                           "radius": R, "csv": True, "obj": True}}
    if kind in ("revolve_z", "revolve_x"):
        argv = ["revolve", "--axis", kind[-1]] + _smooth_profile_args(r, grid)
    elif kind == "parallel":
        argv = (["parallel", "--lambda", repr(_signed(r, 0.1, 0.5))]
                + _smooth_profile_args(r, grid))
    elif kind == "evolute":
        argv = ["evolute"] + _smooth_profile_args(r, grid)
    elif kind == "check":
        argv = ["check"] + _smooth_profile_args(r, grid)
    else:
        raise ValueError(kind)
    has_mesh = kind != "check"
    return {"kind": kind, "argv": argv,
            "expect": {"nodes": MESH_NODES, "theta": MESH_THETA,
                       "csv": has_mesh, "obj": has_mesh}}


MESH_PASS = ("construct_gauss", "revolve_z", "revolve_x", "parallel",
             "evolute", "check")


def mesh_pass(seed: int, index) -> list:
    r = _rng(seed, "mesh", index)
    return [_mesh_request(r, kind) for kind in MESH_PASS]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _random_pair(r: random.Random):
    c = [r.uniform(-1.5, 1.5) for _ in range(8)]
    k1, k2 = r.randint(1, 2), r.randint(1, 2)
    ell = "%s+%s*t+%s*t^2+%s*sin(%d*t)" % (num(c[0]), num(c[1]), num(c[2]),
                                           num(c[3]), k1)
    beta = "%s+%s*t+%s*t^2+%s*cos(%d*t)" % (num(c[4]), num(c[5]), num(c[6]),
                                            num(c[7]), k2)
    return ell, beta


def _solve_request(r: random.Random, kind: str) -> dict:
    if kind == "gauss_rk4":
        # pseudo-sphere of radius R; node SOLVE_RK4_NODES/2 sits on its
        # 3/2-cusp at pi/2, which both criteria must label
        R = r.uniform(0.6, 1.6)
        lo = r.uniform(0.15, 0.3)
        half = SOLVE_RK4_NODES // 2
        hi = lo + (SOLVE_RK4_NODES - 1) * (PI / 2 - lo) / half
        return {"kind": kind, "alpha": num(-1.0 / (R * R)),
                "beta": "%s*cot(t)" % num(R), "t0": PI / 2, "x0": R,
                "sin0": -1.0, "grid": [lo, hi, SOLVE_RK4_NODES],
                "expect": {"radius": R, "method": "gauss_rk4",
                           "label": "cusp_3_2"}}
    if kind == "gauss_frobenius":
        # alpha = -2/(k t)^2, beta = k: x'' = 2x/t^2, bounded branch x0*t^2,
        # which meets the rotation axis at t = 0 in the normal form (t^2, t)
        k = r.uniform(0.8, 1.6)
        x0 = r.uniform(0.6, 1.4)
        return {"kind": kind, "alpha": "-2/(%s*t)^2" % num(k),
                "beta": num(k), "t0": 0.0, "x0": x0,
                "grid": [0.0, 0.45 * k / x0, SOLVE_NODES],
                "expect": {"lead": x0, "method": "gauss_frobenius",
                           "label": "axis_degenerate"}}
    if kind == "gauss_jk":
        # pseudo-sphere of radius R from J = -R^2 cos t, K = cos t
        R = r.uniform(0.6, 1.6)
        lo, hi = r.uniform(0.15, 0.3), PI - r.uniform(0.15, 0.3)
        return {"kind": kind, "J": "%s*cos(t)" % num(-R * R), "K": "cos(t)",
                "x0": R * math.sin(lo), "t0": lo, "sin0": -math.sin(lo),
                "grid": [lo, hi, SOLVE_NODES], "expect": {"radius": R}}
    if kind == "mean":
        # H = 0, beta = k t: catenoid-type profile with a closed form
        k = r.uniform(0.5, 1.5)
        return {"kind": kind, "alpha": "0", "beta": "%s*t" % num(k),
                "c1": r.uniform(0.1, 0.4), "c2": r.uniform(0.2, 0.6),
                "t0": 0.0, "grid": [-1.0, 1.0, SOLVE_NODES + 1],
                "expect": {"k": k}}
    if kind == "j_phi":
        # phi = pi/2, J = -k t: x^2 = x0^2 - k t^2
        k = r.uniform(0.5, 1.0)
        return {"kind": kind, "J": "%s*t" % num(-k), "phi": repr(PI / 2),
                "x0": r.uniform(1.0, 1.5), "grid": [0.0, 0.9, SOLVE_NODES],
                "expect": {"k": k}}
    if kind == "h_phi":
        hc = r.uniform(0.5, 1.5)
        return {"kind": kind, "H": "%s*cos(t)" % num(hc),
                "phi": "%s*sin(t)" % num(r.uniform(0.1, 0.4)),
                "c_a": r.uniform(-1.5, -1.0), "grid": [0.0, 1.2, SOLVE_NODES],
                "expect": {"H": hc}}
    if kind == "reconstruct":
        ell, beta = _random_pair(r)
        return {"kind": kind, "ell": ell, "beta": beta,
                "theta0": r.uniform(-1.0, 1.0), "x0": r.uniform(1.5, 3.0),
                "z0": r.uniform(-1.0, 1.0), "grid": [0.0, 1.0, SOLVE_NODES],
                "expect": {}}
    raise ValueError(kind)


def solve_pass(seed: int, index) -> list:
    r = _rng(seed, "solve", index)
    return [_solve_request(r, kind)
            for _ in range(SOLVE_REPEATS) for kind in SOLVE_KINDS]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _offset(t0: float) -> str:
    return "(t-%s)" % num(t0)


def _cusp_pair(r: random.Random, label: str, t0: float):
    """Curvature pair (ell, beta) with a normal-form cusp at t0.

    The criteria of singular.cusp_classify_curvature fix the shape:
    3/2 needs beta' ell != 0; 5/2 needs ell = 0 and beta'' ell' != 0;
    4/3 needs beta' = 0 and beta'' ell != 0; 5/3 needs beta' = ell = 0
    and beta'' ell' != 0.  Coefficient ranges keep every other zero of
    beta and ell at least one unit away from t0, so the other nodes of a
    grid of half-width <= 1 are regular.
    """
    s = _offset(t0)
    l0, l1 = _signed(r, 0.5, 2.0), _signed(r, 0.5, 2.0)
    b1, b2 = _signed(r, 1.0, 2.0), _signed(r, 0.5, 2.0)
    small = r.uniform(-0.2, 0.2)
    if label == "cusp_3_2":
        ell = "%s+%s*%s" % (num(l0), num(small), s)
        beta = "%s*sin(%s)" % (num(b1), s)
    elif label == "cusp_5_2":
        ell = "%s*%s" % (num(l1), s)
        beta = "%s*%s+%s*%s^2" % (num(b1), s, num(0.25 * b2), s)
    elif label == "cusp_4_3":
        ell = "%s+%s*%s" % (num(l0), num(small), s)
        beta = "%s*%s^2" % (num(b2), s)
    elif label == "cusp_5_3":
        ell = "%s*sin(%s)" % (num(l1), s)
        beta = "%s*%s^2+%s*%s^3" % (num(b2), s, num(0.2 * small * b2), s)
    else:
        raise ValueError(label)
    return ell, beta


def _classify_request(r: random.Random, kind: str, variant) -> dict:
    t0 = r.uniform(-1.0, 1.0)
    s = _offset(t0)
    if kind in ("pair", "sweep"):
        ell, beta = _cusp_pair(r, variant, t0)
        half = r.uniform(0.3, 0.6) if kind == "pair" else 1.0
        nodes = PAIR_NODES if kind == "pair" else SWEEP_NODES
        return {"kind": kind, "ell": ell, "beta": beta, "t0": t0,
                "grid": [t0 - half, t0 + half, nodes],
                "theta0": r.uniform(-1.0, 1.0), "x0": r.uniform(1.0, 2.0),
                "z0": r.uniform(-1.0, 1.0),
                "expect": {"label": variant, "node": nodes // 2}}
    if kind == "gauss_orders":
        m, n = variant
        a = "%s*%s^%d*(1+%s*%s)" % (num(_signed(r, 0.5, 2.0)), s, m,
                                    num(r.uniform(-1.0, 1.0)), s)
        beta = "%s*sin(%s)^%d+%s*%s^%d" % (num(_signed(r, 0.5, 2.0)), s, n,
                                           num(r.uniform(-1.0, 1.0)), s, n + 1)
        return {"kind": kind, "a": a, "beta": beta, "t0": t0,
                "expect": {"label": GAUSS_ORDERS[variant], "orders": [m, n]}}
    if kind == "mean_jets":
        alpha = "%s+%s*%s+%s*sin(%s)" % (num(r.uniform(-1.0, 1.0)),
                                         num(_signed(r, 0.5, 2.0)), s,
                                         num(r.uniform(-0.2, 0.2)), s)
        b1, b2 = _signed(r, 0.5, 2.0), _signed(r, 0.5, 2.0)
        if variant == "cusp_5_2":
            beta = "%s*sin(%s)+%s*%s^2" % (num(b1), s, num(b2), s)
        else:
            beta = "%s*%s^2+%s*%s^3" % (num(b2), s, num(0.3 * b1), s)
        return {"kind": kind, "alpha": alpha, "beta": beta, "t0": t0,
                "expect": {"label": variant}}
    if kind == "revolution":
        xs = r.uniform(1.0, 2.0)
        p, q = _signed(r, 0.5, 2.0), _signed(r, 0.5, 2.0)
        if variant == "cusp_3_2":
            # (xs + p s^2, q s^3): velocity along (2p, 3q s)
            x, z = "%s+%s*%s^2" % (num(xs), num(p), s), "%s*%s^3" % (num(q), s)
            den = "sqrt(%s*%s^2+%s)" % (num(9 * q * q), s, num(4 * p * p))
            a = "%s*%s/%s" % (num(-3 * q), s, den)
            b = "%s/%s" % (num(2 * p), den)
        elif variant == "cusp_4_3":
            # (xs + p s^3, q s^4): velocity along (3p, 4q s)
            x, z = "%s+%s*%s^3" % (num(xs), num(p), s), "%s*%s^4" % (num(q), s)
            den = "sqrt(%s*%s^2+%s)" % (num(16 * q * q), s, num(9 * p * p))
            a = "%s*%s/%s" % (num(-4 * q), s, den)
            b = "%s/%s" % (num(3 * p), den)
        else:
            # straight line through the z-axis: a cone point at t0
            norm = math.hypot(p, q)
            x, z = "%s*%s" % (num(p), s), "%s*%s+%s" % (num(q), s, num(xs))
            a, b = num(q / norm), num(-p / norm)
        half = r.uniform(0.3, 0.6)
        return {"kind": kind, "x": x, "z": z, "a": a, "b": b, "t0": t0,
                "grid": [t0 - half, t0 + half, PAIR_NODES],
                "expect": {"label": variant}}
    raise ValueError(kind)


def _classify_plan():
    """(kind, variant) for every request of a pass, before shuffling."""
    plan = []
    for kind, count in CLASSIFY_COUNTS.items():
        if kind in ("pair", "sweep"):
            variants = CUSP_LABELS
        elif kind == "gauss_orders":
            variants = tuple(GAUSS_ORDERS)
        elif kind == "mean_jets":
            variants = ("cusp_5_2", "cusp_5_3")
        else:
            variants = ("cusp_3_2", "cusp_4_3", "cone_type")
        plan += [(kind, variants[i % len(variants)]) for i in range(count)]
    return plan


def classify_pass(seed: int, index) -> list:
    r = _rng(seed, "classify", index)
    plan = _classify_plan()
    r.shuffle(plan)
    return [_classify_request(r, kind, variant) for kind, variant in plan]


PASSES = {"mesh": mesh_pass, "solve": solve_pass, "classify": classify_pass}

# The warm-up request: one cheap request that loads the code paths of the
# workload before timing starts.
WARMUP_KIND = {"mesh": "check", "solve": "reconstruct", "classify": "pair"}


def warmup_request(workload: str, seed: int) -> dict:
    kind = WARMUP_KIND[workload]
    for req in PASSES[workload](seed, "warmup"):
        if req["kind"] == kind:
            return req
    raise ValueError(workload)


def pass_requests(workload: str, seed: int, index: int) -> list:
    return PASSES[workload](seed, index)
