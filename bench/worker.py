"""Benchmark worker: runs revfront requests one at a time and checks them.

The driver (run.py) starts one worker per measured run and talks to it
over stdin/stdout, one JSON message per line:

    driver -> worker   {"op": "pass", "requests": [...]}   or {"op": "finish"}
    worker -> driver   per-pass result, then a final summary

Each request is timed around the revfront calls alone; its output check
runs afterwards, outside the timing and with tracing paused.  A request
fails when it raises, returns an unexpected exit code or fails its check.
Between requests the worker times the reference work of hostspeed.py,
once for every REFERENCE_EVERY_S of request time since it last did, so
that a long request is matched by as much reference work as short ones.

Usage (started by run.py, not by hand):
    python3 bench/worker.py --workload NAME --out-dir DIR [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

# revfront functions are called through their modules, so that the
# tracer's wrappers, installed in the module namespaces, see every call
import revfront
from revfront import (cli, construct, export, expr, framed, legendre,
                      quadrature, revolution, singular)

from hostspeed import reference
from tracer import NullTracer, Tracer

INTEGRABILITY_TOL = 1e-8       # the CLI's own pass mark for `check`
ROUNDTRIP_TOL = 1e-7           # curvature round trip, as in the CLI
LEGENDRE_TOL = 1e-8            # contact and norm residuals
REFERENCE_EVERY_S = 0.25


class CheckFailed(Exception):
    """An output differs from what the request's inputs imply."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _grid(spec):
    lo, hi, n = spec["grid"]
    return quadrature.uniform_grid(lo, hi, n)


def _values(jet):
    return np.atleast_1d(jet.value)


# ---------------------------------------------------------------------------
# mesh: cli.run in process, artifacts on disk
# ---------------------------------------------------------------------------

def mesh_call(spec, ctx):
    base = os.path.join(ctx.out_dir, spec["kind"])
    return cli.run(spec["argv"] + ["--out", base]), base


def _check_obj(path, nodes, theta):
    """Vertex and face counts, face indices in range, and a closed seam.

    Reads the file in blocks so that checking adds nothing to the worker's
    peak memory.  Vertex lines hold no "f" and face lines no "v", so
    counting those letters counts the lines of each type; every line must
    be one of the two.  The seam vertex of every ring must repeat the
    ring's first vertex byte for byte.
    """
    per_ring = theta + 1
    n_vert = nodes * per_ring
    n_face = 2 * (nodes - 1) * theta
    verts = faces = lines = 0
    ring = []                        # vertex lines of incomplete rings
    ends = []                        # first and last face line
    rest = b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            chunk = rest + chunk
            cut = chunk.rfind(b"\n") + 1
            block, rest = chunk[:cut], chunk[cut:]
            nv, nf = block.count(b"v"), block.count(b"f")
            split = block.find(b"f") if nf else len(block)
            _require(nv == 0 or (faces == 0 and block.rfind(b"v") < split),
                     "vertex line after a face line")
            if nv:
                ring += block[:split].split(b"\n")[:-1]
                whole = len(ring) - len(ring) % per_ring
                _require(ring[0:whole:per_ring] == ring[theta:whole:per_ring],
                         "seam vertex differs from its ring's first vertex")
                del ring[:whole]
            if nf:
                face_lines = block[split:].split(b"\n")
                ends = (ends[:1] or face_lines[:1]) + face_lines[-2:-1]
            verts += nv
            faces += nf
            lines += block.count(b"\n")
    _require(not rest and lines == verts + faces,
             "OBJ line that is not one vertex or one face")
    _require(verts == n_vert, "OBJ has %d vertices, want %d" % (verts, n_vert))
    _require(faces == n_face, "OBJ has %d faces, want %d" % (faces, n_face))
    index = [int(i) for line in ends for i in line.split()[1:]]
    _require(index and 1 <= min(index) and max(index) <= n_vert,
             "face index out of range")


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return dict(zip(header, rows.T))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def mesh_check(spec, out, ctx):
    rc, base = out
    _require(rc == 0, "exit code %d" % rc)
    exp = spec["expect"]
    with open(base + ".json") as fh:
        rep = json.load(fh)
    kind = spec["kind"]
    if kind == "construct_gauss":
        _require(rep["report"]["method"] == "gauss_rk4",
                 "method %s" % rep["report"]["method"])
    if kind in ("construct_gauss", "parallel"):
        _require(rep["legendre"]["passed"], "Legendre residuals too large")
    if kind.startswith("revolve"):
        r = rep["integrability"]["max_residual"]
        _require(r <= INTEGRABILITY_TOL, "integrability residual %g" % r)
    if kind == "parallel":
        _require(rep["commutation"]["passed"], "parallel commutation failed")
    if kind == "evolute":
        _require("first" not in rep["diagnostics"], "first evolute missing")
    if kind == "check":
        _require(rep["passed"], "check suite failed")
        for axis in ("z", "x"):
            r = rep["integrability_" + axis]["max_residual"]
            _require(r <= INTEGRABILITY_TOL, "integrability %s %g" % (axis, r))
        rt = rep["curvature_roundtrip"]
        _require(max(rt["ell_sup"], rt["beta_sup"]) <= ROUNDTRIP_TOL,
                 "curvature round trip %r" % rt)
    if exp["csv"]:
        cols = _read_csv(base + ".csv")
        _require(cols["t"].size == exp["nodes"], "CSV row count")
        if "radius" in exp:
            want = exp["radius"] * np.sin(cols["t"])
            err = float(np.max(np.abs(cols["x"] - want)))
            _require(err <= 1e-9, "pseudo-sphere x off R sin t by %g" % err)
    if exp["obj"]:
        _check_obj(base + ".obj", exp["nodes"], exp["theta"])
    if ctx.record_hashes:
        for ext in (".csv", ".obj", ".json"):
            if os.path.exists(base + ext):
                ctx.hashes[kind + ext] = _sha256(base + ext)


# ---------------------------------------------------------------------------
# solve: library constructions, checked, no artifacts
# ---------------------------------------------------------------------------

def _build_profile(spec):
    kind = spec["kind"]
    g = _grid(spec)
    if kind in ("gauss_rk4", "gauss_frobenius"):
        method = "frobenius" if kind == "gauss_frobenius" else "auto"
        prob = construct.GaussRatioProblem(
            alpha=spec["alpha"], beta=spec["beta"], t0=spec["t0"],
            x0=spec["x0"], sin_phi0=spec.get("sin0", 0.0), method=method)
        return construct.profile_from_gauss_ratio(prob, g)
    if kind == "gauss_jk":
        return construct.profile_from_JK(spec["J"], spec["K"], x0=spec["x0"],
                                         grid=g, t0=spec["t0"],
                                         sin0=spec["sin0"])
    if kind == "mean":
        prob = construct.MeanRatioProblem(
            alpha=spec["alpha"], beta=spec["beta"], c1=spec["c1"],
            c2=spec["c2"], t0=spec["t0"])
        return construct.profile_from_mean_ratio(prob, g)
    if kind == "j_phi":
        return construct.profile_from_J_phi(spec["J"], spec["phi"],
                                            x0=spec["x0"], grid=g)
    if kind == "h_phi":
        return construct.profile_from_H_phi(spec["H"], spec["phi"], g,
                                            c_a=spec["c_a"])
    if kind == "reconstruct":
        return legendre.reconstruct_from_curvature(
            spec["ell"], spec["beta"], g, theta0=spec["theta0"],
            x0=spec["x0"], z0=spec["z0"])
    raise ValueError(kind)


def _label_singular_point(c, spec):
    """Label the profile's known singular point, with its JSON record."""
    t0 = spec["t0"]
    if spec["kind"] == "gauss_rk4":
        labels = [singular.curve_cusp_by_derivatives(c, t0),
                  singular.curve_cusp_by_curvature(c, t0)]
    else:
        labels = [singular.revolution_singularity_classify(c, t0)]
    text = export.json_text(
        [export.classification_record(lab, t0) for lab in labels])
    return [lab.label for lab in labels], text


def solve_call(spec, ctx):
    c = _build_profile(spec)
    leg = legendre.verify_legendre(c)
    pair = legendre.curvature_of(c)
    surf = revolution.revolve(c, axis="z", n_theta=8)
    integ = framed.integrability_residual(surf.invariants)
    labels = (_label_singular_point(c, spec)
              if "label" in spec["expect"] else None)
    return c, leg, pair, integ, labels


def solve_check(spec, out, ctx):
    c, leg, pair, integ, labels = out
    kind = spec["kind"]
    exp = spec["expect"]
    if labels is not None:
        names, text = labels
        if len(names) == 2:
            ctx.tracer.counters["singular.agree_pairs"] += 1
            ctx.tracer.counters["singular.agree"] += names[0] == names[1]
        recorded = [rec["label"] for rec in json.loads(text)]
        _require(names == recorded and set(names) == {exp["label"]},
                 "labelled %r, want %s" % (names, exp["label"]))
    g = np.asarray(c.t)
    x = _values(c.curve.x)
    _require(leg.max_contact_residual <= LEGENDRE_TOL
             and leg.max_norm_residual <= LEGENDRE_TOL,
             "Legendre residuals %g %g" % (leg.max_contact_residual,
                                           leg.max_norm_residual))
    _require(integ.max_residual <= INTEGRABILITY_TOL,
             "integrability residual %g" % integ.max_residual)
    # curvature round trip: the pair recomputed from (x, z, a, b) against
    # the prescribed expressions, or the pair the construction attached
    if kind == "reconstruct":
        ell_ref = expr.eval_values(spec["ell"], g)
        beta_ref = expr.eval_values(spec["beta"], g)
    else:
        ell_ref = _values(c.curvature.ell)
        beta_ref = _values(c.curvature.beta)
    rt = max(float(np.max(np.abs(_values(pair.ell) - ell_ref))),
             float(np.max(np.abs(_values(pair.beta) - beta_ref))))
    _require(rt <= ROUNDTRIP_TOL, "curvature round trip %g" % rt)
    if "method" in exp:
        method = c.flags["construction"].method
        _require(method == exp["method"], "method %s" % method)
    if kind in ("gauss_rk4", "gauss_jk"):
        want, tol = exp["radius"] * np.sin(g), 1e-9
    elif kind == "gauss_frobenius":
        want, tol = exp["lead"] * g * g, 1e-9
    elif kind == "mean":
        want = np.hypot(spec["c2"], spec["c1"]
                        - 0.5 * exp["k"] * (g * g - spec["t0"] ** 2))
        tol = 1e-9
    elif kind == "j_phi":
        want, tol = np.sqrt(spec["x0"] ** 2 - exp["k"] * g * g), 1e-10
    elif kind == "h_phi":
        H = revolution.revolution_curvature(c, axis="z").H
        err = float(np.max(np.abs(H - exp["H"] * np.cos(g))))
        _require(err <= 1e-10, "mean density differs from H by %g" % err)
        return
    else:
        return
    err = float(np.max(np.abs(x - want)))
    _require(err <= tol, "profile differs from its closed form by %g" % err)


# ---------------------------------------------------------------------------
# classify: small labelling requests with JSON records
# ---------------------------------------------------------------------------

def _cusp_profile(spec):
    return legendre.reconstruct_from_curvature(
        spec["ell"], spec["beta"], _grid(spec), theta0=spec["theta0"],
        x0=spec["x0"], z0=spec["z0"])


def classify_call(spec, ctx):
    kind = spec["kind"]
    t0 = spec["t0"]
    if kind == "pair":
        c = _cusp_profile(spec)
        d = singular.curve_cusp_by_derivatives(c, t0)
        k = singular.curve_cusp_by_curvature(c, t0)
        return [(d.label, k.label)], export.json_text(
            {"derivative": export.classification_record(d, t0),
             "curvature": export.classification_record(k, t0),
             "agree": d.label == k.label})
    if kind == "sweep":
        c = _cusp_profile(spec)
        pairs, records = [], []
        for ti in np.asarray(c.t).tolist():
            d = singular.curve_cusp_by_derivatives(c, ti)
            k = singular.curve_cusp_by_curvature(c, ti)
            pairs.append((d.label, k.label))
            records.append({"derivative": export.classification_record(d, ti),
                            "curvature": export.classification_record(k, ti)})
        return pairs, export.json_text({"nodes": records})
    if kind == "gauss_orders":
        m = singular.ord_of(expr.eval_jet(spec["a"], t0))
        n = singular.ord_of(expr.eval_jet(spec["beta"], t0))
        lab = singular.constant_gauss_cusp(m, n)
        return [(lab.label,)], export.json_text(
            {"orders": [m, n],
             "record": export.classification_record(lab, t0)})
    if kind == "mean_jets":
        lab = singular.constant_mean_cusp(expr.eval_jet(spec["alpha"], t0),
                                          expr.eval_jet(spec["beta"], t0))
        return [(lab.label,)], export.json_text(
            {"record": export.classification_record(lab, t0)})
    if kind == "revolution":
        c = legendre.legendre_from_expressions(
            spec["x"], spec["z"], spec["a"], spec["b"], _grid(spec))
        lab = singular.revolution_singularity_classify(c, t0)
        return [(lab.label,)], export.json_text(
            {"record": export.classification_record(lab, t0)})
    raise ValueError(kind)


def classify_check(spec, out, ctx):
    labels, text = out
    if len(labels[0]) == 2:
        ctx.tracer.counters["singular.agree_pairs"] += len(labels)
        ctx.tracer.counters["singular.agree"] += sum(d == k for d, k in labels)
    exp = spec["expect"]
    want = exp["label"]
    doc = json.loads(text)
    if spec["kind"] == "sweep":
        node = exp["node"]
        for i, pair in enumerate(labels):
            w = want if i == node else "regular"
            _require(pair == (w, w),
                     "node %d labelled %r, want %s" % (i, pair, w))
        _require(len(doc["nodes"]) == len(labels), "JSON record count")
        _require(doc["nodes"][node]["curvature"]["label"] == want,
                 "JSON record label")
    else:
        _require(all(lab == want for lab in labels[0]),
                 "labelled %r, want %s" % (labels[0], want))
        if spec["kind"] == "pair":
            _require(doc["agree"] and doc["derivative"]["label"] == want,
                     "JSON record label")
        else:
            _require(doc["record"]["label"] == want, "JSON record label")
        if "orders" in exp:
            _require(doc["orders"] == exp["orders"],
                     "orders %r" % doc["orders"])


HANDLERS = {"mesh": (mesh_call, mesh_check),
            "solve": (solve_call, solve_check),
            "classify": (classify_call, classify_check)}


class Context:
    def __init__(self, out_dir, tracer):
        self.out_dir = out_dir
        self.tracer = tracer
        self.record_hashes = False
        self.hashes = {}


def _run_references(owed_s, references):
    """Time the reference once per REFERENCE_EVERY_S owed; return the rest."""
    while owed_s >= REFERENCE_EVERY_S:
        references.append(reference())
        owed_s -= REFERENCE_EVERY_S
    return owed_s


def run_pass(workload, requests, ctx):
    """Serve one pass; return (latencies, failures, reference times)."""
    call, check = HANDLERS[workload]
    latencies, failures, references = [], [], []
    owed = REFERENCE_EVERY_S
    for spec in requests:
        owed = _run_references(owed, references)
        start = time.perf_counter()
        try:
            out = call(spec, ctx)
            error = None
        except Exception:                    # a request failure, recorded
            error = traceback.format_exc(limit=-3)
        latencies.append(time.perf_counter() - start)
        owed += latencies[-1]
        if error is None:
            with ctx.tracer.paused():
                try:
                    check(spec, out, ctx)
                except CheckFailed as exc:
                    error = "%s: %s" % (spec["kind"], exc)
                except Exception:
                    error = traceback.format_exc(limit=-3)
        if error is not None:
            failures.append(error)
    _run_references(max(owed, REFERENCE_EVERY_S), references)
    return latencies, failures, references


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(HANDLERS))
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    channel = sys.stdout
    sys.stdout = sys.stderr      # nothing revfront prints reaches the channel
    os.makedirs(args.out_dir, exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    missing = tracer.install()
    ctx = Context(args.out_dir, tracer)

    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "finish":
            break
        if msg.get("reset_trace"):
            tracer.reset()
        ctx.record_hashes = bool(msg.get("record_hashes"))
        latencies, failures, references = run_pass(args.workload,
                                                   msg["requests"], ctx)
        channel.write(json.dumps({"latencies": latencies,
                                  "failures": failures,
                                  "references": references}) + "\n")
        channel.flush()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    channel.write(json.dumps({
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "hashes": ctx.hashes,
        "trace": tracer.summary(),
        "probes_missing": missing,
        "env": {"python": sys.version.split()[0],
                "numpy": np.__version__,
                "revfront": getattr(revfront, "__version__", "unknown"),
                "revfront_file": revfront.__file__},
    }) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
