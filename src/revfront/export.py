"""Artifact writers: curve CSV, surface OBJ, JSON reports.

All writers are deterministic: floats go out with 17 significant digits,
JSON keys are sorted, CSV rows end in CRLF per RFC 4180, and OBJ files
carry no comments or timestamps, so a rerun with the same inputs is
byte-identical.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .framed import BasicInvariants, curvature_of, immersion_status
from .legendre import LegendreCurve, curvature_pair_of
from .revolution import RevolutionSurface


def fmt(v) -> str:
    return "%.17g" % float(v)


def curve_rows(c: LegendreCurve):
    """Header plus one row per node: t, x, z, a, b, ell, beta."""
    pair = curvature_pair_of(c)
    cols = [np.asarray(c.t),
            np.atleast_1d(c.curve.x.value), np.atleast_1d(c.curve.z.value),
            np.atleast_1d(c.normal.a.value), np.atleast_1d(c.normal.b.value),
            np.atleast_1d(pair.ell.value), np.atleast_1d(pair.beta.value)]
    rows = [["t", "x", "z", "a", "b", "ell", "beta"]]
    for i in range(cols[0].size):
        rows.append([fmt(col[i]) for col in cols])
    return rows


def write_curve_csv(c: LegendreCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(curve_rows(c))


def surface_obj_lines(surface: RevolutionSurface):
    """OBJ vertex and face lines for a revolved mesh.

    The theta seam is duplicated (the first ring is copied verbatim), so
    the vertex count is n_t * (n_theta + 1).  Quads are split into two
    triangles wound counterclockwise as seen from the +n side; where the
    area density J is negative the winding is flipped to keep that
    convention, and quads with J below threshold keep parameter order.
    """
    x = surface.grid.x
    nt, ntheta = x.shape[0], x.shape[1]
    verts = np.concatenate([x, x[:, :1, :]], axis=1)   # seam duplicate
    lines = []
    for i in range(nt):
        for j in range(ntheta + 1):
            p = verts[i, j]
            lines.append(f"v {fmt(p[0])} {fmt(p[1])} {fmt(p[2])}")

    inv = surface.invariants
    J = inv.a1 * inv.b2 - inv.a2 * inv.b1
    jtol = 1e-12 * (1.0 + float(np.max(np.abs(J))))

    def vid(i, j):
        return i * (ntheta + 1) + j + 1

    for i in range(nt - 1):
        # J is independent of theta for a revolute; row average decides
        jrow = 0.5 * (J[i, 0] + J[i + 1, 0])
        flip = jrow < -jtol
        for j in range(ntheta):
            q = (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
            if flip:
                t1 = (q[0], q[3], q[2])
                t2 = (q[0], q[2], q[1])
            else:
                t1 = (q[0], q[1], q[2])
                t2 = (q[0], q[2], q[3])
            lines.append("f %d %d %d" % t1)
            lines.append("f %d %d %d" % t2)
    return lines


def write_surface_obj(surface: RevolutionSurface, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(surface_obj_lines(surface)) + "\n")


def invariants_records(invariants: BasicInvariants, tol: float = 1e-8):
    """Per-profile-node invariant summary: {node, J, K, H, status}.

    Reads column 0 of the invariants; a revolute's invariants do not
    depend on theta, so the (n_t, 1) columns are enough.
    """
    C = curvature_of(invariants)
    records = []
    for i in range(C.J.shape[0]):
        st = immersion_status(C, (i, 0), tol)
        records.append({"node": i,
                        "J": float(C.J[i, 0]),
                        "K": float(C.K[i, 0]),
                        "H": float(C.H[i, 0]),
                        "status": st.label})
    return records


def classification_record(label, t0: float):
    """JSON shape for a CuspLabel: t0, label, criterion values, thresholds."""
    diag = dict(label.diagnostics)
    thresholds = {}
    for key in ("tol", "threshold", "det_threshold"):
        if key in diag:
            thresholds[key] = diag.pop(key)
    diag.pop("t0", None)
    return {"t0": float(t0), "label": label.label,
            "criterion_values": _plain(diag), "thresholds": _plain(thresholds)}


def _plain(obj):
    """Recursively strip numpy scalars/arrays so json can serialize."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def json_text(payload) -> str:
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def write_json(payload, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(payload))
