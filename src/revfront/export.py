"""Artifact writers: curve CSV, surface OBJ, JSON reports.

All writers are deterministic: floats go out with 17 significant digits,
JSON keys are sorted, CSV rows end in CRLF per RFC 4180, and OBJ files
carry no comments or timestamps, so a rerun with the same inputs is
byte-identical.  The CSV and OBJ writers format whole blocks of rows with
one ``%`` operation; the OBJ writer works through the mesh in blocks of
``_OBJ_RINGS`` rings, each distinct number formatted once per ring block.
``RevolutionSurface.ring_table`` gives a block's distinct coordinates (h,
and r times each distinct cos theta_j or sin theta_j) with the order that
gathers them into vertices, so neither the text nor the numbers held in
memory exceed one block.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .framed import BasicInvariants, curvature_of, immersion_status
from .legendre import LegendreCurve, curvature_pair_of
from .revolution import RevolutionSurface

_OBJ_RINGS = 64
_CSV_ROW = ",".join(["%.17g"] * 7) + "\r\n"
_json_str = json.encoder.encode_basestring_ascii


def write_curve_csv(c: LegendreCurve, path) -> None:
    """Header plus one row per node: t, x, z, a, b, ell, beta."""
    pair = curvature_pair_of(c)
    table = np.column_stack([c.t, c.curve.x.value, c.curve.z.value,
                             c.normal.a.value, c.normal.b.value,
                             pair.ell.value, pair.beta.value])
    with open(path, "w", newline="") as fh:
        fh.write("t,x,z,a,b,ell,beta\r\n")
        fh.write((_CSV_ROW * len(table)) % tuple(table.ravel().tolist()))


def _obj_blocks(surface: RevolutionSurface):
    """OBJ text for a revolved mesh: all vertex blocks, then all face blocks.

    The theta seam is duplicated (the first ring is copied verbatim), so
    the vertex count is n_t * (n_theta + 1).  Quads are split into two
    triangles wound counterclockwise as seen from the +n side; where the
    area density J is negative the winding is flipped to keep that
    convention, and quads with J below threshold keep parameter order.
    """
    nt, ntheta = surface.profile.t.size, surface.theta.size
    for i in range(0, nt, _OBJ_RINGS):
        values, order = surface.ring_table(i, i + _OBJ_RINGS)
        order = np.concatenate([order, order[:3]])          # seam duplicate
        words = np.array(("%.17g " * values.size
                          % tuple(values.ravel().tolist())).split(),
                         dtype=object).reshape(values.shape)
        block = words[:, order]
        yield (("v %s %s %s\n" * (block.size // 3))
               % tuple(block.ravel().tolist()))

    # J is independent of theta for a revolute; the row average decides
    J = curvature_of(surface.invariants).J[:, 0]
    jtol = 1e-12 * (1.0 + float(np.max(np.abs(J))))
    flip = 0.5 * (J[:-1] + J[1:]) < -jtol
    j = np.arange(ntheta)
    for i in range(0, nt - 1, _OBJ_RINGS):
        f = flip[i:i + _OBJ_RINGS, None]
        q0 = np.arange(i, i + len(f))[:, None] * (ntheta + 1) + j + 1
        q1 = q0 + ntheta + 1
        q2 = q1 + 1
        q3 = q0 + 1
        tri = np.stack([q0, np.where(f, q3, q1), q2,
                        q0, q2, np.where(f, q1, q3)], axis=-1)
        yield ("f %d %d %d\n" * (tri.size // 3)) % tuple(tri.ravel().tolist())


def write_surface_obj(surface: RevolutionSurface, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(_obj_blocks(surface))


def invariants_records(invariants: BasicInvariants, tol: float = 1e-8):
    """Per-profile-node invariant summary: {node, J, K, H, status}.

    Reads column 0 of the invariants; a revolute's invariants do not
    depend on theta and are held as (n_t, 1) columns.
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
            "criterion_values": diag, "thresholds": thresholds}


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_parts(value, indent: str, out: list) -> None:
    """Append the indent-2 JSON text of value to out, in the order and
    spelling of json.dumps(sort_keys=True, indent=2)."""
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, not %s"
                                % type(key).__name__)
            out.append(sep + _json_str(key) + ": ")
            _json_parts(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)


def json_text(payload) -> str:
    """payload holds plain values only: str-keyed dicts, lists, tuples,
    str, int, float, bool and None; anything else raises TypeError.

    The text is json.dumps(payload, sort_keys=True, indent=2) plus a
    newline, written directly: json.dumps falls back to its pure-Python
    encoder whenever it indents.
    """
    out = []
    _json_parts(payload, "", out)
    out.append("\n")
    return "".join(out)


def write_json(payload, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(payload))
