"""Artifact writers: curve CSV, surface OBJ, JSON reports.

All writers are deterministic: floats go out as ``"%.17g" % x`` gives
them, JSON keys are sorted, CSV rows end in CRLF per RFC 4180, and OBJ
files carry no comments or timestamps, so a rerun with the same inputs is
byte-identical.

The CSV and OBJ writers build their text as NUL-padded uint8 matrices, one
row per line, and drop the NULs as they write each matrix.  ``_fmt17``
gives every float a cell of ``_CELL`` bytes.  Finite |x| in [1e-4, 1e17),
where %.17g writes fixed notation, is converted in numpy, exactly: an
error-free product gives |x| * 10**(16 - k) as hi + lo, and rounding it
half to even gives the 17 digits (README, "Numerical notes").  Zeros,
smaller and larger magnitudes, inf and nan go through Python's %.17g into
the same cells.  The OBJ writer works through the mesh in blocks of
``_OBJ_RINGS`` rings.  ``RevolutionSurface.ring_table`` gives a block's
distinct coordinates (h, and r times each distinct cos theta_j or sin
theta_j) with the order that gathers their cells into vertex lines; a face
block formats each vertex index it uses once and gathers those cells into
triangles.  So every distinct number of a block is formatted once, and
neither the text nor the numbers held in memory exceed one block.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .framed import BasicInvariants, curvature_of, immersion_status
from .legendre import LegendreCurve, curvature_pair_of
from .revolution import RevolutionSurface

_OBJ_RINGS = 64
_CELL = 24                    # len("-2.2250738585072014e-308"), the longest
_POW10 = np.array([float(10 ** p) for p in range(23)])   # exact doubles
_SPLIT = 134217729.0          # 2**27 + 1: Veltkamp's split into halves
_json_str = json.encoder.encode_basestring_ascii


def _split(x):
    """hi, lo with hi + lo = x exactly and 26 significant bits in each."""
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, p):
    """hi, lo with hi = fl(a * 10**p) and hi + lo = a * 10**p exactly, for
    0 <= p <= 22 (Dekker's TwoProduct; 10**p is a double there)."""
    hi = a * _POW10[p]
    ah, al = _split(a)
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    return hi, al * bl - (((hi - ah * bh) - al * bh) - ah * bl)


def _at_least(hi, lo, c):
    """hi + lo >= c, exactly, for a double c."""
    return (hi > c) | ((hi == c) & (lo >= 0))


def _fmt17(values) -> np.ndarray:
    """"%.17g" % v of each value as a NUL-padded (n, _CELL) uint8 matrix.

    Finite |v| in [1e-4, 1e17) is written in fixed notation from D, the
    integer nearest |v| * 10**(16 - k) (ties to even), k = floor(log10
    |v|), with the fraction's trailing zeros left out.  Everything else
    (zeros, smaller or larger magnitudes, inf and nan) goes through
    Python's formatter.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    out = np.zeros((n, _CELL), np.uint8)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    hi, lo = _scaled(a, 16 - k)
    # log10 may be one off next to a power of ten; the exact product
    # decides, so that 1e16 <= hi + lo < 1e17
    step = _at_least(hi, lo, 1e17).astype(np.int64) - ~_at_least(hi, lo, 1e16)
    off = np.flatnonzero(step)
    k[off] += step[off]
    hi[off], lo[off] = _scaled(a[off], 16 - k[off])
    # hi >= 2**53 is an even integer, so rounding lo half to even rounds
    # hi + lo half to even
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    # column 0 holds the sign and digit j goes to column 1 + j, one column
    # further right if it is fractional (j > k); for k < 0 the digits
    # start at column 2 - k, over the tail of "0.000" in columns 1-5
    flat = out.reshape(-1)
    cell = np.arange(0, n * _CELL, _CELL)
    flat[cell[v < 0]] = ord("-")
    out[np.flatnonzero(k < 0), 1:6] = np.frombuffer(b"0.000", np.uint8)
    at = cell + 17 + np.maximum(-k, 0)      # column of digit 16, unshifted
    strip = np.ones(n, bool)                # digits j .. 16 are stripped
    for j in range(16, -1, -1):
        q = D // 10
        d = (D - 10 * q).astype(np.uint8)
        D = q
        frac = j > k
        strip &= d == 0
        strip &= frac
        d += ord("0")
        d[strip] = 0
        flat[at + frac] = d
        at -= 1
    # the point after digit k >= 0, unless the whole fraction was stripped
    # (k = 16 has none: the column after the point's stays NUL)
    at = cell + 2 + k
    flat[at[(k >= 0) & (flat[at + 1] != 0)]] = ord(".")
    slow = np.flatnonzero(~fast)
    text = ("%-24.17g" * slow.size % tuple(v[slow].tolist())).encode()
    cells = np.frombuffer(text, np.uint8).reshape(-1, _CELL)
    out[slow] = np.where(cells == ord(" "), 0, cells)
    return out


def _lines(cells, head: bytes, sep: bytes, end: bytes) -> np.ndarray:
    """Each row of a (rows, m, w) uint8 cell matrix as one line, head, the
    m cells joined by sep, then end, as a NUL-padded uint8 matrix.

    Its text drops the NULs: bytes.translate(None, b"\\0") pays per byte
    and bytes.replace(b"\\0", b"") per NUL, and a float cell holds about
    five NULs where an index cell rarely holds any.
    """
    rows, m, w = cells.shape
    parts = [head] + [sep] * (m - 1) + [end]
    mat = np.empty((rows, m * w + sum(map(len, parts))), np.uint8)
    at = 0
    for j, part in enumerate(parts):
        mat[:, at:at + len(part)] = np.frombuffer(part, np.uint8)
        at += len(part)
        if j < m:
            mat[:, at:at + w] = cells[:, j]
            at += w
    return mat


def _int_cells(first: int, last: int) -> np.ndarray:
    """The decimal digits of first..last (first >= 1) as a NUL-padded
    (last - first + 1, w) uint8 matrix, w the width of last."""
    ids = np.arange(first, last + 1)
    w = len(str(last))
    out = np.empty((ids.size, w), np.uint8)
    rest = ids
    for j in range(w - 1, -1, -1):
        q = rest // 10
        out[:, j] = rest - 10 * q + ord("0")
        rest = q
    out[ids[:, None] < 10 ** np.arange(w - 1, -1, -1)] = 0
    return out


def write_curve_csv(c: LegendreCurve, path) -> None:
    """Header plus one row per node: t, x, z, a, b, ell, beta."""
    pair = curvature_pair_of(c)
    table = np.column_stack([c.t, c.curve.x.value, c.curve.z.value,
                             c.normal.a.value, c.normal.b.value,
                             pair.ell.value, pair.beta.value])
    cells = _fmt17(table).reshape(table.shape + (_CELL,))
    with open(path, "wb") as fh:
        fh.write(b"t,x,z,a,b,ell,beta\r\n")
        fh.write(_lines(cells, b"", b",", b"\r\n").tobytes()
                 .translate(None, b"\0"))


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
        cells = _fmt17(values).reshape(values.shape + (_CELL,))
        vertices = np.take(cells, order, axis=1).reshape(-1, 3, _CELL)
        yield _lines(vertices, b"v ", b" ", b"\n").tobytes().translate(
            None, b"\0")

    # J is independent of theta for a revolute; the row average decides
    J = curvature_of(surface.invariants).J[:, 0]
    jtol = 1e-12 * (1.0 + float(np.max(np.abs(J))))
    flip = 0.5 * (J[:-1] + J[1:]) < -jtol
    j = np.arange(ntheta)
    for i in range(0, nt - 1, _OBJ_RINGS):
        f = flip[i:i + _OBJ_RINGS, None]
        q0 = np.arange(len(f))[:, None] * (ntheta + 1) + j
        q1 = q0 + ntheta + 1
        q2 = q1 + 1
        q3 = q0 + 1
        tri = np.stack([q0, np.where(f, q3, q1), q2,
                        q0, q2, np.where(f, q1, q3)], axis=-1)
        # the ids of rings i .. i + len(f), each formatted once
        first = i * (ntheta + 1) + 1
        ids = _int_cells(first, first + (len(f) + 1) * (ntheta + 1) - 1)
        faces = np.take(ids, tri.reshape(-1, 3), axis=0)
        yield _lines(faces, b"f ", b" ", b"\n").tobytes().replace(b"\0", b"")


def write_surface_obj(surface: RevolutionSurface, path) -> None:
    with open(path, "wb") as fh:
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
