"""Artifact writers: curve CSV, surface OBJ, JSON reports.

All writers are deterministic: floats go out as ``"%.17g" % x`` gives
them, JSON keys are sorted, CSV rows end in CRLF per RFC 4180, and OBJ
files carry no comments or timestamps, so a rerun with the same inputs is
byte-identical.

The CSV writer and OBJ vertex lines build their text as NUL-padded uint8
matrices, one row per line, and drop the NULs as they write each matrix
(``_lines``); face lines mostly need no padding (below).  ``_fmt17``
gives every float a cell of ``_CELL`` bytes, grouped by decimal exponent,
with the index that puts the cells back in the order of the values.
Zeros and finite |x| in [1e-24, 1e17) are converted in numpy, exactly: two
error-free products give |x| * 10**(16 - k) as an integer plus a small
remainder, and rounding it half to even gives the 17 digits (README,
"Numerical notes"), written four at a time from a table.  Only tinier and
larger magnitudes, inf and nan go through Python's %.17g into the same
cells.  The OBJ writer works through the mesh in blocks of ``_OBJ_RINGS``
rings.  ``RevolutionSurface.ring_table`` gives a block's distinct
coordinate magnitudes (|h|, and |r| times each distinct |cos theta_j| or
|sin theta_j|) with the order that gathers them into vertex lines and the
sign of each coordinate.  So every distinct magnitude of a block is
formatted once, and neither the text nor the numbers held in memory exceed
one block.

Face text has a fixed layout.  Where every vertex id of a face block has
the same decimal width w, each ring row is a table of the ids of ring r,
then of ring r + 1, then b"f \\n", and ``_face_layout`` gives the byte of
that table for every byte of the row's 2 * n_theta face lines, one layout
per winding.  A block is then one np.take per run of rows that share a
winding, with no NULs to drop.  Only a block whose ids straddle a power of
ten (block 0, and one block per power crossed) pads its narrower ids with
NULs and drops them from its text.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .framed import BasicInvariants, curvature_of, immersion_status
from .legendre import LegendreCurve, curvature_pair_of
from .revolution import RevolutionSurface

_OBJ_RINGS = 64
_CELL = 24                    # len("-2.2250738585072014e-308"), the longest
_TINY = 1e-24                 # the kernel's smallest magnitude (p <= 41)
_SPLIT = 134217729.0          # 2**27 + 1: Veltkamp's split into halves
_json_str = json.encoder.encode_basestring_ascii


def _split(x):
    """hi, lo with hi + lo = x exactly and 26 significant bits in each."""
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


# 10**p = P + Q for p <= 41: P the nearest double and Q the rest, 0 up to
# p = 22 and a double above (10**p - P has at most 39 significant bits);
# rows P, its Veltkamp halves, Q, its halves
_POW10 = np.array([[float(10 ** p), float(10 ** p - int(float(10 ** p)))]
                   for p in range(42)]).T
_POW10 = np.vstack([_POW10[0], *_split(_POW10[0]),
                    _POW10[1], *_split(_POW10[1])])


def _digit_words():
    """The text of 0000 .. 9999 as uint32 words of four ASCII digits: rows
    0-9999 as they are, rows 10000-19999 with trailing zeros as NUL, rows
    20000-29999 with leading zeros as NUL (0 is four NULs in both)."""
    i = np.arange(10000, dtype=np.int16)
    digits = i[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    digits = digits.astype(np.uint8)
    zero = digits == 0
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(zero, axis=1)
    text = digits + np.uint8(ord("0"))
    table = np.concatenate([text, text * ~trailing, text * ~leading])
    return table.view(np.uint32).ravel()


_DIGITS = _digit_words()
_STRIP, _LEAD = 10000, 20000


def _product(a, a_halves, b, b_halves):
    """hi, lo with hi = fl(a * b) and hi + lo = a * b exactly (Dekker's
    TwoProduct)."""
    ah, al = a_halves
    bh, bl = b_halves
    hi = a * b
    return hi, al * bl - (((hi - ah * bh) - al * bh) - ah * bl)


def _scaled(a, p):
    """D, e: D the integer nearest y = a * 10**p (ties to even), as int64,
    and e a double with the sign of y - D, 0 only where y = D.

    For a in [1e-24, 1e17) and 0 <= p <= 41 with y < 1e18; D is exact
    where y >= 2**53.  y is hi + s + t exactly: hi = fl(a * P) is an even
    integer there, and t, nonzero only where Q is, is below 2**-44.
    """
    halves = _split(a)
    P = np.take(_POW10[:3], p, axis=1)
    hi, s = _product(a, halves, P[0], P[1:])
    t = np.zeros_like(s)
    # where 10**p is not a double, a * Q = g + g_lo joins s: Knuth's
    # TwoSum gives lo + g = s + t exactly, and t + g_lo is exact too
    big = np.flatnonzero(p > 22)
    q = np.take(_POW10[3:], p[big], axis=1)
    g, g_lo = _product(a[big], (halves[0][big], halves[1][big]), q[0], q[1:])
    lo = s[big]
    s[big] = sb = lo + g
    z = sb - lo
    t[big] = ((lo - (sb - z)) + (g - z)) + g_lo
    m = np.rint(s)
    D = hi.astype(np.int64) + m.astype(np.int64)
    f = s - m                                 # y - D = f + t, |f| <= 1/2
    # rint rounds half to even, and hi is even; only t can move y - D
    # to or past a half: (f -+ 1/2) is exact wherever it is near 0
    fb, tb, odd = f[big], t[big], D[big] % 2 == 1
    up, down = (fb - 0.5) + tb, (fb + 0.5) + tb
    step = (((up > 0) | ((up == 0) & odd)).astype(np.int64)
            - ((down < 0) | ((down == 0) & odd)))
    D[big] += step
    f[big] -= step
    return D, f + t


def _at_least(D, e, c: int):
    """y >= c, exactly, for an integer c and D, e = _scaled(...) of y."""
    return (D > c) | ((D == c) & (e >= 0))


def _items(mat, start: int, width: int):
    """Columns start:start + width of a uint8 matrix as one item per row,
    so that a copy moves whole items rather than bytes."""
    return mat[:, start:start + width].view("V%d" % width)[:, 0]


def _fmt17(values):
    """"%.17g" % v of each value as cells grouped by decimal exponent.

    Returns cells, a NUL-padded (n, _CELL) uint8 matrix, and at, with
    cells[at[i]] the text of the i-th value in C order.  Column 0 holds the
    sign.  Finite |v| in [1e-24, 1e17) is written from D, the integer
    nearest |v| * 10**(16 - k) (ties to even), k = floor(log10 |v|): fixed
    notation for k >= -4, with the fraction's trailing zeros left out, and
    exponent notation below.  Each k is one block of rows, laid out by
    slices.  Zeros are "0" and "-0"; everything else (tinier or larger
    magnitudes, inf and nan) goes through Python's formatter.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= _TINY) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -25, 16).astype(np.int64)
    D, e = _scaled(a, 16 - k)
    # log10 may be one off next to a power of ten; the exact value decides,
    # so that 1e16 <= |v| * 10**(16 - k) < 1e17
    step = (_at_least(D, e, 10 ** 17).astype(np.int64)
            - ~_at_least(D, e, 10 ** 16))
    off = np.flatnonzero(step)
    if off.size:                        # only next to a power of ten
        k[off] += step[off]
        D[off] = _scaled(a[off], 16 - k[off])[0]
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    # one block of rows per key: k, then 17 for zeros and 18 for the rest
    key = np.where(fast, k, np.where(v == 0, 17, 18)).astype(np.int8)
    order = np.argsort(key, kind="stable")
    at = np.empty(n, np.intp)
    at[order] = np.arange(n)
    key, D, v = key[order], D[order], v[order]
    # the 17 digits of D as five words of four (the first holds one), the
    # last from the stripped table; a word stripped to NULs strips the
    # word before it too
    hi8 = D // 10 ** 8
    lo8 = D - hi8 * 10 ** 8
    hi4, mid4 = hi8 // 10 ** 4, lo8 // 10 ** 4
    first = hi4 // 10 ** 4
    words = [first, hi4 - first * 10 ** 4, hi8 - hi4 * 10 ** 4, mid4,
             lo8 - mid4 * 10 ** 4 + _STRIP]
    text = np.empty((n, 5), np.uint32)
    for j, word in enumerate(words):
        text[:, j] = _DIGITS[word]
    z = np.flatnonzero(words[4] == _STRIP)
    for j in (3, 2, 1):
        text[z, j] = _DIGITS[words[j][z] + _STRIP]
        z = z[words[j][z] == 0]
    digits = text.view(np.uint8)[:, 3:]
    out = np.zeros((n, _CELL), np.uint8)
    out[np.signbit(v), 0] = ord("-")
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]][:n])
    for i, j in zip(start, np.r_[start[1:], n]):
        k, cells, d = int(key[i]), out[i:j], digits[i:j]
        if k == 17:
            cells[:, 1] = ord("0")
        elif k == 18:
            py = "%-23.17g" * (j - i) % tuple(np.abs(v[i:j]).tolist())
            py = np.frombuffer(py.encode(), np.uint8).reshape(j - i, -1)
            cells[:, 1:] = np.where(py == ord(" "), 0, py)
            cells[np.isnan(v[i:j]), 0] = 0      # "nan", whatever its sign
        elif k >= 0:
            # digits 0..k are whole: a stripped zero among them is put back
            np.maximum(d[:, :k + 1], ord("0"), out=cells[:, 1:k + 2])
            if k < 16:
                cells[:, k + 2] = (d[:, k + 1] != 0) * ord(".")
                _items(cells, k + 3, 16 - k)[:] = _items(d, k + 1, 16 - k)
        elif k >= -4:
            for c, byte in enumerate(b"0.000"[:1 - k], 1):
                cells[:, c] = byte
            _items(cells, 2 - k, 17)[:] = _items(d, 0, 17)
        else:
            cells[:, 1] = d[:, 0]
            cells[:, 2] = (d[:, 1] != 0) * ord(".")
            _items(cells, 3, 16)[:] = _items(d, 1, 16)
            for c, byte in enumerate(b"e-%02d" % -k, 19):
                cells[:, c] = byte
    return out, at


def _lines(cells, index, head: bytes, sep: bytes, end: bytes) -> np.ndarray:
    """Line i as head, the rows index[i] of the (n, w) uint8 matrix cells
    joined by sep, then end: a NUL-padded uint8 matrix, one row per line.

    Each cell is copied once, into an item that carries its separator in
    front and room for end behind, and one np.take of whole items lays out
    the lines; head and end then overwrite the first and last bytes.  The
    text drops the NULs with bytes.translate(None, b"\\0"), which pays per
    byte; bytes.replace(b"\\0", b"") pays per NUL, and there are several
    in every line.
    """
    n, w = cells.shape
    lead = max(len(head), len(sep))
    size = lead + w + len(end)
    items = np.zeros((n, size), np.uint8)
    items[:, lead - len(sep):lead] = np.frombuffer(sep, np.uint8)
    _items(items, lead, w)[:] = _items(cells, 0, w)
    mat = np.take(items.view("V%d" % size).ravel(), index)
    mat = mat.view(np.uint8).reshape(len(index), index.shape[1] * size)
    # byte by byte: a fill of one column is much cheaper than of several
    for j, byte in enumerate(head.rjust(lead, b"\0")):
        mat[:, j] = byte
    for j, byte in enumerate(end, mat.shape[1] - len(end)):
        mat[:, j] = byte
    return mat


def _int_cells(first: int, last: int) -> np.ndarray:
    """The decimal digits of first..last (first >= 1) as a NUL-padded
    (last - first + 1, w) uint8 matrix, w the width of last: one lookup
    per four digits, leading zeros from the table that makes them NUL."""
    w = len(str(last))
    words = -(-w // 4)
    text = np.empty((last - first + 1, words), np.uint32)
    rest = np.arange(first, last + 1)
    for j in range(words - 1, 0, -1):
        rest, word = np.divmod(rest, 10000)
        text[:, j] = _DIGITS[word + (rest == 0) * _LEAD]
    text[:, 0] = _DIGITS[rest + _LEAD]
    return text.view(np.uint8)[:, 4 * words - w:]


def write_curve_csv(c: LegendreCurve, path) -> None:
    """Header plus one row per node: t, x, z, a, b, ell, beta."""
    pair = curvature_pair_of(c)
    table = np.column_stack([c.t, c.curve.x.value, c.curve.z.value,
                             c.normal.a.value, c.normal.b.value,
                             pair.ell.value, pair.beta.value])
    cells, at = _fmt17(table)
    with open(path, "wb") as fh:
        fh.write(b"t,x,z,a,b,ell,beta\r\n")
        fh.write(_lines(cells, at.reshape(table.shape), b"", b",", b"\r\n")
                 .tobytes().translate(None, b"\0"))


def _vertex_lines(surface: RevolutionSurface, i0: int, i1: int):
    """The v lines of rings i0:i1, each ring with its first vertex again at
    theta = 2 pi, as a NUL-padded uint8 matrix."""
    values, order, neg = surface.ring_table(i0, i1)
    seam = np.r_[0:order.size, 0:3]
    cells, at = _fmt17(values)
    index = at.reshape(values.shape)[:, order[seam]] + len(at) * neg[:, seam]
    # each cell again with its sign, for the negative coordinates
    cells = np.concatenate([cells, cells])
    cells[len(at):, 0] = ord("-")
    return _lines(cells, index.reshape(-1, 3), b"v ", b" ", b"\n")


def _face_layout(ntheta: int, w: int) -> np.ndarray:
    """Where each byte of a ring row's face lines comes from, for ids of w
    digits: a (2, 2 * n_theta * (3w + 5)) index into the row's table, the
    ids of ring r, then of ring r + 1, then b"f \\n"; row 0 in parameter
    order, row 1 with the flipped winding."""
    ring = (ntheta + 1) * w
    f = 2 * ring
    q0 = np.arange(ntheta) * w
    q1, q3 = q0 + ring, q0 + w
    q2 = q1 + w
    tri = np.array([[q0, q1, q2, q0, q2, q3],
                    [q0, q3, q2, q0, q2, q1]])
    # (winding, j, triangle, corner): the id's w digits, then " " or "\n"
    ids = np.empty((2, ntheta, 2, 3, w + 1), np.intp)
    ids[..., :w] = tri.reshape(2, 2, 3, ntheta).transpose(0, 3, 1, 2)[
        ..., None] + np.arange(w)
    ids[..., w] = f + 1
    ids[..., 2, w] = f + 2
    head = np.broadcast_to([f, f + 1], (2, ntheta, 2, 2))
    return np.concatenate([head, ids.reshape(2, ntheta, 2, -1)],
                          axis=-1).reshape(2, -1)


def _obj_blocks(surface: RevolutionSurface):
    """OBJ text for a revolved mesh: all vertex blocks, then all face blocks.

    Yields bytes and uint8 arrays, each a run of whole lines.
    """
    nt, ntheta = surface.profile.t.size, surface.theta.size
    for i in range(0, nt, _OBJ_RINGS):
        yield _vertex_lines(surface, i, i + _OBJ_RINGS).tobytes().translate(
            None, b"\0")

    # J is independent of theta for a revolute; the row average decides
    J = curvature_of(surface.invariants).J[:, 0]
    jtol = 1e-12 * (1.0 + float(np.max(np.abs(J))))
    flip = 0.5 * (J[:-1] + J[1:]) < -jtol
    layouts = {}
    for i in range(0, nt - 1, _OBJ_RINGS):
        f = flip[i:i + _OBJ_RINGS]
        m = len(f)
        # the ids of rings i .. i + m, each formatted once; where they
        # straddle a power of ten, the narrower ones are NUL-padded in front
        first = i * (ntheta + 1) + 1
        ids = _int_cells(first, first + (m + 1) * (ntheta + 1) - 1)
        w = ids.shape[1]
        padded = len(str(first)) < w
        if w not in layouts:
            layouts[w] = _face_layout(ntheta, w)
        ring = (ntheta + 1) * w
        ids = ids.reshape(m + 1, ring)
        rows = np.empty((m, 2 * ring + 3), np.uint8)
        rows[:, :ring] = ids[:-1]
        rows[:, ring:-3] = ids[1:]
        rows[:, -3:] = np.frombuffer(b"f \n", np.uint8)
        cut = np.flatnonzero(f[1:] != f[:-1]) + 1
        for a, b in zip(np.r_[0, cut], np.r_[cut, m]):
            text = np.take(rows[a:b], layouts[w][int(f[a])], axis=1)
            yield text.tobytes().translate(None, b"\0") if padded else text


def write_surface_obj(surface: RevolutionSurface, path) -> None:
    """The mesh of a revolved surface as OBJ text: one "v x y z" line per
    vertex, ring by ring, then one "f a b c" line per triangle, with
    1-based vertex ids, floats as "%.17g" gives them and no comments.

    The theta seam is duplicated (each ring's first vertex again at
    theta = 2 pi), so there are n_t * (n_theta + 1) vertices.  Each quad
    (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1) splits into two
    triangles that share the diagonal from (i, j) to (i + 1, j + 1),
    listed in parameter order, counterclockwise as seen from the +n side
    where the area density J is positive.  A row of quads whose mean J is
    below -1e-12 (1 + max |J|) takes the flipped winding, so that the
    convention holds there too.
    """
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


# JSON text of a leaf, by exact type; subclasses take their base's
_JSON_LEAVES = {str: _json_str, float: _json_float, int: int.__repr__,
                bool: lambda v: "true" if v else "false",
                type(None): lambda v: "null"}


@functools.lru_cache(maxsize=256)
def _json_layout(keys: tuple, indent: str):
    """Sorted keys, the text before each value and the values' indent."""
    for key in keys:
        if not isinstance(key, str):
            raise TypeError("JSON keys must be str, not %s"
                            % type(key).__name__)
    inner = indent + "  "
    keys = sorted(keys)
    heads = [",\n" + inner + _json_str(key) + ": " for key in keys]
    heads[0] = "{" + heads[0][1:]
    return tuple(keys), tuple(heads), inner


def _json_parts(value, indent: str, out: list) -> None:
    """Append the indent-2 JSON text of value to out, in the order and
    spelling of json.dumps(sort_keys=True, indent=2)."""
    kind = type(value)
    if kind not in _JSON_LEAVES and kind not in (dict, list, tuple):
        kind = next((base for base in (str, int, float, list, tuple, dict)
                     if isinstance(value, base)), None)
    if kind in _JSON_LEAVES:
        out.append(_JSON_LEAVES[kind](value))
        return
    if kind is dict:
        if not value:
            out.append("{}")
            return
        keys, heads, inner = _json_layout(tuple(value), indent)
        items = [value[key] for key in keys]
        close = "}"
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        items, heads = value, [",\n" + inner] * len(value)
        heads[0] = "[\n" + inner
        close = "]"
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)
    for head, item in zip(heads, items):
        leaf = _JSON_LEAVES.get(type(item))
        if leaf is None:
            out.append(head)
            _json_parts(item, inner, out)
        else:
            out.append(head + leaf(item))
    out.append("\n" + indent + close)


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
