"""The CSV, OBJ and JSON writers against reference formatters.

The reference formats one number per "%.17g" call, writes one OBJ line
per vertex and per triangle, and writes the CSV through csv.writer.  The
block writers must give the same bytes on every profile, axis and size.
The JSON writer must give the text of json.dumps(sort_keys=True,
indent=2) on every payload of plain values and refuse everything else.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from revfront import export
from revfront.jets import Jet
from revfront.legendre import (CurveJet, LegendreCurve, NormalJet,
                               curvature_pair_of, reconstruct_from_curvature)
from revfront.quadrature import uniform_grid
from revfront.revolution import revolve


def fmt(v):
    return "%.17g" % float(v)


def reference_obj(surface):
    x = surface.grid.x
    nt, ntheta = x.shape[0], x.shape[1]
    verts = np.concatenate([x, x[:, :1, :]], axis=1)
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
        flip = 0.5 * (J[i, 0] + J[i + 1, 0]) < -jtol
        for j in range(ntheta):
            q = (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
            if flip:
                t1, t2 = (q[0], q[3], q[2]), (q[0], q[2], q[1])
            else:
                t1, t2 = (q[0], q[1], q[2]), (q[0], q[2], q[3])
            lines.append("f %d %d %d" % t1)
            lines.append("f %d %d %d" % t2)
    return ("\n".join(lines) + "\n").encode()


def reference_csv(c, path):
    pair = curvature_pair_of(c)
    cols = [c.t, c.curve.x.value, c.curve.z.value, c.normal.a.value,
            c.normal.b.value, pair.ell.value, pair.beta.value]
    rows = [["t", "x", "z", "a", "b", "ell", "beta"]]
    rows += [[fmt(col[i]) for col in cols] for i in range(c.t.size)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)


def assert_same_bytes(c, axis, n_theta, tmp_path):
    """Write both artifacts both ways; returns the surface and its OBJ."""
    surf = revolve(c, axis=axis, n_theta=n_theta)
    export.write_surface_obj(surf, tmp_path / "block.obj")
    obj = (tmp_path / "block.obj").read_bytes()
    assert obj == reference_obj(surf)
    assert export.surface_obj_lines(surf) == obj.decode().splitlines()
    export.write_curve_csv(c, tmp_path / "block.csv")
    reference_csv(c, tmp_path / "reference.csv")
    assert ((tmp_path / "block.csv").read_bytes() ==
            (tmp_path / "reference.csv").read_bytes())
    return surf, obj


def jet_profile(t, rows):
    """The profile whose x, z, a and b are the order-3 jets with the four
    given (4, n) coefficient arrays, taken as they are."""
    x, z, a, b = (Jet(t, r) for r in rows)
    return LegendreCurve(CurveJet(t, x, z), NormalJet(t, a, b))


@st.composite
def jet_profiles(draw):
    n = draw(st.integers(7, 150))
    value = st.floats(-20.0, 20.0, allow_nan=False)   # includes -0.0 and 0.0
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    x, z, phi = (np.array(draw(st.lists(value, min_size=n, max_size=n)))
                 for _ in range(3))
    # rows 1-3 as a sparse array over a drawn fill value: drawn densely,
    # all 16n floats exceed hypothesis's entropy bound well below n = 150
    slopes = draw(arrays(np.float64, (4, 3, n), elements=value))
    return jet_profile(np.cumsum(steps),
                       [np.vstack([v, d]) for v, d in
                        zip((x, z, np.cos(phi), np.sin(phi)), slopes)])


# no shrink phase: shrinking 150-node profiles through the per-number
# reference took about five minutes before a failure was reported
@settings(max_examples=40, deadline=None,
          phases=[ph for ph in Phase if ph is not Phase.shrink],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(c=jet_profiles(), axis=st.sampled_from(["z", "x"]),
       n_theta=st.integers(8, 12))
def test_writers_match_reference_on_random_profiles(c, axis, n_theta,
                                                    tmp_path):
    assert_same_bytes(c, axis, n_theta, tmp_path)


@pytest.mark.parametrize("axis", ["z", "x"])
@pytest.mark.parametrize("n_t", [10, 64, 65, 130])
def test_writers_match_reference_across_block_edges(n_t, axis, tmp_path):
    # beta = t - 1 changes sign, so J changes sign and some rows flip
    c = reconstruct_from_curvature("1", "t - 1", uniform_grid(0.0, 2.0, n_t),
                                   x0=0.5)
    surf, obj = assert_same_bytes(c, axis, 16, tmp_path)
    inv = surf.invariants
    J = (inv.a1 * inv.b2 - inv.a2 * inv.b1)[:, 0]
    assert J.min() < -1e-3 and J.max() > 1e-3
    faces = [ln.split()[1:] for ln in obj.decode().splitlines()
             if ln.startswith("f ")]
    assert len(faces) == 2 * 16 * (n_t - 1)
    # parameter order puts q0 + n_theta + 1 second, the flip puts q0 + 1
    second = {int(f[1]) - int(f[0]) for f in faces[::2]}
    assert second == {1, 17}


def test_writers_keep_signed_zeros(tmp_path):
    n = 9
    t = np.arange(1.0, n + 1.0)
    x = np.where(np.arange(n) % 2, -0.0, 0.0)
    z = np.array([0.0, -0.0] * 4 + [1.0])
    c = jet_profile(t, [np.vstack([v, np.zeros((3, n))])
                        for v in (x, z, np.ones(n), np.zeros(n))])
    assert_same_bytes(c, "z", 8, tmp_path)
    assert_same_bytes(c, "x", 8, tmp_path)
    text = (tmp_path / "block.csv").read_text()
    assert ",-0," in text and ",0," in text


NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]
JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, math.nan, math.inf, -math.inf, 1e300, 0.1]))
JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    list('\x00\x1f\x7f"\\/\b\f\n\r\t\u2028\ufeff\u00e9\U0001f600'))))
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                        JSON_FLOATS, JSON_TEXT)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda sub: st.one_of(st.lists(sub, max_size=4),
                          st.lists(sub, max_size=4).map(tuple),
                          st.dictionaries(JSON_TEXT, sub, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(JSON_PAYLOADS)
def test_json_text_matches_json_dumps(payload):
    assert export.json_text(payload) == \
        json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    np.array([1.0, 2.0]), np.int64(3), {"a": [np.int64(1)]}, {1: 2.0},
    {"a": {2.5: "x"}}, [{None: 1}], {"a": {1, 2}}, (object(),)])
def test_json_text_refuses_other_types(payload):
    with pytest.raises(TypeError):
        export.json_text(payload)
