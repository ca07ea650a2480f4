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
from hypothesis import HealthCheck, Phase, example, given, settings
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


# theta grids whose cos and sin tables repeat values in many slots, so the
# writer's table of distinct multipliers is much shorter than 2 * n_theta
THETA_GRIDS = st.sampled_from([9, 16, 64, 100, 128])


# no shrink phase: shrinking 150-node profiles through the per-number
# reference took about five minutes before a failure was reported
@settings(max_examples=40, deadline=None,
          phases=[ph for ph in Phase if ph is not Phase.shrink],
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(c=jet_profiles(), axis=st.sampled_from(["z", "x"]),
       n_theta=st.one_of(st.integers(8, 12), THETA_GRIDS))
def test_writers_match_reference_on_random_profiles(c, axis, n_theta,
                                                    tmp_path):
    assert_same_bytes(c, axis, n_theta, tmp_path)


@pytest.mark.parametrize("axis", ["z", "x"])
@pytest.mark.parametrize("n_theta", [9, 16, 64, 100, 128])
def test_writers_match_reference_on_theta_grids(n_theta, axis, tmp_path):
    # each grid of THETA_GRIDS on each axis, whatever the draws above reach;
    # then one ring, which has no row of faces, and two rings, which have one
    rng = np.random.default_rng(n_theta)
    for n in (40, 1, 2):
        x, z = rng.uniform(-20.0, 20.0, (2, n))
        x[::7], z[3::7] = 0.0, -0.0
        phi = rng.uniform(-np.pi, np.pi, n)
        c = jet_profile(np.arange(1.0, n + 1.0),
                        [np.vstack([v, rng.uniform(-20.0, 20.0, (3, n))])
                         for v in (x, z, np.cos(phi), np.sin(phi))])
        _, obj = assert_same_bytes(c, axis, n_theta, tmp_path)
        assert obj.count(b"f ") == 2 * n_theta * (n - 1)


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


@pytest.mark.parametrize("axis", ["z", "x"])
def test_face_indices_cross_digit_widths_inside_a_block(axis, tmp_path):
    # 800 x 129 vertices: ids pass 10**4 in rings 64-127 and 10**5 in
    # rings 768-799, inside one block of rings each; beta = t - 1 flips
    # rows.  1000 x 129: rings 896-959 have 6-digit ids only, and J changes
    # sign between rings 899 and 900, so that block holds both windings
    for n_t, beta, mixed in ((800, "t - 1", None), (1000, "t - 1.8", 896)):
        c = reconstruct_from_curvature(
            "1", beta, uniform_grid(0.0, 2.0, n_t), x0=0.5)
        surf, obj = assert_same_bytes(c, axis, 128, tmp_path)
        widths = {len(i) for ln in obj.decode().splitlines() if ln[0] == "f"
                  for i in ln.split()[1:]}
        assert widths == {1, 2, 3, 4, 5, 6}
        if mixed is not None:
            inv = surf.invariants
            J = (inv.a1 * inv.b2 - inv.a2 * inv.b1)[mixed:mixed + 65, 0]
            assert J.min() < -1e-3 and J.max() > 1e-3
            ids = (mixed * 129 + 1, (mixed + 65) * 129)
            assert [len(str(i)) for i in ids] == [6, 6]


def test_writers_keep_signed_zeros(tmp_path):
    # radii of +0.0, -0.0 and a negative value about either axis
    n = 9
    t = np.arange(1.0, n + 1.0)
    x = np.array([0.0, -0.0] * 4 + [-1.5])
    z = np.array([-0.0, 0.0] * 4 + [-1.0])
    c = jet_profile(t, [np.vstack([v, np.zeros((3, n))])
                        for v in (x, z, np.ones(n), np.zeros(n))])
    for n_theta in (8, 128):
        assert_same_bytes(c, "z", n_theta, tmp_path)
        assert_same_bytes(c, "x", n_theta, tmp_path)
    text = (tmp_path / "block.csv").read_text()
    assert ",-0," in text and ",0," in text


@pytest.mark.parametrize("axis", ["z", "x"])
def test_writers_keep_non_finite_values(axis, tmp_path):
    # inf, -inf and nan of either sign bit in r and in h, about either
    # axis; an infinite radius times cos theta_j = 0 is nan as well.
    # "%.17g" prints every nan as "nan", never "-nan"
    n = 10
    t = np.arange(1.0, n + 1.0)
    x = np.array([math.inf, -math.inf, math.nan, -math.nan, 1.5, -2.0,
                  0.0, 3.0, -0.5, 1e-30])
    z = np.array([1.0, -0.0, 2.0, -1.0, math.nan, -math.nan, math.inf,
                  -math.inf, 0.25, -3.0])
    c = jet_profile(t, [np.vstack([v, np.zeros((3, n))])
                        for v in (x, z, np.ones(n), np.zeros(n))])
    with np.errstate(invalid="ignore"):     # inf * 0 and inf - inf
        _, obj = assert_same_bytes(c, axis, 8, tmp_path)
    csv_text = (tmp_path / "block.csv").read_bytes()
    for text in (obj, csv_text):
        assert b"nan" in text and b"-inf" in text and b"-nan" not in text


NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]


def _ties(k, n):
    """An exact tie of %.17g in [10**k, 10**(k + 1)), picked by n: an odd
    multiple of 2**(k - 17), whose 18 significant digits end in 5.  Ties
    exist down to k = -8 (2**-25 and 3 * 2**-25)."""
    scale = 2.0 ** (k - 17)
    lo = math.ceil(10.0 ** k / scale) | 1
    hi = min(10.0 ** (k + 1) / scale, 2.0 ** 53)
    return (lo + 2 * (n % int((hi - lo) // 2))) * scale


def _near_power(k, up, ulps):
    x = 10.0 ** k
    for _ in range(ulps):
        x = math.nextafter(x, math.inf if up else -math.inf)
    return x


# 2- and 3-digit exponents either side of the kernel's range, zeros,
# subnormals and the ends of the doubles
EDGE_FLOATS = [0.0, 1e-4, 9.9999999999999991e-5, 1e-5, 1e-9, 1e-10, 1e-24,
               9.9999999999999992e-25, 1e-25, 1e-99, 1e-100, 1e-308,
               2.2250738585072014e-308, 5e-324, 1e16, 1e17, 1e22, 1e100,
               1.7976931348623157e308, math.inf, math.nan]

FMT17_FLOATS = st.one_of(
    st.floats(),                                  # nan, inf, subnormals
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.uint64(b).view(np.float64))),
    st.builds(_near_power, st.integers(-26, 18), st.booleans(),
              st.integers(0, 4)),
    st.sampled_from([1234567890123456.75, 1234567890123456.25]),
    st.builds(_ties, st.integers(-8, 15), st.integers(0, 2 ** 52)),
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.floats(1e-26, 1e-4),                       # exponent notation
    st.sampled_from(EDGE_FLOATS),
).flatmap(lambda x: st.sampled_from([x, -x]))

# every decade from 1e-26 to 1e18 and its neighbours up to 4 ulps away,
# every tie at k = -8 .. -5 (exponent notation, p = 21 .. 24: past 22 the
# second error-free product decides), as 3 * 2**-24, which is
# 1.7881393432617188e-07 from ...187.5, and the edges above; each with
# either sign
EVERY_DECADE = [s * x for s in (1.0, -1.0) for x in
                [_near_power(k, up, u) for k in range(-26, 19)
                 for up in (False, True) for u in range(5)]
                + [m * 2.0 ** (k - 17) for k in range(-8, -4)
                   for m in range(1, 2 ** 20, 2)
                   if 10.0 ** k <= m * 2.0 ** (k - 17) < 10.0 ** (k + 1)]
                + EDGE_FLOATS]


@settings(max_examples=400, deadline=None, phases=NO_SHRINK)
@given(st.lists(FMT17_FLOATS, min_size=1, max_size=40))
@example(EVERY_DECADE)
@example([])
def test_fmt17_matches_percent_format(xs):
    cells, at = export._fmt17(np.array(xs))
    assert cells.shape == (len(xs), export._CELL)
    assert sorted(at) == list(range(len(xs)))
    assert [bytes(c).replace(b"\0", b"").decode() for c in cells[at]] == \
        ["%.17g" % x for x in xs]


def test_fmt17_powers_of_ten_split_exactly():
    # 10**p = P + Q with both doubles, each the sum of its two halves, for
    # every p the kernel uses; Q is 0 where 10**p is a double
    for p in range(export._POW10.shape[1]):
        P, P_hi, P_lo, Q, Q_hi, Q_lo = export._POW10[:, p].tolist()
        assert int(P) + int(Q) == 10 ** p
        assert (P_hi + P_lo, Q_hi + Q_lo) == (P, Q)
        assert (Q == 0) == (p <= 22)


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


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_json_layouts_serve_other_orders_and_indents():
    # a cached layout is keyed by the keys in insertion order and the
    # indent: the same keys in another order, or one level deeper, are
    # laid out afresh and still sorted and indented as json.dumps does
    first = {"b": 1.5, "a": [1, 2], "c": None}
    again = {"c": None, "a": [1, 2], "b": 1.5}
    deeper = {"outer": first, "list": [again, {"a": 0, "b": 0, "c": 0}]}
    for payload in (first, again, deeper, first, deeper):
        assert export.json_text(payload) == _dumps(payload)


class ChildInt(int):
    pass


def test_json_leaves_by_type_keep_subclass_spelling():
    # np.float64 is a float and spells as one; bool beside int stays
    # true/false, not 1/0; an int subclass spells as its int
    payload = {"x": np.float64(0.1), "y": [np.float64(-0.0), np.float64(1e300)],
               "flag": True, "off": False, "n": 1, "big": 2 ** 70,
               "sub": ChildInt(7), "nan": np.float64("nan")}
    assert export.json_text(payload) == _dumps(payload)
    assert '"flag": true' in export.json_text(payload)
    assert export.json_text([True, 1, False, 0]) == _dumps([True, 1, False, 0])


def test_json_non_str_key_raises_after_a_str_layout_is_cached():
    export.json_text({"a": 1})
    with pytest.raises(TypeError, match="keys must be str"):
        export.json_text({1: 1})
    with pytest.raises(TypeError):
        export.json_text({"a": {"b": 1, 2.5: 0}})
    assert export.json_text({"a": 1}) == _dumps({"a": 1})


def test_json_layout_cache_stays_bounded():
    export._json_layout.cache_clear()
    for i in range(5000):
        payload = {"k%d" % i: i, "v": [i]}
        assert export.json_text(payload) == _dumps(payload)
    info = export._json_layout.cache_info()
    assert info.currsize <= info.maxsize == 256
