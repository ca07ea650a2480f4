"""Truncated Taylor arithmetic checked against sympy derivatives."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from revfront import jets
from revfront.jets import DomainError, Jet, Laurent

NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]


def sympy_jet(fn_expr, t0, order=5):
    """Taylor coefficients of a sympy expression at t0, derivatives/k!."""
    t = sp.Symbol("t")
    out = []
    d = fn_expr
    for k in range(order + 1):
        out.append(float(d.subs(t, t0)) / math.factorial(k))
        d = sp.diff(d, t)
    return np.array(out)


def test_order_cap_constant():
    assert jets.ORDER_CAP == 5


def test_variable_and_constant():
    v = jets.variable(2.0, 3)
    assert v.value == 2.0
    assert v.derivative(1) == 1.0
    assert v.derivative(2) == 0.0
    c = jets.constant(7.5, 3)
    assert c.value == 7.5
    assert all(c.derivative(i) == 0.0 for i in range(1, 4))


def test_polynomial_arithmetic_matches_sympy():
    t = sp.Symbol("t")
    t0 = 0.7
    f = (t**3 - 2 * t + 1) * (t**2 + 4) - t / (t**2 + 1)
    v = jets.variable(t0, 5)
    got = (v**3 - 2 * v + 1) * (v**2 + 4) - v / (v**2 + 1)
    np.testing.assert_allclose(got.coeffs, sympy_jet(f, t0), rtol=1e-12)


@pytest.mark.parametrize("name", ["sin", "cos", "tan", "cot", "exp", "log",
                                  "sqrt", "sinh", "cosh", "atan"])
def test_elementary_functions_match_sympy(name):
    t = sp.Symbol("t")
    # inner function keeps log/sqrt domains positive on the sample points
    inner = 0.3 * t**2 + 0.5 * t + 1.2
    f = getattr(sp, name)(inner)
    points = (0.25, 1.1, 2.0)
    want = np.column_stack([sympy_jet(f, t0) for t0 in points])
    for order in range(6):
        # each point as a scalar base, then all three as one array base
        for i, t0 in enumerate(points):
            v = jets.variable(t0, order)
            got = getattr(jets, name)(0.3 * v**2 + 0.5 * v + 1.2)
            np.testing.assert_allclose(got.coeffs, want[:order + 1, i],
                                       rtol=1e-10, atol=1e-12)
        v = jets.variable(np.array(points), order)
        got = getattr(jets, name)(0.3 * v**2 + 0.5 * v + 1.2)
        np.testing.assert_allclose(got.coeffs, want[:order + 1],
                                   rtol=1e-10, atol=1e-12)


def test_random_compositions_match_sympy():
    t = sp.Symbol("t")
    rng = np.random.default_rng(17)
    for _ in range(20):
        c = rng.uniform(-1.5, 1.5, size=4)
        f = c[0] + c[1] * t + c[2] * sp.sin(c[3] * t) + sp.exp(0.2 * t)
        g = f * sp.cos(t) + 1 / (f**2 + 2)
        t0 = float(rng.uniform(-2, 2))
        v = jets.variable(t0, 5)
        fj = c[0] + c[1] * v + c[2] * jets.sin(c[3] * v) + jets.exp(0.2 * v)
        gj = fj * jets.cos(v) + 1 / (fj**2 + 2)
        np.testing.assert_allclose(gj.coeffs, sympy_jet(g, t0),
                                   rtol=1e-9, atol=1e-11)


def test_array_base_jets_and_at():
    ts = np.array([0.2, 0.9, 1.7])
    v = jets.variable(ts, 4)
    s = jets.sin(v)
    np.testing.assert_allclose(s.value, np.sin(ts), rtol=1e-15)
    one = s.at(1)
    assert one.t.shape == ()
    np.testing.assert_allclose(one.coeffs, jets.sin(jets.variable(0.9, 4)).coeffs)


@pytest.mark.parametrize("i", [0, 2, -1])
def test_at_an_int_reads_the_column(i):
    # an int and a numpy integer read one node's column, bit for bit
    ts = np.array([-0.5, 0.0, 1.25])
    j = jets.sin(jets.variable(ts, 5)) * -2.0
    column = j.coeffs[:, i]
    for idx in (i, np.int64(i)):
        one = j.at(idx)
        assert one.t.shape == () and one.t == ts[i]
        assert all(type(c) is float for c in one.rows)
        assert one.coeffs.tobytes() == column.tobytes()


def test_truncate_differentiate_antidifferentiate():
    v = jets.variable(0.4, 5)
    f = jets.sin(v) * v
    d = f.differentiated()
    assert d.order == 4
    # d/dt (t sin t) = sin t + t cos t
    assert abs(d.value - (math.sin(0.4) + 0.4 * math.cos(0.4))) < 1e-14
    back = d.antiderivative(f.value)
    np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=1e-14)
    assert f.truncated(2).order == 2
    assert f.truncated(9).order == 5


@pytest.mark.parametrize("order", [-1, -3])
def test_truncated_refuses_a_negative_order(order):
    # -1 used to give an empty jet of order -1, and -3 the value alone:
    # the slice counted from the end (a curve's truncated, which cuts each
    # jet here, is held to the same in test_construct)
    for f in (Jet(0.0, [1.0, 2.0, 3.0]),
              jets.variable(np.array([0.0, 1.0]), 2)):
        with pytest.raises(ValueError, match=f"order .*got {order}"):
            f.truncated(order)


@pytest.mark.parametrize("t", [0.4, np.array([0.4, -1.3, 2.0])])
def test_antiderivative_divides_each_coefficient_by_its_new_index(t):
    f = jets.sin(jets.variable(t, 5)) * 3.0
    value = np.cos(t) if np.ndim(t) else 0.25
    k = np.arange(1, 7, dtype=float).reshape((-1,) + (1,) * np.ndim(t))
    want = np.concatenate([np.broadcast_to(value, np.shape(t))[None],
                           f.coeffs / k])
    assert f.antiderivative(value).coeffs.tobytes() == want.tobytes()


def test_derivative_beyond_order_is_zero():
    v = jets.variable(1.0, 3)
    assert (v**2).derivative(7) == 0.0


def test_division_by_near_zero_raises():
    v = jets.variable(0.0, 3)
    with pytest.raises(DomainError):
        1 / v
    with pytest.raises(DomainError):
        jets.cot(v)


def test_log_sqrt_domain_errors():
    with pytest.raises(DomainError):
        jets.log(jets.variable(-1.0, 2))
    with pytest.raises(DomainError):
        jets.sqrt(jets.variable(-0.5, 2))
    with pytest.raises(DomainError):
        jets.sqrt(jets.variable(0.0, 2))   # derivative blows up


def test_laurent_removable_singularity():
    # the divisor's vanishing leading coefficient takes the numerator's
    # with it, so the quotient of order-5 jets has order 4
    v = Laurent(jets.variable(0.0, 5))
    q = (Laurent(jets.sin(v.jet)) / v).taylor()
    # sin t / t = 1 - t^2/6 + t^4/120
    assert q.order == 4
    np.testing.assert_allclose(q.coeffs, [1.0, 0.0, -1 / 6, 0.0, 1 / 120],
                               atol=1e-14)
    r = (Laurent(1 - jets.cos(v.jet)) / (v * v)).taylor()
    assert r.order == 3
    np.testing.assert_allclose(r.value, 0.5, atol=1e-14)
    np.testing.assert_allclose(r.derivative(2), -1 / 12, atol=1e-13)


def test_laurent_true_pole_raises():
    v = Laurent(jets.variable(0.0, 4))
    q = Laurent(jets.constant(1.0, 4)) / v
    assert (q.shift, q.valuation()) == (-1, -1)
    with pytest.raises(DomainError, match="pole"):
        q.taylor()
    with pytest.raises(DomainError, match="near-"):
        Laurent(jets.constant(1.0, 4)) / Laurent(jets.constant(0.0, 4))


def test_scalar_coercion_both_sides():
    v = jets.variable(0.3, 3)
    left = 2.0 - v
    right = (-v) + 2.0
    np.testing.assert_allclose(left.coeffs, right.coeffs)
    np.testing.assert_allclose((3.0 / (v + 1)).value, 3.0 / 1.3, rtol=1e-15)


# -- jets.shift and jets.newton: a jet's rows read as a polynomial ----------

def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(st.lists(finite(-10.0, 10.0), min_size=1, max_size=13),
       st.lists(finite(-2.0, 2.0), min_size=1, max_size=3), st.data())
def test_shift_recentres_the_polynomial(rows, offsets, data):
    # coefficient m at d is sum_k rows[k] C(k, m) d^(k - m), exactly in
    # rationals, against the scale of its terms' magnitudes
    order = data.draw(st.integers(0, len(rows) + 1))
    got = jets.shift(rows, np.array(offsets), order)
    assert got.shape == (order + 1, len(offsets))
    for j, d in enumerate(offsets):
        for m in range(order + 1):
            terms = [Fraction(r) * math.comb(k, m) * Fraction(d) ** (k - m)
                     for k, r in enumerate(rows) if k >= m]
            scale = float(sum(abs(x) for x in terms))
            assert abs(got[m, j] - float(sum(terms))) <= 1e-12 * scale


def cubic_rows(r, c0, c1, c2):
    """Rows in u of c0 v + c1 v^2 + c2 v^3, v = u - r: a simple zero at r."""
    return [-c0 * r + c1 * r * r - c2 * r ** 3,
            c0 - 2 * c1 * r + 3 * c2 * r * r, c1 - 3 * c2 * r, c2]


cubics = st.tuples(finite(-1.0, 1.0), st.sampled_from([-1.0, 1.0]),
                   finite(1.0, 2.0), finite(-0.2, 0.2), finite(-0.2, 0.2))


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(cubics, finite(-5.0, 5.0), finite(1e-3, 0.2), finite(-0.9, 0.9))
def test_newton_finds_a_simple_zero_within_h(cubic, base, h, where):
    r, sign, c0, c1, c2 = cubic
    rows = cubic_rows(r, sign * c0, c1, c2)
    zero = base + r
    t = zero + where * h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = jets.newton(rows, base, t, h)
    assert got is not None and abs(got - zero) <= 1e-12


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(cubics, finite(-5.0, 5.0), finite(0.01, 0.18), finite(1.1, 100.0),
       st.sampled_from([-1.0, 1.0]))
def test_newton_refuses_a_zero_beyond_h(cubic, base, gap, k, side):
    # six steps reach the zero, a gap from t, and the gap exceeds h
    r, sign, c0, c1, c2 = cubic
    rows = cubic_rows(r, sign * c0, c1, c2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jets.newton(rows, base, base + r + side * gap, gap / k) is None


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(finite(1e-3, 10.0), finite(0.0, 10.0), finite(0.0, 10.0),
       st.integers(1, 5), finite(-5.0, 5.0), finite(1e-3, 10.0))
def test_newton_gives_none_without_a_real_zero(k, c2, c4, size, base, h):
    # k + c2 u^2 + c4 u^4 > 0, from its vertex u = 0, where the first step
    # divides by a zero derivative: the iterate turns NaN, with no warning
    rows = [k, 0.0, c2, 0.0, c4][:size]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jets.newton(rows, base, base, h) is None


def old_touch_newton(col, node, start, h):
    """The touch locator's loop before jets.newton: (sin phi)' / (sin
    phi)'' through a shift of the sin phi column at every step."""
    ts = start
    with np.errstate(all="ignore"):
        for _ in range(6):
            _, d1, d2 = jets.shift(col, ts - node, 2)
            ts -= d1 / (2.0 * d2)
    return float(ts) if abs(ts - start) <= h else None


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(st.lists(finite(-2.0, 2.0), min_size=3, max_size=13),
       finite(-3.0, 3.0), finite(-0.5, 0.5), finite(1e-3, 1.0))
def test_newton_on_the_derivative_rows_keeps_the_touch_bits(col, node, off,
                                                             h):
    # the construction calls newton on k * col[k], which np.polyder forms
    # alike, so every iterate keeps its bits
    col = np.array(col)
    drows = np.arange(1, col.size) * col[1:]
    got = jets.newton(drows, node, node + off, h)
    want = old_touch_newton(col, node, node + off, h)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# -- jets.zeros: one scan over the node jets of a function -------------------

def planted(seed, n, graded):
    """A grid on [0, 1], uniform or with steps up to 8 times apart, its
    largest step h, and zeros planted at least 4h apart, each with the
    status the scan owes it: at or within a step past an end (located),
    1.1 to 1.5 steps past an end (beyond, with no other zero within 10h,
    so that Newton from the end heads for it), on an interior node, or
    inside a grid interval, a quarter of it from its nodes (located)."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(1.0, 8.0, n - 1) if graded else np.ones(n - 1)
    g = np.append(0.0, np.cumsum(steps) / np.sum(steps))
    h = float(np.max(np.diff(g)))
    planted = []
    for end, way in ((0.0, -1.0), (1.0, 1.0)):
        u = rng.choice([None, 0.0, rng.uniform(0.2, 0.8),
                        rng.uniform(1.1, 1.5)])
        if u is not None:
            planted.append((end + way * u * h,
                            "beyond" if u > 1 else "located"))
    for k in rng.permutation(n - 1)[:rng.integers(0, 5)]:
        planted.append((g[k] if k and rng.random() < 0.3 else (
            g[k] + rng.uniform(0.25, 0.75) * (g[k + 1] - g[k])), "located"))
    out = []
    for z, how in planted:
        if all(abs(z - o) >= (10 if "beyond" in (how, s) else 4) * h
               for o, s in out):
            out.append((z, how))
    return g, h, out


def node_jets(roots, g, rng):
    """The node jets at g of +-prod(t - r) * (1 + c (t - m)^2), c >= 0:
    its real zeros are the roots, each simple; the jets are of full
    degree, so each node's polynomial is the function itself."""
    c, m = rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0)
    p = rng.choice([-1.0, 1.0]) * np.polymul(np.poly(roots),
                                             [c, -2 * c * m, 1 + c * m * m])
    return jets.shift(p[::-1], g, p.size - 1)


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.booleans())
def test_zeros_returns_each_planted_zero_once(seed, n, graded):
    # what else it returns is where Newton from an end came to rest
    # without a zero, on the quadratic factor: no residual is tested
    g, h, want = planted(seed, n, graded)
    rng = np.random.default_rng(seed + 1)
    got = jets.zeros(node_jets([z for z, _ in want], g, rng), g, h)
    assert [t for t, _, _ in got] == sorted(t for t, _, _ in got)
    for z, how in want:
        hits = [(t, i, s) for t, i, s in got if abs(t - z) <= 1e-9]
        assert len(hits) == 1 and hits[0][2] == how, (z, how, got)
        t, i, _ = hits[0]
        assert i in (0, n - 1) if how == "beyond" else abs(t - g[i]) <= h


@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.booleans())
def test_zeros_passes_over_two_zeros_in_one_interval(seed, n, graded):
    # the node values keep one sign across the interval, so no secant
    # starts there; zeros at both ends keep the ends' Newton off it.  The
    # touch construction relies on this: its lattice check refuses such a
    # pair (test_touches: a touch beside an extremum in one grid step)
    g, h, _ = planted(seed, n, graded)
    rng = np.random.default_rng(seed + 1)
    k = int(rng.integers(1, n - 2))
    pair = g[k] + np.array([0.3, 0.7]) * (g[k + 1] - g[k])
    got = jets.zeros(node_jets([0.0, *pair, 1.0], g, rng), g, h)
    assert [(round(t, 9), how) for t, _, how in got] == [
        (0.0, "located"), (1.0, "located")]


def test_zeros_on_one_node_finds_a_zero_within_h():
    # a one-node grid: both ends are the node, and a zero within h of it
    # is located once
    rows = cubic_rows(0.01, 1.0, 0.5, 0.1)
    assert jets.zeros(np.c_[rows], [0.0], 0.02) == [
        (pytest.approx(0.01, abs=1e-15), 0, "located")]
    assert all(how != "located" for _, _, how in
               jets.zeros(np.c_[rows], [0.0], 0.005))


def test_zeros_drops_twins_only_among_the_zeros_it_keeps():
    # zeros at 0.3 and 0.3 + 0.6h lie in adjacent intervals: the first
    # found is the second's twin, unless keep refuses it, and then the
    # second is returned (a touch right after an extremum that is none)
    g = np.linspace(0.0, 1.0, 41)
    h = float(g[1] - g[0])
    pair = [0.3, 0.3 + 0.6 * h]
    c = node_jets(pair, g, np.random.default_rng(3))
    assert [round(t, 12) for t, _, _ in jets.zeros(c, g, h)] == [0.3]
    got = jets.zeros(c, g, h, keep=lambda t, i, how: t > 0.301)
    assert [(round(t, 12), how) for t, _, how in got] == [
        (round(pair[1], 12), "located")]


def test_zeros_keeps_an_end_whose_far_zero_it_refuses():
    # Newton from the right end of [0.2, 1] on t - 0.5 lands on 0.5, more
    # than a step inside; keep refuses that zero, so the end comes back
    # unlocated, as it does when keep refuses a zero beyond the end
    g = np.linspace(0.2, 1.0, 9)
    c = jets.shift([-0.5, 1.0], g, 1)

    def the_end(t, i, how):
        return how == "unlocated" and i == 8

    assert jets.zeros(c, g, 0.1, the_end) == [(1.0, 8, "unlocated")]
    c = jets.shift([-1.5, 1.0], g, 1)
    assert jets.zeros(c, g, 0.1, the_end) == [(1.0, 8, "unlocated")]
