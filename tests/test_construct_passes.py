"""The array passes of construct.py against the per-node loops they replace.

Each reference below is the earlier loop, kept here as the oracle: the
Horner series jet of one node, the Laurent quotient of one column, RK4
one step at a time in its stage form, the Picard iteration of the system
jets and the in-place doubling scan.  The array passes must give the
same bits and raise the same errors, except two.  The Taylor shift,
which reads every expansion off its centre (the Frobenius series and the
touches alike), is held bit for bit to its own definition and to the
Horner jets within rounding (1e-14 of the largest coefficient), with the
value at the centre exact.  The RK4 step matrices are the stage form's
closed form, equal to it within rounding (1e-15 relative), and the
blocked scan multiplies them in another order, so the sweep agrees with
the loop to rounding (1e-12 relative).  The system jets, and the
doubling scan across blocks, may give a NaN another sign (see
bits_nan_as_one).
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from revfront import jets
from revfront.construct import (_BLOCK, _RUN, _laurent_quotient,
                                _prefix_products, _rk4_matrices, _rk4_path,
                                _system_jets, _within)
from revfront.jets import DomainError, Jet, Laurent

NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]


def reference_series_node_jet(c, r, s_i, t_i, order):
    if s_i == 0.0:
        co = np.zeros(order + 1)
        ri = int(round(r))
        for k in range(c.size):
            if ri + k <= order:
                co[ri + k] = c[k]
        return Jet(t_i, co)
    iota = jets.variable(t_i, order) - (t_i - s_i)
    poly = jets.constant(0.0, order, t_i)
    for k in range(c.size - 1, -1, -1):
        poly = poly * iota + c[k]
    out = poly
    for _ in range(int(round(r))):
        out = out * iota
    return out


def test_shift_is_its_definition():
    # coefficient m at d is the m-th derivative of the polynomial at d / m!
    rng = np.random.default_rng(5)
    rows = rng.normal(size=11)
    p = rows[::-1]
    for d, order in ((0.3, 6), (np.linspace(-0.5, 0.5, 17), 12)):
        want = np.array([np.polyval(np.polyder(p, m), d) / math.factorial(m)
                         for m in range(order + 1)])
        got = jets.shift(rows, d, order)
        assert got.shape == want.shape == (order + 1,) + np.shape(d)
        assert got.tobytes() == want.tobytes()
    assert not jets.shift(rows, 0.2, 12)[11:].any()   # beyond the degree


@pytest.mark.parametrize("r, order", [(0.0, 7), (1.0, 4), (2.0, 7),
                                      (3.0, 9), (9.0, 7)])
def test_series_jets_match_per_node_horner(r, order):
    # the series x = sum c_k s^(k+r) at the nodes, as the Frobenius nodes
    # read it, against Horner's rule in the jet algebra node by node
    rng = np.random.default_rng(int(r) * 10 + order)
    c = rng.normal(size=13)
    t0 = 0.3
    # node 17 sits exactly at t0, where the reference holds the
    # coefficients exactly
    t = t0 + (np.arange(40) - 17) * (1.0 / 64.0)
    s = t - t0
    assert (s == 0.0).sum() == 1
    got = jets.shift(np.append(np.zeros(int(r)), c), s, order)
    want = np.stack([reference_series_node_jet(c, r, float(s[i]), float(t[i]),
                                               order).coeffs
                     for i in range(t.size)], axis=1)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(c))
    centre = got[:, 17]
    assert centre[0] == want[0, 17]           # the value, exactly
    assert np.all(centre[want[:, 17] == 0.0] == 0.0)   # zeros stay zero


def reference_laurent_quotient(num, den):
    """Each column's Laurent quotient as a Taylor jet, zero-padded."""
    out = np.zeros((min(num.order, den.order) + 1, num.t.size))
    for i in range(num.t.size):
        q = (Laurent(num.at(i)) / Laurent(den.at(i))).taylor().rows
        out[:len(q), i] = q
    return out


def removable_columns(rng, n, zeros):
    """num and den jets of order n whose column j has zeros[j] leading
    coefficients that are exactly 0 in both; the next one of den is
    large, and the one after may be tiny in both (not stripped)."""
    m = len(zeros)
    num = rng.normal(size=(n + 1, m))
    den = rng.normal(size=(n + 1, m)) + 2.0
    for j, k in enumerate(zeros):
        num[:k, j] = den[:k, j] = 0.0
        if k < n:
            den[k, j] = 1.5 + rng.uniform()
        if k + 2 <= n:
            num[k + 2, j] = den[k + 2, j] = 1e-15
    t = np.linspace(0.1, 0.9, m)
    return Jet(t, num), Jet(t, den)


def test_laurent_quotient_matches_per_column_loop():
    # columns with a nonvanishing divisor take the plain Jet quotient,
    # bit for bit; the others the Laurent one, of lower order
    rng = np.random.default_rng(7)
    n = 6
    num, den = removable_columns(rng, n, [0, 2, 1, 0, 3, 2, 0, 1])
    got = _laurent_quotient(num, den)
    assert got.tobytes() == reference_laurent_quotient(num, den).tobytes()
    plain = (num.at(0) / den.at(0)).coeffs
    assert got[:, 0].tobytes() == plain.tobytes()
    assert not got[n - 1:, 1].any() and got[n - 2, 1] != 0.0
    empty = np.array([], dtype=int)
    assert _laurent_quotient(num.at(empty), den.at(empty)).shape == (n + 1, 0)


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
@pytest.mark.parametrize("extra", [0, 1])
def test_div_reduced_matches_per_column_loop(tol, extra):
    # the reduced division strips exact zeros only: leading coefficients
    # of size tol, far above DIV_TOL, keep the plain Jet quotient; a
    # numerator of extra orders more is cut to the divisor's order
    rng = np.random.default_rng(7)
    n = 6
    zeros = [0, 2, 1, 0, 3, 2, 0, 1, 0]
    num, den = removable_columns(rng, n, zeros)
    small = [3, 6, 8]
    for j, k in zip(small, [1, 2, 3]):
        num.coeffs[:k, j] = rng.uniform(-0.5, 0.5, size=k) * tol
        den.coeffs[:k, j] = rng.uniform(-0.5, 0.5, size=k) * tol
    num = Jet(num.t, np.vstack([num.coeffs,
                                rng.normal(size=(extra, len(zeros)))]))
    got = _laurent_quotient(num, den)
    assert got.shape == (n + 1, len(zeros))
    assert got.tobytes() == reference_laurent_quotient(num, den).tobytes()
    for j in small:
        plain = (num.at(j) / den.at(j)).coeffs
        assert got[:, j].tobytes() == plain.tobytes()


def test_laurent_quotient_raises_first_pole_in_index_order():
    rng = np.random.default_rng(3)
    n = 5
    num, den = removable_columns(rng, n, [1, 0, 2, 0, 1, 0])
    # columns 3 and 5 have a pole: den vanishes, num not; column 4 has
    # one only behind its stripped first coefficient
    den.coeffs[0, 3] = 0.0
    den.coeffs[0, 5] = 1e-15
    den.coeffs[1, 4] = 0.0
    num.coeffs[1, 4] = 3.0
    with pytest.raises(DomainError) as got:
        _laurent_quotient(num, den)
    assert "0.58" in str(got.value)   # t of column 3
    den.coeffs[0, 3] = 1.0
    with pytest.raises(DomainError) as got:
        _laurent_quotient(num, den)
    assert "0.74" in str(got.value)   # t of column 4


def rk4_step(xc, Sc, b0, a0, b1, a1, b2, a2, h):
    """One classical RK4 step of x' = -beta S, S' = (alpha beta) x, stage
    by stage, from (beta, alpha beta) at its start, midpoint and end."""
    k1x = -b0 * Sc
    k1s = a0 * xc
    k2x = -b1 * (Sc + 0.5 * h * k1s)
    k2s = a1 * (xc + 0.5 * h * k1x)
    k3x = -b1 * (Sc + 0.5 * h * k2s)
    k3s = a1 * (xc + 0.5 * h * k2x)
    k4x = -b2 * (Sc + h * k3s)
    k4s = a2 * (xc + h * k3x)
    return (xc + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            Sc + h / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s))


def reference_rk4_path(s, f_node, f_mid, x0, S0):
    """RK4 one node at a time in Python floats, each interval with its own
    step, from s[0] along s."""
    x = np.empty(s.size)
    S = np.empty(s.size)
    x[0], S[0] = x0, S0
    sl = s.tolist()
    bn, an = (v.tolist() for v in f_node)
    bm, am = (v.tolist() for v in f_mid)
    xc, Sc = float(x0), float(S0)
    for i in range(s.size - 1):
        xc, Sc = rk4_step(xc, Sc, bn[i], an[i], bm[i], am[i],
                          bn[i + 1], an[i + 1], sl[i + 1] - sl[i])
        x[i + 1], S[i + 1] = xc, Sc
    return x, S


def test_step_matrices_are_the_stage_form():
    # the stage form applied to the unit vectors, over coefficients of
    # mixed signs and scales with +-0.0 among them, and steps of both signs
    rng = np.random.default_rng(11)
    co = rng.normal(size=(6, 500)) * 10.0 ** rng.integers(-2, 3, (6, 500))
    co[rng.uniform(size=co.shape) < 0.1] = 0.0
    co[rng.uniform(size=co.shape) < 0.1] = -0.0
    h = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-5, -1, 500)
    got = _rk4_matrices(np.empty((2, 2, 500)), *co, h)
    want = np.empty_like(got)
    want[:, 0] = rk4_step(1.0, 0.0, *co, h)
    want[:, 1] = rk4_step(0.0, 1.0, *co, h)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= 1e-15


def assert_rk4_close(s, f_node, f_mid, i0, x0=0.7, S0=-0.2):
    """Both sweeps from node i0: forward over s[i0:], and backward over the
    reversed s[:i0 + 1], whose steps are negative."""
    for nodes, mids, way in ((np.s_[i0:], np.s_[i0:], np.s_[:]),
                             (np.s_[:i0 + 1], np.s_[:i0], np.s_[::-1])):
        args = (s[nodes][way], tuple(v[nodes][way] for v in f_node),
                tuple(v[mids][way] for v in f_mid), x0, S0)
        got = _rk4_path(*args)
        want = reference_rk4_path(*args)
        scale = max(np.max(np.abs(want[0])), np.max(np.abs(want[1])))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12 * scale
        assert got[0][0] == x0 and got[1][0] == S0


# one node (the seed alone), one block of _RUN steps and one step either
# side of it, two blocks and one step more, and many blocks
@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 33, 4097, 8195])
def test_rk4_scan_matches_per_step_loop(n):
    rng = np.random.default_rng(n)
    # jittered steps: an RK4 that reused s[1] - s[0] would drift off
    s = 0.5 + np.append(0.0, np.cumsum(1e-4 * rng.uniform(0.5, 1.5, n - 1)))
    f_node = (1.0 + 0.3 * rng.normal(size=n), rng.normal(size=n))
    f_mid = (1.0 + 0.3 * rng.normal(size=n - 1), rng.normal(size=n - 1))
    for i0 in sorted({0, n - 1, n // 2}):
        assert_rk4_close(s, f_node, f_mid, i0)


@st.composite
def smooth_systems(draw):
    """A strictly increasing lattice of up to 2000 nodes (125 blocks of
    _RUN steps) and span up to 2, with beta = b0 + b1 sin(w t + p) and
    alpha*beta = c0 + c1 cos(v t + q) at its nodes and midpoints."""
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(1e-3, 1.0, n - 1)
    span = draw(st.floats(1e-3, 2.0))
    s = draw(st.floats(-2.0, 2.0)) + np.append(0.0, np.cumsum(gaps)) * (
        span / gaps.sum())
    assume(np.all(np.diff(s) > 0.0))
    b0, b1, c0, c1 = (draw(st.floats(-1.5, 1.5)) for _ in range(4))
    w, p, v, q = (draw(st.floats(0.0, 5.0)) for _ in range(4))

    def pair(t):
        return b0 + b1 * np.sin(w * t + p), c0 + c1 * np.cos(v * t + q)

    return s, pair(s), pair(0.5 * (s[:-1] + s[1:]))


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(system=smooth_systems(), anchor=st.floats(0.0, 1.0),
       x0=st.floats(-1.0, 1.0), S0=st.floats(-1.0, 1.0))
def test_rk4_scan_matches_loop_on_random_lattices(system, anchor, x0, S0):
    s, f_node, f_mid = system
    assume(max(abs(x0), abs(S0)) >= 0.1)
    assert_rk4_close(s, f_node, f_mid, round(anchor * (s.size - 1)), x0, S0)


def test_a_one_node_sweep_is_its_seed():
    s = np.array([0.25])
    got = _rk4_path(s, (np.ones(1), np.ones(1)), (np.ones(0), np.ones(0)),
                    -0.0, 0.3)
    assert got.shape == (2, 1)
    assert bits(got).tolist() == bits(np.array([[-0.0], [0.3]])).tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1], ids=["beta", "alpha_beta"])
@pytest.mark.parametrize("k", [0, 5, _RUN - 1, _RUN, 3 * _RUN + 2, 98])
def test_a_non_finite_step_spoils_the_samples_after_it(bad, row, k):
    # the value at the midpoint of interval k enters step k alone: every
    # sample up to k stays finite and every later one is not, in its own
    # block and through the block totals into the later blocks, so the
    # sweep's overflow refusal names the first sample it spoils
    n = 100
    rng = np.random.default_rng(k)
    s = np.linspace(0.0, 0.5, n)
    f_node = (1.0 + 0.3 * rng.normal(size=n), rng.normal(size=n))
    f_mid = [1.0 + 0.3 * rng.normal(size=n - 1), rng.normal(size=n - 1)]
    f_mid[row][k] = bad
    with np.errstate(**QUIET):
        x, S = _rk4_path(s, f_node, tuple(f_mid), 0.7, -0.2)
    finite = np.isfinite(x) & np.isfinite(S)
    assert finite[:k + 1].all()
    assert not finite[k + 1:].any()


def reference_system_jets(beta_j, ab_j, x_vals, S_vals, order):
    """Picard iteration in the jet algebra; each pass fixes one more
    coefficient, so order+1 passes suffice."""
    x_j = jets.constant(x_vals, order, beta_j.t)
    s_j = jets.constant(S_vals, order, beta_j.t)
    for _ in range(order + 1):
        x_new = (-(beta_j * s_j)).antiderivative(x_vals).truncated(order)
        s_new = (ab_j * x_j).antiderivative(S_vals).truncated(order)
        x_j, s_j = x_new, s_new
    return x_j, s_j


def reference_prefix_products(m):
    """The doubling scan in place, one fresh product per pass."""
    d = 1
    while d < m.shape[-1]:
        m[..., d:] = np.einsum("ijk,jlk->ilk", m[..., d:], m[..., :-d])
        d *= 2


# the errstate of the RK4 sweep; in the system jets of a construction
# the data are finite, and the recurrence runs a subset of the Picard
# loop's operations, so it warns only where the loop would
QUIET = {"over": "ignore", "invalid": "ignore"}
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300,
                    -1e300, 1e-300, -1e-300])


def coefficients(seed, shape, special):
    """Normal samples on a random scale, a share special of them replaced
    by signed zeros, infinities, NaNs and 1e+-300."""
    rng = np.random.default_rng(seed)
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    swap = rng.uniform(size=shape) < special
    out[swap] = rng.choice(SPECIAL, size=int(swap.sum()))
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def bits_nan_as_one(a):
    """bits(a) with every NaN read as np.nan.  IEEE 754 leaves the sign
    and payload of a NaN result open, and where both operands are NaN
    numpy picks one by the loop and lane that hold the element: the
    Picard loop adds its rows as one flat array and multiplies them with
    a broadcast row, the recurrence works row by row, so the two can give
    opposite NaN signs from the same operands."""
    return bits(np.where(np.isnan(a), np.nan, a))


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(order=st.integers(0, 8), n=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([0.0, 0.02, 0.3]))
def test_system_jets_match_picard_loop(order, n, seed, special):
    t = np.linspace(0.0, 1.0, n)
    co = coefficients(seed, (2 * order + 4, n), special)
    beta_j, ab_j = Jet(t, co[:order + 1]), Jet(t, co[order + 1:-2])
    x_vals, S_vals = co[-2], co[-1]
    with np.errstate(**QUIET):
        got = _system_jets(beta_j, ab_j, x_vals, S_vals, order)
        want = reference_system_jets(beta_j, ab_j, x_vals, S_vals, order)
        for g, w in zip(got, want):
            assert g.order == w.order == order
            assert np.array_equal(bits_nan_as_one(g.coeffs),
                                  bits_nan_as_one(w.coeffs))
        # the ODE residual reads the product's value from the values
        x_j = got[0]
        value = ab_j.value * beta_j.value * beta_j.value * x_j.value
        assert np.array_equal(
            bits_nan_as_one(value),
            bits_nan_as_one((ab_j * beta_j * beta_j * x_j).value))


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([0.0, 0.02, 0.3]))
def test_prefix_products_match_in_place_scan(n, seed, special):
    m = coefficients(seed, (2, 2, n), special)
    want = m.copy()
    with np.errstate(**QUIET):
        got = _prefix_products(m.copy())
        reference_prefix_products(want)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("n", [2 * _BLOCK + 1, 3 * _BLOCK, 4 * _BLOCK + 7])
@pytest.mark.parametrize("special", [0.0, 0.02, 0.3])
def test_prefix_products_across_blocks_match_in_place_scan(n, special):
    # n spans three blocks or more, and the passes from d = _BLOCK on read
    # a block whose entries lie a whole block or more below it.  Within
    # one block the scan keeps every bit (the test above); across blocks
    # a NaN from two NaN operands may take the other's sign, as numpy's
    # einsum picks one by the loop that holds the element (see
    # bits_nan_as_one).  A NaN in the scan makes x and sin phi NaN, which
    # the sweep refuses, so no NaN reaches a profile
    m = coefficients(n + int(100 * special), (2, 2, n), special)
    want = m.copy()
    with np.errstate(**QUIET):
        got = _prefix_products(m)
        reference_prefix_products(want)
    assert got is m
    assert np.array_equal(bits_nan_as_one(got), bits_nan_as_one(want))


def ulp_lattice(base, ulps):
    """The increasing lattice from base whose consecutive samples lie the
    given numbers of units in the last place apart."""
    s = [base]
    for u in ulps:
        s.append(s[-1] + u * abs(np.spacing(s[-1])))
    return np.array(s)


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(base=st.sampled_from([-1e20, -1.0, -1e-300, 0.0, 0.5, 3.0]),
       ulps=st.lists(st.sampled_from([1, 2, 3, 1000, 2**40]), min_size=1,
                     max_size=30),
       j=st.integers(0, 30), k=st.integers(-3, 3),
       r=st.sampled_from([0.0, 1.0, 2.5, 1000.0, 2.0**50, np.inf]))
def test_within_is_the_array_test(base, ulps, j, k, r):
    # samples and t a few ulps apart, and radii of a few ulps of t, where
    # the rounding of s - t decides which samples pass
    s = ulp_lattice(base, ulps)
    t = s[min(j, s.size - 1)]
    t += k * abs(np.spacing(t))
    r = r * abs(np.spacing(t)) if r < np.inf else r
    want = np.flatnonzero(np.abs(s - t) <= r)
    got = _within(s, t, r)
    assert np.arange(s.size)[got].tolist() == want.tolist()
