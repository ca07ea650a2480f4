"""The array passes of construct.py against the per-node loops they replace.

Each reference below is the earlier loop, kept here as the oracle: the
Horner series jet of one node, the Laurent quotient of one column, the
node sweep one step at a time, the Picard iteration of the system jets
and the in-place doubling scan.  The array passes must give the same
bits and raise the same errors, except two.  The Taylor shift, which
reads every expansion off its centre (the Frobenius series and the
touches alike), is held bit for bit to its own definition and to the
Horner jets within rounding (1e-14 of the largest coefficient), with the
value at the centre exact.  The blocked scan multiplies the sweep's step
matrices in another order, so the sweep agrees with the loop to rounding
(1e-12 relative).  The system jets, and the doubling scan across blocks,
may give a NaN another sign (see bits_nan_as_one).  The step itself, the
two-point Hermite rule on the node jets, is held to the polynomial
solutions it is exact for.
"""

import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from revfront import jets
from revfront.construct import (_BLOCK, _RUN, WORK_ORDER, _hermite_side,
                                _laurent_quotient, _prefix_products,
                                _rk4_path, _solve2, _system_jets, _unit_jets)
from revfront.expr import eval_jet_any_order
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


def node_steps(beta_j, ab_j, i0):
    """The node sweep's steps from node i0: forward to the last node, and
    backward to node 0, each in the order it takes them."""
    unit = _unit_jets(beta_j, ab_j)
    h = np.diff(beta_j.t)
    P, Q = _hermite_side(unit[..., :-1], h), _hermite_side(unit[..., 1:], -h)
    return (_solve2(Q[..., i0:], P[..., i0:]),
            _solve2(P[..., :i0], Q[..., :i0])[..., ::-1])


def polynomial(coef):
    """The text of sum coef[k] t^k."""
    return "+".join(f"({float(c)!r})*t^{k}" for k, c in enumerate(coef))


@pytest.mark.parametrize("degree", [2, 9, 14, 16])
def test_the_step_is_exact_for_degree_14_solutions(degree):
    # beta = 1 and alpha*beta = -p''/p: (x, sin phi) = (p, -p') solves the
    # system.  The step integrates the derivative's order-6 node jets by
    # the two-point rule, exact to degree 13, so it carries p of degree
    # up to 14 from node to node to rounding (relative to the largest of
    # x and sin phi), and one of degree 16 only to the rule's error, over
    # steps of up to 0.6
    g = np.array([0.0, 0.5, 1.1, 1.4])
    coef = 0.3 * np.cos(np.arange(degree + 1.0))
    coef[0], coef[-1] = 1.0, 0.1 / 1.4 ** degree
    k = np.arange(degree + 1.0)
    d1, d2 = (coef * k)[1:], (coef * k * (k - 1))[2:]
    beta_j = eval_jet_any_order("1", g, WORK_ORDER)
    ab_j = eval_jet_any_order(f"-({polynomial(d2)})/({polynomial(coef)})",
                              g, WORK_ORDER)
    x = np.polyval(coef[::-1], g)
    S = -np.polyval(d1[::-1], g)
    forward, backward = node_steps(beta_j, ab_j, 1)
    got = np.hstack([_rk4_path(g[1::-1], backward, x[1], S[1])[:, ::-1],
                     _rk4_path(g[1:], forward, x[1], S[1])[:, 1:]])
    err = np.max(np.abs(got - [x, S])) / np.max(np.abs([x, S]))
    if degree <= 14:   # 5.2e-15 at degree 14
        assert err <= 2e-14, err
    else:              # 3.8e-8
        assert err > 1e-9, err


def assert_sweep_close(beta_j, ab_j, i0, x0=0.7, S0=-0.2):
    """Both sweeps from node i0, forward and backward, against the loop."""
    for m, t in zip(node_steps(beta_j, ab_j, i0),
                    (beta_j.t[i0:], beta_j.t[i0::-1])):
        got = _rk4_path(t, m, x0, S0)
        want = reference_rk4_path(m, x0, S0)
        assert got.shape == want.shape == (2, t.size)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert got[0, 0] == x0 and got[1, 0] == S0


def reference_rk4_path(m, x0, S0):
    """The steps m[..., k] one at a time, in Python floats."""
    y = [float(x0), float(S0)]
    out = [y]
    for k in range(m.shape[-1]):
        (a, b), (c, d) = m[..., k].tolist()
        y = [a * y[0] + b * y[1], c * y[0] + d * y[1]]
        out.append(y)
    return np.array(out).T


def smooth_jets(s, b0, b1, w, p, c0, c1, v, q):
    """The WORK_ORDER node jets at s of beta = b0 + b1 sin(w t + p) and
    alpha*beta = c0 + c1 cos(v t + q)."""
    t = jets.variable(s, WORK_ORDER)
    return (b0 + b1 * jets.sin_cos(w * t + p)[0],
            c0 + c1 * jets.sin_cos(v * t + q)[1])


# one node (the seed alone), one block of _RUN steps and one step either
# side of it, two blocks and one step more, and many blocks
@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 33, 4097, 8195])
def test_rk4_scan_matches_per_step_loop(n):
    rng = np.random.default_rng(n)
    # jittered steps: a sweep that reused s[1] - s[0] would drift off
    s = 0.5 + np.append(0.0, np.cumsum(1e-4 * rng.uniform(0.5, 1.5, n - 1)))
    beta_j, ab_j = smooth_jets(s, 1.0, 0.3, 40.0, 0.2, 0.5, 1.0, 70.0, -1.0)
    for i0 in sorted({0, n - 1, n // 2}):
        assert_sweep_close(beta_j, ab_j, i0)


@st.composite
def smooth_systems(draw):
    """A strictly increasing grid of up to 2000 nodes (125 blocks of _RUN
    steps) and span up to 2, with the node jets of beta = b0 + b1 sin(w t
    + p) and alpha*beta = c0 + c1 cos(v t + q)."""
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(1e-3, 1.0, n - 1)
    span = draw(st.floats(1e-3, 2.0))
    s = draw(st.floats(-2.0, 2.0)) + np.append(0.0, np.cumsum(gaps)) * (
        span / gaps.sum())
    assume(np.all(np.diff(s) > 0.0))
    b0, b1, c0, c1 = (draw(st.floats(-1.5, 1.5)) for _ in range(4))
    w, p, v, q = (draw(st.floats(0.0, 5.0)) for _ in range(4))
    return smooth_jets(s, b0, b1, w, p, c0, c1, v, q)


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(system=smooth_systems(), anchor=st.floats(0.0, 1.0),
       x0=st.floats(-1.0, 1.0), S0=st.floats(-1.0, 1.0))
def test_rk4_scan_matches_loop_on_random_lattices(system, anchor, x0, S0):
    beta_j, ab_j = system
    assume(max(abs(x0), abs(S0)) >= 0.1)
    assert_sweep_close(beta_j, ab_j, round(anchor * (beta_j.t.size - 1)),
                       x0, S0)


def test_a_one_node_sweep_is_its_seed():
    got = _rk4_path(np.array([0.25]), np.empty((2, 2, 0)), -0.0, 0.3)
    assert got.shape == (2, 1)
    assert bits(got).tolist() == bits(np.array([[-0.0], [0.3]])).tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1], ids=["beta", "alpha_beta"])
@pytest.mark.parametrize("k", [0, 5, _RUN - 1, _RUN, 3 * _RUN + 2, 98])
def test_a_non_finite_step_spoils_the_samples_after_it(bad, row, k):
    # beta or alpha*beta at node k + 1 enters step k, which ends there, and
    # the steps after it: every node up to k stays finite and every later
    # one is not, in its own block and through the block totals into the
    # later blocks, so the sweep's overflow refusal names the first node
    # it spoils
    n = 100
    rng = np.random.default_rng(k)
    s = np.linspace(0.0, 0.5, n)
    f = list(smooth_jets(s, 1.0, 0.3, *rng.uniform(1, 5, 2), 0.5, 1.0,
                         *rng.uniform(1, 5, 2)))
    f[row].coeffs[0, k + 1] = bad
    with np.errstate(**QUIET):
        forward, _ = node_steps(*f, 0)
        x, S = _rk4_path(s, forward, 0.7, -0.2)
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
