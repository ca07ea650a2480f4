"""Cumulative quadrature on refined lattices, checked against scipy.quad."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from revfront.quadrature import (ConstructionError, FineGrid, nearest_node,
                                 uniform_grid)


def test_uniform_grid_endpoints_and_count():
    g = uniform_grid(0.2, 2.94, 400)
    assert g.size == 400
    assert g[0] == 0.2 and g[-1] == 2.94
    steps = np.diff(g)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


@pytest.mark.parametrize("t_min,t_max", [
    (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan),
    (-1e308, 1e308)])
def test_uniform_grid_refuses_non_finite_bounds_or_span(t_min, t_max):
    with pytest.raises(ValueError, match="finite"):
        uniform_grid(t_min, t_max, 17)


def test_cumulative_matches_scipy():
    g = uniform_grid(0.0, 2.0, 81)
    fg = FineGrid(g, refine=16)
    vals = fg.eval_expr("exp(-t^2/2)*cos(3*t)")
    got = fg.at_coarse(fg.cumulative(vals))
    for i in (0, 7, 40, 80):
        want = quad(lambda t: np.exp(-t**2 / 2) * np.cos(3 * t),
                    0.0, g[i], epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(got[i] - want) < 1e-10


def _cumulative_reference(fg, v, init):
    """One row, with the panel weights taken from the fine steps on each
    call."""
    d = np.repeat(fg.step, fg.refine)
    out = np.empty_like(v)
    out[0] = init
    panel = (d[0::2] / 3.0) * (v[0:-1:2] + 4.0 * v[1::2] + v[2::2])
    out[2::2] = init + np.cumsum(panel)
    half = (d[0::2] / 12.0) * (5.0 * v[0:-1:2] + 8.0 * v[1::2] - v[2::2])
    out[1::2] = out[0:-1:2] + half
    return out


def test_cumulative_of_stacked_rows_is_each_row_alone():
    fg = FineGrid([-0.3, 0.0, 0.05, 0.4, 1.1], refine=6)
    rows = np.stack([fg.eval_expr(src) for src in
                     ("exp(-t^2/2)*cos(3*t)", "1/(t + 2)", "t^3 - t")])
    inits = [0.5, -2.0, 1e-3]
    got = fg.cumulative(rows, inits)
    for row, init, out in zip(rows, inits, got):
        want = _cumulative_reference(fg, row, init)
        assert out.tobytes() == want.tobytes()
        assert fg.cumulative(row, init).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="fine lattice"):
        fg.cumulative(rows[:, 1:])


def test_cumulative_from_anchor():
    g = uniform_grid(0.0, 1.0, 33)
    fg = FineGrid(g, refine=8)
    vals = fg.eval_expr("cos(t)")
    for t0 in (0.5, 0.5001):
        out = fg.cumulative_from(vals, t0, 10.0)
        want = 10.0 + np.sin(fg.s) - np.sin(t0)
        np.testing.assert_allclose(out, want, atol=1e-12)
    # at a fine node, the plain shift of the cumulative integral, bit for bit
    base = fg.cumulative(vals)
    for k in (0, 101, fg.s.size - 1):
        out = fg.cumulative_from(vals, fg.s[k], 10.0)
        assert out.tobytes() == (base - base[k] + 10.0).tobytes()


@pytest.mark.parametrize("t0", [0.0011, 0.37, 0.4991, 0.5004, 0.9993])
def test_cumulative_from_is_exact_for_quadratics_off_the_lattice(t0):
    # steps of 1/64 left of 0.5 and 1/16 right of it: the parabola from the
    # nearest node to t0 sees unequal neighbours beside 0.5, and the end
    # triple at either end of the lattice
    g = np.concatenate([np.linspace(0.0, 0.5, 33),
                        np.linspace(0.5, 1.0, 9)[1:]])
    fg = FineGrid(g, refine=4)
    assert t0 not in fg.s
    vals = 3.0 * fg.s ** 2 - 2.0 * fg.s + 1.0

    def F(t):
        return t ** 3 - t ** 2 + t
    out = fg.cumulative_from(vals, t0, -0.25)
    np.testing.assert_allclose(out, -0.25 + F(fg.s) - F(t0), rtol=0,
                               atol=4e-16)


def test_nearest_node():
    g = uniform_grid(0.0, 1.0, 17)
    fg = FineGrid(g, refine=4)
    k = nearest_node(fg.s, 0.50001)
    assert abs(fg.s[k] - 0.50001) <= np.max(fg.step) / 2 + 1e-15
    assert nearest_node(g, -3.0) == 0 and nearest_node(g, 3.0) == 16
    for t0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t0 must be finite"):
            nearest_node(g, t0)
    # a tie goes to the lower index
    assert nearest_node([0.0, 1.0, 2.0, 3.0], 1.5) == 1
    assert nearest_node(np.array([0, 2, 4]), 3.0) == 1
    # lists and integer arrays give the index of the plain formula
    for nodes in ([0.0, 1.0, 2.0, 3.0], [3, 1, 4, 1, 5], np.array([0, 2, 4]),
                  np.array([7, -3, 2], dtype=np.int32), g):
        for t0 in (-3.0, 0.0, 0.5, 1.0, 1.5, 2.9, 3, 10.0):
            want = int(np.abs(np.asarray(nodes) - t0).argmin())
            assert nearest_node(nodes, t0) == want, (nodes, t0)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.sampled_from([1e-300, 1e-9, 0.125, 0.3, 1.0]),
                      min_size=1, max_size=12),
       refine=st.sampled_from([2, 4, 16]),
       start=st.sampled_from([-7.0, -1.0, 0.0, 0.7]),
       t0=st.one_of(st.floats(-9.0, 9.0),
                    st.sampled_from([-1e17, -1.0, 1.0, 1e17])))
def test_lattice_nearest_is_nearest_node(steps, refine, start, t0):
    # far from t0 many distances round alike (steps of 1e-300 beside
    # t0 = 1, or t0 = 1e17), and a tie goes to the lower index, as argmin
    # gives it
    grid = start + np.append(0.0, np.cumsum(steps))
    assume(np.all(np.diff(grid) > 0.0))
    fg = FineGrid(grid, refine=refine)
    assume(np.all(np.diff(fg.s) > 0.0))
    for t in (t0, *fg.s[:3], 0.5 * (fg.s[0] + fg.s[1]), fg.s[-1] + 1.0):
        assert fg.nearest(t) == nearest_node(fg.s, t), t
    with pytest.raises(ValueError, match="t0 must be finite"):
        fg.nearest(np.nan)


def test_coarse_index_roundtrip():
    g = uniform_grid(-1.0, 1.0, 21)
    fg = FineGrid(g, refine=4)
    np.testing.assert_allclose(fg.s[fg.coarse_index], g, atol=1e-15)


def test_eval_expr_domain_failure():
    g = uniform_grid(-1.0, 1.0, 21)
    fg = FineGrid(g, refine=4)
    with pytest.raises(ConstructionError):
        fg.eval_expr("1/t")


def test_quartic_exactness():
    # the composite rule should integrate low-degree polynomials to
    # rounding error without refinement help
    g = uniform_grid(0.0, 3.0, 31)
    fg = FineGrid(g, refine=2)
    vals = fg.eval_expr("t^3 - 2*t")
    got = fg.at_coarse(fg.cumulative(vals))
    want = g**4 / 4 - g**2
    np.testing.assert_allclose(got, want, atol=1e-12)
