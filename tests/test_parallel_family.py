"""Singular points with known labels: parallels of a regular front.

A parallel gamma + lam*nu of a Legendre curve with curvature (ell, beta)
has curvature (ell, beta + lam*ell).  With beta = ell*(mu + nu*(t - t*))
and lam = -mu the parallel's beta is ell*nu*(t - t*), whose simple zero
at t* is a 3/2 cusp; with beta = ell*(mu + (t - t*)^2) the zero is
double, a vertex of the front, and the parallel through the evolute's
cusp has a 4/3 cusp there.  Off the rotation axis the revolute has a
cuspidal edge of the same label along the parallel circle at t*.  The
expected label comes from this closed form, never from singular.

Every labeller reads the grid node nearest t*, so a t* between two nodes
is labelled regular until the singular point is located between nodes;
those cases are strict xfails, and turn into failures once they pass.
"""

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from revfront import singular
from revfront.legendre import parallel_curve, reconstruct_from_curvature
from revfront.quadrature import nearest_node, uniform_grid

NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]
LABELLERS = (singular.curve_cusp_by_derivatives,
             singular.curve_cusp_by_curvature,
             singular.revolution_singularity_classify)
ON_NODE = uniform_grid(0.0, 1.2, 49)    # 0.6 is node 24
OFF_NODE = uniform_grid(0.0, 1.2, 50)   # 0.6 lies 0.012 from node 24


def parallel_front(ell, mu, nu, t_star, label, grid):
    """The parallel with a singular point of the given label at t_star,
    of the front with curvature ell (a constant) and the beta above."""
    if label == "cusp_3_2":
        beta = f"{ell!r}*({mu!r}+{nu!r}*(t-{t_star!r}))"
    else:
        beta = f"{ell!r}*({mu!r}+(t-{t_star!r})^2)"
    front = reconstruct_from_curvature(repr(ell), beta, grid, x0=2.0)
    return parallel_curve(front, -mu)


def assert_labels(c, t_star, want):
    got = [f(c, t_star).label for f in LABELLERS]
    assert got == [want] * len(LABELLERS), got


FIXED = [(1.0, 1.3, 0.5, "cusp_3_2"),   # beta = 1 + 0.5 t, lam = -1.3
         (1.0, 1.0, 0.0, "cusp_4_3")]   # beta = 1 + (t - 0.6)^2, lam = -1


@pytest.mark.parametrize("ell, mu, nu, label", FIXED)
def test_parallel_cusp_on_a_node(ell, mu, nu, label):
    assert_labels(parallel_front(ell, mu, nu, 0.6, label, ON_NODE), 0.6,
                  label)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="labellers read the nearest node")
@pytest.mark.parametrize("ell, mu, nu, label", FIXED)
def test_parallel_cusp_between_nodes(ell, mu, nu, label):
    assert_labels(parallel_front(ell, mu, nu, 0.6, label, OFF_NODE), 0.6,
                  label)


@pytest.mark.parametrize("ell, mu, nu, label", FIXED)
def test_a_labeller_reading_the_neighbouring_node_fails(ell, mu, nu, label,
                                                        monkeypatch):
    # the mutant reads node i + 1 instead of the node i nearest t*
    def neighbour(nodes, t0):
        return nearest_node(nodes, t0) + 1

    monkeypatch.setattr(singular, "nearest_node", neighbour)
    c = parallel_front(ell, mu, nu, 0.6, label, ON_NODE)
    with pytest.raises(AssertionError):
        assert_labels(c, 0.6, label)


def fronts(draw, grid, t_star):
    """A drawn front with its parallel, singular at t_star: ell bounded
    away from 0, nu too, and the parallel off the rotation axis."""
    label = draw(st.sampled_from(["cusp_3_2", "cusp_4_3"]))
    ell = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    mu = draw(st.floats(-1.5, 1.5))
    nu = draw(st.floats(0.2, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    c = parallel_front(ell, mu, nu, t_star, label, grid)
    i = nearest_node(grid, t_star)
    assume(abs(c.curve.x.value[i]) > 0.05)
    return c, label


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(data=st.data(), node=st.integers(4, 44))
def test_parallel_cusps_on_nodes(data, node):
    t_star = float(ON_NODE[node])
    c, label = fronts(data.draw, ON_NODE, t_star)
    assert_labels(c, t_star, label)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="labellers read the nearest node")
def test_parallel_cusps_between_nodes():
    # hypothesis draws the cases and the test body asserts on all of them,
    # so the expected failure is this test's, not a falsifying example
    misses = []

    @settings(max_examples=10, deadline=None, phases=[Phase.generate],
              database=None)
    @given(data=st.data(), node=st.integers(4, 44),
           where=st.floats(0.25, 0.75))
    def labels_between_nodes(data, node, where):
        lo, hi = ON_NODE[node:node + 2]
        t_star = float(lo + where * (hi - lo))
        c, label = fronts(data.draw, ON_NODE, t_star)
        got = [f(c, t_star).label for f in LABELLERS]
        misses.append(got != [label] * len(LABELLERS))

    labels_between_nodes()
    assert misses and not any(misses), misses


def test_the_closed_form_moves_the_singular_point():
    # the parallel's beta is ell*nu*(t - t*) at the nodes, as the closed
    # form says; a labeller cannot pass these tests by reading the front
    grid = ON_NODE
    c = parallel_front(1.5, 0.7, -0.8, float(grid[30]), "cusp_3_2", grid)
    np.testing.assert_allclose(c.curvature.beta.value,
                               1.5 * -0.8 * (grid - grid[30]), atol=1e-13)
