"""Cusp classification and the constant-ratio order tables."""

import numpy as np
import pytest

from revfront import expr, jets
from revfront.legendre import (curvature_pair_of, legendre_from_expressions,
                               reconstruct_from_curvature)
from revfront.quadrature import uniform_grid
from revfront.singular import (EXACT_TOL, LABELS, CuspLabel,
                               constant_gauss_cusp, constant_mean_cusp,
                               curve_cusp_by_curvature,
                               curve_cusp_by_derivatives,
                               cusp_classify_curvature,
                               cusp_classify_derivatives, ord_of,
                               revolution_singularity_classify)

PI = float(np.pi)


def jet_at(src, t0=0.0, order=5):
    """Scalar jet of an expression at a single base point."""
    return expr.eval_jet(src, float(t0), order)


def pseudo_sphere(grid):
    return legendre_from_expressions("sin(t)", "cos(t)+log(tan(t/2))",
                                     "cos(t)", "-sin(t)", grid)


# ---------------------------------------------------------------------------
# vanishing orders


def test_ord_of_polynomials():
    assert ord_of(jet_at("1+t")) == 0
    assert ord_of(jet_at("t")) == 1
    assert ord_of(jet_at("t^3")) == 3
    # relative zero test: noise far below the derivative scale is ignored
    assert ord_of(jet_at("t^2 + 1e-12*t")) == 2
    # order at a shifted base point
    assert ord_of(jet_at("(t-1)^2*(t+3)", t0=1.0)) == 2


def test_ord_of_saturates_at_cap():
    assert ord_of(jet_at("0")) == 6
    assert ord_of(jet_at("t^3"), cap=2) == 3   # cap + 1, "at least 3"
    assert ord_of(jet_at("t^2"), cap=2) == 2
    # a jet of order below cap tests derivatives up to its order only
    assert ord_of(jet_at("0", order=3)) == 4
    assert ord_of(jet_at("t^5", order=3), cap=8) == 4
    assert ord_of(jet_at("t^2", order=3), cap=8) == 2


def test_label_names_are_validated():
    for name in LABELS:
        CuspLabel(name)
    with pytest.raises(ValueError):
        CuspLabel("bogus")


# ---------------------------------------------------------------------------
# derivative criterion on model germs


GERMS = [
    ("t^2", "t^3", "-3*t/sqrt(9*t^2+4)", "2/sqrt(9*t^2+4)", "cusp_3_2"),
    ("t^2", "t^5", "-5*t^3/sqrt(25*t^6+4)", "2/sqrt(25*t^6+4)", "cusp_5_2"),
    ("t^3", "t^4", "-4*t/sqrt(16*t^2+9)", "3/sqrt(16*t^2+9)", "cusp_4_3"),
    ("t^3", "t^5", "-5*t^2/sqrt(25*t^4+9)", "3/sqrt(25*t^4+9)", "cusp_5_3"),
]


@pytest.mark.parametrize("x, z, a, b, label", GERMS)
def test_model_germ_derivative_labels(x, z, a, b, label):
    g = uniform_grid(-1.0, 1.0, 81)
    c = legendre_from_expressions(x, z, a, b, g)
    out = curve_cusp_by_derivatives(c, 0.0)
    assert out.label == label
    assert out.diagnostics["node"] == 40
    assert out.diagnostics["criterion"] == "derivative"


@pytest.mark.parametrize("order", [0, 1, 2])
def test_derivative_criterion_on_short_jets_is_unresolved(order):
    # order 0 has no first derivative to test (before, max() of nothing
    # raised ValueError); orders 1 and 2 have no cusp test; a regular
    # point still reads regular from order 1
    g = uniform_grid(-1.0, 1.0, 81)
    x, z, a, b, _ = GERMS[0]
    for c in (legendre_from_expressions(x, z, a, b, g).truncated(order),
              reconstruct_from_curvature("1", "t", g).truncated(order)):
        out = cusp_classify_derivatives(c, 0.0)
        assert out.label == "unresolved"
        assert out.diagnostics["note"] == "jet order too low for any cusp test"
        if not order:   # no derivative sets the scale
            assert out.diagnostics["threshold"] == EXACT_TOL
        want = "regular" if order else "unresolved"
        assert cusp_classify_derivatives(c, 0.5).label == want


def test_regular_point_both_criteria():
    g = uniform_grid(0.0, 2.0, 41)
    circle = legendre_from_expressions("cos(t)", "sin(t)",
                                       "cos(t)", "sin(t)", g)
    assert curve_cusp_by_derivatives(circle, 1.0).label == "regular"
    assert curve_cusp_by_curvature(circle, 1.0).label == "regular"


# ---------------------------------------------------------------------------
# curvature criterion on scalar jets


CURV_CASES = [
    ("1", "1+t", "regular"),
    ("1", "t", "cusp_3_2"),
    ("t^2", "t", "cusp_5_2"),
    ("t", "t", "unresolved"),     # beta' != 0 but the 5/2 determinant is 0
    ("1", "t^2", "cusp_4_3"),
    ("t", "t^2", "cusp_5_3"),
    ("t^2", "t^2", "unresolved"),
]


@pytest.mark.parametrize("ell, beta, label", CURV_CASES)
def test_curvature_criterion_cases(ell, beta, label):
    out = cusp_classify_curvature(jet_at(ell), jet_at(beta))
    assert out.label == label
    assert out.diagnostics["criterion"] == "curvature"


@pytest.mark.parametrize("ell, beta, label", [
    ("1", "t", "cusp_3_2"),
    ("t^2", "t", "cusp_5_2"),
    ("1", "t^2", "cusp_4_3"),
    ("t", "t^2", "cusp_5_3"),
])
def test_criteria_agree_on_reconstructions(ell, beta, label):
    # integrate the curvature pair to an actual curve, then both criteria
    # must see the same normal form at the singular node
    g = uniform_grid(-1.0, 1.0, 201)
    c = reconstruct_from_curvature(ell, beta, g, theta0=0.3, x0=1.0, z0=-0.5)
    assert curve_cusp_by_derivatives(c, 0.0).label == label
    assert curve_cusp_by_curvature(c, 0.0).label == label


def test_pseudo_sphere_cusp_both_criteria():
    g = uniform_grid(0.2, PI - 0.2, 161)   # node 80 sits on pi/2
    c = pseudo_sphere(g)
    assert curve_cusp_by_derivatives(c, PI / 2).label == "cusp_3_2"
    assert curve_cusp_by_curvature(c, PI / 2).label == "cusp_3_2"


def test_off_node_singularity_reads_regular():
    # classification happens at the nearest grid node; when the singular
    # parameter falls between nodes the node itself is a regular point
    g = uniform_grid(0.2, PI - 0.2, 160)
    c = pseudo_sphere(g)
    out = curve_cusp_by_derivatives(c, PI / 2)
    assert out.label == "regular"
    assert abs(out.diagnostics["t0"] - PI / 2) > 1e-4


@pytest.mark.parametrize("n", [160, 400])
def test_one_scan_of_beta_locates_the_off_node_cusp(n):
    # the cusp at pi/2 falls between two nodes; one jets.zeros call on the
    # beta node jets locates it (-6.35e-12 and -6.4e-14 off), the rest of
    # what it returns being the grid ends, where Newton finds no zero
    g = uniform_grid(0.2, 2.941592653589793, n)
    beta = curvature_pair_of(pseudo_sphere(g)).beta
    found = jets.zeros(beta.coeffs, g, float(np.max(np.diff(g))))
    located = [t for t, _, how in found if how == "located"]
    assert located == pytest.approx([PI / 2], rel=0, abs=1e-11)


@pytest.mark.parametrize("t0", [float("nan"), float("inf"), -float("inf")])
def test_node_labellers_refuse_a_t0_that_is_not_finite(t0):
    # |t - t0| has no least entry at such a t0 and argmin gave node 0,
    # which was labelled as if it had been asked for
    c = reconstruct_from_curvature("1.0", "2*sin(t)",
                                   uniform_grid(-0.5, 0.5, 33), 0.0, 1.0, 0.0)
    assert curve_cusp_by_curvature(c, 0.0).diagnostics["node"] == 16
    for label in (cusp_classify_derivatives, curve_cusp_by_derivatives,
                  curve_cusp_by_curvature, revolution_singularity_classify):
        with pytest.raises(ValueError, match="t0 must be finite"):
            label(c, t0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_labellers_refuse_a_tol_that_is_no_tolerance(tol):
    # a 3/2-cusp at 0 used to come out unresolved with tol = NaN and
    # regular with tol = -1
    c = reconstruct_from_curvature("1", "t", uniform_grid(-0.5, 0.5, 33))
    assert cusp_classify_derivatives(c, 0.0).label == "cusp_3_2"
    x, ell, beta = (j.at(16) for j in (c.curve.x, c.curvature.ell,
                                       c.curvature.beta))
    for label in (lambda: ord_of(x, tol=tol),
                  lambda: cusp_classify_derivatives(c, 0.0, tol),
                  lambda: cusp_classify_curvature(ell, beta, tol),
                  lambda: constant_mean_cusp(ell, beta, tol),
                  lambda: revolution_singularity_classify(c, 0.0, tol)):
        with pytest.raises(ValueError, match="tol must be finite and "
                                             "non-negative"):
            label()


def test_ord_of_refuses_a_negative_cap():
    # cap = -1 used to raise "max() arg is an empty sequence"
    with pytest.raises(ValueError, match="cap must be non-negative"):
        ord_of(jet_at("t"), cap=-1)
    assert ord_of(jet_at("t"), cap=0) == 1


# ---------------------------------------------------------------------------
# the constant-ratio tables


def test_constant_gauss_table():
    assert constant_gauss_cusp(1, 1).label == "cusp_3_2"
    assert constant_gauss_cusp(2, 2).label == "cusp_4_3"
    assert constant_gauss_cusp(1, 2).label == "cusp_5_3"
    out = constant_gauss_cusp(2, 3)
    assert out.label == "unresolved"
    assert out.diagnostics["note"] == "5/2 impossible"
    with pytest.raises(ValueError):
        constant_gauss_cusp(3, 2)


def test_constant_gauss_saturated_orders_are_unresolved():
    # ord_of reads "at least top + 1" when every tested derivative
    # vanishes; before top, t^3 and t^3 at order 1 read (2, 2), cusp_4_3,
    # and t^5 and t^5 at order 0 read (1, 1), cusp_3_2
    for src, order, orders in (("t^3", 1, (2, 2)), ("t^5", 0, (1, 1))):
        m, n = (ord_of(jet_at(src, order=order)) for _ in range(2))
        assert (m, n) == orders
        out = constant_gauss_cusp(m, n, top=order)
        assert out.label == "unresolved"
        assert out.diagnostics == {"orders": orders, "note": "5/2 impossible"}
    # exact orders keep their table entries, and ord(a) > ord(beta) still
    # contradicts the family: ord(beta) is then exact
    assert constant_gauss_cusp(2, 2, top=2).label == "cusp_4_3"
    assert constant_gauss_cusp(1, 2, top=2).label == "cusp_5_3"
    assert constant_gauss_cusp(1, 2, top=1).label == "unresolved"
    with pytest.raises(ValueError, match=r"orders \(2, 1\) violate"):
        constant_gauss_cusp(2, 1, top=1)


def test_constant_mean_needs_alpha_prime():
    # an order-0 alpha jet cannot show that alpha is constant
    out = constant_mean_cusp(jet_at("1+t", order=0), jet_at("t^2"))
    assert out.label == "unresolved"
    assert out.diagnostics["note"] == "jet order too low"


def test_constant_mean_cases():
    out = constant_mean_cusp(jet_at("t", PI), jet_at("sin(t)", PI))
    assert out.label == "cusp_5_2"

    assert constant_mean_cusp(jet_at("t"), jet_at("t^2")).label == "cusp_5_3"

    const = constant_mean_cusp(jet_at("2"), jet_at("t"))
    assert const.label == "unresolved"
    assert "alpha constant" in const.diagnostics["note"]

    # beta' = 0 and beta''*alpha' = 0 leaves nothing to certify
    assert constant_mean_cusp(jet_at("t^3"), jet_at("t^2")).label == "unresolved"


def test_constant_mean_never_odd_denominator_labels():
    # the mean-ratio family admits no 3/2 or 4/3 normal form
    for alpha in ("t", "1+t", "t^2-1", "cos(t)"):
        for beta in ("t", "t^2", "t^3", "sin(t)"):
            label = constant_mean_cusp(jet_at(alpha), jet_at(beta)).label
            assert label not in ("cusp_3_2", "cusp_4_3")


# ---------------------------------------------------------------------------
# lift to the revolute


def test_revolution_classify_cuspidal_edge():
    g = uniform_grid(0.2, PI - 0.2, 161)
    out = revolution_singularity_classify(pseudo_sphere(g), PI / 2)
    assert out.label == "cusp_3_2"
    assert "lift" in out.diagnostics
    assert out.diagnostics["x_t0"] > 0.9


def test_revolution_classify_cone():
    s = 1.0 / np.sqrt(2.0)
    g = uniform_grid(-0.5, 0.5, 41)
    cone = legendre_from_expressions("t", "t", f"{s}", f"{-s}", g)
    out = revolution_singularity_classify(cone, 0.0)
    assert out.label == "cone_type"
    assert "cone" in out.diagnostics


def test_revolution_classify_axis_degenerate():
    g = uniform_grid(-0.5, 0.5, 41)
    c = legendre_from_expressions("t^2", "t", "-1/sqrt(1+4*t^2)",
                                  "2*t/sqrt(1+4*t^2)", g)
    out = revolution_singularity_classify(c, 0.0)
    assert out.label == "axis_degenerate"
    assert out.diagnostics["normal_form"] == "(+-t^2, t)"


def test_revolution_classify_degenerate_line():
    # profile on the axis with x identically zero: no finite vanishing
    # order, so no normal form is certified
    g = uniform_grid(-0.5, 0.5, 41)
    line = legendre_from_expressions("0", "t", "1", "0", g)
    out = revolution_singularity_classify(line, 0.0)
    assert out.label == "unresolved"
