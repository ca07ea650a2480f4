"""Expression parser and evaluator.

The oracle for values and derivatives is sympy; the syntax tests pin the
error type and the reported byte offset.
"""

import itertools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from revfront import export, expr, jets, singular
from revfront.expr import (BinOp, Call, ExprSyntaxError, Neg, Num,
                           UnknownIdentifierError, Var, parse)
from revfront.jets import DomainError

from oracles import RecursiveParser, laurent_coefficients, to_source

NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]


def as_sympy(src):
    t = sp.Symbol("t")
    return sp.sympify(src.replace("^", "**"), locals={"t": t}), t


CASES = [
    "t",
    "-t + 2",
    "3*t^2 - 4*t + 1",
    "sin(t)*cos(2*t)",
    "cot(t)",
    "exp(-t^2/2)",
    "log(t + 3)",
    "sqrt(t^2 + 1)",
    "atan(t/2)",
    "sinh(t) - cosh(t)",
    "1/(2 + sin(t))",
    "-(t + 1)*(t - 1)",
]


@pytest.mark.parametrize("src", CASES)
def test_values_match_sympy(src):
    f, t = as_sympy(src)
    ts = np.linspace(0.3, 2.1, 7)
    want = np.array([float(f.subs(t, v)) for v in ts])
    got = expr.eval_values(src, ts)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("src", CASES)
def test_jets_match_sympy(src):
    f, t = as_sympy(src)
    t0 = 0.8
    j = expr.eval_jet(src, t0)
    d = f
    for k in range(6):
        want = float(d.subs(t, t0))
        np.testing.assert_allclose(j.derivative(k), want,
                                   rtol=1e-9, atol=1e-10)
        d = sp.diff(d, t)


def test_power_is_left_associative():
    # the grammar is uniformly left-associative: t^2^3 = (t^2)^3 = t^6
    assert abs(expr.eval_values("t^2^3", 1.5) - 1.5**6) < 1e-12


def test_unary_minus_binds_looser_than_power():
    # -t^2 must be -(t^2)
    assert expr.eval_values("-t^2", 3.0) == -9.0


def test_to_source_round_trip():
    for src in CASES:
        e = parse(src)
        again = parse(to_source(e))
        ts = np.linspace(0.5, 1.5, 5)
        np.testing.assert_allclose(expr.eval_values(e, ts),
                                   expr.eval_values(again, ts), rtol=1e-15)


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("sin(t")
    assert "offset" in str(ei.value)
    with pytest.raises(ExprSyntaxError):
        parse("2 +")
    with pytest.raises(ExprSyntaxError):
        parse("(t))(")
    with pytest.raises(ExprSyntaxError):
        parse("")


@pytest.mark.parametrize("src, offset", [
    ("\u0663*t", 0),       # an Arabic-Indic three was 3 before
    ("\uff54", 0),         # a fullwidth t
    ("t\u00b72", 1),       # a middle dot between t and 2
    ("1 + \u2003t", 4),    # an em space
])
def test_non_ascii_characters_are_refused(src, offset):
    with pytest.raises(ExprSyntaxError, match="unexpected character") as ei:
        parse(src)
    assert ei.value.offset == offset
    # every character before the offending one is ASCII, so the offset is
    # the byte offset that the message names
    assert len(src[:offset].encode()) == offset
    assert "(byte offset %d)" % offset in str(ei.value)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("u + 1")
    with pytest.raises(UnknownIdentifierError):
        parse("foo(t)")
    with pytest.raises(UnknownIdentifierError):
        # no symbolic constants; write the numeric value instead
        parse("pi*t")


def test_eval_any_order():
    j = expr.eval_jet_any_order("sin(t)", 0.0, 9)
    assert j.order == 9
    # ninth derivative of sin at 0 is cos(0) = 1
    np.testing.assert_allclose(j.derivative(9), 1.0, rtol=1e-12)


def test_division_guard_raises_domain_error():
    with pytest.raises(DomainError):
        expr.eval_values("1/t", np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        expr.eval_jet("cot(t)", 0.0)


def test_scientific_notation_literals():
    assert expr.eval_values("2.5e-3 + 1E2", 0.0) == pytest.approx(100.0025)


def test_t_dependent_exponent_rejected_on_both_paths():
    # an exponent that varies between samples has no single value to use
    ts = np.array([1.0, 2.0, 3.0])
    for evaluate in (expr.eval_values, expr.eval_jet):
        with pytest.raises(DomainError, match="exponent must be a single constant"):
            evaluate("2^t", ts)
    np.testing.assert_array_equal(expr.eval_values("t^2", ts), ts ** 2)


@pytest.mark.parametrize("t", [2.0, [2.0], np.array([0.5])])
def test_t_dependent_exponent_rejected_at_one_sample(t):
    # one sample cannot show by its value that the exponent varies; the
    # first derivative of the exponent does, as on the jet path
    for evaluate in (expr.eval_values, expr.eval_jet):
        with pytest.raises(DomainError, match="exponent must not depend on t"):
            evaluate("2^t", t)
        with pytest.raises(DomainError, match="exponent must not depend on t"):
            evaluate("t^(t^2 + 1)", t)
    # equal values and a zero slope: both paths accept it
    assert expr.eval_values("2^(t - t)", t) == expr.eval_jet("2^(t - t)", t).value
    np.testing.assert_array_equal(expr.eval_values("t^2", t), np.square(t))


@pytest.mark.parametrize("src", ["2^(t^2)", "2^(t^3 + 1)", "t^(1 + t^5)"])
def test_exponent_with_vanishing_slope_rejected_at_one_sample(src):
    # at t = 0 the first derivative of these exponents is zero; a higher
    # one up to jets.ORDER_CAP is not, and both paths test all of them
    for evaluate in (expr.eval_values, expr.eval_jet):
        with pytest.raises(expr.ExponentError,
                           match="exponent must not depend on t"):
            evaluate(src, 0.0)


def test_exponent_rejections_are_domain_errors():
    with pytest.raises(DomainError):
        expr.eval_values("2^(t^2)", np.array([0.0]))
    with pytest.raises(expr.ExponentError):
        expr.eval_values("2^t", np.array([1.0, 2.0]))
    # other domain errors are not exponent errors
    with pytest.raises(DomainError) as ei:
        expr.eval_values("log(t)", 0.0)
    assert not isinstance(ei.value, expr.ExponentError)


@pytest.mark.parametrize("src, match", [
    ("t^1e400", "not finite"),
    ("t^(-1e400)", "not finite"),
    # NaN on every sample: NaN != NaN, yet it is no unequal constant
    ("t^(1e400 - 1e400)", "not finite"),
    ("t^1025", "exceeds 1024"),
    ("t^(-1025)", "exceeds 1024"),
    ("t^1e7", "exceeds 1024"),
    ("2^100000", "exceeds 1024"),
])
def test_unbounded_exponents_rejected_on_both_paths(src, match):
    # an integer power is a chain of jet products, so its size is bounded;
    # a non-finite exponent is no power at all
    for evaluate in (expr.eval_values, expr.eval_jet):
        for t in (0.5, np.array([0.5, 0.75])):
            with pytest.raises(expr.ExponentError, match=match), \
                    np.errstate(invalid="ignore"):
                evaluate(src, t)


def test_exponents_up_to_the_cap_are_powers():
    assert jets.EXPONENT_CAP == 1024
    t = np.array([0.999, 1.0, 1.001])
    for p in (1024, -1024):
        v = expr.eval_values("t^(%d)" % p, t)
        np.testing.assert_array_equal(v, t ** p)
        j = expr.eval_jet("t^(%d)" % p, t)
        np.testing.assert_allclose(j.value, t ** float(p), rtol=1e-12)
        np.testing.assert_allclose(j.derivative(1), p * t ** float(p - 1),
                                   rtol=1e-12)
    # a large non-integer exponent goes through exp and log
    np.testing.assert_allclose(expr.eval_values("t^2000.5", t),
                               t ** 2000.5, rtol=1e-15)


def test_negative_integer_power_has_the_pole_test_of_division():
    # t^(-k) is 1/t^k on both paths, so a (near-)zero base is a pole
    for src, pole in [("t^(-1)", 0.0), ("t^(-2)", 1e-14), ("(t - 1)^(-3)", 1.0)]:
        for evaluate in (expr.eval_values, expr.eval_jet):
            with pytest.raises(DomainError, match="division by"):
                evaluate(src, np.array([2.0, pole]))
            with pytest.raises(DomainError, match="division by"):
                evaluate(src, pole)
    np.testing.assert_array_equal(expr.eval_values("t^(-2)", [0.5, 2.0]),
                                  [4.0, 0.25])


def test_jet_exponent_tested_to_the_order_cap_at_every_order():
    # an order-0 jet has no slope of its own to show that 2^t depends on t
    for order in range(jets.ORDER_CAP + 1):
        with pytest.raises(expr.ExponentError,
                           match="exponent must not depend on t"):
            expr.eval_jet("2^t", 0.5, order)
        with pytest.raises(expr.ExponentError,
                           match="exponent must not depend on t"):
            expr.eval_jet("2^(t^3 + 1)", 0.0, order)
    # above the cap the jet's own coefficients are tested
    with pytest.raises(expr.ExponentError, match="must not depend on t"):
        expr.eval_jet_any_order("2^(t^7 + 1)", 0.0, 9)
    assert expr.eval_jet("2^(t - t)", 0.5, 0).value == 1.0


def test_exponent_takes_its_value_from_the_value_path_on_both():
    # 4^1.5 is 8.0 by numpy's pow and 8 - 2e-15 by exp(1.5 log 4): each
    # path taking its own would let values give t^8 where jets refuse
    # a non-integer power of t < 0
    want = (-1.5) ** 8
    assert expr.eval_values("t^(4^1.5)", -1.5) == want
    assert expr.eval_jet("t^(4^1.5)", -1.5, 2).value == want
    # so a constant exponent's derivatives are never taken (none at 0 here)
    np.testing.assert_array_equal(expr.eval_jet("t^sqrt(0)", 0.5, 3).coeffs,
                                  [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("order", [-1, -3])
def test_any_order_jet_rejects_negative_order(order):
    with pytest.raises(ValueError, match=f"order .*got {order}"):
        expr.eval_jet_any_order("t", 0.5, order)


@pytest.mark.parametrize("src, t", [
    ("log(t)", 1e-300), ("sqrt(t)", 1e-300),
    ("log(t)", np.array([0.5, 1e-300]))])
def test_overflowing_derivative_refused_without_a_warning(src, t):
    # no errstate here: numpy must not warn before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="derivative overflow"):
            expr.eval_jet(src, t, 5)


@pytest.mark.parametrize("src", ["log(t)", "sqrt(t)", "log(log(t))"])
def test_overflowing_derivative_refused(src):
    # at t = 1e-300 the second derivatives are infinite; Horner's rule would
    # multiply them by 0 and leave a NaN jet, with no error from log(log(t))
    with np.errstate(divide="ignore", over="ignore"):
        for order in range(2, jets.ORDER_CAP + 1):
            with pytest.raises(DomainError, match="derivative overflow"):
                expr.eval_jet(src, 1e-300, order)
        assert np.isfinite(expr.eval_jet("log(t)", 1e-300, 1).coeffs).all()


# -- values and jets on random trees ----------------------------------------

_LEAVES = st.one_of(st.just(Var()),
                    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Num))


def _branches(sub):
    exponents = st.one_of(
        st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.5, 2.0, 3.0]).map(Num), sub)
    return st.one_of(
        st.builds(Neg, sub),
        st.builds(Call, st.sampled_from(sorted(expr.FUNCTIONS)), sub),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(BinOp, st.just("^"), sub, exponents))


TREES = st.recursive(_LEAVES, _branches, max_leaves=8)
_POINTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, np.pi / 2]),
                    st.floats(-3.0, 3.0))
SAMPLES = st.one_of(_POINTS, st.lists(_POINTS, min_size=1, max_size=4)
                    .map(np.array))


def _outcome(evaluate):
    try:
        return evaluate()
    except DomainError as exc:
        return exc


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(TREES, SAMPLES)
def test_values_and_jets_share_every_rule(e, t):
    with np.errstate(all="ignore"):
        values = _outcome(lambda: expr.eval_values(e, t))
        jet = _outcome(lambda: expr.eval_jet(e, t, 0))
        if isinstance(values, Exception) or isinstance(jet, Exception):
            assert type(values) is type(jet), (to_source(e), t, values, jet)
        elif "^" not in to_source(e):
            # the same float operations; ^ rounds differently (numpy's pow
            # against products or exp(p log x)), and a tree as ill-conditioned
            # as sin(27^27) turns that last bit into any difference at all
            np.testing.assert_array_equal(jet.value, values)
        if isinstance(values, Exception):
            for order in range(1, jets.ORDER_CAP + 1):
                assert isinstance(_outcome(lambda: expr.eval_jet(e, t, order)),
                                  Exception), (to_source(e), t, order)


# -- the parser against the recursive descent it replaced ---------------------

# the last three are tokenizer errors, which win over any parser error
PARSER_TOKENS = st.sampled_from(["t", "2", "1e-3", "sin", "foo", "(", ")",
                                 "+", "-", "*", "/", "^", " ",
                                 "1.2.3", "#", "\u0663"])


def _parsed(parser, src):
    try:
        return parser(src)
    except (ExprSyntaxError, UnknownIdentifierError) as exc:
        return (type(exc), str(exc), exc.offset)


@settings(max_examples=1500, deadline=None, phases=NO_SHRINK)
@given(st.one_of(st.lists(PARSER_TOKENS, max_size=16).map("".join),
                 TREES.map(to_source)))
def test_parser_matches_recursive_descent(src):
    # an equal tree, or the same error class, message and offset
    assert _parsed(parse, src) == \
        _parsed(lambda s: RecursiveParser(s).parse(), src), src


# -- scalar bases (Python floats) against array bases (numpy rows) ----------

def _bits(a):
    """Bytes of a float array with every NaN made the same: which
    operand's NaN a sum of two NaNs keeps is not a property of the
    formula (see test_jet_passes)."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


@settings(max_examples=1000, deadline=None, phases=NO_SHRINK)
@given(TREES, st.floats(-3.0, 3.0), st.integers(0, jets.ORDER_CAP))
def test_scalar_jet_is_a_column_of_the_array_jet(e, t0, order):
    with np.errstate(all="ignore"):
        scalar = _outcome(lambda: expr.eval_jet(e, t0, order))
        array = _outcome(lambda: expr.eval_jet(e, np.array([t0, t0]), order))
    if isinstance(scalar, Exception) or isinstance(array, Exception):
        assert type(scalar) is type(array), (to_source(e), t0, scalar, array)
    else:
        assert _bits(scalar.coeffs) == _bits(array.coeffs[:, 0]), \
            (to_source(e), t0)
        assert all(type(c) is float for c in scalar.rows)


@settings(max_examples=1000, deadline=None, phases=NO_SHRINK)
@given(TREES, st.floats(-3.0, 3.0), st.integers(0, 8))
# literals beside -t, whose coefficients above 1 are -0.0
@example(BinOp("-", Neg(Var()), Num(2.0)), 0.5, 3)
@example(BinOp("-", Num(2.0), Neg(Var())), 0.5, 3)
@example(BinOp("+", Num(2.0), Neg(Var())), 0.5, 3)
@example(BinOp("*", Num(2.0), Neg(Var())), 0.5, 3)
@example(BinOp("^", BinOp("-", Neg(Var()), Num(1.0)), Num(-2.0)), 0.5, 3)
# a product with a constant jet would give c_3 = 0.0 here, not -0.0
@example(BinOp("*", Num(2.0),
              Neg(BinOp("-", BinOp("*", Var(), Var()), Var()))), 0.5, 3)
def test_valuation_walk_is_the_jet_walk_where_nothing_is_stripped(e, t0,
                                                                   order):
    stripped = []

    def recording(rows, tol):
        stripped.append(vanishing(rows, tol))
        return stripped[-1]

    vanishing = jets._vanishing
    with np.errstate(all="ignore"):
        with mock.patch.object(jets, "_vanishing", recording):
            laurent = _outcome(
                lambda: expr.eval_laurent(e, t0, order).taylor())
        if any(stripped):
            return
        jet = _outcome(lambda: expr.eval_jet_any_order(e, t0, order))
    if isinstance(laurent, Exception) or isinstance(jet, Exception):
        assert type(laurent) is type(jet), (to_source(e), t0, laurent, jet)
    else:
        assert _bits(laurent.coeffs) == _bits(jet.coeffs), (to_source(e), t0)


@pytest.mark.parametrize("src, t0", [
    ("-2/(1.3*t)^2", 0), ("-(t^2+4*t+2)/t^2", 0), ("1/t", 0),
    # sin(t)^2 is 1.5e-32 - 2.4e-16 s + ... at the float pi, not s^2
    ("1/sin(t)^2", sp.pi),
    # coefficients that grow to 27^24/24! or 4^24 set no scale for c_0,
    # nor does a small one: 1e-11 t^2 is a double zero
    ("1/exp(27*t)", 0), ("1/sqrt(t+0.25)", 0), ("-2/(t^2*exp(30*t))", 0),
    ("1/(1e-11*t^2)", 0), ("sin(t)/t", 0)])
def test_laurent_coefficients_match_sympy(src, t0):
    v, want = laurent_coefficients(src, t0, 10)
    f = expr.eval_laurent(src, float(t0), 24)
    assert f.valuation() == v
    got = f.jet.rows[v - f.shift:][:10]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
    if v >= 0:
        assert f.taylor().rows[v:v + 10] == got
    else:
        with pytest.raises(DomainError, match="no Taylor jet at a pole"):
            f.taylor()


def test_power_of_a_scalar_rounds_as_the_array_power():
    # np.float64(2.0) ** log(2) takes the C library's pow, an array base
    # numpy's ufunc power, one ulp apart; the exponent 2.0^log(2.0) is
    # evaluated on the value path, so the scalar jet used to differ from
    # column 0 of the array jet in its last bit
    src, t0 = "2.0^0.5^(2.0^log(2.0))", -2.00001
    scalar = expr.eval_jet(src, t0)
    array = expr.eval_jet(src, np.array([t0, t0]))
    assert _bits(scalar.coeffs) == _bits(array.coeffs[:, 0])
    v = expr.eval_values("t^0.5", 0.25)
    assert type(v) is np.float64 and v == 0.5


# -- a minus sign on a literal makes a literal --------------------------------

# magnitudes c of a literal
_MAGNITUDES = st.one_of(st.sampled_from([0.0, 0.5, 2.0, 1e300, np.inf]),
                        st.floats(0.0, 10.0))
# trees that are no literal, nor a minus sign on one
_OPERANDS = TREES.filter(lambda e: not isinstance(
    e.operand if isinstance(e, Neg) else e, Num))


def _jet_bytes(evaluate):
    """The coefficients' bytes (and a Laurent jet's shift), or the class
    of the DomainError raised."""
    try:
        with np.errstate(all="ignore"):
            f = evaluate()
    except DomainError as exc:
        return type(exc)
    if isinstance(f, jets.Laurent):
        return f.jet.coeffs.tobytes(), f.shift
    return f.coeffs.tobytes()


def _as_tree_and_text(e):
    """e, and its source text, whose literals are Slots, where that text
    parses back to e: inf has no literal, and t^-2.0 is refused."""
    src = to_source(e)
    try:
        return [e, src] if parse(src) == e else [e]
    except (ExprSyntaxError, UnknownIdentifierError):
        return [e]


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(_OPERANDS, _MAGNITUDES, SAMPLES, st.integers(0, jets.ORDER_CAP))
def test_sums_with_a_negated_literal_keep_the_constant_jet_bits(e, c, t,
                                                                order):
    # the four forms against the constant jet -c that they used to add
    minus_c = Neg(Num(c))
    forms = {
        BinOp("+", e, minus_c): lambda x, k: x + -k,
        BinOp("+", minus_c, e): lambda x, k: -k + x,
        BinOp("-", e, minus_c): lambda x, k: x - -k,
        BinOp("-", minus_c, e): lambda x, k: -k - x,
    }
    for form, written_out in forms.items():
        want = _jet_bytes(lambda: written_out(expr.eval_jet(e, t, order),
                                              jets.constant(c, order, t)))
        for f in _as_tree_and_text(form):
            assert _jet_bytes(lambda: expr.eval_jet(f, t, order)) == want, \
                (to_source(form), t, order)


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(_OPERANDS, _MAGNITUDES, SAMPLES, st.integers(0, jets.ORDER_CAP))
@example(Var(), 1.0, -1.0, 3)
def test_products_take_a_negated_literal_as_a_float(e, c, t, order):
    # Taylor at t, Laurent about t's first sample: the operand's jet times
    # the float -c, so each exact zero takes the sign of (-c) * 0.0
    t0 = float(np.ravel(t)[0])
    for evaluate, at in ((expr.eval_jet, t), (expr.eval_laurent, t0)):
        want = _jet_bytes(lambda: evaluate(e, at, order) * -c)
        for form in (BinOp("*", Neg(Num(c)), e), BinOp("*", e, Neg(Num(c)))):
            for f in _as_tree_and_text(form):
                assert _jet_bytes(lambda: evaluate(f, at, order)) == want, \
                    (evaluate.__name__, to_source(form), at, order)


def test_negated_literal_product_signs_every_zero():
    # each exact zero is -2.0 * 0.0, on either side of 0.5: a constant
    # jet's product would take the sign of its -0.0 times t - 0.5 there
    j = expr.eval_jet("(-2)*(t-0.5)^2", np.array([0.25, 0.75]))
    assert (j.coeffs[3:] == 0.0).all() and np.signbit(j.coeffs[3:]).all()


def _record(label):
    return export.json_text(export.classification_record(label, 0.0))


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(TREES, TREES, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       st.integers(0, 2), st.sampled_from([2, 5]))
def test_node_labels_read_through_at_match_scalar_jets(
        ell_e, beta_e, ts, node, order):
    # the labellers read a node of an array jet through Jet.at(i), and a
    # scalar jet at that node, as they read the node's column of the
    # array: the same derivative bits, orders, labels and diagnostics
    t = np.array(ts)
    i = node % t.size
    with np.errstate(all="ignore"):
        arrays = _outcome(lambda: (expr.eval_jet(ell_e, t, order),
                                   expr.eval_jet(beta_e, t, order)))
        if isinstance(arrays, Exception):
            return
        column = [jets.Jet(t[i:i + 1], j.coeffs[:, i:i + 1]) for j in arrays]
        for ell, beta in ([j.at(i) for j in arrays],
                          [expr.eval_jet(e, float(t[i]), order)
                           for e in (ell_e, beta_e)]):
            for got, want in ((ell, column[0]), (beta, column[1])):
                assert _bits(singular._derivs(got, 5)) == \
                    _bits(singular._derivs(want, 5))
                assert singular.ord_of(got) == singular.ord_of(want)
            assert _record(singular.cusp_classify_curvature(ell, beta)) == \
                _record(singular.cusp_classify_curvature(*column))
            assert _record(singular.constant_mean_cusp(ell, beta)) == \
                _record(singular.constant_mean_cusp(*column))


# -- source text through the shape cache ------------------------------------

def _forget_shapes():
    expr._shaped.cache_clear()
    expr._SHAPES.clear()


def _text_and_tree(src, t, orders=range(jets.ORDER_CAP + 1)):
    """Values and jets of src evaluated as text (through its template) and
    as parse(src): each an array's bits, or an error's class and message."""
    def outcome(evaluate):
        try:
            with np.errstate(all="ignore"):
                return _bits(evaluate())
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)

    def results(e):
        return ([outcome(lambda: expr.eval_values(e, t))]
                + [outcome(lambda: expr.eval_jet(e, t, k).coeffs)
                   for k in orders])

    try:
        tree = parse(src)
    except (ExprSyntaxError, UnknownIdentifierError) as exc:
        want = (type(exc), str(exc))
        return [outcome(lambda: expr.eval_values(src, t)),
                outcome(lambda: expr.eval_jet(src, t, 0))], [want, want]
    return results(src), results(tree)


# a literal times a tree, where jet mode folds the literal in as a float:
# 0.0 * g keeps the sign of each coefficient's zero only if it folds
_FOLDED = TREES.map(lambda e: BinOp("*", Num(0.0), e))
# texts in place of a source's literals, some of them no literal that
# float() takes; the text between the literals stays
_NUMBER = re.compile(r"([0-9.]+(?:[eE][+-]?[0-9]+)?)")
_LITERAL_TEXTS = st.lists(st.sampled_from(["0", "0.0", "2", "2.5", ".5", "00",
                                           "1e300", "1e999", "1.2.3", "."]),
                          min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(st.one_of(TREES, _FOLDED), _LITERAL_TEXTS, SAMPLES, st.booleans())
def test_text_evaluates_as_its_parsed_tree(e, texts, t, sibling_first):
    # the sibling has the shape of the tree's source, so whichever comes
    # second is evaluated through the template that the first one made
    src = to_source(e)
    pieces = _NUMBER.split(src)
    pieces[1::2] = itertools.islice(itertools.cycle(texts), len(pieces) // 2)
    sibling = "".join(pieces)
    order = (sibling, src) if sibling_first else (src, sibling)
    for text in order:
        got, want = _text_and_tree(text, t)
        assert got == want, (order, text, t)


@pytest.mark.parametrize("pair", [
    ("t^2", "t^2.5"),             # an integer or a non-integer exponent
    ("t^3", "t^1e999"),           # a finite or a non-finite exponent
    ("3*sin(t)", "0*sin(t)"),     # jet mode folds a literal as a float
    ("(-1)*t", "(-0.0)*t"),       # a minus sign on a literal makes one
])
@pytest.mark.parametrize("t", [-1.0, np.array([-1.0, 0.5, 2.0])])
def test_same_shape_sources_keep_their_own_literals(pair, t):
    for first, second in (pair, pair[::-1]):
        _forget_shapes()
        for src in (first, second):
            got, want = _text_and_tree(src, t)
            assert got == want, (first, second, src)
        assert len(expr._SHAPES) == 1


def test_shapes_keep_token_boundaries_and_never_errors():
    _forget_shapes()
    for src in ("sin(t)", "1.5*t", "2*t"):
        expr.eval_values(src, 0.5)
    kept = list(expr._SHAPES)
    # the text of s in(t) joins to sin(t); its tokens do not
    with pytest.raises(UnknownIdentifierError) as ei:
        expr.eval_values("s in(t)", 0.5)
    assert ei.value.offset == 0
    # *t is the text of 2*t with the literal left out
    with pytest.raises(ExprSyntaxError, match="unexpected") as ei:
        expr.eval_jet("*t", 0.5)
    assert ei.value.offset == 0
    # 1.2.3*t has the tokens of 1.5*t, but one float() refuses
    for evaluate in (expr.eval_values, expr.eval_jet):
        with pytest.raises(ExprSyntaxError, match="bad numeric literal"):
            evaluate("1.2.3*t", 0.5)
    # the same shape fails at each source's own offset
    for src, offset in (("1 + * t", 4), ("1  +  *  t", 6)):
        with pytest.raises(ExprSyntaxError) as ei:
            expr.eval_jet(src, 0.5)
        assert ei.value.offset == offset
    assert list(expr._SHAPES) == kept


def test_shape_cache_is_bounded():
    _forget_shapes()
    sources = ["%s(%s(%s(%s(%s(%s(%s(%s(t))))))))" % calls
               for calls in itertools.product(("sin", "cos", "atan"), repeat=8)]
    for src in sources[:5000]:
        expr.eval_values(src, 0.5)
    assert len(expr._SHAPES) == 256
    assert expr._shaped.cache_info().currsize == 256
    assert all(isinstance(v, expr.Expr) for v in expr._SHAPES.values())
    # the most recent are kept
    assert expr._shaped(sources[4999])[0] is list(expr._SHAPES.values())[-1]
