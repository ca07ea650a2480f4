"""The rewritten jet, parser and labelling passes against the code they
replace.

Each reference below is the earlier implementation, kept here as the
oracle: the double-loop jet product and the quotient loop on numpy
coefficients, the per-derivative reads of a node jet in singular, and
the character loop of the tokenizer, narrowed to ASCII as the grammar
is.  The rewrites must give the same bits and raise the same errors
with the same messages and offsets.  The
Taylor recurrences of the elementary functions change the rounding, so
they are held within a stated bound of the earlier composition by
Horner's rule, one constant jet per step, from closed-form derivatives.
Bits are compared with tobytes, so signed zeros and infinities count,
after every NaN is set to one NaN: which operand's NaN a sum of two NaNs
keeps is not a property of the formula.  numpy keeps the first
operand's in the vector body of a loop and the second's in its scalar
tail, so even the reference product gives the same node a NaN of another
sign when that node moves from the body to the tail of the array.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from revfront import export, expr, jets, singular
from revfront.expr import ExprSyntaxError
from revfront.jets import Jet
from revfront.legendre import (CurvaturePair, CurveJet, LegendreCurve,
                               NormalJet)
from revfront.singular import CuspLabel

NO_SHRINK = [ph for ph in Phase if ph is not Phase.shrink]
SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
SHAPES = [(), (1,), (33,), (257,)]


def bits(a):
    """Bytes of a float array (or list) with every NaN made the same."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def reference_mul(x, y):
    if not isinstance(y, Jet):
        return Jet(x.t, x.coeffs * float(y))
    n = min(x.order, y.order)
    a, b = x.coeffs, y.coeffs
    out = np.empty((n + 1,) + x.t.shape)
    for k in range(n + 1):
        s = a[0] * b[k]
        for i in range(1, k + 1):
            s = s + a[i] * b[k - i]
        out[k] = s
    return Jet(x.t, out)


def reference_compose(g, dvals):
    n = g.order
    h = Jet(g.t, np.concatenate([np.zeros((1,) + g.t.shape), g.coeffs[1:]]))
    result = jets.constant(dvals[n] / math.factorial(n), n, g.t)
    for m in range(n - 1, -1, -1):
        result = (reference_mul(result, h)
                  + jets.constant(dvals[m] / math.factorial(m), n, g.t))
    return result


def reference_derivs(j, upto):
    top = min(upto, j.order)
    return [float(np.atleast_1d(j.derivative(k))[0]) for k in range(top + 1)]


def reference_classify_derivatives(cj, t0, tol):
    """cusp_classify_derivatives on 2-vectors of numpy derivatives."""
    i = int(np.argmin(np.abs(np.asarray(cj.t) - t0)))
    dx = reference_derivs(cj.x.at(i), 5)
    dz = reference_derivs(cj.z.at(i), 5)
    top = min(len(dx), len(dz)) - 1
    d = {k: np.array([dx[k], dz[k]]) for k in range(1, top + 1)}
    scale = max(1.0, max(np.max(np.abs(v)) for v in d.values()))
    thr = tol * scale
    thr2 = tol * max(1.0, scale * scale)
    diag = {"t0": float(cj.t[i]), "node": i, "tol": tol,
            "threshold": thr, "det_threshold": thr2, "criterion": "derivative"}
    if np.max(np.abs(d[1])) > thr:
        return CuspLabel("regular", diag)
    if top < 3:
        diag["note"] = "jet order too low for any cusp test"
        return CuspLabel("unresolved", diag)

    def det(u, v):
        return float(u[0] * v[1] - u[1] * v[0])

    if np.max(np.abs(d[2])) > thr:
        d23 = det(d[2], d[3])
        diag["det_d2_d3"] = d23
        if abs(d23) > thr2:
            return CuspLabel("cusp_3_2", diag)
        if top < 5:
            diag["note"] = "jet order too low for the 5/2 test"
            return CuspLabel("unresolved", diag)
        k = int(np.argmax(np.abs(d[2])))
        C = d[3][k] / d[2][k]
        resid = float(np.max(np.abs(d[3] - C * d[2])))
        diag["C"] = C
        diag["collinearity_residual"] = resid
        if resid <= tol * max(1.0, float(np.max(np.abs(d[3])))):
            q = det(d[2], 3.0 * d[5] - 10.0 * C * d[4])
            diag["det_52"] = q
            if abs(q) > thr2 * (1.0 + abs(C)):
                return CuspLabel("cusp_5_2", diag)
        return CuspLabel("unresolved", diag)
    if top < 4:
        diag["note"] = "jet order too low for the 4/3 test"
        return CuspLabel("unresolved", diag)
    d34 = det(d[3], d[4])
    diag["det_d3_d4"] = d34
    if abs(d34) > thr2:
        return CuspLabel("cusp_4_3", diag)
    if top < 5:
        diag["note"] = "jet order too low for the 5/3 test"
        return CuspLabel("unresolved", diag)
    d35 = det(d[3], d[5])
    diag["det_d3_d5"] = d35
    if abs(d35) > thr2:
        return CuspLabel("cusp_5_3", diag)
    return CuspLabel("unresolved", diag)


_OPS = set("+-*/^()")


def _ascii(test):
    """str.isspace, isdigit, isalpha or isalnum, true of ASCII only: the
    grammar takes no other character."""
    return lambda ch: ch.isascii() and test(ch)


_space, _digit, _alpha, _alnum = map(_ascii, (str.isspace, str.isdigit,
                                              str.isalpha, str.isalnum))


def reference_tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if _space(ch):
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if _digit(ch) or ch == ".":
            j = i
            while j < n and (_digit(src[j]) or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and _digit(src[k]):
                    j = k
                    while j < n and _digit(src[j]):
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError("bad numeric literal %r" % text, i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if _alpha(ch) or ch == "_":
            j = i
            while j < n and (_alnum(src[j]) or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    tokens.append(("eof", None, n))
    return tokens


def random_coeffs(rng, order, shape, special_rate):
    """Coefficients over seven decades, some replaced by 0.0, -0.0, NaN
    or +-inf."""
    c = rng.normal(size=(order + 1,) + shape) * 10.0 ** rng.integers(
        -3, 4, size=(order + 1,) + shape)
    hit = rng.random(c.shape) < special_rate
    c[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return c


def random_jet(rng, order, shape, special_rate):
    t = rng.normal(size=shape) if shape else float(rng.normal())
    return Jet(t, random_coeffs(rng, order, shape, special_rate))


jet_cases = st.tuples(st.integers(0, 2 ** 32 - 1), st.sampled_from(SHAPES),
                      st.integers(0, 14), st.integers(0, 14),
                      st.sampled_from([0.0, 0.05, 0.3]))


@settings(max_examples=400, deadline=None, phases=NO_SHRINK)
@given(jet_cases)
def test_product_matches_double_loop(case):
    seed, shape, order_a, order_b, rate = case
    rng = np.random.default_rng(seed)
    x = random_jet(rng, order_a, shape, rate)
    y = Jet(x.t, random_coeffs(rng, order_b, shape, rate))
    with np.errstate(all="ignore"):
        got, want = x * y, reference_mul(x, y)
    assert got.coeffs.shape == want.coeffs.shape
    assert bits(got.coeffs) == bits(want.coeffs)


def reference_div(x, y):
    """The quotient loop on numpy coefficient rows."""
    n = min(x.order, y.order)
    a, b = x.coeffs, y.coeffs
    out = np.empty((n + 1,) + x.t.shape)
    out[0] = jets.quotient(a[0], b[0], x.t)
    for k in range(1, n + 1):
        s = a[k].astype(float, copy=True)
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out[k] = s / b[0]
    return Jet(x.t, out)


def _jet_or_error(fn, *args):
    try:
        return bits(fn(*args).coeffs)
    except jets.DomainError as exc:
        return (type(exc), str(exc))


@settings(max_examples=400, deadline=None, phases=NO_SHRINK)
@given(jet_cases)
def test_quotient_matches_numpy_loop(case):
    seed, shape, order_a, order_b, rate = case
    rng = np.random.default_rng(seed)
    x = random_jet(rng, order_a, shape, rate)
    y = Jet(x.t, random_coeffs(rng, order_b, shape, rate))
    if rng.random() < 0.1:
        y.coeffs[0] = 0.0           # a pole, or 0/0 beside a NaN numerator
    with np.errstate(all="ignore"):
        assert _jet_or_error(Jet.__truediv__, x, y) == \
            _jet_or_error(reference_div, x, y)


def reference_dvals(name, x, n):
    """f^(m)(x) for m = 0..n, from closed forms."""
    periodic = {"exp": lambda: [np.exp(x)],
                "sin": lambda: [np.sin(x), np.cos(x), -np.sin(x), -np.cos(x)],
                "cos": lambda: [np.cos(x), -np.sin(x), -np.cos(x), np.sin(x)],
                "sinh": lambda: [np.sinh(x), np.cosh(x)],
                "cosh": lambda: [np.cosh(x), np.sinh(x)]}
    if name in periodic:
        cycle = periodic[name]()
        return [cycle[m % len(cycle)] for m in range(n + 1)]
    if name == "log":
        return [np.log(x)] + [(-1.0) ** (m - 1) * math.factorial(m - 1)
                              / x ** m for m in range(1, n + 1)]
    if name == "sqrt":
        out, c = [np.sqrt(x)], 0.5
        for m in range(1, n + 1):
            out.append(c * x ** (0.5 - m))
            c *= 0.5 - m
        return out
    # atan^(m)(x) = (-1)^(m-1) (m-1)! Im (x - i)^(-m), from partial fractions
    return [np.arctan(x)] + [
        (-1.0) ** (m - 1) * math.factorial(m - 1) * np.imag((x - 1j) ** (-m))
        for m in range(1, n + 1)]


# |recurrence - Horner| <= bound * S_k, with S_k Horner's rule on |f^(m)|
# and |g|: the size of the terms that make coefficient k.  Measured over
# 4000 draws per function the worst ratio is 4.3e-15 (sqrt); atan, whose
# recurrence runs on u = 1 + g^2, reached 1.9e-11 in 20000 draws, at
# orders 10-14 with |g_1| near 2e3, where Horner's rule erred by 3e-12.
RECURRENCE_BOUND = {"atan": 1e-10}
RECURRENCE_NAMES = ["exp", "sin", "cos", "sinh", "cosh", "log", "sqrt", "atan"]


@settings(max_examples=400, deadline=None, phases=NO_SHRINK)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(RECURRENCE_NAMES),
       st.sampled_from(SHAPES[:3]), st.integers(0, 14))
def test_recurrences_match_horner_composition(seed, name, shape, order):
    rng = np.random.default_rng(seed)
    c = random_coeffs(rng, order, shape, 0.0)
    if name in ("log", "sqrt"):
        c[0] = 10.0 ** rng.uniform(-3, 3, size=shape)
    elif name != "atan":
        c[0] = rng.uniform(-5, 5, size=shape)
    t = rng.normal(size=shape) if shape else float(rng.normal())
    g = Jet(t, c)
    dvals = reference_dvals(name, g.value, order)
    got = getattr(jets, name)(g)
    want = reference_compose(g, dvals)
    scale = reference_compose(Jet(t, np.abs(c)), [np.abs(d) for d in dvals])
    assert got.coeffs.shape == want.coeffs.shape
    # coefficient 0 is the value algebra's function itself
    assert bits(got.value) == bits(dvals[0])
    bound = RECURRENCE_BOUND.get(name, 1e-13)
    assert np.all(np.abs(got.coeffs - want.coeffs) <= bound * scale.coeffs)


@pytest.mark.parametrize("name", RECURRENCE_NAMES + ["tan", "cot"])
@pytest.mark.parametrize("t", [0.5, np.array([0.5, 1.5])])
def test_recurrences_leave_no_negative_zero(name, t):
    # a constant argument has zero derivatives: +0.0 above coefficient 0,
    # as Horner's rule and adding a constant jet leave them
    g = jets.constant(0.7, 5, t)
    g.coeffs[1:] = -0.0
    got = getattr(jets, name)(g)
    assert not np.signbit(got.coeffs[1:]).any()
    assert not got.coeffs[1:].any()


@pytest.mark.parametrize("name, x", [("exp", 700.0), ("sinh", 700.0),
                                     ("cosh", -700.0), ("sin", 0.3),
                                     ("log", 0.3), ("sqrt", 0.3),
                                     ("atan", 0.3)])
def test_recurrence_overflow_refused_without_a_warning(name, x):
    # a finite argument whose slope 1e70 overflows a coefficient; on an
    # array base only that node is named
    for t in (x, np.array([x, 0.2])):
        c = np.zeros((6,) + np.shape(t))
        c[0], c[1] = t, np.where(np.equal(t, x), 1e70, 1.0)
        g = Jet(t, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            name_t = r"derivative overflow at t=array\(\[%g\.?\]\)" % x
            with pytest.raises(jets.DomainError, match=name_t):
                getattr(jets, name)(g)


def test_infinite_argument_is_not_an_overflow():
    # the rule refuses only where the argument jet is finite
    g = Jet(0.3, [0.3, np.inf, 0.0])
    with np.errstate(all="ignore"):
        got = jets.sin(g)
    assert not np.isfinite(got.coeffs[1:]).all()


EXPRESSIONS = ["sin(t)*exp(t)", "log(2+t^2)/cos(t)", "sqrt(3+t)*atan(t)",
               "cosh(t)^3-sinh(t)^2", "tan(t/3)-cot(2+t/4)",
               "(1+t)^(-2)*exp(-t^2)", "2^0.5*t^7", "atan(sin(t))^2"]


@pytest.mark.parametrize("src", EXPRESSIONS)
@pytest.mark.parametrize("shape", SHAPES)
def test_expression_jets_match_reference_arithmetic(src, shape, monkeypatch):
    rng = np.random.default_rng(len(src) * 7 + len(shape))
    t = rng.uniform(-0.9, 0.9, size=shape) if shape else 0.37
    got = [expr.eval_jet_any_order(src, t, order).coeffs
           for order in (0, 3, 5, 14)]
    monkeypatch.setattr(Jet, "__mul__", reference_mul)
    want = [expr.eval_jet_any_order(src, t, order).coeffs
            for order in (0, 3, 5, 14)]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(jet_cases)
def test_node_derivatives_match_per_derivative_reads(case):
    seed, shape, order, upto, rate = case
    rng = np.random.default_rng(seed)
    j = random_jet(rng, order, shape, rate)
    nodes = [None] if not shape else sorted({0, shape[0] // 2, shape[0] - 1})
    for i in nodes:
        node = j if i is None else j.at(i)
        want = reference_derivs(node, upto)
        got = singular._derivs(j, upto, 0 if i is None else i)
        assert bits(got) == bits(want)
        assert all(type(v) is float for v in got)


def germ_coeffs(rng, order, nodes, rate):
    """Curve coefficients whose low derivatives vanish often, in both
    components together, so that every branch of the criteria runs."""
    c = random_coeffs(rng, order, (nodes,), rate)
    for k in range(1, order + 1):
        if rng.random() < 0.5:
            c[k] = rng.choice([0.0, -0.0, 1e-12], size=nodes)
    return c


@settings(max_examples=500, deadline=None, phases=NO_SHRINK)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 33]),
       st.integers(3, 5), st.sampled_from([0.0, 0.05, 0.3]))
def test_node_labels_match_numpy_criteria(seed, nodes, order, rate):
    # the criteria on Python floats keep np.max's NaN semantics
    rng = np.random.default_rng(seed)
    t = np.sort(rng.normal(size=nodes))
    x, z, a, b, ell, beta = (Jet(t, germ_coeffs(rng, order, nodes, rate))
                             for _ in range(6))
    c = LegendreCurve(CurveJet(t, x, z), NormalJet(t, a, b),
                      curvature=CurvaturePair(t, ell, beta))
    t0 = float(t[rng.integers(nodes)])
    tol = 1e-8
    with np.errstate(all="ignore"):
        got = singular.cusp_classify_derivatives(c, t0, tol)
        want = reference_classify_derivatives(c.curve, t0, tol)
        assert export.json_text(export.classification_record(got, t0)) == \
            export.json_text(export.classification_record(want, t0))
        got = singular.curve_cusp_by_curvature(c, t0, tol)
        i = int(np.argmin(np.abs(t - t0)))
        want = singular.cusp_classify_curvature(ell.at(i), beta.at(i), tol,
                                                t0=float(t[i]))
        want.diagnostics["node"] = i
        assert export.json_text(export.classification_record(got, t0)) == \
            export.json_text(export.classification_record(want, t0))


@pytest.mark.parametrize("d2z", [-1.0, 1.0, np.nan])
def test_tied_second_derivatives_pick_x(d2z):
    # |x''| = |z''|: np.argmax takes the first component, so C is read
    # from x; z's third derivative is off by 6e-14, so the choice shows
    t = np.array([0.0])
    x = Jet(t, np.array([[0.0], [0.0], [0.5], [0.25], [1.0], [2.0]]))
    z = Jet(t, np.array([[0.0], [0.0], [0.5 * d2z], [0.25 * d2z + 1e-14],
                         [3.0], [-1.0]]))
    c = CurveJet(t, x, z)
    with np.errstate(all="ignore"):
        got = singular.cusp_classify_derivatives(c, 0.0, 1e-8)
        want = reference_classify_derivatives(c, 0.0, 1e-8)
    assert export.json_text(export.classification_record(got, 0.0)) == \
        export.json_text(export.classification_record(want, 0.0))


def _outcome(fn, src):
    try:
        return fn(src)
    except ExprSyntaxError as exc:
        return (type(exc), str(exc), exc.offset)


TOKEN_CHARS = st.one_of(
    st.sampled_from(list("0123456789.eE+-*/^() \ttsincoxp_")),
    st.sampled_from(list("²⁵₁٣۵०①"
                         "½Ⅻ五éπ  \x1c"
                         "　１\U0001d7ce")),
    st.characters())


@settings(max_examples=1500, deadline=None, phases=NO_SHRINK)
@given(st.text(TOKEN_CHARS, max_size=24))
def test_tokenizer_matches_character_loop(src):
    assert _outcome(expr._tokenize, src) == _outcome(reference_tokenize, src)


@pytest.mark.parametrize("src", [
    "1²+t", "t²", "²", "1e²", "1e+²", "1.5e-3",
    "٣.5*t", "½", "Ⅻ", "五+1", "t + 1",
    "1.2.3", ".", "e5", "1e", "1e+", "3t", "sin (t)", "\U0001d7ce+t",
    "", "   ", "t ^ -1", "_x1", "#"])
def test_tokenizer_edge_cases(src):
    assert _outcome(expr._tokenize, src) == _outcome(reference_tokenize, src)


def test_parse_errors_are_raised_on_every_call():
    expr.parse.cache_clear()
    for _ in range(3):
        with pytest.raises(ExprSyntaxError, match="byte offset 2"):
            expr.parse("1+")
    assert expr.parse.cache_info().currsize == 0
    tree = expr.parse("sin(t)")
    assert expr.parse("sin(t)") is tree
