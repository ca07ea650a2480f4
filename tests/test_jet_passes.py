"""The rewritten jet, parser and labelling passes against the code they
replace.

Each reference below is the earlier implementation, kept here as the
oracle: the double-loop jet product on numpy coefficients, _compose with
one constant jet per Horner step, the per-derivative reads of a node jet
in singular, and the character loop of the tokenizer.  The rewrites must
give the same bits and raise the same errors with the same messages and
offsets.  Bits are compared with tobytes, so signed zeros and infinities
count, after every NaN is set to one NaN: which operand's NaN a sum of
two NaNs keeps is not a property of the formula.  numpy keeps the first
operand's in the vector body of a loop and the second's in its scalar
tail, so even the reference product gives the same node a NaN of another
sign when that node moves from the body to the tail of the array.
"""

import math

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


def reference_tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError("bad numeric literal %r" % text, i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
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


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(jet_cases)
def test_compose_matches_constant_jet_horner(case):
    seed, shape, order, _, rate = case
    rng = np.random.default_rng(seed)
    g = random_jet(rng, order, shape, rate)
    dvals = list(random_coeffs(rng, order, shape, rate))
    with np.errstate(all="ignore"):
        got, want = jets._compose(g, dvals), reference_compose(g, dvals)
    assert got.coeffs.shape == want.coeffs.shape
    assert bits(got.coeffs) == bits(want.coeffs)


def test_compose_keeps_positive_zeros():
    # a -0.0 product coefficient leaves Horner's rule as +0.0
    for t in (0.5, np.array([0.5, 1.5])):
        g = Jet(t, np.array([1.0, -0.0, 0.0, -0.0]) if np.ndim(t) == 0
                else np.array([[1.0, 1.0], [-0.0, 0.0], [0.0, -0.0],
                               [-0.0, -0.0]]))
        dvals = [np.ones_like(g.value), -np.ones_like(g.value),
                 np.zeros_like(g.value), -np.ones_like(g.value)]
        got = jets._compose(g, dvals)
        assert bits(got.coeffs) == bits(reference_compose(g, dvals).coeffs)
        assert not np.signbit(got.coeffs[1:]).any()


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
    monkeypatch.setattr(jets, "_compose", reference_compose)
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
