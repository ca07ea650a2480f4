"""Golden bytes of the classification records.

One fixed input per classify request kind and variant: a curvature pair
labelled by both criteria, a 257-node sweep, zero orders of a gauss
profile, mean-ratio jets, and revolution cusp and cone points.  Each
record is built as the classify requests build it (classification_record
inside json_text) and its sha256 is compared with the value recorded
before the jet product, the parser and the labelling were rewritten for
speed.  Any byte change in a label, a diagnostic or the JSON layout fails
here; a deliberate change must update the hash and say why.  pair-cusp_3_2
and sweep-cusp_5_2 were updated when the elementary jets moved to Taylor
recurrences: the derivative thresholds, scaled by the largest derivative,
moved by at most 8.1e-16 relative; no label or other value changed.

The three "-bench" cases write their negative numbers as the classify
bench does, (-1.1)+(-0.05)*(t-(-0.2)), so a minus sign stands on each
literal.  Their hashes were recorded when such a literal began to enter
a jet product as a float.  Before that, two of their records differed
in the sign of one exact zero each, and nowhere else: ell'' in
pair-cusp_4_3-bench and alpha's fourth derivative in mean-cusp_5_2-bench
were 0.0, and are -0.0, the sign of (-0.05) * 0.0 and (-0.07) * 0.0.
revolution-cusp_3_2-bench has the same bytes on both sides.
"""

import hashlib
import math

import numpy as np
import pytest

from revfront import export, expr, legendre, singular
from revfront.quadrature import uniform_grid

T0 = 0.3
S = "(t-0.3)"

PAIRS = {
    "cusp_3_2": ("1.25+0.1*%s" % S, "-1.5*sin(%s)" % S),
    "cusp_5_2": ("0.8*%s" % S, "1.2*%s+0.3*%s^2" % (S, S)),
    "cusp_4_3": ("-1.1+0.05*%s" % S, "0.9*%s^2" % S),
    "cusp_5_3": ("1.3*sin(%s)" % S, "-1.4*%s^2+0.02*%s^3" % (S, S)),
}

GAUSS = {
    (1, 1): ("1.3*%s^1*(1+0.4*%s)" % (S, S),
             "-0.7*sin(%s)^1+0.2*%s^2" % (S, S)),
    (2, 2): ("-0.9*%s^2*(1-0.6*%s)" % (S, S),
             "1.6*sin(%s)^2-0.5*%s^3" % (S, S)),
    (1, 2): ("0.6*%s^1*(1+0.25*%s)" % (S, S),
             "-1.2*sin(%s)^2+0.8*%s^3" % (S, S)),
}

MEAN_ALPHA = "0.2+1.1*%s+0.1*sin(%s)" % (S, S)
MEAN_BETA = {
    "cusp_5_2": "1.2*sin(%s)+0.8*%s^2" % (S, S),
    "cusp_5_3": "0.8*%s^2+0.3*%s^3" % (S, S),
}

# (x, z, a, b) with p = 0.7, q = -1.2 and the curve offset xs = 1.5
REVOLUTION = {
    "cusp_3_2": ("1.5+0.7*%s^2" % S, "-1.2*%s^3" % S,
                 "3.6*%s/sqrt(12.96*%s^2+1.96)" % (S, S),
                 "1.4/sqrt(12.96*%s^2+1.96)" % S),
    "cusp_4_3": ("1.5+0.7*%s^3" % S, "-1.2*%s^4" % S,
                 "4.8*%s/sqrt(23.04*%s^2+4.41)" % (S, S),
                 "2.1/sqrt(23.04*%s^2+4.41)" % S),
    "cone_type": ("0.7*%s" % S, "-1.2*%s+1.5" % S,
                  repr(-1.2 / math.hypot(0.7, 1.2)),
                  repr(-0.7 / math.hypot(0.7, 1.2))),
}


# negative numbers as the classify bench writes them: (-1.2)*..., with
# the point t0 = -0.2 written (t-(-0.2))
BT0 = -0.2
BS = "(t-(-0.2))"
BENCH_PAIR = ("(-1.1)+(-0.05)*%s" % BS, "0.9*%s^2" % BS)
BENCH_MEAN = ("(-0.4)+(-0.8)*%s+(-0.07)*sin(%s)" % (BS, BS),
              "1.3*sin(%s)+0.8*%s^2" % (BS, BS))
BENCH_REVOLUTION = ("1.5+(-0.7)*%s^2" % BS, "1.2*%s^3" % BS,
                    "(-3.6)*%s/sqrt(12.96*%s^2+1.96)" % (BS, BS),
                    "(-1.4)/sqrt(12.96*%s^2+1.96)" % BS)


def _profile(ell, beta, t0, half, nodes):
    grid = uniform_grid(t0 - half, t0 + half, nodes)
    return legendre.reconstruct_from_curvature(ell, beta, grid, theta0=0.2,
                                               x0=1.5, z0=-0.3)


def pair_text(inputs, t0=T0):
    c = _profile(*inputs, t0, 0.4, 33)
    d = singular.curve_cusp_by_derivatives(c, t0)
    k = singular.curve_cusp_by_curvature(c, t0)
    return [d.label, k.label], export.json_text(
        {"derivative": export.classification_record(d, t0),
         "curvature": export.classification_record(k, t0),
         "agree": d.label == k.label})


def sweep_text(inputs, t0=T0):
    c = _profile(*inputs, t0, 1.0, 257)
    labels, records = [], []
    for ti in np.asarray(c.t).tolist():
        d = singular.curve_cusp_by_derivatives(c, ti)
        k = singular.curve_cusp_by_curvature(c, ti)
        labels.append((d.label, k.label))
        records.append({"derivative": export.classification_record(d, ti),
                        "curvature": export.classification_record(k, ti)})
    return labels, export.json_text({"nodes": records})


def gauss_text(inputs, t0=T0):
    a, beta = inputs
    m = singular.ord_of(expr.eval_jet(a, t0))
    n = singular.ord_of(expr.eval_jet(beta, t0))
    lab = singular.constant_gauss_cusp(m, n)
    return [lab.label], export.json_text(
        {"orders": [m, n], "record": export.classification_record(lab, t0)})


def mean_text(inputs, t0=T0):
    alpha, beta = inputs
    lab = singular.constant_mean_cusp(expr.eval_jet(alpha, t0),
                                      expr.eval_jet(beta, t0))
    return [lab.label], export.json_text(
        {"record": export.classification_record(lab, t0)})


def revolution_text(inputs, t0=T0):
    grid = uniform_grid(t0 - 0.4, t0 + 0.4, 33)
    c = legendre.legendre_from_expressions(*inputs, grid)
    lab = singular.revolution_singularity_classify(c, t0)
    return [lab.label], export.json_text(
        {"record": export.classification_record(lab, t0)})


# case -> (build, variant, inputs, t0)
CASES = {"pair-" + v: (pair_text, v, PAIRS[v], T0) for v in PAIRS}
CASES["sweep-cusp_5_2"] = (sweep_text, "cusp_5_2", PAIRS["cusp_5_2"], T0)
CASES.update({"gauss-%d%d" % o: (gauss_text, o, GAUSS[o], T0) for o in GAUSS})
CASES.update({"mean-" + v: (mean_text, v, (MEAN_ALPHA, MEAN_BETA[v]), T0)
              for v in MEAN_BETA})
CASES.update({"revolution-" + v: (revolution_text, v, REVOLUTION[v], T0)
              for v in REVOLUTION})
CASES["pair-cusp_4_3-bench"] = (pair_text, "cusp_4_3", BENCH_PAIR, BT0)
CASES["mean-cusp_5_2-bench"] = (mean_text, "cusp_5_2", BENCH_MEAN, BT0)
CASES["revolution-cusp_3_2-bench"] = (revolution_text, "cusp_3_2",
                                      BENCH_REVOLUTION, BT0)

GOLDEN = {
    "gauss-11": "cdbaa971bcdc3e3cd121ddfa793bc270b8f3d0d83b992fe0b6fcebf2243b2afe",
    "gauss-12": "ecd35673bda2b42ee34c63074387e97466ee8433cc9334cc679faa286e28d814",
    "gauss-22": "fe171c577b7668aa1c201ab269f10f356c32d39566ac60c6740c9e5efa9b3ab7",
    "mean-cusp_5_2": "7c6e9fd1139aaa9489f4ca7eb398e8d1debcb42c0b052a9420fdc3ff7f68bdd6",
    "mean-cusp_5_3": "c179703043cd4beec1ccfa4d211b5927aeddc1eac0e55cb09dd49ecedf0e69c6",
    "pair-cusp_3_2": "e2d1a2c474292216e62c71521bd42e9ab401604511ffa318595d3dfc6d504353",
    "pair-cusp_4_3": "2152a48656c46c858079b8623ad4e1b3328e196a90e47227f9bff558e45fe159",
    "pair-cusp_5_2": "a0d23845f028246d0b90fe041f14d4b1966266d6bc40ba39e34a1add166a9561",
    "pair-cusp_5_3": "a2658c4a641d73a1e803241e02202cbc90aad61ae70261c8d0eb6229a9108df5",
    "revolution-cone_type": "481d56b8f2d943a56d5ba4a81e171368ffc8f27ea8aea0e401d5e5df1bb8365b",
    "revolution-cusp_3_2": "1faf92efa1dfccbb794495aaa1a26c7d20bf326dfda33010158e5ce7a4abb4f8",
    "revolution-cusp_4_3": "09d4928e3ff56c44539eff90e1364331f68cddb484b4a6bd8798fa742d0b14ca",
    "sweep-cusp_5_2": "acabffd03a1270d1d8b1e327fa82a430b1e8c72264ba1c99ce153796754122e8",
    "pair-cusp_4_3-bench": "21da7b62340fdcd5c3b45e9f41e09a27d17d32cc114b97c1556b039c1eb5ac91",
    "mean-cusp_5_2-bench": "75470dcff340a1e00f2a0d0e26b0e7900c444884cb6ae6a17eda0776fb745dfd",
    "revolution-cusp_3_2-bench": "054560bb2ecb3fd03cab8645fc5b71e4e17b4dfc8ea1ccc38c6727b55e9ea32c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_classification_record_bytes(case):
    build, _, inputs, t0 = CASES[case]
    labels, text = build(inputs, t0)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN[case], (case, labels, text[:400])


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixture_has_the_intended_label(case):
    build, variant, inputs, t0 = CASES[case]
    labels, _ = build(inputs, t0)
    if case.startswith("sweep"):
        want = ["regular"] * 128 + [variant] + ["regular"] * 128
        assert [d for d, _ in labels] == want
        assert [k for _, k in labels] == want
    elif case.startswith("gauss"):
        table = {(1, 1): "cusp_3_2", (2, 2): "cusp_4_3", (1, 2): "cusp_5_3"}
        assert labels == [table[variant]]
    else:
        assert set(labels) == {variant}
