"""The record classes' constructor contract.

Every record of the package (expression nodes, curves, grids, reports,
problems and labels) is built by keyword or position with fixed
parameter names, order and defaults.  A default written as list or dict
is an empty list or dict made anew for each instance.  Expression nodes are
immutable and compare and hash by class and fields; the problems and
labels refuse bad data when built.
"""

import inspect
import math

import pytest

from revfront import construct, expr, framed, legendre, revolution, singular
from revfront.expr import BinOp, Call, Expr, Neg, Num, Slot, Var

_GRID = ["u", "v", "x", "n", "s", "x_u", "x_v", "n_u", "n_v", "s_u", "s_v",
         "x_uv", "n_uv", "s_uv"]
_INVARIANTS = ["u", "v", "a1", "b1", "a2", "b2", "e1", "f1", "g1", "e2",
               "f2", "g2", "cross"]
_CURVATURE = ["u", "v", "J", "K", "H", "det_ag", "det_bg", "det_eg",
              "det_fg", "det_ae"]

# class -> its parameters in order: a name (required) or (name, default),
# the default list or dict standing for a fresh empty one
RECORDS = {
    expr.Expr: [],
    expr.Num: ["value"],
    expr.Var: [],
    expr.Neg: ["operand"],
    expr.BinOp: ["op", "left", "right"],
    expr.Call: ["func", "arg"],
    expr.Slot: ["index"],
    legendre.CurveJet: ["t", "x", "z"],
    legendre.NormalJet: ["t", "a", "b"],
    legendre.CurvaturePair: ["t", "ell", "beta"],
    legendre.LegendreCurve: ["curve", "normal", ("curvature", None),
                             ("flags", dict)],
    legendre.LegendreReport: ["max_contact_residual", "max_norm_residual",
                              "passed"],
    framed.FramedSurfaceGrid: _GRID,
    framed.BasicInvariants: _INVARIANTS,
    framed.FSCurvature: _CURVATURE,
    framed.ImmersionStatus: ["regular", "legendre_immersion",
                             "framed_immersion", "label"],
    framed.IntegrabilityReport: ["residuals", "max_residual"],
    revolution.RevolutionSurface: ["axis", "profile", "theta", "invariants",
                                   "columns"],
    revolution.FrontStatus: ["is_front", "failures"],
    revolution.ConeTypeReport: ["is_cone_type", "values"],
    revolution.EvoluteBundle: ["first_profile", "first_surface",
                               "axis_curve", "axis_flags", "diagnostics"],
    revolution.CommutationReport: ["max_residuals", "passed"],
    construct.GaussRatioProblem: ["alpha", "beta", "t0", "x0",
                                  ("sin_phi0", 0.0), ("cos_sign", 1.0),
                                  ("z0", 0.0), ("method", "auto")],
    construct.MeanRatioProblem: ["alpha", "beta", "c1", "c2", ("t0", None),
                                 ("z0", 0.0)],
    construct.ConstructionReport: ["method", "t0", ("flips", list),
                                   ("flagged_nodes", list),
                                   ("ode_residual", None),
                                   ("contact_residual", 0.0),
                                   ("norm_residual", 0.0), ("notes", dict)],
    singular.CuspLabel: ["label", ("diagnostics", dict)],
}

MODULES = (expr, legendre, framed, revolution, construct, singular)


def _fresh(cls):
    """{name: list or dict} of the parameters with fresh defaults."""
    return {p[0]: p[1] for p in RECORDS[cls]
            if isinstance(p, tuple) and p[1] in (list, dict)}


# class -> a build from its required arguments, for each class with a
# fresh default
BUILDS = {
    legendre.LegendreCurve: lambda: legendre.LegendreCurve(None, None),
    construct.ConstructionReport:
        lambda: construct.ConstructionReport("rk4", 0.0),
    singular.CuspLabel: lambda: singular.CuspLabel("regular"),
}


def _name(cls):
    return cls.__qualname__


def test_every_record_is_listed():
    """RECORDS holds classes of the six modules, and every class there
    that writes its own __init__, so a new record gets a pinned signature
    too; BUILDS holds each with a fresh default."""
    classes = {cls for m in MODULES for cls in vars(m).values()
               if isinstance(cls, type) and cls.__module__ == m.__name__}
    internal = (Exception, revolution._RevolvedGrid)
    assert set(RECORDS) <= classes
    assert {cls for cls in classes if "__init__" in vars(cls)
            and not issubclass(cls, internal)} <= set(RECORDS)
    assert len(RECORDS) == 26
    assert set(BUILDS) == {cls for cls in RECORDS if _fresh(cls)}


@pytest.mark.parametrize("cls", RECORDS, ids=_name)
def test_signature(cls):
    params = list(inspect.signature(cls).parameters.values())
    want = [p if isinstance(p, tuple) else (p, inspect.Parameter.empty)
            for p in RECORDS[cls]]
    assert [p.name for p in params] == [name for name, _ in want]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    for p, (name, default) in zip(params, want):
        if name in _fresh(cls):
            assert p.default is not inspect.Parameter.empty, name
        else:
            assert type(p.default) is type(default), name
            assert p.default == default or p.default is default, name


@pytest.mark.parametrize("cls", BUILDS, ids=_name)
def test_default_containers_are_fresh(cls):
    build = BUILDS[cls]
    first, second = build(), build()
    for name, kind in _fresh(cls).items():
        a, b = getattr(first, name), getattr(second, name)
        assert type(a) is kind and not a, name
        assert a is not b, name
        a.append(1) if kind is list else a.update(k=1)
        assert not getattr(build(), name), name


def test_records_keep_their_arguments():
    c = legendre.LegendreCurve("curve", "normal", flags={"k": 1})
    assert (c.curve, c.normal, c.curvature, c.flags) == \
        ("curve", "normal", None, {"k": 1})
    r = construct.ConstructionReport("m", 0.5, notes={"n": 2},
                                     contact_residual=1e-3)
    assert (r.method, r.t0, r.flips, r.flagged_nodes, r.ode_residual,
            r.contact_residual, r.norm_residual, r.notes) == \
        ("m", 0.5, [], [], None, 1e-3, 0.0, {"n": 2})
    g = framed.FramedSurfaceGrid(*range(14))
    assert [getattr(g, name) for name in _GRID] == list(range(14))
    i = framed.BasicInvariants(**{n: k for k, n in enumerate(_INVARIANTS)})
    assert [getattr(i, name) for name in _INVARIANTS] == list(range(13))


# -- expression nodes -------------------------------------------------------

NODES = [Num(1.5), Var(), Neg(Var()), BinOp("+", Var(), Num(1.0)),
         Call("sin", Var()), Slot(2)]


def test_nodes_compare_and_hash_by_value():
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert Var() == Var() and hash(Var()) == hash(Var())
    assert Num(1.0) != Num(2.0)
    assert Num(1.0) != Slot(1.0) and Neg(Var()) != Var() and Expr() != Var()
    key = BinOp("*", Num(2.0), Call("sin", Var()))
    table = {key: "value"}
    assert table[BinOp("*", Num(2.0), Call("sin", Var()))] == "value"
    assert BinOp("*", Num(2.0), Call("cos", Var())) not in table
    built = BinOp("-", BinOp("+", Num(1.0),
                             BinOp("*", Num(2.0), Call("sin", Var()))),
                  Neg(BinOp("^", Var(), Num(2.0))))
    assert expr.parse("1 + 2*sin(t) - -t^2") == built
    assert hash(expr.parse("1 + 2*sin(t) - -t^2")) == hash(built)
    nan = Num(math.nan)
    assert nan == nan


def test_node_repr_names_class_and_fields():
    assert repr(Num(1.5)) == "Num(value=1.5)"
    assert repr(Var()) == "Var()"
    assert repr(BinOp("+", Var(), Slot(0))) == \
        "BinOp(op='+', left=Var(), right=Slot(index=0))"


@pytest.mark.parametrize("node", NODES, ids=repr)
def test_nodes_refuse_assignment(node):
    before = repr(node)
    for name in list(vars(node)) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(node, name, Num(0.0))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert repr(node) == before


# -- checks made when a record is built -------------------------------------

@pytest.mark.parametrize("build, match", [
    (lambda: construct.GaussRatioProblem("-1", "1", 0.5, 1.0, method="x"),
     "method must be auto, rk4 or frobenius"),
    (lambda: construct.GaussRatioProblem("-1", "1", 0.5, 1.0, sin_phi0=2.0),
     r"sin phi seed must lie in \[-1, 1\]"),
    (lambda: construct.GaussRatioProblem("-1", "1", 0.5, 1.0, cos_sign=0.5),
     "cos_sign must be 1 or -1"),
    (lambda: construct.GaussRatioProblem("-1", "1", 0.5, math.inf),
     "x0 must be finite"),
    (lambda: construct.GaussRatioProblem("-1", "1", 0.5, 1.0, z0=math.nan),
     "z0 must be finite"),
    (lambda: construct.MeanRatioProblem("0", "t", math.nan, 0.3),
     "c1 must be finite"),
    (lambda: construct.MeanRatioProblem("0", "t", 0.2, math.inf),
     "c2 must be finite"),
    (lambda: construct.MeanRatioProblem("0", "t", 0.2, 0.3, z0=math.nan),
     "z0 must be finite"),
    (lambda: singular.CuspLabel("bogus"), "unknown label 'bogus'"),
])
def test_records_refuse_bad_data(build, match):
    with pytest.raises(ValueError, match=match):
        build()
