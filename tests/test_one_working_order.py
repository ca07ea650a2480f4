"""The profile builders work at one order and take no `order` argument.

Each builder in ``construct`` and ``legendre`` returns order-ORDER_CAP
jets; a caller who wants fewer coefficients cuts the curve with
``LegendreCurve.truncated``.  An `order` parameter anywhere else among the
callables ``revfront`` exports from those two modules, methods of its
classes included, would bring back a second way to ask for an order.
"""

import inspect

import revfront

MODULES = ("revfront.construct", "revfront.legendre")
ALLOWED = {"LegendreCurve.truncated"}


def exported_callables():
    """(qualified name, callable) for each function or class revfront
    exports from MODULES, and each method a class defines."""
    for name, obj in vars(revfront).items():
        if getattr(obj, "__module__", None) not in MODULES:
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_only_truncated_takes_an_order():
    found = {name for name, f in exported_callables()
             if "order" in inspect.signature(f).parameters}
    assert found == ALLOWED


def test_the_check_sees_the_builders():
    names = {name for name, _ in exported_callables()}
    assert {"profile_from_gauss_ratio", "profile_from_JK",
            "profile_from_mean_ratio", "profile_from_J_phi",
            "profile_from_H_phi", "reconstruct_from_curvature",
            "legendre_from_expressions"} <= names
