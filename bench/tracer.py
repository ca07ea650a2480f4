"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each revfront layer from outside the
package.  A wrapped name is replaced in every revfront module namespace
that binds it, because cli and several layers use ``from ... import``,
and in the module-level tables that dispatch to it (expr.FUNCTIONS maps
each elementary function name to a tuple holding its jet function).
Each call becomes a span; aggregates are kept per span name: calls,
total time and self time, where self time is the span's duration minus
the time its child spans cover.  The program is single-threaded, so no
layer has a wait time.

Calls count only spans whose parent has a different name, so delegation
within one span name (eval_jet -> eval_jet_any_order, __rmul__ ->
__mul__) counts once.  An exception counts toward ``<layer>.errors`` when
it leaves the outermost span of that layer.  Counting hooks run on those
outermost spans and feed the work counters (nodes, products, bytes).

Probes that name private helpers are optional: when a later version of
revfront drops the helper, its counter reads 0 and the probe is listed as
missing in the run report instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

LAYERS = ("expr", "jets", "quadrature", "construct", "legendre",
          "revolution", "framed", "singular", "export", "cli")


# -- counting hooks: hook(tracer, args, kwargs, result) -----------------------

def _jet_nodes(tr, args, kwargs, result):
    tr.counters["expr.jet_nodes"] += result.coeffs.size
    tr.note_max("jets.max_order", result.order)


def _jet_order(tr, args, kwargs, result):
    tr.note_max("jets.max_order", result.order)


def _jet_products(tr, args, kwargs, result):
    """Coefficient products of one jet product or quotient.

    Truncated series arithmetic at order n over m base points costs
    (n+1)(n+2)/2 coefficient products per base point; scaling by a
    number costs n+1.
    """
    n, m = result.order, result.coeffs[0].size
    other = args[1] if len(args) > 1 else None
    per_point = (n + 1) * (n + 2) // 2 if hasattr(other, "coeffs") else n + 1
    tr.counters["jets.coeff_products"] += per_point * m
    tr.note_max("jets.max_order", n)


def _fine_nodes(tr, args, kwargs, result):
    tr.counters["quadrature.fine_nodes"] += args[0].s.size


def _construction(tr, args, kwargs, result):
    report = result.flags["construction"]
    tr.counters["construct.flagged_nodes"] += len(report.flagged_nodes)
    tr.counters["construct.flips"] += len(report.flips)


def _gauss_span_name(result):
    return "construct." + result.flags["construction"].method


def _rk4_steps(tr, args, kwargs, result):
    tr.counters["construct.rk4_steps"] += args[0].size - 1


def _series_node(tr, args, kwargs, result):
    tr.counters["construct.series_nodes"] += 1


def _surface_nodes(tr, args, kwargs, result):
    shape = result.grid.x.shape
    tr.counters["revolution.surface_nodes"] += shape[0] * shape[1]


def _label(tr, args, kwargs, result):
    tr.counters["singular.labels"] += 1
    tr.counters["singular.unresolved"] += result.label == "unresolved"


def _file_bytes(key):
    def hook(tr, args, kwargs, result):
        tr.counters[key] += os.path.getsize(args[1])
    return hook


def _text_bytes(key):
    def hook(tr, args, kwargs, result):
        tr.counters[key] += len(result.encode())
    return hook


class Probe:
    """One wrapped callable: "module:attr" or "module:Class.method"."""

    __slots__ = ("layer", "span", "target", "hook", "rename", "count_only",
                 "memory")

    def __init__(self, span, target, hook=None, rename=None, count_only=False,
                 memory=False):
        self.layer = span.split(".")[0]
        self.span = span
        self.target = target
        self.hook = hook
        self.rename = rename
        self.count_only = count_only
        self.memory = memory


_ELEMENTARY = ("sin", "cos", "tan", "cot", "exp", "log", "sqrt", "sinh",
               "cosh", "atan")
_LABELLERS = ("cusp_classify_derivatives", "cusp_classify_curvature",
              "curve_cusp_by_derivatives", "curve_cusp_by_curvature",
              "constant_gauss_cusp", "constant_mean_cusp",
              "revolution_singularity_classify")
_QUADRATURE_METHODS = ("profile_from_JK", "profile_from_mean_ratio",
                       "profile_from_J_phi", "profile_from_H_phi")

PROBES = (
    [Probe("expr.parse", "revfront.expr:parse"),
     Probe("expr.eval_values", "revfront.expr:eval_values"),
     Probe("expr.eval_jet", "revfront.expr:eval_jet", _jet_nodes),
     Probe("expr.eval_jet", "revfront.expr:eval_jet_any_order", _jet_nodes)]
    + [Probe("jets.compose", "revfront.jets:" + f, _jet_order)
       for f in _ELEMENTARY]
    + [Probe("jets.mul", "revfront.jets:Jet.__mul__", _jet_products),
       Probe("jets.div", "revfront.jets:Jet.__truediv__", _jet_products),
       Probe("jets.div", "revfront.jets:jet_div_reduced", _jet_products),
       Probe("jets.add", "revfront.jets:Jet.__add__"),
       Probe("jets.pow", "revfront.jets:Jet.__pow__"),
       Probe("quadrature.finegrid", "revfront.quadrature:FineGrid.__init__",
             _fine_nodes),
       Probe("quadrature.cumulative",
             "revfront.quadrature:FineGrid.cumulative"),
       Probe("quadrature.cumulative",
             "revfront.quadrature:FineGrid.cumulative_from"),
       Probe("quadrature.eval_expr", "revfront.quadrature:FineGrid.eval_expr"),
       Probe("construct.gauss_ratio",
             "revfront.construct:profile_from_gauss_ratio", _construction,
             rename=_gauss_span_name),
       Probe("construct.rk4_path", "revfront.construct:_rk4_path", _rk4_steps,
             count_only=True),
       Probe("construct.series_node",
             "revfront.construct:_series_node_jets", _series_node,
             count_only=True)]
    + [Probe("construct.quadrature_methods", "revfront.construct:" + f,
             _construction) for f in _QUADRATURE_METHODS]
    + [Probe("legendre.reconstruct",
             "revfront.legendre:reconstruct_from_curvature"),
       Probe("legendre.from_expressions",
             "revfront.legendre:legendre_from_expressions"),
       Probe("legendre.curvature_of", "revfront.legendre:curvature_of"),
       Probe("legendre.verify", "revfront.legendre:verify_legendre"),
       Probe("legendre.parallel", "revfront.legendre:parallel_curve"),
       Probe("legendre.evolute", "revfront.legendre:plane_evolute"),
       Probe("revolution.revolve", "revfront.revolution:revolve",
             _surface_nodes, memory=True),
       Probe("revolution.front_status",
             "revfront.revolution:frontal_front_status"),
       Probe("revolution.evolutes", "revfront.revolution:revolution_evolutes"),
       Probe("revolution.commutation",
             "revfront.revolution:parallel_commutation_check"),
       Probe("revolution.curvature",
             "revfront.revolution:revolution_curvature"),
       Probe("revolution.cone", "revfront.revolution:cone_type_check"),
       Probe("framed.integrability", "revfront.framed:integrability_residual"),
       Probe("framed.validate", "revfront.framed:FramedSurfaceGrid.validate"),
       Probe("framed.curvature_of", "revfront.framed:curvature_of"),
       Probe("framed.immersion_status", "revfront.framed:immersion_status"),
       Probe("framed.basic_invariants", "revfront.framed:basic_invariants_of"),
       Probe("framed.parallel_surface", "revfront.framed:parallel_surface")]
    + [Probe("singular.label", "revfront.singular:" + f, _label)
       for f in _LABELLERS]
    + [Probe("singular.ord", "revfront.singular:ord_of"),
       Probe("export.obj", "revfront.export:write_surface_obj",
             _file_bytes("export.obj.bytes")),
       Probe("export.obj", "revfront.export:surface_obj_lines"),
       Probe("export.csv", "revfront.export:write_curve_csv",
             _file_bytes("export.csv.bytes")),
       Probe("export.csv", "revfront.export:curve_rows"),
       Probe("export.json", "revfront.export:write_json",
             _file_bytes("export.json.bytes")),
       Probe("export.json", "revfront.export:json_text",
             _text_bytes("export.json.bytes")),
       Probe("export.json", "revfront.export:classification_record"),
       Probe("export.json", "revfront.export:invariants_records"),
       Probe("cli.run", "revfront.cli:run"),
       Probe("cli.parse", "revfront.cli:_expand_config"),
       Probe("cli.parse", "revfront.cli:build_parser"),
       Probe("cli.parse", "revfront.cli:_Parser.parse_args")]
)


class _Frame:
    __slots__ = ("name", "layer", "child")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.child = 0.0


def _rebind(namespace, orig, wrapper):
    """Replace orig by wrapper in a module namespace and its dict tables."""
    for key, value in list(namespace.items()):
        if key.startswith("__"):
            continue
        if value is orig:
            namespace[key] = wrapper
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if v is orig:
                    value[k] = wrapper
                elif isinstance(v, tuple) and any(x is orig for x in v):
                    value[k] = tuple(wrapper if x is orig else x for x in v)


class Tracer:
    """Span aggregates for one worker process."""

    def __init__(self):
        self.enabled = True
        self._stack = []
        self.reset()

    def reset(self):
        """Drop everything recorded so far (used after the warm-up)."""
        self.stats = {}                 # span name -> [calls, total_s, self_s]
        self.errors = Counter()
        self.counters = Counter()
        self.maxima = {}
        self.span_count = 0

    def note_max(self, key, value):
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every probe target; return the targets that do not exist."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "revfront"
                                         or n.startswith("revfront."))]
        by_name = {m.__name__: m for m in modules}
        missing = []
        for probe in PROBES:
            modname, _, qual = probe.target.partition(":")
            owner = by_name.get(modname)
            attr = qual
            if owner is not None and "." in qual:
                cls, attr = qual.split(".")
                owner = getattr(owner, cls, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                missing.append(probe.target)
                continue
            wrapper = self._wrap(probe, orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                _rebind(vars(mod), orig, wrapper)
        return missing

    def _wrap(self, probe, fn):
        call = self._count if probe.count_only else self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(probe, fn, args, kwargs)
        return wrapper

    # -- recording ------------------------------------------------------------

    def _count(self, probe, fn, args, kwargs):
        result = fn(*args, **kwargs)
        if self.enabled:
            probe.hook(self, args, kwargs, result)
        return result

    def _span(self, probe, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = _Frame(probe.span, probe.layer)
        stack.append(frame)
        started_tracing = probe.memory and self._memory_begin()
        ok = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = perf_counter()
            stack.pop()
            if probe.memory:
                self.note_max(probe.span + ".peak_mib",
                              self._memory_end(started_tracing))
            name = probe.rename(result) if ok and probe.rename else probe.span
            dur = end - start
            if parent is not None:
                parent.child += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            outer = parent is None or parent.name != frame.name
            st[0] += outer
            st[1] += dur if outer else 0.0
            st[2] += dur - frame.child
            if not ok and (parent is None or parent.layer != probe.layer):
                self.errors[probe.layer] += 1
            self.span_count += 1
        if probe.hook is not None and outer:
            probe.hook(self, args, kwargs, result)
        return result

    @staticmethod
    def _memory_begin():
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            return False
        tracemalloc.start()
        return True

    @staticmethod
    def _memory_end(started):
        peak = tracemalloc.get_traced_memory()[1]
        if started:
            tracemalloc.stop()
        return peak / 2.0 ** 20

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- output ---------------------------------------------------------------

    def summary(self):
        return {"stats": self.stats, "errors": dict(self.errors),
                "counters": dict(self.counters), "maxima": self.maxima,
                "spans": self.span_count}


class NullTracer:
    """Stand-in for untraced runs: nothing is wrapped or recorded."""

    def __init__(self):
        self.counters = Counter()

    def install(self):
        return []

    def reset(self):
        pass

    @contextlib.contextmanager
    def paused(self):
        yield

    def summary(self):
        return None


# -- per-layer metrics --------------------------------------------------------
#
# (name, unit, better, how).  Counts and times are per measured pass, so
# runs with different numbers of passes compare; ratios, maxima and the
# tracing overhead are not divided.

def _calls(span):
    return ("calls", span)


def _self(*spans):
    return ("self", spans)


PER_LAYER = [
    ("expr.parse.calls", "count", "lower", _calls("expr.parse")),
    ("expr.eval_values.self_s", "s", "lower", _self("expr.eval_values")),
    ("expr.eval_jet.calls", "count", "lower", _calls("expr.eval_jet")),
    ("expr.eval_jet.self_s", "s", "lower", _self("expr.eval_jet")),
    ("expr.jet_nodes", "count", "lower", ("counter", "expr.jet_nodes")),
    ("jets.compose.calls", "count", "lower", _calls("jets.compose")),
    ("jets.compose.self_s", "s", "lower", _self("jets.compose")),
    ("jets.mul.calls", "count", "lower", _calls("jets.mul")),
    ("jets.div.calls", "count", "lower", _calls("jets.div")),
    ("jets.arith.self_s", "s", "lower",
     _self("jets.mul", "jets.div", "jets.add", "jets.pow")),
    ("jets.coeff_products", "count", "lower",
     ("counter", "jets.coeff_products")),
    ("jets.max_order", "count", "lower", ("max", "jets.max_order")),
    ("quadrature.finegrid.calls", "count", "lower",
     _calls("quadrature.finegrid")),
    ("quadrature.fine_nodes", "count", "lower",
     ("counter", "quadrature.fine_nodes")),
    ("quadrature.cumulative.calls", "count", "lower",
     _calls("quadrature.cumulative")),
    ("quadrature.cumulative.self_s", "s", "lower",
     _self("quadrature.cumulative")),
    ("quadrature.eval_expr.self_s", "s", "lower",
     _self("quadrature.eval_expr")),
    ("construct.gauss_rk4.self_s", "s", "lower", _self("construct.gauss_rk4")),
    ("construct.gauss_frobenius.self_s", "s", "lower",
     _self("construct.gauss_frobenius")),
    ("construct.quadrature_methods.self_s", "s", "lower",
     _self("construct.quadrature_methods")),
    ("construct.rk4_steps", "count", "lower",
     ("counter", "construct.rk4_steps")),
    ("construct.series_nodes", "count", "lower",
     ("counter", "construct.series_nodes")),
    ("construct.flagged_nodes", "count", "lower",
     ("counter", "construct.flagged_nodes")),
    ("construct.flips", "count", "lower", ("counter", "construct.flips")),
    ("legendre.reconstruct.self_s", "s", "lower",
     _self("legendre.reconstruct")),
    ("legendre.from_expressions.self_s", "s", "lower",
     _self("legendre.from_expressions")),
    ("legendre.curvature_of.self_s", "s", "lower",
     _self("legendre.curvature_of")),
    ("legendre.verify.self_s", "s", "lower", _self("legendre.verify")),
    ("revolution.revolve.calls", "count", "lower",
     _calls("revolution.revolve")),
    ("revolution.revolve.self_s", "s", "lower", _self("revolution.revolve")),
    ("revolution.revolve.peak_mib", "MiB", "lower",
     ("max", "revolution.revolve.peak_mib")),
    ("revolution.surface_nodes", "count", "lower",
     ("counter", "revolution.surface_nodes")),
    ("revolution.front_status.self_s", "s", "lower",
     _self("revolution.front_status")),
    ("revolution.evolutes.self_s", "s", "lower", _self("revolution.evolutes")),
    ("revolution.commutation.self_s", "s", "lower",
     _self("revolution.commutation")),
    ("framed.integrability.self_s", "s", "lower",
     _self("framed.integrability")),
    ("framed.validate.self_s", "s", "lower", _self("framed.validate")),
    ("framed.curvature_of.self_s", "s", "lower", _self("framed.curvature_of")),
    ("framed.immersion_status.calls", "count", "lower",
     _calls("framed.immersion_status")),
    ("singular.label.calls", "count", "lower", _calls("singular.label")),
    ("singular.label.self_s", "s", "lower", _self("singular.label")),
    ("singular.unresolved_ratio", "ratio", "lower",
     ("ratio", "singular.unresolved", "singular.labels")),
    ("singular.agree_ratio", "ratio", "higher",
     ("ratio", "singular.agree", "singular.agree_pairs")),
    ("singular.agree_pairs", "count", "higher",
     ("counter", "singular.agree_pairs")),
    ("export.obj.self_s", "s", "lower", _self("export.obj")),
    ("export.obj.bytes", "bytes", "lower", ("counter", "export.obj.bytes")),
    ("export.csv.self_s", "s", "lower", _self("export.csv")),
    ("export.csv.bytes", "bytes", "lower", ("counter", "export.csv.bytes")),
    ("export.json.self_s", "s", "lower", _self("export.json")),
    ("export.json.bytes", "bytes", "lower", ("counter", "export.json.bytes")),
    ("cli.parse.self_s", "s", "lower", _self("cli.parse")),
    ("cli.run.self_s", "s", "lower", _self("cli.run")),
]
PER_LAYER += [(layer + ".self_s", "s", "lower", ("layer_self", layer))
              for layer in LAYERS]
PER_LAYER += [(layer + ".errors", "count", "lower", ("errors", layer))
              for layer in LAYERS]
PER_LAYER += [
    ("trace.spans", "count", "lower", ("spans",)),
    ("trace.overhead_s", "s", "lower", ("overhead",)),
]


def per_layer_metrics(summary, passes, overhead_s):
    """Per-layer metric values from a traced worker's summary."""
    stats = summary["stats"]
    counters = summary["counters"]
    out = {}
    for name, unit, _, how in PER_LAYER:
        kind = how[0]
        if kind == "calls":
            value = stats.get(how[1], [0, 0.0, 0.0])[0] / passes
        elif kind == "self":
            value = sum(stats.get(s, [0, 0.0, 0.0])[2]
                        for s in how[1]) / passes
        elif kind == "layer_self":
            value = sum(st[2] for s, st in stats.items()
                        if s.split(".")[0] == how[1]) / passes
        elif kind == "counter":
            value = counters.get(how[1], 0) / passes
        elif kind == "errors":
            value = summary["errors"].get(how[1], 0) / passes
        elif kind == "max":
            value = summary["maxima"].get(how[1], 0)
        elif kind == "ratio":
            den = counters.get(how[2], 0)
            value = counters.get(how[1], 0) / den if den else 0.0
        elif kind == "spans":
            value = summary["spans"] / passes
        else:
            value = overhead_s
        out[name] = {"value": value, "unit": unit}
    return out
