"""Every probe of the benchmark tracer names a callable of revfront.

The tracer wraps each "module:attr" or "module:Class.method" target of
bench/tracer.py's PROBES and lists the targets it cannot find as missing,
so a refactor that renames a traced function would silently read 0 on
that probe's counters.  This test reads the probe table, as the tracer
does, and fails on any target that does not resolve, except the known
stale ones; and on a stale one that resolves again, so that the
allowance only shrinks and cannot hide a function that came back.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# stale since the functions were deleted or renamed; the benchmark's
# upkeep item in ROADMAP.md (item G) drops or repoints them
STALE = {"revfront.construct:_series_node_jets",
         "revfront.jets:jet_div_reduced",
         "revfront.export:surface_obj_lines",
         "revfront.export:curve_rows"}


def probe_targets():
    spec = importlib.util.spec_from_file_location("_probe_table", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [probe.target for probe in module.PROBES]


def resolves(target):
    modname, _, qual = target.partition(":")
    obj = importlib.import_module(modname)
    for name in qual.split("."):
        obj = getattr(obj, name, None)
    return callable(obj)


def test_every_probe_target_resolves():
    targets = probe_targets()
    assert len(targets) > 50
    assert all(t.startswith("revfront.") for t in targets)
    missing = {t for t in targets if not resolves(t)}
    assert missing <= STALE, sorted(missing - STALE)
    assert STALE <= missing, sorted(STALE - missing)
