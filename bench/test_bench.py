"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sizes(req):
    """Everything about a request that a seed must not change."""
    if "argv" in req:
        argv = req["argv"]
        grid = argv[argv.index("--grid") + 1].split(":")[2]
        return (req["kind"], grid, argv[argv.index("--theta") + 1])
    nodes = req["grid"][2] if "grid" in req else None
    return (req["kind"], nodes, req["expect"].get("label"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    for index in (0, 3):
        a = workloads.pass_requests(workload, 7, index)
        b = workloads.pass_requests(workload, 7, index)
        assert json.dumps(a) == json.dumps(b)
    assert (workloads.warmup_request(workload, 7)
            == workloads.warmup_request(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_new_seed_changes_coefficients_not_sizes(workload):
    a = workloads.pass_requests(workload, 7, 0)
    b = workloads.pass_requests(workload, 8, 0)
    assert Counter(map(_sizes, a)) == Counter(map(_sizes, b))
    changed = sum(json.dumps(x) != json.dumps(y) for x, y in zip(a, b))
    assert changed == len(a)
    assert len(workloads.pass_requests(workload, 7, 1)) == len(a)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_draw_fresh_inputs(workload):
    seen = [json.dumps(r) for r in workloads.pass_requests(workload, 7, 0)]
    later = [json.dumps(r) for r in workloads.pass_requests(workload, 7, 1)]
    assert not set(seen) & set(later)


def test_literals_parse_back_exactly():
    for x in (0.1, -1.0 / 3.0, 2.0 ** -30, 1e20):
        assert float(workloads.num(x).strip("()")) == x


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [m[:3] for m in tracer.PER_LAYER])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_tail_latency_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    value, pct = run.tail_latency(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_wall_time_is_scaled_by_the_reference_work():
    ref = run.REFERENCE_S
    results = [{"latencies": [1.0, 2.0], "references": [ref, 2 * ref]},
               {"latencies": [2.0, 1.0], "references": [3 * ref]}]
    assert run.host_speed(results) == pytest.approx(2.0)
    assert run.scaled_wall(results) == pytest.approx(1.5)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    inner_probe = tracer.Probe("jets.mul", "x:inner")
    outer_probe = tracer.Probe("expr.eval_jet", "x:outer")

    def inner():
        _busy(0.02)

    def outer():
        _busy(0.01)
        tr._span(inner_probe, inner, (), {})
        tr._span(inner_probe, inner, (), {})

    tr._span(outer_probe, outer, (), {})
    calls, total, self_s = tr.stats["expr.eval_jet"]
    assert calls == 1
    assert 0.01 <= self_s < 0.02 < 0.05 <= total
    assert tr.stats["jets.mul"][0] == 2
    assert tr.stats["jets.mul"][2] >= 0.04


def test_nested_same_name_counts_once_and_errors_count_per_layer():
    tr = tracer.Tracer()
    probe = tracer.Probe("singular.label", "x:label")

    def fails():
        raise ValueError("no label")

    def delegates():
        return tr._span(probe, fails, (), {})

    with pytest.raises(ValueError):
        tr._span(probe, delegates, (), {})
    assert tr.stats["singular.label"][0] == 1
    assert tr.errors == {"singular": 1}


def _revfront_importable():
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import revfront  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.mark.skipif(not _revfront_importable(), reason="needs revfront")
@pytest.mark.parametrize("workload", ("solve", "classify"))
def test_requests_of_an_unused_seed_pass_their_checks(workload, tmp_path):
    import worker
    requests = workloads.pass_requests(workload, 9001, 0)
    if workload == "classify":
        # one request of every kind and expected label keeps the test short
        first = {}
        for req in requests:
            first.setdefault(_sizes(req), req)
        requests = list(first.values())
    ctx = worker.Context(str(tmp_path), tracer.NullTracer())
    latencies, failures, references = worker.run_pass(workload, requests,
                                                      ctx)
    assert failures == []
    assert len(latencies) == len(requests)
    assert len(references) >= 2


_DISPATCH_PROBE = """
import numpy as np
import revfront.expr, tracer
tr = tracer.Tracer()
tr.install()
revfront.expr.eval_jet("sin(t)+cot(t)+exp(t)", np.linspace(0.5, 1.0, 5))
print(tr.stats["jets.compose"][0], tr.stats["expr.eval_jet"][0])
"""


@pytest.mark.skipif(not _revfront_importable(), reason="needs revfront")
def test_install_wraps_functions_called_through_dispatch_tables():
    # expr evaluates sin, cot, ... through its FUNCTIONS table; cot's own
    # sin and cos nest under the cot span and count once with it.  Run in a
    # fresh interpreter so the wrapped modules do not leak into this one.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.dirname(tracer.__file__)]))
    out = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["3", "1"]
