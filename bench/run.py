"""revfront benchmark driver.

Run from the root of a revfront checkout:

    python3 bench/run.py --workload mesh --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see workloads.py and BENCHMARK.json):
    mesh      cli.run(argv) in process, writing CSV/OBJ/JSON artifacts
    solve     library profile constructions with their checks and labels
    classify  a stream of small cusp-labelling requests with JSON records
    all       the three in turn

Each workload runs in a fresh single-threaded worker process (numpy thread
pools pinned to 1) that serves one request at a time to this driver: a
closed loop with one caller.  The driver generates every input from
--seed and sends whole passes; the worker sees only the inputs.  After one
warm-up request the driver sends a fixed number of passes: --seconds
divided by the workload's nominal pass time (PASS_SECONDS), at least
MIN_PASSES and enough for MIN_TAIL_SAMPLES requests.  The number of
passes, and with it the
number of latency samples and the tail percentile, depends only on
--seconds, never on how fast the program is, so two commits are measured
on the same requests.  Only a machine so slow that the next pass would
not end within RUN_LIMIT_S gets fewer passes; the report says how many
ran.  Every output is checked.

--trace 0 measures the end-to-end metrics: setup_s (median in-process
time of ``import revfront.cli`` over SETUP_SAMPLES fresh interpreters,
started between the passes), wall_s (mean time of one pass's request
list), peak_rss_mib (the worker's ru_maxrss), req_p50_ms and req_tail_ms
(request latencies) and fail_ratio.  --trace 1 first repeats the
untraced run, then runs the same passes in a worker whose revfront
layers are wrapped by tracer.py, and prints the per-layer metrics plus
the tracing overhead.  Traced numbers never feed the end-to-end metrics.

The result's metrics are the ones BENCHMARK.json gates (END_TO_END).  The
host this was tuned on changes speed by up to ~1.7x within seconds and
from minute to minute, so setup_s and wall_s are scaled to the host's
reference speed, each by reference work timed alongside it in the same
run (hostspeed.py, SetupTimer); the raw times and the speed factor are
in the run report.  The latency percentiles are printed raw, and are
reported but not gated.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it holds the
run report: latency percentiles with their sample count and tail
percentile, fail ratio, artifact hashes, failures and the environment.
Exit status is 0 when the run completed (correct or not) and non-zero,
without a result line, when it could not run, e.g. outside a revfront
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import REFERENCE_S
from tracer import per_layer_metrics
from workloads import WORKLOADS, pass_requests, warmup_request

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 20
NUMPY_IMPORT_S = 0.1         # about the median numpy import on the tuning host
RUN_LIMIT_S = 150.0          # passes end by then; the worker is killed then
MIN_PASSES = 2
# wall_s of each workload at the seed commit, on a 2-vCPU x86_64 VM
PASS_SECONDS = {"mesh": 13.0, "solve": 1.45, "classify": 3.0}
MIN_TAIL_SAMPLES = 11        # the tail percentile needs 10 samples beyond it
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1"}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- environment --------------------------------------------------------------

def checkout_root():
    root = os.getcwd()
    for name in ("__init__.py", "cli.py"):
        if not os.path.isfile(os.path.join(root, "src", "revfront", name)):
            raise BenchError("no revfront sources under %s/src; run from the "
                             "root of a revfront checkout" % root)
    return root


def child_env(root):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _require_checkout_import(root, path):
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(path).startswith(src):
        raise BenchError("revfront imported from %s, not from %s"
                         % (path, src))


def git_commit(root):
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(root):
    """sha256 over the revfront sources, for checkouts without git."""
    h = hashlib.sha256()
    base = os.path.join(root, "src", "revfront")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(root, seed, worker_env):
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"python": platform.python_version(),
            "numpy": worker_env.get("numpy"),
            "revfront_file": worker_env.get("revfront_file"),
            "nproc": os.cpu_count(), "cpus_allowed": affinity,
            "threads": THREAD_ENV, "seed": seed,
            "git_commit": git_commit(root),
            "source_sha256": source_digest(root),
            "machine": platform.machine()}


# -- set-up time --------------------------------------------------------------

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import %s; "
                 "t = time.perf_counter() - t; import %s as m; "
                 "print(repr(t)); print(m.__file__)")


class SetupTimer:
    """Times of ``import revfront.cli``, each in a fresh interpreter.

    Each sample pairs it with ``import numpy`` in another fresh
    interpreter, the reference for set-up: how fast the host starts an
    interpreter and loads a large extension package at that moment.
    setup_s is the median revfront.cli import time scaled by
    NUMPY_IMPORT_S / (median numpy import time); see hostspeed.py for
    why.  The first pair also writes the bytecode caches, so it is run and
    discarded when the timer is made.  The driver takes the samples a few
    at a time between passes, so that they spread over the whole run.
    """

    def __init__(self, root, env):
        self.root = root
        self.env = env
        self.times = []
        self.numpy_times = []
        self._pair()

    def _import(self, module):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE % (module, module)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=60)
        if out.returncode != 0:
            raise BenchError("import %s failed:\n%s" % (module, out.stderr))
        value, path = out.stdout.split("\n")[:2]
        return float(value), path

    def _pair(self):
        numpy_s, _ = self._import("numpy")
        setup_s, path = self._import("revfront.cli")
        _require_checkout_import(self.root, path)
        return numpy_s, setup_s

    def sample(self, n):
        for _ in range(n):
            numpy_s, setup_s = self._pair()
            self.numpy_times.append(numpy_s)
            self.times.append(setup_s)

    def value(self):
        return (statistics.median(self.times) * NUMPY_IMPORT_S
                / statistics.median(self.numpy_times))


# -- worker sessions ----------------------------------------------------------

class Worker:
    """One worker process and its request/response channel."""

    def __init__(self, workload, root, env, deadline, trace=False):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", workload,
               "--out-dir", os.path.join(root, OUT_DIR, workload)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def send(self, msg):
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError("worker exited early (status %s)"
                             % self.proc.poll()) from None
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError("worker exited early (status %s)"
                             % self.proc.returncode)
        return json.loads(line)

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def planned_passes(workload, seed, seconds):
    per_pass = len(pass_requests(workload, seed, 0))
    return max(MIN_PASSES, math.ceil(MIN_TAIL_SAMPLES / per_pass),
               round(seconds / PASS_SECONDS[workload]))


def drive(workload, seed, passes, root, env, deadline, trace=False,
          between=lambda k: None):
    """Warm up, run the passes; return (warm-up, pass results, summary).

    between(k) runs in the driver before pass k, while the worker waits.
    A pass is not started unless one and a half times the longest pass so
    far fits before ten seconds ahead of the deadline, so a machine far
    slower than the nominal one gets fewer passes, and a result, instead
    of a killed worker.
    """
    worker = Worker(workload, root, env, deadline, trace)
    try:
        warm = worker.send({"op": "pass",
                            "requests": [warmup_request(workload, seed)]})
        results = []
        longest = 0.0
        for k in range(passes):
            if k and time.monotonic() + 1.5 * longest > deadline - 10.0:
                break
            between(k)
            start = time.monotonic()
            results.append(worker.send({
                "op": "pass", "requests": pass_requests(workload, seed, k),
                "reset_trace": k == 0, "record_hashes": k == 0}))
            longest = max(longest, time.monotonic() - start)
        summary = worker.send({"op": "finish"})
    finally:
        worker.close()
    _require_checkout_import(root, summary["env"]["revfront_file"])
    return warm, results, summary


# -- metrics ------------------------------------------------------------------

def tail_latency(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With fewer than eleven samples no such
    percentile exists and the maximum is returned as percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < MIN_TAIL_SAMPLES:
        return s[-1], 100.0
    return s[n - MIN_TAIL_SAMPLES], 100.0 * (n - 10) / n


def _pass_times(results):
    return [sum(r["latencies"]) for r in results]


def host_speed(results):
    """Mean reference time of the passes over REFERENCE_S (1 = reference)."""
    refs = [x for r in results for x in r["references"]]
    return statistics.mean(refs) / REFERENCE_S


def scaled_wall(results):
    """Mean time of one pass's request list at the host's reference speed."""
    return statistics.mean(_pass_times(results)) / host_speed(results)


def _tally(*runs):
    attempted = failed = 0
    failures = []
    for warm, results, _ in runs:
        for r in [warm] + results:
            attempted += len(r["latencies"])
            failed += len(r["failures"])
            failures += r["failures"]
    return attempted, failed, failures


def run_workload(workload, seed, seconds, trace, root, env, deadline):
    """One workload: (result object, report, printable metric lines)."""
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    passes = planned_passes(workload, seed, seconds)
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "passes_planned": passes}
    try:
        if not trace:
            setup = SetupTimer(root, env)
            slots = passes + 1           # before each pass and after the last
            run = drive(workload, seed, passes, root, env, deadline,
                        between=lambda k: setup.sample(
                            SETUP_SAMPLES * (k + 1) // slots
                            - SETUP_SAMPLES * k // slots))
            setup.sample(SETUP_SAMPLES - len(setup.times))
            warm, results, summary = run
            latencies = [x for r in results for x in r["latencies"]]
            tail, pct = tail_latency(latencies)
            pass_times = _pass_times(results)
            values = {"setup_s": setup.value(),
                      "wall_s": scaled_wall(results),
                      "peak_rss_mib": summary["peak_rss_mib"]}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            report.update(
                passes=len(results),
                host_speed=host_speed(results),
                mean_pass_s=statistics.mean(pass_times),
                fastest_pass_s=min(pass_times),
                setup_samples=len(setup.times),
                import_median_s=statistics.median(setup.times),
                numpy_import_median_s=statistics.median(setup.numpy_times),
                latency={"req_p50_ms": 1e3 * statistics.median(latencies),
                         "req_tail_ms": 1e3 * tail, "tail_percentile": pct,
                         "samples": len(latencies)},
                artifact_sha256=summary["hashes"])
            runs = [run]
        else:
            base = drive(workload, seed, passes, root, env, deadline)
            traced = drive(workload, seed, len(base[1]), root, env, deadline,
                           trace=True)
            wall = scaled_wall(base[1])
            traced_wall = scaled_wall(traced[1])
            summary = traced[2]
            metrics = per_layer_metrics(summary["trace"], len(traced[1]),
                                        traced_wall - wall)
            report.update(passes=len(traced[1]), wall_s=wall,
                          traced_wall_s=traced_wall,
                          probes_missing=summary["probes_missing"])
            runs = [base, traced]
    finally:
        shutil.rmtree(os.path.join(root, OUT_DIR, workload),
                      ignore_errors=True)

    attempted, failed, failures = _tally(*runs)
    report.update(attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, failures=failures[:5],
                  env=environment(root, seed, summary["env"]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    shown = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not trace:
        lat = report["latency"]
        shown += [("req_p50_ms", lat["req_p50_ms"], "ms"),
                  ("req_tail_ms", lat["req_tail_ms"],
                   "ms (p%.4g of %d requests)" % (lat["tail_percentile"],
                                                  lat["samples"]))]
    shown.append(("fail_ratio", failed / attempted,
                  "ratio (%d of %d)" % (failed, attempted)))
    lines = ["%-9s %-36s %14.6g %s" % ((workload,) + row) for row in shown]
    return result, report, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description="revfront benchmark")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        root = checkout_root()
        env = child_env(root)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, report, lines = run_workload(
                name, args.seed, args.seconds, bool(args.trace), root, env,
                time.monotonic() + RUN_LIMIT_S)
            results[name] = (result, report)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    if len(names) == 1:
        result, report = results[names[0]]
    else:
        report = {name: rep for name, (_, rep) in results.items()}
        result = {
            "correct": all(r["correct"] for r, _ in results.values()),
            "attempted": sum(r["attempted"] for r, _ in results.values()),
            "failed": sum(r["failed"] for r, _ in results.values()),
            "metrics": {"%s.%s" % (name, k): v
                        for name, (r, _) in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
