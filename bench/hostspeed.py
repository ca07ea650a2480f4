"""Reference work that gauges the host's speed while the benchmark runs.

On the 2-vCPU VM this benchmark was tuned on, the same code runs up to
~1.7x slower for stretches of seconds to minutes while other tenants
load the machine, so a bare wall-clock time mostly reports the host's
state.  The worker therefore times fixed reference work between the
program's requests, and the driver scales the program's time by
REFERENCE_S / (mean reference time of the run): the time the work would
take on the host at its reference speed.  A change to the program moves
the scaled time as much as the raw one; a change in the host's state
slows the program and the reference alike and cancels.  The raw times
stay in the run report.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.02      # about the mean of reference() on the tuning host


def reference():
    """Time one fixed piece of interpreter, numpy and formatting work.

    The mix follows the program's: Python-level loops, numpy on arrays of
    grid size, and float formatting as the artifact writers do it.
    """
    start = time.perf_counter()
    s = 0
    for i in range(50000):
        s += i * i
    x = np.linspace(0.0, 1.0, 4000)
    for _ in range(100):
        x = np.sin(x) * 0.5 + 0.1
    "\n".join("v %.17g %.17g %.17g" % (a, a, a) for a in x.tolist())
    return time.perf_counter() - start
