"""Reference kernel that gauges the host's speed at the moment of a measurement.

The benchmark's host is a shared VM whose speed changes by up to 1.7x, in
phases that last from seconds to many minutes; every kind of work moves
with it. Each timed operation is bracketed by two runs of this fixed
kernel, and the end-to-end time metrics report the operation's wall time
over the mean wall time of its two brackets. The host's speed cancels in
that ratio; the program's own speed does not, because the kernel runs no
ehadc code and the operation has ended before the closing bracket starts.

The host's speed differs between its CPUs, so the kernel only gauges an
operation that runs on the same CPU: run.py pins the benchmark and its
single-process children to one CPU, and the API loop runs kernel and
operation in one process.

The kernel mixes the three kinds of work the operations do: a pure-Python
loop, float-to-text formatting (the CSV writers) and numpy array arithmetic.
"""

from __future__ import annotations

import time

import numpy as np

_FLOATS = [i * 1.000001e-7 + 0.3 for i in range(12_000)]
_ARRAY = np.linspace(0.0, 1.0, 100_000)


def kernel_s() -> float:
    """Wall seconds of one pass of the fixed reference work (about 50 ms on a 2-core Xeon VM)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i
    "".join(f"{x!r},{x!r}\n" for x in _FLOATS)
    for _ in range(10):
        np.cumsum(np.exp(_ARRAY) * _ARRAY)
    return time.perf_counter() - t0

