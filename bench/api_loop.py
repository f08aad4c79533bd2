"""Closed loop over the public Python API, run as a child of run.py.

Usage: python3 api_loop.py CONFIG SECONDS

One operation is load_config + build_scenario + engine.run + cli.summarize,
timed as a whole between two passes of the reference kernel (hostref.py).
The first operation is a warm-up. The loop runs operations back to back
until SECONDS have passed after the warm-up and prints one JSON line per
operation: its wall time, that wall time over the mean of the two kernel
passes, the passes' own times, the summary, and a sha256 over the summary
and the result arrays, taken outside the timed region.
"""

import hashlib
import json
import sys
import time

import hostref
from ehadc import cli, engine
from ehadc.config import build_scenario, load_config


def digest(summary: dict, result) -> str:
    h = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    trace = result.trace
    for array in (trace.t, trace.v_in, trace.phase, trace.v_dac, trace.v_ceh,
                  trace.codes, trace.v_sampled, trace.saturated):
        h.update(array.tobytes())
    return h.hexdigest()


def operation(path: str):
    scenario, options = build_scenario(load_config(path))
    result = engine.run(scenario, spectral=options.spectral, eh=options.eh)
    return cli.summarize(scenario, result), result


def main() -> int:
    path, seconds = sys.argv[1], float(sys.argv[2])
    start = None
    while start is None or time.perf_counter() - start < seconds:
        before = hostref.kernel_s()
        t0 = time.perf_counter()
        summary, result = operation(path)
        wall = time.perf_counter() - t0
        after = hostref.kernel_s()
        print(json.dumps({"warmup": start is None, "wall_s": wall,
                          "wall_rel": wall / ((before + after) / 2.0), "ref_kernel_s": [before, after],
                          "summary": summary, "digest": digest(summary, result)}), flush=True)
        if start is None:
            start = time.perf_counter()
    return 0


if __name__ == "__main__":
    sys.exit(main())
