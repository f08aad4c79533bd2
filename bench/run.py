"""ehadc benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py                 # every workload, untraced then traced, seed 0
    python3 bench/run.py --workload run_ref --seed 3 --seconds 30 --trace 0

Workloads (each a closed loop: one client, one operation at a time):
  run_ref      `ehadc run` on the two shipped configs, alternating
  sweep_alpha  `ehadc sweep` over six alpha values, --jobs 2 and --jobs 1
  api_pass     load_config + build_scenario + engine.run + cli.summarize
               on a pass-transistor variant of the 10 kHz config

Seed 0 runs the configs as shipped. Any other seed draws each config's
signal.phase_rad uniformly from [0, 2*pi), writes the generated configs to
a scratch directory, and picks the order of operations.

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics, whose times are ratios to a reference kernel timed around each
operation on the same CPU (hostref.py); with --trace 1 it holds the
per-layer metrics of a traced in-process run. Everything the benchmark
writes goes to .bench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time

import checks
import hostref

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("run_ref", "sweep_alpha", "api_pass")
CONFIGS = {
    "lowfreq": os.path.join(ROOT, "configs", "lowfreq.cfg"),
    "highfreq": os.path.join(ROOT, "configs", "highfreq.cfg"),
    "lowfreq_pass": os.path.join(BENCH_DIR, "configs", "lowfreq_pass.cfg"),
}
WORKLOAD_CONFIGS = {
    "run_ref": ["lowfreq", "highfreq"],
    "sweep_alpha": ["lowfreq"],
    "api_pass": ["lowfreq_pass"],
}
SWEEP_SPEC = "0.05:0.3:0.05"
SWEEP_VALUES = [0.05 + i * 0.05 for i in range(6)]
SWEEP_JOBS = 2
ALL_CPUS = frozenset(os.sched_getaffinity(0))
# Untraced runs pin themselves, and so every single-process child, to this
# CPU, so that the reference kernel gauges the CPU the operation runs on
# (see hostref.py). Only the --jobs 2 sweep gets every CPU back.
PIN_CPU = min(ALL_CPUS)
# Fewest setup probes per run; more are taken between operations when time allows.
MIN_SETUP_PROBES = 7
# A child that runs this much longer than its work should take is killed and
# counts as failed.
CHILD_TIMEOUT_S = 120.0

SETUP_CODE = (
    "import sys, ehadc\n"
    "from ehadc.config import build_scenario, load_config\n"
    "for path in sys.argv[1:]:\n"
    "    build_scenario(load_config(path))\n"
)

# The end-to-end metrics of BENCHMARK.json, then raw times that are printed
# and kept in the result file but left out of the result line, because the
# host's speed moves them by tens of percent (see hostref.py).
E2E_UNITS = {"wall_rel": "ratio", "serial_wall_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
RAW_UNITS = {"wall_s": "s", "serial_wall_s": "s", "ref_kernel_s": "s"}
# Metrics of the traced run that come from the tracer itself, not a layer.
TRACE_UNITS = {"trace.overhead_frac": "ratio", "trace.span_cost_ns": "ns"}


class Run:
    """Samples, failures and output digests of one benchmark run."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.digests: dict[str, dict] = {}

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def record(self, problems: list[str]) -> bool:
        """Count one operation; it fails if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def repeat(self, key: str, digests: dict) -> list[str]:
        """Digests of the first repetition become the reference for the rest."""
        reference = self.digests.setdefault(key, digests)
        return checks.check_repeat(reference, digests, key)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=os.path.join(OUT, "tmp"))
    env.pop("ESAMPLE_OUT_DIR", None)  # it would redirect every output directory
    return env


def unpin() -> None:
    os.sched_setaffinity(0, ALL_CPUS)


def run_child(cmd: list[str], stdout_path: str, timeout: float = CHILD_TIMEOUT_S,
              all_cpus: bool = False) -> tuple[float, int, float, str]:
    """Run one child process; returns wall seconds, exit code, peak RSS in MB, stderr.

    The child inherits this process's CPU affinity unless all_cpus is set.
    It is reaped with wait4 so its peak resident memory (and that of any
    children it waited for) is read from the kernel's accounting.
    """
    err_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        lock = threading.Lock()
        exited = False
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
                                preexec_fn=unpin if all_cpus else None)

        def kill():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                exited = True
        finally:
            timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()[-2000:]
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stderr


def bracketed_child(run: Run, cmd: list[str], stdout_path: str,
                    all_cpus: bool = False) -> tuple[float, float, int, float, str]:
    """run_child between two reference-kernel passes.

    Returns wall seconds, wall over the passes' mean, exit code, peak RSS in
    MB and stderr.
    """
    before = hostref.kernel_s()
    wall, code, rss, err = run_child(cmd, stdout_path, all_cpus=all_cpus)
    after = hostref.kernel_s()
    run.add("ref_kernel_s", before)
    run.add("ref_kernel_s", after)
    return wall, wall / ((before + after) / 2.0), code, rss, err


def exit_problems(what: str, code: int, stderr: str) -> list[str]:
    return [] if code == 0 else [f"{what}: exit code {code}: {stderr.strip()[-300:]}"]


def make_configs(workload: str, seed: int, work_dir: str) -> tuple[dict, random.Random]:
    """Config paths for the workload, generated from the seed."""
    rng = random.Random(seed)
    paths = {}
    for name in WORKLOAD_CONFIGS[workload]:
        if seed == 0:
            paths[name] = CONFIGS[name]
            continue
        phase = rng.random() * 2.0 * math.pi
        with open(CONFIGS[name]) as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if ln.split("#", 1)[0].split("=", 1)[0].strip() != "signal.phase_rad"]
        lines.append(f"signal.phase_rad = {phase!r}")
        paths[name] = os.path.join(work_dir, f"{name}.cfg")
        with open(paths[name], "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return paths, rng


def setup_probe(run: Run, paths: list[str]) -> None:
    wall, code, _, err = run_child([sys.executable, "-c", SETUP_CODE, *paths],
                                   os.path.join(run.work_dir, "setup.out"))
    if run.record(exit_problems("setup", code, err)):
        run.add("setup_s", wall)


def top_up_setup(run: Run, paths: list[str]) -> None:
    while len(run.samples.get("setup_s", [])) < MIN_SETUP_PROBES and run.failed == 0:
        setup_probe(run, paths)


def cli_run(run: Run, name: str, path: str) -> tuple[float, float, float] | None:
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=run.work_dir)
    wall, rel, code, rss, err = bracketed_child(
        run, [sys.executable, "-m", "ehadc", "run", path, "--out", out_dir],
        os.path.join(run.work_dir, "child.out"))
    problems = exit_problems(f"ehadc run {name}", code, err)
    if not problems:
        try:
            with open(os.path.join(out_dir, "summary.json")) as fh:
                problems += checks.check_summary(json.load(fh), name)
            files = ("summary.json", "trace.csv", "codes.csv", "spectrum.csv")
            problems += run.repeat(name, {f: checks.sha256_file(os.path.join(out_dir, f)) for f in files})
        except (OSError, ValueError) as exc:
            problems.append(f"ehadc run {name}: unreadable output: {exc}")
    shutil.rmtree(out_dir)
    return (wall, rel, rss) if run.record(problems) else None


def workload_run_ref(run: Run, paths: dict, rng: random.Random, seconds: float) -> None:
    order = list(paths)
    if rng.random() < 0.5 and run.seed != 0:
        order.reverse()
    cli_run(run, order[0], paths[order[0]])  # warm-up, checked but not timed
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < len(order):
        name = order[i % len(order)]
        measured = cli_run(run, name, paths[name])
        if measured:
            for metric, value in zip(("wall_s", "wall_rel", "peak_rss_mb"), measured):
                run.add(metric, value)
            run.add("serial_wall_s", measured[0])
            run.add("serial_wall_rel", measured[1])
        setup_probe(run, list(paths.values()))
        i += 1
    top_up_setup(run, list(paths.values()))


def sweep_pair(run: Run, path: str, jobs_order: list[int]) -> dict | None:
    """Sweeps with each of jobs_order; with both job counts, their files must match."""
    measured, files, problems = {}, {}, []
    for jobs in jobs_order:
        out_dir = tempfile.mkdtemp(prefix=f"sweep{jobs}-", dir=run.work_dir)
        wall, rel, code, rss, err = bracketed_child(
            run, [sys.executable, "-m", "ehadc", "sweep", path, "--param", "alpha",
                  "--values", SWEEP_SPEC, "--jobs", str(jobs), "--out", out_dir],
            os.path.join(run.work_dir, "child.out"), all_cpus=jobs > 1)
        problems += exit_problems(f"ehadc sweep --jobs {jobs}", code, err)
        try:
            with open(os.path.join(out_dir, "sweep.csv"), "rb") as fh:
                files[jobs] = fh.read()
        except OSError as exc:
            problems.append(f"ehadc sweep --jobs {jobs}: no sweep.csv: {exc}")
        shutil.rmtree(out_dir)
        measured[jobs] = (wall, rel, rss)
    if len(files) == len(jobs_order):
        first, last = files[jobs_order[0]], files[jobs_order[-1]]
        problems += checks.check_sweep(first, last, SWEEP_VALUES, "lowfreq")
        problems += run.repeat("sweep", {"sweep.csv": hashlib.sha256(first).hexdigest()})
    return measured if run.record(problems) else None


def workload_sweep_alpha(run: Run, paths: dict, rng: random.Random, seconds: float) -> None:
    path = paths["lowfreq"]
    sweep_pair(run, path, [SWEEP_JOBS])  # warm-up, checked but not timed
    start = time.perf_counter()
    pairs = 0
    while time.perf_counter() - start < seconds or pairs == 0:
        pairs += 1
        jobs_order = [SWEEP_JOBS, 1]
        if run.seed != 0 and rng.random() < 0.5:
            jobs_order.reverse()
        measured = sweep_pair(run, path, jobs_order)
        if measured:
            for metric, value in zip(("wall_s", "wall_rel", "peak_rss_mb"), measured[SWEEP_JOBS]):
                run.add(metric, value)
            run.add("serial_wall_s", measured[1][0])
            run.add("serial_wall_rel", measured[1][1])
        setup_probe(run, [path])
    top_up_setup(run, [path])


def workload_api_pass(run: Run, paths: dict, rng: random.Random, seconds: float) -> None:
    path = paths["lowfreq_pass"]
    # Half the setup probes before the loop and half after, so that they
    # sample the host over the whole run.
    for _ in range(MIN_SETUP_PROBES // 2):
        setup_probe(run, [path])
    out_path = os.path.join(run.work_dir, "api.out")
    _, code, rss, err = run_child(
        [sys.executable, os.path.join(BENCH_DIR, "api_loop.py"), path, repr(seconds)], out_path,
        timeout=seconds + CHILD_TIMEOUT_S)
    timed = {"wall_s": [], "wall_rel": [], "ref_kernel_s": []}
    with open(out_path) as fh:
        for line in fh:
            op = json.loads(line)
            problems = checks.check_summary(op["summary"], "lowfreq_pass")
            problems += run.repeat("api", {"result": op["digest"]})
            if run.record(problems) and not op["warmup"]:
                timed["wall_s"].append(op["wall_s"])
                timed["wall_rel"].append(op["wall_rel"])
                timed["ref_kernel_s"] += op["ref_kernel_s"]
    if code != 0 or not timed["wall_s"]:
        run.record(exit_problems("api loop", code, err) or ["api loop: no timed operation"])
    else:
        run.samples.update(timed)
        run.samples["serial_wall_s"] = list(timed["wall_s"])
        run.samples["serial_wall_rel"] = list(timed["wall_rel"])
        run.add("peak_rss_mb", rss)
    top_up_setup(run, [path])


def traced_run(run: Run, paths: dict, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced batteries of layer calls.

    Returns the per-layer samples and their units.
    """
    sys.path.insert(0, SRC)
    import layers  # imports ehadc from the checkout's src/

    quiet, tracer = layers.Tracer(False), layers.Tracer(True)
    walls = {False: [], True: []}
    start = time.perf_counter()
    # Start another pair only if it should end within the measured time.
    while not walls[True] or time.perf_counter() - start + walls[False][-1] + walls[True][-1] <= seconds:
        for tr in (quiet, tracer):
            t0 = time.perf_counter()
            try:
                problems = layers.battery(tr, paths, SWEEP_VALUES, run.work_dir)
            except Exception as exc:  # a raising layer is a failed operation, not a crash
                problems = [f"layer battery raised {exc!r}"]
            walls[tr.enabled].append(time.perf_counter() - t0)
            run.record(problems)
    samples = layers.layer_samples(tracer)
    # Span overhead: median traced battery over median untraced battery, minus one.
    traced, untraced = (checks.describe(walls[k])["median"] for k in (True, False))
    samples["trace.overhead_frac"] = [traced / untraced - 1.0]
    samples["trace.span_cost_ns"] = [layers.span_cost_ns()]
    span_path = os.path.join(OUT, f"spans_{run.workload}_seed{run.seed}.json")
    with open(span_path, "w") as fh:
        json.dump({"battery_walls_s": {"untraced": walls[False], "traced": walls[True]},
                   "spans": tracer.spans}, fh)
    print(f"spans: {span_path}")
    units = {m: u for m, (_, u, _) in layers.LAYER_METRICS.items()}
    units.update(TRACE_UNITS)
    return samples, units


def environment(paths: dict, trace: bool) -> dict:
    """Versions, machine and config digests recorded with each result."""
    env = child_env()
    code = "import sys, numpy, ehadc; print(sys.version.split()[0], numpy.__version__, ehadc.__version__)"
    versions = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.split()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": versions[0], "numpy": versions[1], "ehadc": versions[2],
        "git_commit": commit, "nproc": len(ALL_CPUS), "pinned_cpu": None if trace else PIN_CPU, "cpu_model": cpu,
        "config_sha256": {name: checks.sha256_file(p) for name, p in paths.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-s{seed}-t{int(trace)}-", dir=OUT)
    try:
        paths, rng = make_configs(workload, seed, work_dir)
        run = Run(workload, seed, work_dir)
        env = environment(paths, trace)
        if trace:
            # Unpinned: the battery's in-process sweep starts two workers.
            samples, units = traced_run(run, paths, seconds)
        else:
            os.sched_setaffinity(0, {PIN_CPU})
            {"run_ref": workload_run_ref, "sweep_alpha": workload_sweep_alpha,
             "api_pass": workload_api_pass}[workload](run, paths, rng, seconds)
            samples, units = run.samples, {**E2E_UNITS, **RAW_UNITS}
    finally:
        unpin()
        shutil.rmtree(work_dir, ignore_errors=True)
    stats = {m: dict(checks.describe(samples[m]), unit=units[m]) for m in units if samples.get(m)}
    missing = sorted(set(units) - set(stats))
    if missing and not run.failed:
        run.record([f"no samples for {', '.join(missing)}"])
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "digests": run.digests, "stats": stats,
        "samples": {m: samples[m] for m in stats},
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1), "problems": run.problems,
    }
    with open(os.path.join(OUT, f"result_{workload}_seed{seed}_trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"({result['seconds']:g} s measured)")
    for name, s in result["stats"].items():
        print(f"  {name:26s} {s['median']:14.6g} {s['unit']:6s} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    print(f"  {'failed_frac':26s} {result['failed_frac']:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"][:20]:
        print(f"  FAILED: {problem}")
    print(f"  digests: {json.dumps(result['digests'], sort_keys=True)}")
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced per-layer run; 0: end-to-end metrics")
    args = parser.parse_args(argv)

    needed = [os.path.join(SRC, "ehadc", "__init__.py"), *CONFIGS.values()]
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        print(f"error: not a checkout of ehadc, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    results = [run_workload(w, args.seed, args.seconds, t) for t in traces for w in workloads]
    for result in results:
        report(result)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}.{'trace' if r['trace'] else 'e2e'}."
        for name, s in r["stats"].items():
            if name in RAW_UNITS:
                continue
            metrics[prefix + name] = {"value": s["median"], "unit": s["unit"]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
