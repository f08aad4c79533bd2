"""Traced per-layer run: spans around calls into each ehadc layer.

The spans are recorded here, around calls to each layer's public
functions, not inside the program. One *battery* calls every layer once on
the workload's scenarios; run.py alternates untraced and traced batteries,
and the difference of their wall times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import shutil
import tempfile
import time

import numpy as np

import checks
from ehadc import cli, engine, frontend, harvester, sar_adc, spectral, stimulus
from ehadc.config import build_scenario, load_config

# Calls per batch of the per-call frontend timings.
FRONTEND_BATCH = 50_000


class Tracer:
    """In-memory span recorder. A disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self.batch = 0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append({"id": index, "name": name, "batch": self.batch,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter(), "end": None})
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append(value)


def span_cost_ns(n: int = 20_000) -> float:
    """Cost of one recorded span, from n empty spans on a fresh tracer."""
    tr = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("empty"):
            pass
    return (time.perf_counter() - t0) / n * 1e9


def self_times(spans: list[dict]) -> None:
    """Set each span's ``self_s``: its duration minus what its children cover.

    Children of one span run one after another, so their durations add.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    for s, c in zip(spans, covered):
        s["self_s"] = s["end"] - s["start"] - c


def _grid(scenario) -> tuple[np.ndarray, np.ndarray]:
    """Acquisition and harvest time grids of the run's shape (n_periods, n_sub + 1)."""
    plan = scenario.clock
    starts = np.arange(plan.n_periods, dtype=float)[:, None] * plan.t_s
    j = np.arange(scenario.n_sub + 1, dtype=float)[None, :]
    return starts + j * (plan.t_aq / scenario.n_sub), starts + plan.t_aq + j * (plan.t_eh / scenario.n_sub)


def _per_call_ns(fn, args: list[tuple]) -> float:
    t0 = time.perf_counter()
    for a in args:
        fn(*a)
    return (time.perf_counter() - t0) / len(args) * 1e9


def one_config(tr: Tracer, design: str, path: str, out_dir: str) -> list[str]:
    """Call every layer once on one config; returns the problems found."""
    problems = []
    with tr.span("config.load"):
        cfg = load_config(path)
    with tr.span("config.build"):
        scenario, options = build_scenario(cfg)
    with tr.span("engine.validate"):
        s1 = engine.validate(scenario)

    t_aq, t_eh = _grid(scenario)
    with tr.span("stimulus.sample"):
        scenario.source.sample_at(t_aq)
        v_eh_in = scenario.source.sample_at(t_eh)
    with tr.span("harvester.envelope"):
        harvester.rectified_envelope(v_eh_in, scenario.eh.rectifier)

    with tr.span("engine.transient"):
        bare = engine.run(scenario, spectral=False, eh=False)
    with tr.span("engine.run"):
        result = engine.run(scenario, spectral=options.spectral, eh=options.eh)
    trace = result.trace
    tr.count("engine.substeps", len(trace.t))

    v_sampled = trace.v_sampled.tolist()
    with tr.span("sar_adc.convert"):
        codes = [sar_adc.sar_convert(v, scenario.adc) for v in v_sampled]
    tr.count("sar_adc.conversions", len(codes))
    if codes != trace.codes.tolist() or not np.array_equal(bare.trace.v_ceh, trace.v_ceh):
        problems.append(f"{path}: layer calls disagree with engine.run")

    sig_bin = round(scenario.source.frequency * scenario.n_fft / scenario.clock.f_s)
    with tr.span("spectral.spectrum"):
        spec = spectral.spectrum(trace.codes[-scenario.n_fft:], scenario.adc, scenario.clock.f_s, sig_bin)
    with tr.span("spectral.sndr"):
        sndr_db = spectral.sndr(spec)
    p_in = scenario.p_in if scenario.p_in is not None else stimulus.rms_power(scenario.source)
    with tr.span("harvester.metrics"):
        metrics = harvester.steady_state_metrics(
            trace, p_in, scenario.eh, scenario.source.amplitude, tol=scenario.steady_tol)
    if sndr_db != result.sndr_db or metrics != result.eh:
        problems.append(f"{path}: spectral or harvesting layer disagrees with engine.run")

    s2 = scenario.eh.s2
    v_lo = scenario.source.dc_offset - scenario.source.amplitude
    v_hi = scenario.source.dc_offset + scenario.source.amplitude
    volts = np.linspace(v_lo, v_hi, FRONTEND_BATCH).tolist()
    c_load, dt = sar_adc.c_dac(scenario.adc), scenario.clock.t_aq / scenario.n_sub
    r1 = frontend.r_on(s1, 0.0)
    with tr.span("frontend.rc_step"):
        rc_ns = _per_call_ns(frontend.rc_step_value, [(0.0, v, v, r1, c_load, dt) for v in volts])
    env = np.maximum(np.abs(volts) - scenario.eh.rectifier.v_drop, 0.0).tolist()
    with tr.span("frontend.r_on"):
        r_on_ns = _per_call_ns(frontend.r_on, [(s1, v) for v in volts] + [(s2, e) for e in env])
    tr.count("frontend.rc_step_ns", rc_ns)
    tr.count("frontend.r_on_ns", r_on_ns)

    with tr.span("cli.summarize"):
        summary = cli.summarize(scenario, result)
    with tr.span("cli.outputs"):
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, "trace.csv")
        with tr.span("cli.write_trace"):
            cli.write_trace_csv(trace, trace_path)
        with tr.span("cli.write_codes"):
            cli.write_codes_csv(trace, os.path.join(out_dir, "codes.csv"))
        with tr.span("spectral.write"):
            spectral.write_spectrum_csv(spec, os.path.join(out_dir, "spectrum.csv"))
    tr.count("cli.trace_rows", len(trace.t))
    tr.count("cli.trace_bytes", os.path.getsize(trace_path))
    problems += checks.check_summary(summary, design)
    shutil.rmtree(out_dir)
    return problems


def sweep_layer(tr: Tracer, path: str, values: list[float]) -> list[str]:
    """The alpha sweep in process, serial and with two workers."""
    scenario, options = build_scenario(load_config(path))
    kw = dict(spectral=options.spectral, eh=options.eh)
    with tr.span("engine.sweep_serial"):
        serial = engine.sweep(scenario, "alpha", values, jobs=1, **kw)
    with tr.span("engine.sweep_parallel"):
        parallel = engine.sweep(scenario, "alpha", values, jobs=2, **kw)
    ok = sum(row.error is None for row in parallel)
    tr.count("engine.sweep_rows_ok", ok / len(parallel))
    tr.count("engine.sweep_row_bytes", len(pickle.dumps(parallel[0])))
    problems = []
    if ok != len(parallel):
        problems.append(f"{path}: {len(parallel) - ok} sweep rows failed")
    if [r.result.eh for r in serial if r.result] != [r.result.eh for r in parallel if r.result]:
        problems.append(f"{path}: serial and parallel sweeps differ")
    return problems


def battery(tr: Tracer, paths: dict[str, str], sweep_values: list[float], work_dir: str) -> list[str]:
    """One pass over every layer for the workload's configs, keyed by design name."""
    problems = []
    with tr.span("battery"):
        for design, path in paths.items():
            problems += one_config(tr, design, path, tempfile.mkdtemp(prefix=f"{design}-", dir=work_dir))
        problems += sweep_layer(tr, next(iter(paths.values())), sweep_values)
    tr.batch += 1
    return problems


# Per-layer metric name -> (span or count name, unit, how the value is taken).
LAYER_METRICS = {
    "config.load_s": ("config.load", "s", "span"),
    "config.build_s": ("config.build", "s", "span"),
    "engine.validate_s": ("engine.validate", "s", "span"),
    "engine.transient_s": ("engine.transient", "s", "span"),
    "engine.substeps": ("engine.substeps", "count", "count"),
    "engine.ns_per_substep": (None, "ns", "derived"),
    "engine.run_s": ("engine.run", "s", "span"),
    "engine.sweep_serial_s": ("engine.sweep_serial", "s", "span"),
    "engine.sweep_parallel_s": ("engine.sweep_parallel", "s", "span"),
    "engine.sweep_row_bytes": ("engine.sweep_row_bytes", "bytes", "count"),
    "engine.sweep_rows_ok": ("engine.sweep_rows_ok", "ratio", "count"),
    "frontend.rc_step_ns": ("frontend.rc_step_ns", "ns", "count"),
    "frontend.r_on_ns": ("frontend.r_on_ns", "ns", "count"),
    "stimulus.sample_s": ("stimulus.sample", "s", "span"),
    "sar_adc.convert_s": ("sar_adc.convert", "s", "span"),
    "sar_adc.conversions": ("sar_adc.conversions", "count", "count"),
    "harvester.envelope_s": ("harvester.envelope", "s", "span"),
    "harvester.metrics_s": ("harvester.metrics", "s", "span"),
    "spectral.spectrum_s": ("spectral.spectrum", "s", "span"),
    "spectral.sndr_s": ("spectral.sndr", "s", "span"),
    "spectral.write_s": ("spectral.write", "s", "span"),
    "cli.write_trace_s": ("cli.write_trace", "s", "span"),
    "cli.trace_rows": ("cli.trace_rows", "count", "count"),
    "cli.trace_bytes": ("cli.trace_bytes", "bytes", "count"),
    "cli.write_codes_s": ("cli.write_codes", "s", "span"),
    "cli.summarize_s": ("cli.summarize", "s", "span"),
}


def layer_samples(tr: Tracer) -> dict[str, list[float]]:
    """Samples of every per-layer metric: span self times and counts."""
    self_times(tr.spans)
    samples = {}
    for metric, (source, _, kind) in LAYER_METRICS.items():
        if kind == "span":
            samples[metric] = [s["self_s"] for s in tr.spans if s["name"] == source]
        elif kind == "count":
            samples[metric] = list(tr.counts.get(source, []))
    samples["engine.ns_per_substep"] = [
        t / n * 1e9 for t, n in zip(samples["engine.transient_s"], samples["engine.substeps"])]
    return samples
