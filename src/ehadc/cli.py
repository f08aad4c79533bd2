"""Command-line front end.

Subcommands:
  run       simulate one config and write trace/codes/spectrum/summary files
  sweep     rerun a config across values of one parameter, write sweep.csv
  size-cap  storage-capacitor sizing from load current, period, and ripple
  analyze   recompute SNDR/ENOB and a spectrum from an existing codes.csv

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
non-convergence. The ESAMPLE_OUT_DIR environment variable overrides the
output directory of any subcommand that writes files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import spectral
from .clocking import PHASE_LABELS, Phase
from .config import RunOptions, build_scenario, load_config
from .engine import (
    SWEEPABLE_PARAMETERS,
    Scenario,
    SimulationResult,
    TransientTrace,
    apply_parameter,
    input_power,
    run,
    sweep,
)
from .errors import ConfigError, NotConverged, ValidationError
from .harvester import size_capacitor
from .sar_adc import AdcConfig, c_dac

# The summarize() keys that sweep.csv reports for each row.
SWEEP_COLUMNS = ("v_eh_v", "t_ceh_s", "eta_v", "eta_e", "sndr_db", "enob")

# Rows of trace.csv formatted and written at a time.
_TRACE_CHUNK = 8192


def _out_dir(args, options: RunOptions | None) -> str:
    env = os.environ.get("ESAMPLE_OUT_DIR")
    if env:
        return env
    if getattr(args, "out", None):
        return args.out
    if options is not None:
        return options.out_dir
    return "out"


def _float_reprs(col: np.ndarray) -> list[str]:
    """repr of each float64 in col, computed once per run of bit-identical values.

    Runs are found on the int64 view, not with float ==, because 0.0 == -0.0
    while their reprs differ.
    """
    bits = col.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if len(starts) == len(col):
        return list(map(repr, col.tolist()))
    heads = np.array(list(map(repr, col[starts].tolist())), dtype=object)
    return np.repeat(heads, np.diff(starts, append=len(col))).tolist()


def write_trace_csv(trace: TransientTrace, path) -> None:
    """One row per sub-step, each float cell its repr; formatted and written
    _TRACE_CHUNK rows at a time so memory does not grow with the row count."""
    labels = np.array([PHASE_LABELS[Phase(p)] for p in (0, 1)], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write("t_s,v_in,phase,v_dac,v_ceh\n")
        for lo in range(0, len(trace.t), _TRACE_CHUNK):
            block = slice(lo, lo + _TRACE_CHUNK)
            fh.writelines(
                f"{t},{vi},{ph},{vd},{vc}\n"
                for t, vi, ph, vd, vc in zip(
                    _float_reprs(trace.t[block]),
                    _float_reprs(trace.v_in[block]),
                    labels[trace.phase[block]].tolist(),
                    _float_reprs(trace.v_dac[block]),
                    _float_reprs(trace.v_ceh[block]),
                )
            )


def write_codes_csv(trace: TransientTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("period,code,v_sampled,saturated\n")
        fh.writelines(
            f"{p},{c},{v!r},{int(s)}\n"
            for p, (c, v, s) in enumerate(
                zip(trace.codes.tolist(), trace.v_sampled.tolist(), trace.saturated.tolist())
            )
        )


def summarize(scenario: Scenario, result: SimulationResult) -> dict:
    """Flat summary of one run, one value per reported metric."""
    plan = scenario.clock
    p_in = input_power(scenario)
    m = result.eh
    return {
        "f_s_hz": plan.f_s,
        "t_s_s": plan.t_s,
        "t_aq_s": plan.t_aq,
        "t_eh_s": plan.t_eh,
        "alpha": plan.alpha,
        "f_in_hz": getattr(scenario.source, "frequency", None),
        "n_bits": scenario.adc.n_bits,
        "v_ref_v": scenario.adc.v_ref,
        "c_dac_f": c_dac(scenario.adc),
        "s1_r_on_ohm": result.s1_resolved.r_on_ohm,
        "c_eh_f": scenario.eh.c_eh,
        "v_drop_v": scenario.eh.rectifier.v_drop,
        "r_series_ohm": scenario.eh.rectifier.r_series,
        "p_in_w": p_in.p_in_rms,
        "p_in_provenance": p_in.provenance.value,
        "v_eh_v": m.v_eh if m else None,
        "t_ceh_s": m.t_ceh if m else None,
        "eta_v": m.eta_v if m else None,
        "eta_e": m.eta_e if m else None,
        "e_h_j": m.e_h if m else None,
        "sndr_db": result.sndr_db,
        "enob": result.enob,
    }


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    scenario, options = build_scenario(cfg)
    result = run(scenario, spectral=options.spectral, eh=options.eh)
    summary = summarize(scenario, result)

    # All computation is done; only now touch the filesystem. Each file is
    # written under a temporary name and all are moved into place only after
    # every write succeeded, so a failed run leaves no partial outputs behind.
    out = _out_dir(args, options)
    os.makedirs(out, exist_ok=True)
    names = ["trace.csv", "codes.csv", "summary.json"]
    if result.spectrum is not None:
        names.append("spectrum.csv")
    staged = {name: os.path.join(out, f".{name}.{os.getpid()}.tmp") for name in names}
    try:
        write_trace_csv(result.trace, staged["trace.csv"])
        write_codes_csv(result.trace, staged["codes.csv"])
        if result.spectrum is not None:
            spectral.write_spectrum_csv(result.spectrum, staged["spectrum.csv"])
        with open(staged["summary.json"], "w") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
        for name, tmp in staged.items():
            os.replace(tmp, os.path.join(out, name))
    finally:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
    print(f"wrote {out}/summary.json")
    return 0


def _parse_values(spec: str) -> list[float]:
    """Sweep value list: either 'a,b,c' or an inclusive 'start:stop:step'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad range {spec!r}")
        n = math.floor((stop - start) / step + 1e-9)
        return [start + i * step for i in range(n + 1)]
    return [float(p) for p in spec.split(",") if p.strip()]


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    scenario, options = build_scenario(cfg)
    try:
        values = _parse_values(args.values)
        rows = sweep(
            scenario,
            args.param,
            values,
            jobs=args.jobs,
            spectral=options.spectral,
            eh=options.eh,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out = _out_dir(args, options)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("parameter", "value", *SWEEP_COLUMNS, "error"))
        for row in rows:
            cells = [""] * len(SWEEP_COLUMNS)
            if row.result is not None:
                summary = summarize(apply_parameter(scenario, row.parameter, row.value), row.result)
                cells = ["" if summary[k] is None else repr(summary[k]) for k in SWEEP_COLUMNS]
            writer.writerow((row.parameter, repr(row.value), *cells, row.error or ""))
    print(f"wrote {path}")
    return 0


def _cmd_size_cap(args) -> int:
    try:
        c = size_capacitor(args.i_load, args.t_p, args.delta_v)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(repr(c))
    return 0


def _read_codes_csv(path) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "code" not in reader.fieldnames:
                raise ConfigError("expected a CSV with a 'code' column", str(path))
            codes = [int(row["code"]) for row in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read codes: {exc}", str(path)) from exc
    except ValueError as exc:
        raise ConfigError(f"bad code value: {exc}", str(path)) from exc
    return np.asarray(codes, dtype=np.int64)


def _cmd_analyze(args) -> int:
    if args.n_fft < 1:
        raise ConfigError(f"n_fft must be positive, got {args.n_fft}")
    codes = _read_codes_csv(args.codes_csv)
    if len(codes) < args.n_fft:
        raise ConfigError(
            f"need at least n_fft = {args.n_fft} codes, file has {len(codes)}",
            str(args.codes_csv),
        )
    codes = codes[-args.n_fft:]
    try:
        adc = AdcConfig(n_bits=args.n_bits, v_ref=args.v_ref, c_unit=1e-12)
        if args.signal_bin is not None:
            bin_idx = args.signal_bin
            spec = spectral.spectrum(codes, adc, args.f_s, bin_idx)
        else:
            probe = spectral.spectrum(codes, adc, args.f_s, 1)
            bin_idx = int(np.argmax(probe.power[1 : args.n_fft // 2])) + 1
            spec = dataclasses.replace(probe, signal_bin=bin_idx)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sndr_db = spectral.sndr(spec)
    enob_bits = spectral.enob(sndr_db) if math.isfinite(sndr_db) else None

    out = _out_dir(args, None)
    os.makedirs(out, exist_ok=True)
    spectral.write_spectrum_csv(spec, os.path.join(out, "spectrum.csv"))
    print(f"signal_bin = {bin_idx}")
    print(f"sndr_db = {sndr_db!r}")
    print(f"enob = {enob_bits!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehadc",
        description="Behavioral simulator for an energy-harvesting ADC front end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario config")
    p_run.add_argument("config", help="path to a key=value scenario config")
    p_run.add_argument("--out", help="output directory (default: run.out_dir key)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun a config across one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE_PARAMETERS)
    p_sweep.add_argument("--values", required=True, help="comma list or start:stop:step")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel rows (default 1)")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_size = sub.add_parser("size-cap", help="storage capacitor sizing")
    p_size.add_argument("--i-load", type=float, required=True, help="load current in A")
    p_size.add_argument("--t-p", type=float, required=True, help="ripple period in s")
    p_size.add_argument("--delta-v", type=float, required=True, help="allowed ripple in V")
    p_size.set_defaults(func=_cmd_size_cap)

    p_an = sub.add_parser("analyze", help="SNDR/ENOB from an existing codes.csv")
    p_an.add_argument("codes_csv")
    p_an.add_argument("--n-bits", type=int, required=True)
    p_an.add_argument("--v-ref", type=float, required=True)
    p_an.add_argument("--f-s", type=float, required=True)
    p_an.add_argument("--n-fft", type=int, default=4096)
    p_an.add_argument("--signal-bin", type=int, default=None)
    p_an.add_argument("--out")
    p_an.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"error: not converged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
