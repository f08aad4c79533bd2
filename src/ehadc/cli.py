"""Command-line front end.

Subcommands:
  run       simulate one config and write trace/codes/spectrum/summary files
  sweep     rerun a config across values of one key, write sweep.csv
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
import decimal
import functools
import json
import math
import os
import sys

import numpy as np

from . import spectral
from .clocking import PHASE_LABELS, Phase
from .config import SWEEP_ALIASES, SWEEP_KEYS, RunOptions, build_scenario, load_config, scenario_with
from .engine import (
    Scenario,
    SimulationResult,
    TransientTrace,
    input_power,
    resolve_s1,
    run,
    sweep,
)
from .errors import ConfigError, NotConverged, ValidationError
from .harvester import size_capacitor
from .sar_adc import AdcConfig, c_dac

# Files written by `ehadc run`; spectrum.csv only with spectral metrics.
RUN_OUTPUTS = ("trace.csv", "codes.csv", "spectrum.csv", "summary.json")

# The summarize() keys that sweep.csv reports for each row.
SWEEP_COLUMNS = ("v_eh_v", "t_ceh_s", "eta_v", "eta_e", "sndr_db", "enob")

# Rows of trace.csv formatted and written at a time, rounded down to whole
# periods (at least one).
_TRACE_BLOCK_ROWS = 8192


def _out_dir(args, options: RunOptions | None) -> str:
    """The command's output directory. It is a usage error, found before any
    work, when the nearest part of the path that exists is not a directory:
    the path itself, or a file it would lie under. Only stats the path."""
    out = os.environ.get("ESAMPLE_OUT_DIR") or getattr(args, "out", None)
    out = out or (options.out_dir if options else "out")
    part = os.path.abspath(out)
    while not os.path.exists(part):
        part = os.path.dirname(part)
    if not os.path.isdir(part):
        raise ConfigError(f"output directory {out!r} is unusable: {part} is not a directory")
    return out


def write_trace_csv(trace: TransientTrace, path) -> None:
    """One row per sub-step, each float cell its repr.

    Written in blocks of whole periods, about _TRACE_BLOCK_ROWS rows each, so
    memory does not grow with the row count. A block is a (period, phase,
    sub-step, byte) array with the separators and phase labels fixed in
    place; each cell is a NUL-padded slot of floattext.text, and the NULs are
    dropped as the block is written. A block's times and inputs come from
    trace.inputs. The value a phase holds (v_ceh in acquisition, v_dac in
    harvest) is formatted once per period, and the harvest's v_ceh once per
    run of bit-equal values in the block: the storage cap holds its voltage
    through most harvest sub-steps, and each cell gathers its run's text.
    The block, its values and their text are buffers allocated once per
    call, because megabyte buffers allocated anew per block are faulted in
    anew when the heap is small.
    """
    # Loaded here, after the simulation's memory peak, which loading it
    # before would raise by its tables and code (about 0.2 MB).
    from . import floattext

    nper, nsub = trace.dac_aq.shape
    per_block = max(1, _TRACE_BLOCK_ROWS // (2 * nsub))
    # A row is "t,v_in,<label>,v_dac,v_ceh\n" with a w-byte slot per value
    # and the label padded to ",acq,".
    w = floattext.WIDTH
    t, v_in, v_dac, v_ceh = (slice(at, at + w) for at in (0, w + 1, 2 * w + 6, 3 * w + 7))
    aq, eh = Phase
    # The phase and field of each block part: values per sub-step, or per
    # period as (n, 1). The harvest's v_ceh cells are placed apart.
    cells = ((aq, t), (eh, t), (aq, v_in), (eh, v_in), (aq, v_dac), (eh, v_dac), (aq, v_ceh))
    dac_level, ceh_held = trace.dac_level[:, None], trace.ceh_held[:, None]
    rows = min(per_block, nper)
    # A bytearray, so a whole block is written without a tobytes copy.
    canvas = bytearray(rows * 2 * nsub * (4 * w + 8))
    block = np.frombuffer(canvas, dtype=np.uint8).reshape(rows, 2, nsub, 4 * w + 8)
    n_max = rows * (6 * nsub + 2)  # six parts per sub-step and two per period
    values_buf, text_buf = np.empty(n_max), np.empty((n_max, w), dtype=np.uint8)
    # Per harvest v_ceh cell: whether it starts a run of equal bits, and the
    # row of its text.
    first_buf, index_buf = np.empty(rows * nsub, dtype=bool), np.empty(rows * nsub, dtype=np.intp)
    held_buf = np.empty((rows * nsub, w), dtype=np.uint8)
    for phase in Phase:
        label = f",{PHASE_LABELS[phase]},".encode().ljust(5, b"\0")
        block[:, phase, :, 2 * w + 1 : 2 * w + 6] = np.frombuffer(label, dtype=np.uint8)
    block[..., [w, 3 * w + 6, 4 * w + 7]] = np.frombuffer(b",,\n", dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"t_s,v_in,phase,v_dac,v_ceh\n")
        for lo in range(0, nper, per_block):
            p = slice(lo, lo + per_block)
            t_aq, t_eh, v_in_aq, v_in_eh = trace.inputs(p)
            # The storage cap holds its voltage through most harvest
            # sub-steps: only the first of each run of equal values is
            # formatted. Equal bits, not ==, which would merge 0.0 and -0.0.
            ceh = trace.ceh_eh[p].ravel()
            bits = ceh.view(np.uint64)
            first = first_buf[: ceh.size]
            first[0] = True
            np.not_equal(bits[1:], bits[:-1], out=first[1:])
            parts = (t_aq[:, 1:], t_eh[:, 1:], v_in_aq[:, 1:], v_in_eh[:, 1:],
                     trace.dac_aq[p], dac_level[p], ceh_held[p])
            heads = ceh[first]
            n = sum(part.size for part in parts) + heads.size
            flat = np.concatenate([*(part.ravel() for part in parts), heads], out=values_buf[:n])
            text = floattext.text(flat, out=text_buf[:n])
            b = block[: len(parts[0])]
            at = 0
            for (phase, field), part in zip(cells, parts):
                b[:, phase, :, field] = text[at : at + part.size].reshape(*part.shape, w)
                at += part.size
            # Each cell takes the text of the last run start at or before it,
            # the heads' text starting at row at. Only a mode other than
            # "raise" lets np.take write into out without a buffered copy.
            index = np.cumsum(first, out=index_buf[: ceh.size])
            index += at - 1
            held = np.take(text, index, axis=0, out=held_buf[: ceh.size], mode="clip")
            b[:, eh, :, v_ceh] = held.reshape(len(b), nsub, w)
            fh.write((canvas if len(b) == rows else b.tobytes()).translate(None, b"\0"))


def write_codes_csv(trace: TransientTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("period,code,v_sampled,saturated\n")
        fh.writelines(
            f"{p},{c},{v!r},{int(s)}\n"
            for p, (c, v, s) in enumerate(
                zip(trace.codes.tolist(), trace.v_sampled.tolist(), trace.saturated.tolist())
            )
        )


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(summary, indent=2, allow_nan=False) + "\n")


def write_sweep_csv(rows, path) -> None:
    """One line per row; each metric cell is the repr of that summarize() key
    of the row's scenario and result."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("parameter", "value", *SWEEP_COLUMNS, "error"))
        for row in rows:
            cells = [""] * len(SWEEP_COLUMNS)
            if row.result is not None:
                summary = summarize(row.scenario, row.result)
                cells = ["" if summary[k] is None else repr(summary[k]) for k in SWEEP_COLUMNS]
            writer.writerow((row.parameter, repr(row.value), *cells, row.error or ""))


def _write_outputs(out: str, writers: dict, stale=()) -> None:
    """Write a command's files into out, all or none.

    writers maps each file name to a function that writes it at a path.
    Every file goes to a temporary name first and all are moved into place
    only after every write succeeded, so a failed write leaves the previous
    files intact; then the stale names (earlier outputs this run does not
    produce) are removed, so out never mixes two runs.
    """
    os.makedirs(out, exist_ok=True)
    staged = {name: os.path.join(out, f".{name}.{os.getpid()}.tmp") for name in writers}
    try:
        for name, write in writers.items():
            write(staged[name])
        for name, tmp in staged.items():
            os.replace(tmp, os.path.join(out, name))
        for name in stale:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, name))
    finally:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def summarize(scenario: Scenario, result: SimulationResult) -> dict:
    """Flat summary of one run, one value per reported metric."""
    plan = scenario.clock
    m = result.eh
    return {
        "f_s_hz": plan.f_s,
        "t_s_s": plan.t_s,
        "t_aq_s": plan.t_aq,
        "t_eh_s": plan.t_eh,
        "alpha": plan.alpha,
        "f_in_hz": scenario.source.frequency,
        "n_bits": scenario.adc.n_bits,
        "v_ref_v": scenario.adc.v_ref,
        "c_dac_f": c_dac(scenario.adc),
        "s1_r_on_ohm": resolve_s1(scenario).r_on_ohm,
        "c_eh_f": scenario.eh.c_eh,
        "v_drop_v": scenario.eh.rectifier.v_drop,
        "r_series_ohm": scenario.eh.rectifier.r_series,
        "p_in_w": input_power(scenario),
        "p_in_provenance": "computed_from_source" if scenario.p_in is None else "configured",
        "v_eh_v": m.v_eh if m else None,
        "t_ceh_s": m.t_ceh if m else None,
        "eta_v": m.eta_v if m else None,
        "eta_e": m.eta_e if m else None,
        "e_h_j": m.e_h if m else None,
        # enob is None exactly when sndr_db is None or not finite, which
        # strict JSON cannot hold.
        "sndr_db": None if result.enob is None else result.sndr_db,
        "enob": result.enob,
    }


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    scenario, options = build_scenario(cfg)
    out = _out_dir(args, options)
    result = run(scenario, spectral=options.spectral, eh=options.eh)
    summary = summarize(scenario, result)

    # All computation is done; only now touch the filesystem.
    writers = {
        "trace.csv": functools.partial(write_trace_csv, result.trace),
        "codes.csv": functools.partial(write_codes_csv, result.trace),
    }
    if result.spectrum is not None:
        writers["spectrum.csv"] = functools.partial(spectral.write_spectrum_csv, result.spectrum)
    writers["summary.json"] = functools.partial(write_summary_json, summary)
    _write_outputs(out, writers, stale=set(RUN_OUTPUTS) - set(writers))
    print(f"wrote {out}/summary.json")
    return 0


def _parse_values(spec: str) -> list[float]:
    """Sweep value list: either 'a,b,c' or an inclusive 'start:stop:step'.

    A range steps in exact decimals from the strings given, so
    0.05:0.3:0.05 yields 0.15, not 0.15000000000000002. Either form holds
    at most 2**16 values, counted before any is converted.
    """
    # A sweep row keeps about 17.6 kB of results, so 2^16 rows are about 1.2 GB.
    cap = 2**16
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {spec!r}")
        try:
            start, stop, step = (decimal.Decimal(p) for p in parts)
            if not all(x.is_finite() for x in (start, stop, step)) or step <= 0 or stop < start:
                raise decimal.InvalidOperation
            n = int((stop - start) // step) + 1
        except decimal.InvalidOperation:
            raise ValueError(f"bad range {spec!r}") from None
        if n > cap:
            raise ValueError(f"range {spec!r} has {n} values, more than the cap of {cap}")
        return [float(start + i * step) for i in range(n)]
    parts = [p for p in spec.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"no sweep values in {spec!r}")
    if len(parts) > cap:
        raise ValueError(f"value list has {len(parts)} values, more than the cap of {cap}")
    return [float(p) for p in parts]


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    _, options = build_scenario(cfg)
    out = _out_dir(args, options)
    try:
        values = _parse_values(args.values)
        rows = sweep(
            functools.partial(scenario_with, cfg, args.param),
            args.param,
            values,
            jobs=args.jobs,
            spectral=options.spectral,
            eh=options.eh,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    _write_outputs(out, {"sweep.csv": functools.partial(write_sweep_csv, rows)})
    print(f"wrote {os.path.join(out, 'sweep.csv')}")
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
    if args.n_fft < 4:
        need = "positive" if args.n_fft < 1 else "at least 4 to hold a bin between 0 and n_fft/2"
        raise ConfigError(f"n_fft must be {need}, got {args.n_fft}")
    out = _out_dir(args, None)
    codes = _read_codes_csv(args.codes_csv)
    if len(codes) < args.n_fft:
        raise ConfigError(
            f"need at least n_fft = {args.n_fft} codes, file has {len(codes)}",
            str(args.codes_csv),
        )
    try:
        adc = AdcConfig(n_bits=args.n_bits, v_ref=args.v_ref, c_unit=1e-12)
        bad = np.flatnonzero((codes < 0) | (codes >= adc.n_codes))
        if bad.size:
            raise ConfigError(
                f"code {codes[bad[0]]} lies outside [0, {adc.n_codes}) for n_bits = {adc.n_bits}",
                str(args.codes_csv),
            )
        codes = codes[-args.n_fft:]
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

    write = functools.partial(spectral.write_spectrum_csv, spec)
    _write_outputs(out, {"spectrum.csv": write})
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

    p_sweep = sub.add_parser("sweep", help="rerun a config across one key")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_KEYS, metavar="KEY",
                         help=f"a numeric config key, or one of {', '.join(SWEEP_ALIASES)}")
    p_sweep.add_argument("--values", required=True, help="comma list or start:stop:step")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per value (default 1)")
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
