"""Output checks and summary statistics of the benchmark.

Pure functions over files and dicts, so that ``selftest.py`` can exercise
them without running the simulator. Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics

# Reference values and relative tolerances of the acceptance tests c03
# (10 kHz design) and c04 (40 MHz design). The pass-transistor variant of the
# 10 kHz design is held to the c03 bounds.
BOUNDS = {
    "lowfreq": {"v_eh_v": (0.30716, 0.02), "t_ceh_s": (0.22491, 0.15)},
    "highfreq": {"v_eh_v": (0.304, 0.02), "t_ceh_s": (58.32e-6, 0.15)},
}
BOUNDS["lowfreq_pass"] = BOUNDS["lowfreq"]
MIN_ENOB = 7.8

SWEEP_HEADER = ["parameter", "value", "v_eh_v", "t_ceh_s", "eta_v", "eta_e", "sndr_db", "enob", "error"]


def check_efficiencies(row: dict, where: str) -> list[str]:
    """eta_e and eta_v are physically at most 1."""
    problems = []
    for key in ("eta_e", "eta_v"):
        value = row.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {key} missing or not finite: {value!r}")
        elif value > 1.0:
            problems.append(f"{where}: {key} = {value!r} exceeds 1")
    return problems


def check_summary(summary: dict, design: str) -> list[str]:
    """Check one run's flat summary against its design's acceptance bounds."""
    problems = check_efficiencies(summary, design)
    for key, (ref, rel) in BOUNDS[design].items():
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{design}: {key} missing or not finite: {value!r}")
        elif abs(value - ref) > rel * abs(ref):
            problems.append(
                f"{design}: {key} = {value!r} is {abs(value - ref) / ref:.1%} from {ref!r}, "
                f"bound {rel:.0%}"
            )
    enob = summary.get("enob")
    if not isinstance(enob, (int, float)) or not enob >= MIN_ENOB:
        problems.append(f"{design}: enob = {enob!r} below {MIN_ENOB}")
    return problems


def parse_sweep_csv(text: str) -> list[dict]:
    """Rows of a sweep.csv as dicts with floats where a cell holds a number.

    Raises:
        ValueError: wrong header, wrong cell count, or an unparsable number.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != SWEEP_HEADER:
        raise ValueError(f"sweep.csv header is {header!r}")
    rows = []
    for line_no, cells in enumerate(reader, start=2):
        if len(cells) != len(SWEEP_HEADER):
            raise ValueError(f"sweep.csv line {line_no} has {len(cells)} cells")
        row = dict(zip(SWEEP_HEADER, cells))
        for key in SWEEP_HEADER[1:-1]:
            row[key] = float(row[key]) if row[key] else None
        rows.append(row)
    return rows


def check_sweep(serial: bytes, parallel: bytes, values: list[float], design: str) -> list[str]:
    """Check the sweep.csv files of one --jobs 1 and one --jobs 2 sweep.

    Both files must be byte-identical and hold one error-free row per value
    with efficiencies at most 1. The row at the design's own alpha (0.1)
    must also meet the design's acceptance bounds.
    """
    problems = []
    if serial != parallel:
        problems.append("sweep.csv differs between --jobs 1 and --jobs 2")
    try:
        rows = parse_sweep_csv(serial.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        return problems + [f"sweep.csv unreadable: {exc}"]
    got = [row["value"] for row in rows]
    if len(got) != len(values) or any(not math.isclose(a, b, rel_tol=1e-9) for a, b in zip(got, values)):
        problems.append(f"sweep.csv values {got} differ from the requested {values}")
    for row in rows:
        where = f"sweep row alpha={row['value']!r}"
        if row["error"]:
            problems.append(f"{where}: error {row['error']!r}")
            continue
        problems += check_efficiencies(row, where)
        if row["value"] is not None and math.isclose(row["value"], 0.1, rel_tol=1e-12):
            problems += check_summary(row, design)
    return problems


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_repeat(reference: dict, digests: dict, where: str) -> list[str]:
    """Output digests of a repetition must equal those of the first run."""
    return [
        f"{where}: {name} differs from the first repetition"
        for name in sorted(set(reference) | set(digests))
        if reference.get(name) != digests.get(name)
    ]


def describe(samples: list[float]) -> dict:
    """Median, quartiles and count of a sample list (quartiles need n >= 2)."""
    if not samples:
        raise ValueError("no samples")
    med = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
