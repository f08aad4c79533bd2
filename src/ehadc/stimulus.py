"""Analog stimulus sources and their input power.

Provides deterministic sine sources, coherent test-frequency selection for
leakage-free FFT records, a small table-driven source for replaying
measured waveforms from CSV, and the RMS input power of a sine source in
watts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SineSource:
    """Single-tone voltage source with a series source resistance.

    v(t) = dc_offset + amplitude * sin(2*pi*frequency*t + phase)

    Attributes:
        amplitude: peak amplitude in volts (V_M).
        frequency: tone frequency in Hz.
        phase: phase offset in radians.
        dc_offset: additive offset in volts.
        source_resistance: series resistance of the source in ohms.
    """

    amplitude: float
    frequency: float
    phase: float = 0.0
    dc_offset: float = 0.0
    source_resistance: float = 50.0

    def __post_init__(self):
        if not (self.amplitude > 0.0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if not (self.frequency > 0.0):
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if not (self.source_resistance > 0.0):
            raise ValueError(
                f"source_resistance must be positive, got {self.source_resistance}"
            )

    def sample_at(self, t):
        """Evaluate the source voltage at time t (scalar or ndarray, seconds)."""
        w = 2.0 * math.pi * self.frequency
        out = self.dc_offset + self.amplitude * np.sin(w * np.asarray(t, dtype=float) + self.phase)
        if np.ndim(t) == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class TableSource:
    """Waveform replayed from sampled (time, voltage) pairs.

    Values between table rows are linearly interpolated; queries outside the
    table hold the first/last voltage. Used for importing measured stimuli.
    """

    times: np.ndarray
    volts: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.volts, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("table source needs matching 1-D time/voltage arrays with >= 2 rows")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("table source times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "volts", v)

    @classmethod
    def from_csv(cls, path) -> "TableSource":
        """Load a two-column CSV with header ``time_s,volts``."""
        times = []
        volts = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["time_s", "volts"]:
                raise ValueError(f"{path}: expected header 'time_s,volts'")
            for row in reader:
                if not row:
                    continue
                times.append(float(row[0]))
                volts.append(float(row[1]))
        return cls(np.asarray(times), np.asarray(volts))

    def sample_at(self, t):
        out = np.interp(np.asarray(t, dtype=float), self.times, self.volts)
        if np.ndim(t) == 0:
            return float(out)
        return out


def coherent_frequency(f_s: float, n_fft: int, m_cycles: int) -> float:
    """Pick a test frequency that fits an integer cycle count into the record.

    Returns m_cycles * f_s / n_fft, the standard coherent-sampling choice that
    makes an n_fft-point record hold exactly m_cycles periods of the tone.

    Args:
        f_s: sampling rate in Hz.
        n_fft: record length; must be a power of two.
        m_cycles: cycles per record; must be odd and below n_fft/2.

    Raises:
        ValueError: for a non-power-of-two record, an even cycle count, or a
            cycle count at or above Nyquist.
    """
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise ValueError(f"n_fft must be a power of two, got {n_fft}")
    if m_cycles < 1 or m_cycles >= n_fft // 2:
        raise ValueError(f"m_cycles must satisfy 1 <= m < n_fft/2, got {m_cycles}")
    if m_cycles % 2 == 0:
        raise ValueError(f"m_cycles must be odd to stay coprime with n_fft, got {m_cycles}")
    if not (f_s > 0.0):
        raise ValueError(f"f_s must be positive, got {f_s}")
    return m_cycles * f_s / n_fft


def rms_power(source: SineSource) -> float:
    """RMS input power in watts of a sine source into its own source resistance.

    amplitude**2 / (2 * source_resistance).
    """
    return source.amplitude * source.amplitude / (2.0 * source.source_resistance)
