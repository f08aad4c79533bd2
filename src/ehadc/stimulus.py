"""Analog stimulus sources and their input power.

Provides deterministic sine sources, coherent test-frequency selection for
leakage-free FFT records, and the RMS input power of a sine source in
watts.
"""

from __future__ import annotations

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
        for name in ("amplitude", "frequency", "source_resistance"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("phase", "dc_offset"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def sample_at(self, t, out=None):
        """Evaluate the source voltage at time t (scalar or ndarray, seconds).

        An array's voltages go into out, if given, an array of t's shape.
        """
        w = 2.0 * math.pi * self.frequency
        if np.ndim(t) == 0:
            return float(self.dc_offset + self.amplitude * np.sin(w * float(t) + self.phase))
        # In place and in the memory layout of t: one array, not a temporary
        # per operation.
        out = np.multiply(w, t, out=out, dtype=float)
        out += self.phase
        np.sin(out, out=out)
        out *= self.amplitude
        out += self.dc_offset
        return out

    def magnitude_bound(self, start, end):
        """An upper bound on |sample_at(t)| for t in each window [start, end],
        start and end arrays of times in seconds: sin at the ends of its
        phase interval, or +-1 at a crest or trough inside it, widened for
        the rounding of the window's grid, sample_at and np.sin."""
        w = 2.0 * math.pi * self.frequency
        lo, hi = w * start + self.phase, w * end + self.phase
        slack = 2.0**-40 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        lo, hi = lo - slack, hi + slack
        bottom, top = np.sort(np.sin([lo, hi]), axis=0)
        turns_lo, turns_hi = lo / (2.0 * math.pi), hi / (2.0 * math.pi)
        for s, turn in ((top, 1.0), (bottom, -1.0)):
            # A crest (trough) inside: a whole number of turns past 1/4 (3/4).
            s[np.floor(turns_hi - turn / 4.0) > np.floor(turns_lo - turn / 4.0)] = turn
        dc, amp = self.dc_offset, self.amplitude
        peak = np.maximum(np.abs(dc + amp * top), np.abs(dc + amp * bottom))
        # The bound covers the values sample_at computes, not the true sine.
        # dc + amp*s keeps the order of s (rounding to nearest is monotone),
        # but np.sin is only faithful to some n ulps on some builds, so a
        # time inside the window may compute a sin above that of its widened
        # end. Near a crest or trough the phase slack moves sin by less than
        # an ulp, so only an absolute term covers that: with both roundings,
        # a sample exceeds peak by at most (2n + 4) * 2**-53 * (|dc| + amp),
        # which this covers for n up to 4 million.
        return peak + 1e-9 * (abs(dc) + amp)

    @property
    def extremes(self) -> tuple[float, float]:
        """The least and the greatest voltage, dc_offset -+ amplitude."""
        return self.dc_offset - self.amplitude, self.dc_offset + self.amplitude


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
