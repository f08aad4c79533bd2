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
        if np.ndim(t) == 0:
            return float(self.dc_offset + self.amplitude * np.sin(w * float(t) + self.phase))
        # In place: one array instead of a temporary per operation.
        out = np.multiply(w, t, dtype=float)
        out += self.phase
        np.sin(out, out=out)
        out *= self.amplitude
        out += self.dc_offset
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
