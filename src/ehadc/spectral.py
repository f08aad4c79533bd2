"""Spectral metrology of converter output codes.

Standard dynamic ADC testing under coherent sampling: map the codes to their
DAC voltages, take a rectangular-window FFT, and fold everything that is not
the signal bin (and not DC) into noise-plus-distortion. Coherence is assumed,
not corrected for; callers must place the stimulus on an exact bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sar_adc import AdcConfig, dac_output


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectrum of a reconstructed code record.

    Attributes:
        power: bin powers for bins 0..n_fft/2, normalized so their sum equals
            the time-domain mean square of the record (Parseval).
        n_fft: record length (power of two).
        f_s: sampling rate in Hz.
        signal_bin: index of the stimulus bin, 0 < signal_bin < n_fft/2.
    """

    power: np.ndarray
    n_fft: int
    f_s: float
    signal_bin: int

    def __post_init__(self):
        if self.n_fft < 2 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise ValueError(f"n_fft must be a power of two, got {self.n_fft}")
        if not (0 < self.signal_bin < self.n_fft // 2):
            raise ValueError(
                f"signal_bin must lie strictly between 0 and n_fft/2, got {self.signal_bin}"
            )
        if len(self.power) != self.n_fft // 2 + 1:
            raise ValueError("power must hold n_fft/2 + 1 one-sided bins")

    def bin_frequency(self, k: int) -> float:
        return k * self.f_s / self.n_fft


def spectrum(codes, config: AdcConfig, f_s: float, signal_bin: int) -> Spectrum:
    """One-sided power spectrum of a coherent code record.

    The codes are reconstructed through the converter's own DAC levels, so
    quantization error is part of the analyzed waveform. Rectangular window;
    bins 1..n_fft/2-1 carry doubled power so the one-sided sum preserves the
    record's mean square.

    Raises:
        ValueError: record length not a power of two, or signal_bin out of range.
    """
    n = len(codes)
    x = np.fft.rfft(dac_output(np.asarray(codes), config))
    p = (x.real * x.real + x.imag * x.imag) / (float(n) * float(n))
    p[1:-1] *= 2.0  # fold negative frequencies; DC and Nyquist are their own mirror
    return Spectrum(power=p, n_fft=n, f_s=f_s, signal_bin=signal_bin)


def sndr(spec: Spectrum) -> float:
    """Signal-to-noise-and-distortion ratio in dB.

    Signal power is the stimulus bin alone; everything else except DC counts
    as noise plus distortion. A record with zero such power (an unquantized
    digital loopback) returns +inf as a sentinel; a record with no power in
    the signal bin returns -inf.
    """
    p_signal = float(spec.power[spec.signal_bin])
    p_rest = float(np.sum(spec.power[1:])) - p_signal
    if p_signal <= 0.0:
        return -math.inf
    if p_rest <= 0.0:
        return math.inf
    return 10.0 * math.log10(p_signal / p_rest)


def enob(sndr_db: float) -> float:
    """Effective number of bits: (sndr_db - 1.76)/6.02.

    The quotient is quantized to 1e-12 bit. That granularity is far below any
    physical resolution of the metric but guarantees the defining identity
    enob(6.02*n + 1.76) == n holds exactly in floating point for integer n,
    which a bare double division cannot do for every n.

    Raises:
        ValueError: for non-finite sndr_db (e.g. the +inf sentinel).
    """
    if not math.isfinite(sndr_db):
        raise ValueError(f"enob needs a finite SNDR, got {sndr_db}")
    return round((sndr_db - 1.76) / 6.02, 12)


def write_spectrum_csv(spec: Spectrum, path) -> None:
    """Write one-sided bins as ``bin,freq_hz,power_db`` rows."""
    with open(path, "w", newline="") as fh:
        fh.write("bin,freq_hz,power_db\n")
        for k, p in enumerate(spec.power):
            db = 10.0 * math.log10(p) if p > 0.0 else -math.inf
            fh.write(f"{k},{spec.bin_frequency(k)!r},{db!r}\n")
