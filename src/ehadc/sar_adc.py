"""Behavioral n-bit SAR ADC.

Models the converter at the transfer-function level: a mid-rise quantizer
over [-v_ref, +v_ref) realized by successive approximation against a
binary-weighted capacitive DAC. The capacitor array itself matters only
through its total capacitance (the sampling load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frontend import Switch

# Largest v_ref in volts. spectral.spectrum squares FFT bins of at most
# n_fft*v_ref, which stays finite below 1e54 codes per record.
MAX_V_REF = 1e100


@dataclass(frozen=True)
class AdcConfig:
    """Static configuration of the converter.

    Attributes:
        n_bits: resolution, 1..16.
        v_ref: reference voltage, at most MAX_V_REF; full scale is
            [-v_ref, +v_ref).
        c_unit: unit capacitor of the DAC array in farads.
        s1: sampling-switch model, or the string "auto" to have the engine
            solve a constant on-resistance from the settling budget.
    """

    n_bits: int
    v_ref: float
    c_unit: float
    s1: Switch | str = "auto"

    def __post_init__(self):
        if not (1 <= self.n_bits <= 16):
            raise ValueError(f"n_bits must lie in 1..16, got {self.n_bits}")
        for name in ("v_ref", "c_unit"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.v_ref > MAX_V_REF:
            raise ValueError(f"v_ref must be at most {MAX_V_REF:g} V, got {self.v_ref}")
        if isinstance(self.s1, str) and self.s1 != "auto":
            raise ValueError(f"s1 must be a Switch or 'auto', got {self.s1!r}")

    @property
    def n_codes(self) -> int:
        return 1 << self.n_bits

    @property
    def lsb(self) -> float:
        return 2.0 * self.v_ref / self.n_codes


def c_dac(config: AdcConfig) -> float:
    """Total DAC array capacitance: 2**(n_bits-1) unit capacitors.

    The array needs one unit plus binary-weighted units for all bits below
    the MSB (the MSB capacitor is eliminated by the switching scheme), which
    sums to 2**(n-1)*c_unit. This is the load the sampling switch must settle.
    """
    return float(1 << (config.n_bits - 1)) * config.c_unit


def dac_output(code, config: AdcConfig):
    """Mid-rise level of a code or an array of codes: -v_ref + (code + 0.5)*LSB."""
    return -config.v_ref + (code + 0.5) * config.lsb


def sar_convert(v_sampled, config: AdcConfig):
    """Convert a sampled voltage, or each element of an array, by successive approximation.

    One comparison per bit against the DAC threshold of the trial code; an
    array gets int64 codes of its own shape. The strict ``>`` acceptance makes
    a voltage exactly on a decision boundary resolve to the lower code, the
    tie-break of a nearest-level quantizer. No clip step is needed: below
    -v_ref every comparison fails (code 0), from v_ref up every one passes
    (the top code), and NaN fails them all (code 0). Callers that need to
    know flag saturation themselves.
    """
    lo = -config.v_ref
    lsb = config.lsb
    code = 0
    for bit in range(config.n_bits - 1, -1, -1):
        step = 1 << bit
        # Decision boundary below the trial code in the mid-rise transfer.
        code += (v_sampled > lo + (code + step) * lsb) * step
    return code
