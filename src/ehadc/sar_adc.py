"""Behavioral n-bit SAR ADC.

Models the converter at the transfer-function level: a mid-rise quantizer
over [-v_ref, +v_ref) realized by successive approximation against a
binary-weighted capacitive DAC. The capacitor array itself matters only
through its total capacitance (the sampling load); a brute-force quantizer
serves as an independent oracle for the conversion logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import Switch


@dataclass(frozen=True)
class AdcConfig:
    """Static configuration of the converter.

    Attributes:
        n_bits: resolution, 1..16.
        v_ref: reference voltage; full scale is [-v_ref, +v_ref).
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
        if not (self.v_ref > 0.0):
            raise ValueError(f"v_ref must be positive, got {self.v_ref}")
        if not (self.c_unit > 0.0):
            raise ValueError(f"c_unit must be positive, got {self.c_unit}")
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


def sar_convert(v_sampled: float, config: AdcConfig) -> int:
    """Convert a sampled voltage by successive approximation.

    One comparison per bit against the DAC threshold of the trial code. The
    strict ``>`` acceptance makes a voltage exactly on a decision boundary
    resolve to the lower code, matching quantize_oracle's tie-break. Inputs
    outside [-v_ref, v_ref) clip silently to the edge codes; callers that
    need to know flag saturation themselves.
    """
    if v_sampled < -config.v_ref:
        return 0
    if v_sampled >= config.v_ref:
        return config.n_codes - 1
    lsb = config.lsb
    code = 0
    for bit in range(config.n_bits - 1, -1, -1):
        trial = code | (1 << bit)
        # Decision boundary below code `trial` in the mid-rise transfer.
        threshold = -config.v_ref + trial * lsb
        if v_sampled > threshold:
            code = trial
    return code


def quantize_oracle(v: float, config: AdcConfig) -> int:
    """Brute-force reference quantizer: nearest code center, ties to lower.

    Enumerates all 2**n_bits reconstruction levels and picks the closest.
    numpy's argmin returns the first (lowest) index on exact ties, which is
    the stated tie-break. Out-of-range inputs clip like sar_convert.
    """
    if v < -config.v_ref:
        return 0
    if v >= config.v_ref:
        return config.n_codes - 1
    centers = -config.v_ref + (np.arange(config.n_codes) + 0.5) * config.lsb
    return int(np.abs(v - centers).argmin())
