"""Independent reference implementations that only the tests use."""

import math

import numpy as np

from ehadc.clocking import Phase


def quantize_oracle(v: float, config) -> int:
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


def settling_error(r: float, c: float, t_aq: float) -> float:
    """Residual relative tracking error after t_aq of settling to a constant drive.

    exp(-t_aq/(r*c)); lies in (0, 1) for positive arguments.
    """
    if not (r > 0.0 and c > 0.0 and t_aq > 0.0):
        raise ValueError(f"r, c, t_aq must all be positive, got r={r} c={c} t_aq={t_aq}")
    return math.exp(-t_aq / (r * c))


def euler_reference(v_start, u_start, u_end, r, c, dt, n_steps=1_000_000):
    """Left-endpoint forward-Euler integration of C dv/dt = (u(t) - v)/R."""
    h = dt / n_steps
    tau = r * c
    slope = (u_end - u_start) / dt
    v = v_start
    for k in range(n_steps):
        u = u_start + slope * (k * h)
        v += h * (u - v) / tau
    return v


def check_phase_isolation(trace):
    """v_ceh never moves during acquisition rows, v_dac never moves during
    harvesting rows, and v_ceh carries unchanged across the period boundary."""
    # A new period starts wherever the phase steps from harvest to acquisition.
    phase = trace.phase
    same_period = ~((phase[:-1] == Phase.ENERGY_HARVEST) & (phase[1:] == Phase.ACQUISITION))
    same_phase = phase[1:] == phase[:-1]
    acq_pairs = same_period & same_phase & (phase[1:] == Phase.ACQUISITION)
    eh_pairs = same_period & same_phase & (phase[1:] == Phase.ENERGY_HARVEST)
    assert np.array_equal(trace.v_ceh[1:][acq_pairs], trace.v_ceh[:-1][acq_pairs])
    assert np.array_equal(trace.v_dac[1:][eh_pairs], trace.v_dac[:-1][eh_pairs])
    cross = ~same_period & (phase[1:] == Phase.ACQUISITION)
    assert np.array_equal(trace.v_ceh[1:][cross], trace.v_ceh[:-1][cross])
