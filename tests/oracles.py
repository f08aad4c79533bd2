"""Independent reference implementations that only the tests use."""

import math

import numpy as np


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
