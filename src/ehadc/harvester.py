"""Energy-harvesting branch: rectifier, storage-cap charging, and metrics.

During every harvesting interval the input drives a full-wave rectifier into
the storage capacitor C_EH. The rectifier is modeled behaviorally as a
dead-zone transfer (|v| minus a conduction drop, floored at zero) in series
with a conduction resistance; charge flows only into the capacitor, never
back out (diode blocking), so the stored voltage ratchets upward toward the
peak rectified amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged
from .frontend import Switch


@dataclass(frozen=True)
class RectifierModel:
    """Aggregate conduction drop and series resistance of the rectifier path."""

    v_drop: float
    r_series: float

    def __post_init__(self):
        if not (0.0 <= self.v_drop < math.inf):
            raise ValueError(f"v_drop must be finite and >= 0, got {self.v_drop}")
        if not (0.0 < self.r_series < math.inf):
            raise ValueError(f"r_series must be positive and finite, got {self.r_series}")


@dataclass(frozen=True)
class EhConfig:
    """Storage capacitor plus the conduction path charging it."""

    c_eh: float
    rectifier: RectifierModel
    s2: Switch

    def __post_init__(self):
        if not (0.0 < self.c_eh < math.inf):
            raise ValueError(f"c_eh must be positive and finite, got {self.c_eh}")


@dataclass(frozen=True)
class EhMetrics:
    """Steady-state harvesting figures for one run.

    Attributes:
        v_eh: final (steady-state) storage-cap voltage.
        t_ceh: time to first reach (1 - tol) of v_eh.
        eta_v: voltage efficiency v_eh / v_m, v_m the peak input magnitude.
        eta_e: energy efficiency, stored energy over input energy during t_ceh.
        e_h: stored energy 0.5 * c_eh * v_eh**2.
    """

    v_eh: float
    t_ceh: float
    eta_v: float
    eta_e: float
    e_h: float


def rectified_envelope(v_in, rect: RectifierModel):
    """Dead-zone full-wave transfer: max(|v_in| - v_drop, 0).

    Accepts scalars or ndarrays. Inside the dead zone |v_in| <= v_drop the
    rectifier does not conduct and the output is zero.
    """
    if np.ndim(v_in) == 0:
        return np.maximum(np.abs(v_in) - rect.v_drop, 0.0)
    out = np.abs(v_in, dtype=float)
    out -= rect.v_drop
    np.maximum(out, 0.0, out=out)
    return out


def steady_state_metrics(
    trace,
    p_in: float,
    cfg: EhConfig,
    v_m: float,
    tol: float = 0.01,
) -> EhMetrics:
    """Harvesting metrics from a finished transient trace.

    Args:
        trace: object exposing ``t`` (seconds), ``v_ceh`` (volts), both
            aligned 1-D arrays, and ``period_s`` (sampling period).
        p_in: input power in watts, the energy-efficiency denominator.
        cfg: harvesting branch configuration (for c_eh).
        v_m: peak input magnitude, the reference for voltage efficiency.
        tol: steady-state fraction; v_eh is converged when the voltage moved
            less than tol*v_eh over the last 10 periods, and t_ceh is the
            first crossing of (1 - tol)*v_eh (linearly interpolated).

    Raises:
        ValueError: nonpositive p_in or v_m, or tol outside (0, 1).
        NotConverged: trace shorter than 10 periods, still-moving final
            voltage, no charge accumulated, an unresolvable charging time, or
            an efficiency above 1; each message gives the value and its limit.
    """
    if not (p_in > 0.0):
        raise ValueError(f"p_in must be positive, got {p_in}")
    if not (v_m > 0.0):
        raise ValueError(f"v_m must be positive, got {v_m}")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    t = np.asarray(trace.t, dtype=float)
    v = np.asarray(trace.v_ceh, dtype=float)
    if t.size < 2:
        raise NotConverged(f"trace has {t.size} samples, steady-state metrics need at least 2")

    v_eh = float(v[-1])
    if v_eh <= 0.0:
        raise NotConverged(f"storage capacitor ended at {v_eh:.6g} V, which is not above 0 V")

    window_start = t[-1] - 10.0 * trace.period_s
    if t[0] > window_start:
        raise NotConverged(f"trace spans {(t[-1] - t[0]) / trace.period_s:.4g} periods, under 10")
    first = int(np.searchsorted(t, window_start, side="left"))
    drift = abs(v_eh - float(v[first]))
    if drift > tol * v_eh:
        raise NotConverged(
            f"storage voltage still moving: changed {drift:.3e} V over the last "
            f"10 periods, limit tol*v_eh = {tol * v_eh:.3e} V"
        )

    threshold = (1.0 - tol) * v_eh
    i = int(np.argmax(v >= threshold))
    if i == 0:
        t_ceh = float(t[0])
    else:
        t0, t1 = float(t[i - 1]), float(t[i])
        v0, v1 = float(v[i - 1]), float(v[i])
        t_ceh = t0 + (threshold - v0) * (t1 - t0) / (v1 - v0)

    if t_ceh <= 0.0:
        raise NotConverged(
            "storage voltage was at its final value from the first sample, so the "
            f"charging time t_ceh = {t_ceh:.6g} s is not above its limit of 0 s"
        )

    e_h = harvested_energy(v_eh, cfg.c_eh)
    eta_e = e_h / (p_in * t_ceh)
    eta_v = v_eh / v_m
    for name, eta in (("eta_v", eta_v), ("eta_e", eta_e)):
        if eta > 1.0:
            raise NotConverged(f"{name} = {eta:.6g} is above its limit of 1, so v_eh is not steady")
    return EhMetrics(v_eh=v_eh, t_ceh=t_ceh, eta_v=eta_v, eta_e=eta_e, e_h=e_h)


def harvested_energy(v_eh: float, c_eh: float) -> float:
    """Energy stored on the capacitor: 0.5 * c_eh * v_eh**2."""
    if v_eh < 0.0 or c_eh < 0.0:
        raise ValueError("harvested_energy needs nonnegative inputs")
    return 0.5 * c_eh * v_eh * v_eh


def size_capacitor(i_load: float, t_p: float, delta_v: float) -> float:
    """Storage capacitance that holds ripple to delta_v under a DC load.

    A load drawing i_load between consecutive recharge instants t_p apart
    droops the capacitor by i_load*t_p/C, so C = i_load*t_p/delta_v.

    Raises:
        ValueError: nonpositive delta_v or t_p, negative i_load, or any of
            them not finite.
    """
    if not (0.0 < delta_v < math.inf):
        raise ValueError(f"delta_v must be positive and finite, got {delta_v}")
    if not (0.0 < t_p < math.inf):
        raise ValueError(f"t_p must be positive and finite, got {t_p}")
    if not (0.0 <= i_load < math.inf):
        raise ValueError(f"i_load must be nonnegative and finite, got {i_load}")
    return i_load * t_p / delta_v


def boost_charge_time(
    p_harvest_avg: float,
    eta_converter: float,
    c_load: float,
    v_load: float,
) -> float:
    """Time for a boost converter to charge c_load to v_load.

    Ideal energy balance: the load capacitor needs 0.5*c_load*v_load**2 of
    energy, delivered at eta_converter times the average harvested power, so
    t = 0.5*c_load*v_load**2 / (eta_converter * p_harvest_avg).
    """
    if not (p_harvest_avg > 0.0):
        raise ValueError(f"p_harvest_avg must be positive, got {p_harvest_avg}")
    if not (0.0 < eta_converter <= 1.0):
        raise ValueError(f"eta_converter must lie in (0, 1], got {eta_converter}")
    if not (c_load > 0.0 and v_load > 0.0):
        raise ValueError("c_load and v_load must be positive")
    return 0.5 * c_load * v_load * v_load / (eta_converter * p_harvest_avg)
