"""Switch on-resistance models and the exact RC charging primitive.

Both the acquisition path (sampling switch into the DAC capacitance) and the
harvesting path (rectifier into the storage capacitor) reduce to a series-RC
branch driven by a known voltage. Within one sub-step the drive is treated as
linear in time, for which the circuit ODE C*dv/dt = (u(t) - v)/R has a closed
form; integrating with that closed form removes step-size error entirely for
piecewise-linear drives.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# Resistance assigned to an ideal (zero-resistance) switch. Keeping a small
# positive floor lets every branch share the same RC update path.
IDEAL_R_FLOOR = 1e-6


class SwitchKind(enum.Enum):
    CONSTANT_R = "constant"
    PASS_TRANSISTOR = "pass"


@dataclass(frozen=True)
class Switch:
    """On-resistance model for an analog switch.

    Two variants:
      * CONSTANT_R: fixed r_on, the behavioral stand-in for a bootstrapped
        switch whose gate drive tracks the signal.
      * PASS_TRANSISTOR: triode-region pass gate,
        r_on = 1 / (k_gain * (|v_gate - v_signal| - v_th)).

    Construct through the constant() / pass_transistor() helpers, or ideal()
    for the r_on -> 0 limit, a constant switch at IDEAL_R_FLOOR.
    """

    kind: SwitchKind
    r_on_ohm: float | None = None
    k_gain: float | None = None
    v_th: float | None = None
    v_gate: float | None = None

    def __post_init__(self):
        if self.kind is SwitchKind.CONSTANT_R:
            if self.r_on_ohm is None or not (self.r_on_ohm > 0.0):
                raise ValueError(f"constant switch needs r_on > 0, got {self.r_on_ohm}")
        elif self.kind is SwitchKind.PASS_TRANSISTOR:
            if self.k_gain is None or not (self.k_gain > 0.0):
                raise ValueError(f"pass switch needs k_gain > 0, got {self.k_gain}")
            if self.v_th is None or self.v_th < 0.0:
                raise ValueError(f"pass switch needs v_th >= 0, got {self.v_th}")
            if self.v_gate is None:
                raise ValueError("pass switch needs a gate voltage")

    @classmethod
    def ideal(cls) -> "Switch":
        return cls.constant(IDEAL_R_FLOOR)

    @classmethod
    def constant(cls, r_on_ohm: float) -> "Switch":
        return cls(SwitchKind.CONSTANT_R, r_on_ohm=r_on_ohm)

    @classmethod
    def pass_transistor(cls, k_gain: float, v_th: float, v_gate: float) -> "Switch":
        return cls(SwitchKind.PASS_TRANSISTOR, k_gain=k_gain, v_th=v_th, v_gate=v_gate)


def r_on(model: Switch, v_signal: float = 0.0) -> float:
    """On-resistance of a switch at the given signal voltage.

    Args:
        model: switch model.
        v_signal: voltage on the signal terminal; only the pass-transistor
            variant depends on it (through its gate overdrive).

    Returns:
        Resistance in ohms; math.inf for a pass transistor with
        |v_gate - v_signal| <= v_th, which is cut off (an open branch).
    """
    if model.kind is SwitchKind.CONSTANT_R:
        return model.r_on_ohm
    overdrive = abs(model.v_gate - v_signal) - model.v_th
    if overdrive <= 0.0:
        return math.inf
    return 1.0 / (model.k_gain * overdrive)


def rc_step_value(
    v_start: float,
    u_start: float,
    u_end: float,
    r: float,
    c: float,
    dt: float,
) -> float:
    """Capacitor voltage after dt seconds of charging toward a linear drive.

    Solves C*dv/dt = (u(t) - v)/R exactly for u(t) ramping from u_start to
    u_end over dt:

        v(t0 + dt) = u_end - s*tau + (v_start - u_start + s*tau) * exp(-dt/tau)

    with tau = R*C and drive slope s = (u_end - u_start)/dt. The result is
    exact (to round-off) for any piecewise-linear drive, so sub-step size
    affects only how finely a curved drive is approximated, not the
    integration itself.

    Raises:
        ValueError: for nonpositive r, c, or dt.
    """
    if not (r > 0.0 and c > 0.0 and dt > 0.0):
        raise ValueError(f"r, c, dt must all be positive, got r={r} c={c} dt={dt}")
    tau = r * c
    # s*tau computed as delta_u * (tau/dt) to avoid forming the slope alone.
    stau = (u_end - u_start) * (tau / dt)
    return u_end - stau + (v_start - u_start + stau) * math.exp(-dt / tau)


def default_settling_factor(n_bits: int) -> float:
    """Settling factor k such that exp(-k) < half an LSB of an n-bit converter.

    k = (n_bits + 1) * ln 2 leaves a residual of 2**-(n_bits+1), i.e. half an
    LSB of the full scale, after k time constants of acquisition.
    """
    return (n_bits + 1) * math.log(2.0)


def required_r_on(t_aq: float, c_load: float, k: float) -> float:
    """Largest switch resistance that settles c_load within t_aq at factor k.

    Solves r from t_aq = k * r * c_load. With k = 1 this is the single-time-
    constant acquisition rule; the default k from default_settling_factor()
    tightens it to half-LSB accuracy.
    """
    if not (t_aq > 0.0 and c_load > 0.0 and k > 0.0):
        raise ValueError("t_aq, c_load, k must all be positive")
    return t_aq / (k * c_load)
