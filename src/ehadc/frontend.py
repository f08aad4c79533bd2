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

import numpy as np

# Resistance assigned to an ideal (zero-resistance) switch. Keeping a small
# positive floor lets every branch share the same RC update path.
IDEAL_R_FLOOR = 1e-6

# Below _PSI_SERIES_X the ramp term psi(x) = 1 - (1 - exp(-x))/x cancels, so
# it is summed from its Taylor series x/2 - x**2/6 + x**3/24 - ..., whose
# coefficients (-1)**(n+1)/(n+1)! for n = 10 down to 1 _PSI_SERIES holds. The
# first term left out is below 2**-57 of psi there; above it, 1 - g/x is
# within a few ulp of psi.
_PSI_SERIES_X = 0.125
_PSI_SERIES = tuple((-1.0) ** (n + 1) / math.factorial(n + 1) for n in range(10, 0, -1))


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
            if self.r_on_ohm is None or not (0.0 < self.r_on_ohm < math.inf):
                raise ValueError(f"constant switch needs r_on > 0 and finite, got {self.r_on_ohm}")
        elif self.kind is SwitchKind.PASS_TRANSISTOR:
            if self.k_gain is None or not (0.0 < self.k_gain < math.inf):
                raise ValueError(f"pass switch needs k_gain > 0 and finite, got {self.k_gain}")
            if self.v_th is None or not (0.0 <= self.v_th < math.inf):
                raise ValueError(f"pass switch needs v_th >= 0 and finite, got {self.v_th}")
            if self.v_gate is None or not math.isfinite(self.v_gate):
                raise ValueError(f"pass switch needs a finite v_gate, got {self.v_gate}")

    @classmethod
    def ideal(cls) -> "Switch":
        return cls.constant(IDEAL_R_FLOOR)

    @classmethod
    def constant(cls, r_on_ohm: float) -> "Switch":
        return cls(SwitchKind.CONSTANT_R, r_on_ohm=r_on_ohm)

    @classmethod
    def pass_transistor(cls, k_gain: float, v_th: float, v_gate: float) -> "Switch":
        return cls(SwitchKind.PASS_TRANSISTOR, k_gain=k_gain, v_th=v_th, v_gate=v_gate)


def r_on(model: Switch, v_signal=0.0, out=None):
    """On-resistance of a switch at the given signal voltage.

    Args:
        model: switch model.
        v_signal: voltage on the signal terminal, a float or an ndarray;
            only the pass-transistor variant depends on it (through its gate
            overdrive).
        out: for an array v_signal, an array of its shape to hold the
            resistances.

    Returns:
        Resistance in ohms; math.inf for a pass transistor with
        |v_gate - v_signal| <= v_th, which is cut off (an open branch), or
        whose conductance k_gain*overdrive underflows to 0, or is so small
        that 1/conductance overflows. An array goes through the same float
        operations elementwise, into out if given, with a cut-off overdrive
        floored at 0 and 1/(+0) = inf, so each element has the bits of the
        float form. A constant switch returns r_on_ohm for either form.
    """
    if model.kind is SwitchKind.CONSTANT_R:
        return model.r_on_ohm
    if not isinstance(v_signal, np.ndarray):
        conductance = (abs(model.v_gate - v_signal) - model.v_th) * model.k_gain
        return 1.0 / conductance if conductance > 0.0 else math.inf
    r = np.subtract(model.v_gate, v_signal, out=out, dtype=float)
    np.abs(r, out=r)
    r -= model.v_th
    np.maximum(r, 0.0, out=r)
    r *= model.k_gain
    # 1/(+0) at cut-off, and 1/x overflowing, give inf: an open switch.
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(1.0, r, out=r)


def rc_step_terms(x, out=None):
    """The terms (a, g, psi) of one exact RC step at x = h/tau >= 0.

    a = exp(-x), g = -expm1(-x) and psi = 1 - g/x (from _PSI_SERIES below
    _PSI_SERIES_X). A step from v under a drive ramping from u0 to u1 ends at
    v*a + (u0*g + (u1 - u0)*psi); x = 0, an open branch, holds v. x is a float
    or an array; a float goes through np.exp and np.expm1 as a one-element
    array and then through the same IEEE operations in Python floats, so it
    gets the bits an array element gets. An array runs the series only if
    some element lies below _PSI_SERIES_X and the quotient only if some
    element lies at or above it (or is NaN); a mixed array runs both, each
    on x clamped to its side, and takes each element from its own side. An
    array's terms go into out, if given, three arrays (a, g, psi) of x's
    shape.
    """
    if not isinstance(x, np.ndarray):
        e = np.array([-x])
        a = np.exp(e).item()
        g = -np.expm1(e).item()
        return a, g, _psi_series(x) if x < _PSI_SERIES_X else 1.0 - g / x
    below = x < _PSI_SERIES_X
    n_below = np.count_nonzero(below)
    a, g, psi = (None,) * 3 if out is None else out
    g = np.negative(x, out=g)
    np.expm1(g, out=g)
    np.negative(g, out=g)
    if n_below == x.size:
        psi = _psi_series(x, psi)
    else:
        # In a mixed array each form runs on x clamped to its side of
        # _PSI_SERIES_X, so neither overflows nor divides 0/0.
        psi = np.divide(g, np.maximum(x, _PSI_SERIES_X) if n_below else x, out=psi)
        np.subtract(1.0, psi, out=psi)
        if n_below:
            np.copyto(psi, _psi_series(np.minimum(x, _PSI_SERIES_X)), where=below)
    a = np.negative(x, out=a)
    np.exp(a, out=a)
    return a, g, psi


def _psi_series(x, out=None):
    """psi from _PSI_SERIES at a float x, or at every element of an array x,
    in x's layout or into out, by the same IEEE operations for both."""
    if isinstance(x, np.ndarray):
        psi = np.empty_like(x) if out is None else out
        psi.fill(_PSI_SERIES[0])
    else:
        psi = _PSI_SERIES[0]
    for coef in _PSI_SERIES[1:]:
        psi *= x
        psi += coef
    psi *= x
    return psi


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
    u_end over dt, in the exponential-integrator form

        v(t0 + dt) = v_start*a + (u_start*g + (u_end - u_start)*psi)

    with the terms (a, g, psi) of rc_step_terms at x = dt/tau, tau = R*C.
    No two terms cancel, so the step stays within a few ulp of the exact
    value at any tau/dt. An infinite r (an open switch) holds v_start. The
    result is exact (to round-off) for any piecewise-linear drive, so sub-step
    size affects only how finely a curved drive is approximated, not the
    integration itself.

    Raises:
        ValueError: for nonpositive r, c, or dt.
    """
    if not (r > 0.0 and c > 0.0 and dt > 0.0):
        raise ValueError(f"r, c, dt must all be positive, got r={r} c={c} dt={dt}")
    a, g, psi = rc_step_terms(dt / (r * c))
    return v_start * a + (u_start * g + (u_end - u_start) * psi)


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
