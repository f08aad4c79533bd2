"""Two-phase sampling schedule.

Every sampling period T_s = 1/f_s is split into an acquisition interval
T_aq = alpha * T_s followed by an energy-harvesting interval T_EH = T_s - T_aq.
Phase boundaries are always computed directly from the period index (never by
accumulating durations) so long runs cannot drift.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Phase(enum.IntEnum):
    ACQUISITION = 0
    ENERGY_HARVEST = 1


# Short labels used in trace CSV output.
PHASE_LABELS = {Phase.ACQUISITION: "acq", Phase.ENERGY_HARVEST: "eh"}


@dataclass(frozen=True)
class ClockPlan:
    """Sampling clock description.

    Attributes:
        f_s: sampling rate in Hz.
        alpha: acquisition fraction of the period, 0 < alpha < 1.
        n_periods: number of sampling periods in the run.
    """

    f_s: float
    alpha: float
    n_periods: int

    def __post_init__(self):
        if not (0.0 < self.f_s < math.inf):
            raise ValueError(f"f_s must be positive and finite, got {self.f_s}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n_periods < 1:
            raise ValueError(f"n_periods must be >= 1, got {self.n_periods}")

    @property
    def t_s(self) -> float:
        """Sampling period in seconds."""
        return 1.0 / self.f_s

    @property
    def t_aq(self) -> float:
        """Acquisition interval per period."""
        return self.alpha * self.t_s

    @property
    def t_eh(self) -> float:
        """Energy-harvesting interval per period; t_aq + t_eh == t_s."""
        return self.t_s - self.t_aq


def time_grid(plan: ClockPlan, n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """Sub-step endpoints of both phases of every period.

    Returns (acquisition, harvest) arrays of shape (n_periods, n_sub + 1).
    Row k of the acquisition grid steps by T_aq/n_sub from k*T_s to the phase
    boundary k*T_s + alpha*T_s; row k of the harvest grid steps by T_EH/n_sub
    from that boundary to (k+1)*T_s. The last endpoint of each row is snapped
    to the closed-form boundary, so both phases share identical boundary times.
    """
    k = np.arange(plan.n_periods, dtype=float)
    starts = k * plan.t_s
    boundaries = k * plan.t_s + plan.alpha * plan.t_s
    j = np.arange(n_sub + 1, dtype=float)
    aq = starts[:, None] + j[None, :] * (plan.t_aq / n_sub)
    aq[:, -1] = boundaries
    eh = boundaries[:, None] + j[None, :] * (plan.t_eh / n_sub)
    eh[:, -1] = (k + 1.0) * plan.t_s
    return aq, eh
