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


def phase_grid(plan: ClockPlan, n_sub: int, phase: Phase, rows: slice = slice(None), out=None) -> np.ndarray:
    """Sub-step endpoints of one phase of the periods in rows (all by default).

    Returns an array of shape (periods, n_sub + 1). A phase picks only the
    start, width, end and memory layout of row k: acquisition runs T_aq from
    k*T_s to the boundary k*T_s + alpha*T_s, sub-step-major (Fortran order)
    as the engine's acquisition solver reads it; harvest runs T_EH from that
    boundary to (k+1)*T_s, period-major. One rule then steps each row by
    width/n_sub from its start and snaps its last endpoint to the closed-form
    end, so both phases share identical boundary times. A row depends only on
    k, so a slice of rows has the bits of those rows of the whole grid, and a
    phase built alone has the bits of that phase of time_grid. The grid goes
    into out, if given, an array of its shape, best in its layout.
    """
    k = np.arange(*rows.indices(plan.n_periods), dtype=float)
    boundaries = k * plan.t_s + plan.alpha * plan.t_s
    if phase == Phase.ACQUISITION:
        start, width, end, order = k * plan.t_s, plan.t_aq, boundaries, "F"
    else:
        start, width, end, order = boundaries, plan.t_eh, (k + 1.0) * plan.t_s, "C"
    grid = np.empty((len(k), n_sub + 1), order=order) if out is None else out
    np.add(start[:, None], np.arange(n_sub + 1, dtype=float) * (width / n_sub), out=grid)
    grid[:, -1] = end
    return grid


def time_grid(plan: ClockPlan, n_sub: int, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """(acquisition, harvest) phase_grid of the periods in rows (all by default)."""
    return tuple(phase_grid(plan, n_sub, phase, rows) for phase in Phase)
