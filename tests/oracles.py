"""Independent reference implementations that only the tests use."""

import dataclasses
import math
import types

import numpy as np

from ehadc.clocking import PHASE_LABELS, ClockPlan, Phase, phase_grid, time_grid
from ehadc.engine import TransientTrace, resolve_s1
from ehadc.frontend import r_on, rc_step_value
from ehadc.harvester import rectified_envelope
from ehadc.sar_adc import c_dac, dac_output, sar_convert


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


def eh_step(v_cap: float, v_in_start: float, v_in_end: float, cfg, dt: float) -> float:
    """Storage-cap voltage after one harvesting sub-step.

    The drive is the rectified envelope of the input, linear between the
    sub-step endpoints; the branch resistance is r_series plus the S2 switch
    resistance. Blocking rule: the capacitor voltage never decreases. When
    the envelope sits below the stored voltage the RC solution would decay,
    so v_cap is held instead; when S2 is cut off the branch is open and
    v_cap is likewise held.
    """
    env0 = float(rectified_envelope(v_in_start, cfg.rectifier))
    env1 = float(rectified_envelope(v_in_end, cfg.rectifier))
    r_tot = cfg.rectifier.r_series + r_on(cfg.s2, env0)
    if r_tot == math.inf:
        return v_cap
    return max(v_cap, rc_step_value(v_cap, env0, env1, r_tot, cfg.c_eh, dt))


def reference_walk(scenario):
    """Re-run a scenario one sub-step at a time through the one-step APIs.

    Returns a dict of lists keyed by the TransientTrace attribute each one
    must equal, built with rc_step_value / eh_step / sar_convert on the
    engine's own time grid: the per-phase rows dac_aq and ceh_eh (one list
    of n_sub values per period), and per period codes, v_sampled, dac_level
    (the DAC node the walk holds through the harvest) and ceh_held (the
    storage node it holds through the acquisition).
    """
    s1 = resolve_s1(scenario)
    plan, adc, ehc = scenario.clock, scenario.adc, scenario.eh
    nper, nsub = plan.n_periods, scenario.n_sub
    t_aq_grid, t_eh_grid = time_grid(plan, nsub)
    v_aq = scenario.source.sample_at(t_aq_grid)
    v_eh_in = scenario.source.sample_at(t_eh_grid)
    c_load = c_dac(adc)

    # Interior sub-steps use the nominal width; the final one absorbs the
    # snap onto the exact boundary expression.
    dt_aq = plan.t_aq / nsub
    dt_eh = plan.t_eh / nsub

    v_dac, v_ceh = 0.0, 0.0
    walk = {name: [] for name in ("dac_aq", "ceh_eh", "codes", "v_sampled", "dac_level", "ceh_held")}
    for p in range(nper):
        walk["ceh_held"].append(v_ceh)
        rows = []
        for j in range(nsub):
            u0, u1 = float(v_aq[p, j]), float(v_aq[p, j + 1])
            dt = dt_aq if j < nsub - 1 else float(t_aq_grid[p, -1] - t_aq_grid[p, -2])
            v_dac = rc_step_value(v_dac, u0, u1, r_on(s1, u0), c_load, dt)
            rows.append(v_dac)
        walk["dac_aq"].append(rows)
        code = sar_convert(v_dac, adc)
        walk["codes"].append(code)
        walk["v_sampled"].append(v_dac)
        v_dac = dac_output(code, adc)
        walk["dac_level"].append(v_dac)
        rows = []
        for j in range(nsub):
            dt = dt_eh if j < nsub - 1 else float(t_eh_grid[p, -1] - t_eh_grid[p, -2])
            v_ceh = eh_step(v_ceh, float(v_eh_in[p, j]), float(v_eh_in[p, j + 1]), ehc, dt)
            rows.append(v_ceh)
        walk["ceh_eh"].append(rows)
    return walk


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
    """Each phase holds the node it does not drive: the storage cap through
    each acquisition is the end of the harvest before it (0.0 in period 0),
    and the DAC node through each harvest is the level of the period's
    code."""
    held = np.concatenate(([0.0], trace.ceh_eh[:-1, -1]))
    assert trace.ceh_held.tobytes() == held.tobytes()
    assert trace.dac_level.tobytes() == dac_output(trace.codes, trace.scenario.adc).tobytes()


@dataclasses.dataclass(frozen=True)
class StoredTrace(TransientTrace):
    """A TransientTrace whose grids, inputs and DAC levels are given arrays
    instead of a scenario's: inputs(rows) returns their rows, and dac_level
    is given too. The levels are given because the writer's edge cases need
    levels, such as -0.0, that no code converts to."""

    given_inputs: tuple = ()
    given_dac_level: np.ndarray = None

    def inputs(self, rows=slice(None)):
        return tuple(a[rows] for a in self.given_inputs)

    dac_level = property(lambda self: self.given_dac_level)


def make_trace(t_aq, t_eh, v_in_aq, v_in_eh, dac_aq, ceh_eh, dac_level):
    """A per-phase trace: grids and inputs (n_periods, n_sub + 1), the phase
    nodes (n_periods, n_sub) and the held DAC level per period; the grids
    and inputs are what its inputs(rows) returns."""
    dac_aq = np.asarray(dac_aq, dtype=np.float64)
    return StoredTrace(
        dac_aq=dac_aq,
        ceh_eh=np.asarray(ceh_eh, dtype=np.float64),
        codes=np.zeros(len(dac_aq), dtype=np.int64),
        scenario=None,
        given_inputs=tuple(np.asarray(a, dtype=np.float64) for a in (t_aq, t_eh, v_in_aq, v_in_eh)),
        given_dac_level=np.asarray(dac_level, dtype=np.float64),
    )


def storage_trace(plan, n_sub, curve):
    """A trace on the grid of the ClockPlan plan whose storage cap after each
    harvest sub-step is curve(t) at the sub-step's end time t.

    This is what steady_state_metrics reads: ceh_eh and the clock of the
    scenario, which holds nothing else. Through each acquisition the cap
    holds the value of the harvest before it (0.0 in period 0), so the
    curve is sampled only at harvest times; the DAC node and codes are 0.
    """
    t_eh = phase_grid(plan, n_sub, Phase.ENERGY_HARVEST)
    zeros = np.zeros((plan.n_periods, n_sub))
    return TransientTrace(
        dac_aq=zeros,
        ceh_eh=np.asarray(curve(t_eh[:, 1:]), dtype=np.float64),
        codes=np.zeros(plan.n_periods, dtype=np.int64),
        scenario=types.SimpleNamespace(clock=plan),
    )


def ramp_then_flat_trace(v_eh, t_ceh, f_s, tol=0.01, extra_periods=20):
    """Storage-cap trace rising linearly in time to v_eh, then flat, whose
    interpolated (1 - tol) crossing is t_ceh, at a sampling rate f_s, alpha
    0.05 and 100 sub-steps.

    The crossing is exact only when it lies past the first sub-step of a
    harvest, where both ends of the interpolated sub-step lie on the ramp;
    the first harvest sub-step starts from the value held since the period
    before.
    """
    ramp_end = t_ceh / (1.0 - tol)
    plan = ClockPlan(f_s=f_s, alpha=0.05, n_periods=math.ceil(ramp_end * f_s) + extra_periods)
    return storage_trace(plan, 100, lambda t: np.minimum(t / ramp_end, 1.0) * v_eh)


def flat_column_metrics(trace, tol):
    """(t_ceh, drift, first_row) of a run read by time off the storage-cap
    column of trace.csv, rebuilt here from time_grid, ceh_held and ceh_eh:
    one row per sub-step end, 2*n_sub rows per period.

    t_ceh is the linear crossing of (1 - tol)*v_eh between the first row at
    or above it, first_row, and the row before; drift is v_eh minus the
    storage cap at the first time 10 sampling periods before the last one,
    or later.
    """
    nsub = trace.ceh_eh.shape[1]
    t_aq, t_eh = time_grid(trace.scenario.clock, nsub)
    t = np.hstack((t_aq[:, 1:], t_eh[:, 1:])).ravel()
    v = np.hstack((np.repeat(trace.ceh_held[:, None], nsub, axis=1), trace.ceh_eh)).ravel()
    v_eh = v[-1]
    threshold = (1.0 - tol) * v_eh
    i = int(np.argmax(v >= threshold))
    t_ceh = t[i - 1] + (threshold - v[i - 1]) * (t[i] - t[i - 1]) / (v[i] - v[i - 1])
    drift = v_eh - v[int(np.argmax(t >= t[-1] - 10.0 * trace.scenario.clock.t_s))]
    return float(t_ceh), float(drift), i


def reference_trace_csv(trace, path):
    """The plain per-row writer that write_trace_csv must match byte for byte.

    Built one period at a time from the per-phase arrays and inputs(): the
    acquisition rows hold the storage voltage of the harvest before them
    (0.0 in period 0), and the harvest rows hold the DAC level.
    """
    t_aq, t_eh, v_in_aq, v_in_eh = (a[:, 1:].tolist() for a in trace.inputs())
    dac_aq, ceh_eh = trace.dac_aq.tolist(), trace.ceh_eh.tolist()
    held = [0.0] + [row[-1] for row in ceh_eh[:-1]]
    aq, eh = (PHASE_LABELS[phase] for phase in Phase)
    with open(path, "w", newline="") as fh:
        fh.write("t_s,v_in,phase,v_dac,v_ceh\n")
        for p, level in enumerate(trace.dac_level.tolist()):
            for t, vi, vd in zip(t_aq[p], v_in_aq[p], dac_aq[p]):
                fh.write(f"{t!r},{vi!r},{aq},{vd!r},{held[p]!r}\n")
            for t, vi, vc in zip(t_eh[p], v_in_eh[p], ceh_eh[p]):
                fh.write(f"{t!r},{vi!r},{eh},{level!r},{vc!r}\n")
