"""Transient simulation engine.

Simulates the two-phase schedule: during acquisition the DAC capacitance
settles toward the input through the sampling switch; at the phase boundary
the settled voltage is converted and the DAC holds the reconstructed level;
during harvesting the storage capacitor charges from the rectified input
while the DAC node is untouched. Each phase is divided into n_sub sub-steps
integrated with the exact RC update, so the only discretization left is the
piecewise-linear approximation of the sine drive.

The result equals a sub-step-by-sub-step walk bit for bit, but the work is
done on whole arrays, with one loop over sub-steps per phase. A run walks
its periods once, in time order, in blocks of whole periods of at most
_BLOCK_SUBSTEPS sub-steps (_blocks), and solves both phases of each block:
first its acquisition (_acquire_rows), then its harvest (_harvest_rows).
Each phase's grid of the block alone (phase_grid), drive and RC step table
(_rc_steps) are built in buffers of one block's size, allocated once per
run and reused by both phases of every block (_BlockBuffers), and a phase's
node voltages overwrite its grid. run() copies them into the trace arrays
allocated once per run; the trace keeps no grid or input
(TransientTrace.inputs rebuilds them), so a run's peak memory is the trace
plus one block. A sweep row builds no trace: it keeps per period only the
codes and the end storage voltage, so a row's memory is its per-period
arrays plus one block. Either way the harvesting metrics re-solve the one
period that holds the crossing from the end voltage of the period before it
(_run). A parallel sweep forks its workers with no process pool, and each
streams its rows back over its own pipe (_forked_rows). Worker w starts on
CPU w mod n of the n its parent may use, then gets the whole set back: left
alone, the kernel starts every worker on the parent's CPU, where they may
stay and share it.

* Acquisition (_acquisition): a period depends on the one before only
  through the DAC level of the previous code. Waveform relaxation guesses
  every start level of a block, settles its periods at once, converts them
  all with one sar_convert call, and redoes the periods whose start level
  changed until none does. The discrete codes make the fixed point exact,
  and it is the sequential answer: a block's first period starts at the DAC
  level of the previous block's last code, which is final, and each pass
  makes at least one more period final. Its tables are sub-step-major, as
  phase_grid lays out the acquisition grid, so each settle step reads one
  contiguous column of the block's periods.
* Harvest (_harvest): the diode ratchet holds the storage voltage on most
  sub-steps, so the RC candidate at the held voltage is tested over fixed
  windows of sub-steps, and one scalar walk steps the ratchet only while
  the voltage rises. Its tables are period-major, so the flat walk runs in
  time order, and the storage voltage carries from one block of periods to
  the next.
  Each block tables only its live periods (live_periods), rows of its own
  grid. U bounds the rectified drive over a period's window
  (SineSource.magnitude_bound through rectified_envelope), and under a
  drive in [0, U] an exact step from v >= U ends at or below
  v - (v - U)*g; where that margin exceeds the rounding of v*a + q, the
  period holds the voltage carried into it, bit for bit. At v = 0 only a
  zero drive (U = 0) is dead, and its q is exactly 0. The test sits beside
  _rc_steps, since it repeats the h, tau and g of its tables.

Both apply a table of RC steps (_rc_steps) as v*a + q per sub-step, the float
operations of the one-step update rc_step_value. The terms come from
frontend.rc_step_terms, and a pass transistor's resistances from
frontend.r_on; the array and float forms of each give the same bits, so the
solvers give the bits of the one-step walk.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .clocking import ClockPlan, Phase, phase_grid, time_grid
from .errors import ConfigError, NotConverged, ValidationError
from .frontend import Switch, SwitchKind, default_settling_factor, r_on, rc_step_terms, required_r_on
from .harvester import EhConfig, EhMetrics, period_end_metrics, rectified_envelope
from .sar_adc import AdcConfig, c_dac, dac_output, sar_convert
from .spectral import Spectrum, enob, sndr, spectrum
from .stimulus import SineSource, rms_power

# Allowed relative slack when checking the settling budget, so a switch
# resistance solved exactly from the budget is not rejected by round-off.
_FEASIBILITY_SLACK = 1e-9

# Hard cap on the simulated periods of one run.
MAX_PERIODS = 1_048_576

# Sub-steps per block of periods that a run tables at once in each phase,
# rounded down to whole periods and at least one period.
_BLOCK_SUBSTEPS = 65536

# Harvest sub-steps over which the held storage voltage is tested for a rise
# at once.
_HOLD_WINDOW = 1024


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run.

    Attributes:
        source: sine stimulus.
        clock: two-phase sampling schedule.
        adc: converter configuration (including the S1 switch model).
        eh: harvesting branch configuration.
        p_in: measured input power in watts for the energy efficiency; when
            None, rms_power of the sine source.
        n_sub: sub-steps per phase segment.
        n_fft: record length for spectral metrics.
        settling_factor_k: acquisition settling factor; None selects
            (n_bits + 1)*ln 2, the half-LSB budget.
        steady_tol: steady-state fraction for harvesting metrics.
    """

    source: SineSource
    clock: ClockPlan
    adc: AdcConfig
    eh: EhConfig
    p_in: float | None = None
    n_sub: int = 64
    n_fft: int = 4096
    settling_factor_k: float | None = None
    steady_tol: float = 0.01


@dataclass(frozen=True)
class TransientTrace:
    """Recorded waveforms and codes of one run, stored per phase.

    Stored: what the solvers compute, dac_aq (the DAC node after each
    acquisition sub-step) and ceh_eh (the storage cap after each harvest
    sub-step), (n_periods, n_sub), and the per-period codes; and the run's
    scenario.

    Derived on each access: v_sampled (the settled voltage each code
    converts), saturated and dac_level (the level of each code, held through
    the harvest phase), per period; inputs(rows), the time_grid of both
    phases for the periods in rows and the input at those times, each
    (periods, n_sub + 1) with column 0 the phase start; ceh_held, the
    storage cap held through each acquisition, per period; and the flat
    columns t, v_in, phase (Phase values), v_dac and v_ceh, one row per
    sub-step end and 2*n_sub rows per period.
    """

    dac_aq: np.ndarray
    ceh_eh: np.ndarray
    codes: np.ndarray
    scenario: Scenario

    def inputs(self, rows: slice = slice(None)) -> tuple[np.ndarray, ...]:
        """(t_aq, t_eh, v_in_aq, v_in_eh) of the periods in rows, as the run's
        solvers built them: the time_grid of both phases and sample_at."""
        source = self.scenario.source
        t_aq, t_eh = time_grid(self.scenario.clock, self.dac_aq.shape[1], rows)
        return t_aq, t_eh, source.sample_at(t_aq), source.sample_at(t_eh)

    @property
    def v_sampled(self) -> np.ndarray:
        return self.dac_aq[:, -1].copy()

    @property
    def saturated(self) -> np.ndarray:
        v, v_ref = self.v_sampled, self.scenario.adc.v_ref
        return (v < -v_ref) | (v >= v_ref)

    @property
    def dac_level(self) -> np.ndarray:
        return dac_output(self.codes, self.scenario.adc)

    @property
    def ceh_held(self) -> np.ndarray:
        """The storage cap held through each acquisition phase, per period."""
        return np.concatenate(([0.0], self.ceh_eh[:-1, -1]))

    @property
    def t(self) -> np.ndarray:
        t_aq, t_eh = time_grid(self.scenario.clock, self.dac_aq.shape[1])
        return _rows(t_aq[:, 1:], t_eh[:, 1:])

    @property
    def v_in(self) -> np.ndarray:
        return _rows(*(a[:, 1:] for a in self.inputs()[2:]))

    @property
    def phase(self) -> np.ndarray:
        nper, nsub = self.dac_aq.shape
        return np.tile(np.repeat(np.array(list(Phase), dtype=np.uint8), nsub), nper)

    @property
    def v_dac(self) -> np.ndarray:
        return _rows(self.dac_aq, self.dac_level[:, None])

    @property
    def v_ceh(self) -> np.ndarray:
        return _rows(self.ceh_held[:, None], self.ceh_eh)


@dataclass(frozen=True)
class SimulationResult:
    """Trace plus the metrics computed from it.

    Spectral and harvesting metrics are None when not requested. sndr_db and
    enob are read from the spectrum on each access; enob is None also for a
    non-finite SNDR, and otherwise (sndr_db - 1.76)/6.02 by construction.
    trace holds the waveforms per phase (TransientTrace); it is None only in
    a sweep row, which is solved without building it and carries the
    metrics, with the bits run() gives them.
    """

    trace: TransientTrace | None
    spectrum: Spectrum | None
    eh: EhMetrics | None

    @property
    def sndr_db(self) -> float | None:
        return None if self.spectrum is None else sndr(self.spectrum)

    @property
    def enob(self) -> float | None:
        sndr_db = self.sndr_db
        return enob(sndr_db) if sndr_db is not None and math.isfinite(sndr_db) else None


@dataclass(frozen=True)
class SweepRow:
    """One point of a parameter sweep; exactly one of result/error is set.

    result holds the metrics and error holds the error text of run() on the
    point's scenario, bit for bit; result.trace is None, since the row is
    solved without building it. scenario is the one the result came from
    (the sweep's make(value)), so a row's summary and waveforms
    are summarize(row.scenario, row.result) and run(row.scenario); it is
    None on an error row.
    """

    parameter: str
    value: float
    result: SimulationResult | None
    error: str | None
    scenario: Scenario | None = None


def resolve_s1(scenario: Scenario) -> Switch:
    """The sampling-switch model actually used by the run.

    "auto" solves a constant on-resistance from the settling budget
    r = t_aq/(k*c_dac) for the scenario's own acquisition window, so the
    residual settling error stays below half an LSB at any alpha.

    Raises:
        ValidationError: "auto" with k*c_dac rounding to 0 or an r that is
            not positive and finite.
    """
    s1 = scenario.adc.s1
    if isinstance(s1, str):  # "auto", enforced by AdcConfig validation
        k, c, t_aq = _settling_factor(scenario), c_dac(scenario.adc), scenario.clock.t_aq
        r = required_r_on(t_aq, c, k) if k * c > 0.0 else math.inf
        if not (0.0 < r < math.inf):
            raise ValidationError(
                f"auto S1 r_on = t_aq/(k*c_dac) = {t_aq:.6g} s/({k:.6g} x {c:.6g} F) = {r:.6g} ohm "
                f"is not positive and finite: engine.settling_factor_k = {k!r}, "
                f"adc.c_unit_f = {scenario.adc.c_unit!r}"
            )
        return Switch.constant(r)
    return s1


def _settling_factor(scenario: Scenario) -> float:
    k = scenario.settling_factor_k
    return default_settling_factor(scenario.adc.n_bits) if k is None else k


def validate(scenario: Scenario) -> Switch:
    """Check cross-parameter constraints; returns the resolved S1 switch.

    Raises:
        ValidationError: Nyquist violation, run length over MAX_PERIODS
            periods or MAX_PERIODS*64 sub-steps per phase, a sub-step no
            wider than 8 ulps of n_periods*T_s, nonpositive n_sub or settling
            factor, an input power that is not positive and finite, a
            steady-state tolerance outside (0, 1), an "auto" S1 that solves
            to no finite resistance, an S1 that cannot settle the DAC
            capacitance within the acquisition window anywhere in the input
            range, or, for either switch, a sub-step of more than 1e307 of
            its branch's least time constant or a pass k_gain whose product
            with its largest overdrive is not finite.
    """
    if scenario.n_sub < 1:
        raise ValidationError(f"n_sub must be >= 1, got {scenario.n_sub}")
    if not (0.0 < scenario.steady_tol < 1.0):
        raise ValidationError(f"steady_tol must lie in (0, 1), got {scenario.steady_tol}")
    if scenario.p_in is not None and not (0.0 < scenario.p_in < math.inf):
        raise ValidationError(f"p_in must be positive and finite, got {scenario.p_in}")
    k = _settling_factor(scenario)
    if not (k > 0.0):
        raise ValidationError(f"settling_factor_k must be positive, got {k}")
    if scenario.clock.n_periods > MAX_PERIODS:
        raise ValidationError(
            f"n_periods {scenario.clock.n_periods} exceeds the cap of {MAX_PERIODS} periods"
        )
    # The sub-step cap is what MAX_PERIODS allows at the default n_sub: a
    # trace of about 1.1 GB.
    substeps, cap = scenario.clock.n_periods * scenario.n_sub, MAX_PERIODS * 64
    if substeps > cap:
        raise ValidationError(
            f"n_periods {scenario.clock.n_periods} x n_sub {scenario.n_sub} = {substeps} "
            f"sub-steps per phase exceeds the cap of {cap} by {substeps - cap} "
            f"({substeps / cap:.4g} times the cap)"
        )
    # A sub-step within a few roundings of the run's latest times can snap
    # to a reversed last width, where the RC step grows the node voltage.
    clock = scenario.clock
    width = min(clock.t_aq, clock.t_eh) / scenario.n_sub
    bound = 8.0 * math.ulp(clock.n_periods * clock.t_s)
    if width <= bound:
        raise ValidationError(
            f"sub-step width min(t_aq, t_eh)/n_sub = {width:.6g} s is not above 8 ulps of the "
            f"run's end time, {bound:.6g} s ({width / bound:.4g} times that bound)"
        )
    if not (scenario.source.frequency < scenario.clock.f_s / 2.0):
        raise ValidationError(
            f"stimulus at {scenario.source.frequency} Hz violates Nyquist for "
            f"f_s = {scenario.clock.f_s} Hz"
        )

    s1 = resolve_s1(scenario)
    # Worst-case on-resistance over the input range. A pass transistor is
    # weakest at the input nearest its gate (infinite when cut off there);
    # the drive never leaves [lo, hi], so an S1 that settles there settles
    # on every sub-step.
    lo, hi = scenario.source.extremes
    v_worst = lo if s1.v_gate is None else min(max(s1.v_gate, lo), hi)
    r_worst = r_on(s1, v_worst)
    budget = scenario.clock.t_aq * (1.0 + _FEASIBILITY_SLACK)
    if r_worst * c_dac(scenario.adc) * k > budget:
        raise ValidationError(
            f"S1 r_on {r_worst:.6g} ohm at input {v_worst:.6g} V cannot settle c_dac "
            f"{c_dac(scenario.adc):.6g} F within t_aq {scenario.clock.t_aq:.6g} s "
            f"at settling factor {k:.4g}"
        )
    # Each phase's tables divide its sub-steps, under 2*dt wide (the last one
    # snaps onto the phase end), by time constants tau >= (r_series + r)*c,
    # r the switch's r_on at the drive farthest from a pass gate, where it is
    # least; with dt at most 1e307 such time constants, h/tau stays finite.
    # A pass r_on there is 0 only where k_gain times the overdrive overflows.
    eh, rect = scenario.eh, scenario.eh.rectifier
    for phase, name, switch, r_series, width, drive, key, value, c in (
        ("acquisition", "s1", s1, 0.0, clock.t_aq, (lo, hi), "adc.c_unit_f", scenario.adc.c_unit,
         c_dac(scenario.adc)),
        ("harvest", "s2", eh.s2, rect.r_series, clock.t_eh,
         (0.0, float(rectified_envelope(max(-lo, hi), rect))), "eh.c_eh_f", eh.c_eh, eh.c_eh),
    ):
        far = 0.0 if switch.v_gate is None else max(drive, key=lambda u: abs(switch.v_gate - u))
        r = r_on(switch, far)
        if r == 0.0:
            od = abs(switch.v_gate - far) - switch.v_th
            raise ValidationError(
                f"switch.{name}.k_gain = {switch.k_gain!r} is above {sys.float_info.max / od:.6g}: "
                f"times the overdrive {od:.6g} V at the {phase} drive {far:.6g} V, it is not finite"
            )
        r, dt = r + r_series, width / scenario.n_sub
        if not (r * c * 1e307 >= dt):
            raise ValidationError(
                f"{key} = {value!r} F is below {dt / 1e307 / r * (value / c):.6g} F: the {phase} "
                f"sub-step {dt:.6g} s would span more than 1e307 time constants of {r:.6g} ohm "
                f"x {c:.6g} F"
            )
    return s1


def input_power(scenario: Scenario) -> float:
    """The configured input power in watts, else the RMS power of the sine source."""
    return rms_power(scenario.source) if scenario.p_in is None else scenario.p_in


def _signal_bin(scenario: Scenario) -> int:
    """Stimulus bin index for the FFT record; rejects non-coherent or too short records."""
    n = scenario.n_fft
    if n < 2 or (n & (n - 1)) != 0:
        raise ValidationError(f"n_fft must be a power of two, got {n}")
    m_exact = scenario.source.frequency * n / scenario.clock.f_s
    m = round(m_exact)
    if abs(m_exact - m) > 1e-6:
        raise ValidationError(f"stimulus is not coherent: {m_exact} cycles per {n}-point record")
    if not (0 < m < n // 2):
        raise ValidationError(f"signal bin {m} outside (0, n_fft/2)")
    if scenario.clock.n_periods < n:
        raise ValidationError(
            f"spectral metrics need n_periods >= n_fft ({scenario.clock.n_periods} < {n})"
        )
    return int(m)


def _rc_steps(switch: Switch, r_series: float, c: float, drive: np.ndarray, grid: np.ndarray, dt: float,
              buffers: _BlockBuffers):
    """The RC step table (a, q) of some periods of one phase, each
    (periods, n_sub), laid out in memory as drive is and held in buffers.

    drive holds the (periods, n_sub + 1) branch drive voltages at the grid
    times, for a whole phase or for a row slice of it (a block, see
    _blocks). Steps are dt wide, except the last of each period, which
    absorbs the snap onto the exact boundary and takes its width h from grid.
    tau = (r_series + r_on) * c, with a pass transistor's r_on (the array
    form of frontend.r_on) at the drive at the start of each sub-step.
    With (a, g, psi) from rc_step_terms at x = h/tau and u0, u1 the drive at
    the step's ends, q = u0*g + (u1 - u0)*psi, so a step from v ends at
    v*a + q. A cut-off switch has tau = inf and x = 0, so a = 1 and q = 0:
    the node holds. A constant switch takes the terms in one call, on
    [dt, *h_last]/tau: element 0 serves the interior columns and the rest
    the last column. A block whose x all lie on one side of _PSI_SERIES_X
    runs one form of psi (see rc_step_terms).
    """
    u0, u1 = drive[:, :-1], drive[:, 1:]
    h_last = grid[:, -1] - grid[:, -2]
    shape, order = u0.shape, "F" if np.isfortran(drive) else "C"
    if switch.kind is not SwitchKind.PASS_TRANSISTOR:
        tau = (r_series + r_on(switch)) * c
        q = np.subtract(u1, u0, out=buffers.view("q", shape, order))
        a = buffers.view("a", shape, order)
        terms = rc_step_terms(np.concatenate(([dt], h_last)) / tau)
        for cols, k in ((np.s_[:, :-1], 0), (np.s_[:, -1], np.s_[1:])):
            a_x, g, psi = (t[k] for t in terms)
            q[cols] *= psi
            q[cols] += np.multiply(u0[cols], g, out=a[cols])
            a[cols] = a_x
        return a, q
    tau = r_on(switch, u0, out=buffers.view("tau", shape, order))
    tau += r_series
    tau *= c
    # x = h/tau, formed in tau's buffer.
    tau_last = tau[:, -1].copy()
    x = np.divide(dt, tau, out=tau)
    np.divide(h_last, tau_last, out=x[:, -1])
    a, q, psi = rc_step_terms(x, tuple(buffers.view(k, shape, order) for k in ("a", "q", "psi")))
    psi *= np.subtract(u1, u0, out=x)
    q *= u0
    q += psi
    return a, q


def live_periods(ehc: EhConfig, source: SineSource, grid: np.ndarray, dt: float, v: float):
    """Mask of the rows of a harvest phase_grid of dt-wide sub-steps whose
    harvest may raise a storage voltage v >= 0. The others are dead: U <= v
    and U*g <= v*(g - 64*2**-53), with U the rectified_envelope of the
    source's magnitude_bound over the row's window and g the least
    -expm1(-h/tau) of its steps, in the float operations of the engine's
    tables: h the narrower of dt and the snapped last width, tau the
    largest, for a pass S2 its r_on at the drive in [0, U] nearest its gate
    (g = 0 at cut-off). At v = 0 only U = 0, a zero drive, is dead: q = 0."""
    start, end = grid[:, 0], grid[:, -1]
    h = np.minimum(dt, end - grid[:, -2])
    u = rectified_envelope(source.magnitude_bound(start, end), ehc.rectifier)
    near = np.clip(ehc.s2.v_gate, 0.0, u) if ehc.s2.kind is SwitchKind.PASS_TRANSISTOR else 0.0
    g = -np.expm1(-(h / ((r_on(ehc.s2, near) + ehc.rectifier.r_series) * ehc.c_eh)))
    return (u > v) | (u * g > v * (g - 64 * 2.0**-53))


def _blocks(n_periods: int, n_sub: int) -> list[slice]:
    """Row slices of whole periods that cover a run in time order, each of at
    most _BLOCK_SUBSTEPS sub-steps, and at least one period."""
    step = max(1, _BLOCK_SUBSTEPS // n_sub)
    return [slice(p, min(p + step, n_periods)) for p in range(0, n_periods, step)]


class _BlockBuffers:
    """Named float buffers of periods x (n_sub + 1) values, the size of a
    run's largest block, which all its blocks of both phases reuse: a
    block's grid, drive and RC step table (with the tau and psi terms of a
    pass transistor's) are views of them, and its node voltages overwrite
    its grid once _rc_steps has read it. They are one allocation, so the
    allocator neither hands their pages back between blocks nor faults them
    in again."""

    def __init__(self, periods: int, n_sub: int, pass_transistor: bool):
        names = ("grid", "drive", "a", "q") + (("tau", "psi") if pass_transistor else ())
        self.buffers = dict(zip(names, np.empty((len(names), periods * (n_sub + 1)))))

    def view(self, name: str, shape: tuple[int, int], order: str = "C") -> np.ndarray:
        """The leading values of buffer name as an array of shape, laid out in order."""
        return self.buffers[name][:shape[0] * shape[1]].reshape(shape, order=order)


def _acquisition(steps, boundary_in: np.ndarray, adc: AdcConfig, v0: float, out) -> np.ndarray:
    """Codes of the periods; the DAC node after every acquisition sub-step
    goes into out, a sub-step-major (n_periods, n_sub) array.

    steps is the _rc_steps table of the periods and boundary_in the input at
    each window's end. A period depends on the one before only through its
    start level, the DAC level of the previous code; the first period starts
    at v0. Waveform relaxation: guess every other start level from the code
    of the previous boundary input, settle all periods at once, convert, and
    redo the periods whose start level changed until none does. The first
    period redone in a pass follows a final prefix, so each pass makes at
    least one more period final: n periods take at most n + 1 sar_convert
    calls, and the fixed point is the sequential walk's codes.
    """
    a, q = steps
    nsub = a.shape[1]

    def settle(a, q, x, out):
        # In place, one sub-step-major column at a time: each is contiguous.
        for j in range(nsub):
            x = np.multiply(x, a[:, j], out=out[:, j])
            x += q[:, j]
        return sar_convert(x, adc)

    start = np.empty(len(a))
    start[0] = v0
    start[1:] = dac_output(sar_convert(boundary_in[:-1], adc), adc)
    codes = settle(a, q, start, out)
    while True:
        level = dac_output(codes[:-1], adc)
        redo = np.flatnonzero(level != start[1:]) + 1
        if redo.size == 0:
            return codes
        start[redo] = level[redo - 1]
        # The redone rows, gathered once into dense sub-step-major copies,
        # settled in a's copy and scattered once.
        a_r, q_r = (m.T.take(redo, axis=1).T for m in (a, q))
        codes[redo] = settle(a_r, q_r, start[redo], a_r)
        out[redo] = a_r


def _harvest(steps, v: float, out) -> float:
    """The storage-cap voltage after the last harvest sub-step; the voltage
    after every sub-step goes into out, a C-contiguous (n_periods, n_sub)
    array.

    steps is the _rc_steps table of the periods. The node starts at v and
    carries over from period to period. The diode ratchet takes the RC
    candidate v*a + q only where it exceeds the held voltage, which happens
    on few sub-steps. So each pass tests the candidate at the held voltage
    over the next _HOLD_WINDOW sub-steps, holds up to the first rise or the
    window's end, and from there one scalar walk steps the ratchet while it
    keeps rising; after a window with no rise its first test fails. Where
    S2 is cut off the candidate is v itself, which does not rise, so the
    node holds. Both tests form the candidate with the same float
    operations.
    """
    a, q = (m.ravel() for m in steps)
    # The scalar walk reads Python floats straight from the table.
    a_m, q_m = memoryview(a), memoryview(q)
    flat = out.reshape(len(a))
    i = 0
    while i < len(a):
        cand = np.multiply(v, a[i:i + _HOLD_WINDOW])
        cand += q[i:i + _HOLD_WINDOW]
        rises = np.flatnonzero(cand > v)
        k = i + (int(rises[0]) if rises.size else len(cand))
        flat[i:k] = v
        risen = []
        for a_k, q_k in zip(a_m[k:], q_m[k:]):
            cand = v * a_k + q_k
            if not cand > v:
                break
            v = cand
            risen.append(v)
        i = k + len(risen)
        flat[k:i] = risen
    return v


def _acquire_rows(s1: Switch, adc: AdcConfig, plan: ClockPlan, source: SineSource, nsub: int, rows: slice,
                  level: float, buffers: _BlockBuffers):
    """The acquisition of the periods in rows, the first starting at DAC
    level level, on their grid and input: _acquisition on their tables.
    Returns their codes and the DAC node after every acquisition sub-step,
    sub-step-major (periods, n_sub), which overwrites their grid in
    buffers."""
    m = rows.stop - rows.start
    grid = phase_grid(plan, nsub, Phase.ACQUISITION, rows, buffers.view("grid", (m, nsub + 1), "F"))
    drive = source.sample_at(grid, buffers.view("drive", (m, nsub + 1), "F"))
    steps = _rc_steps(s1, 0.0, c_dac(adc), drive, grid, plan.t_aq / nsub, buffers)
    settled = buffers.view("grid", (m, nsub), "F")
    return _acquisition(steps, drive[:, -1], adc, level, settled), settled


def _harvest_rows(ehc: EhConfig, plan: ClockPlan, source: SineSource, nsub: int, rows: slice, v: float,
                  buffers: _BlockBuffers):
    """The harvest of the periods in rows from storage voltage v, on their
    grid: _harvest walks the tables of the live_periods only. Returns the
    live mask, each period's end voltage (a dead period holds the largest
    end before it, since the ratchet never falls) and the voltage after
    every sub-step of the live periods, (live periods, n_sub), which
    overwrites their grid in buffers. A period's grid, liveness and walk
    depend only on the period and the voltage carried into it, so any slice
    of periods gives the bits of the whole run."""
    rect, dt = ehc.rectifier, plan.t_eh / nsub
    # The whole grid is only read for liveness, so the drive overwrites it.
    m = rows.stop - rows.start
    whole = phase_grid(plan, nsub, Phase.ENERGY_HARVEST, rows, buffers.view("drive", (m, nsub + 1)))
    live = live_periods(ehc, source, whole, dt, v)
    idx = np.flatnonzero(live)
    n_live = len(idx)
    # take writes straight into out only in a mode other than "raise"; the
    # indices are in range, so "clip" never clips.
    grid = np.take(whole, idx, axis=0, out=buffers.view("grid", (n_live, nsub + 1)), mode="clip")
    env = rectified_envelope(source.sample_at(grid, whole[:n_live]), rect, whole[:n_live])
    steps = _rc_steps(ehc.s2, rect.r_series, ehc.c_eh, env, grid, dt, buffers)
    walked, ends = buffers.view("grid", (n_live, nsub)), np.full(m, v)
    _harvest(steps, v, walked)
    ends[live] = walked[:, -1]
    return live, np.maximum.accumulate(ends), walked


def _rows(aq: np.ndarray, eh: np.ndarray) -> np.ndarray:
    """Trace rows, period by period, from (n_periods, n_sub) values of each phase.

    Either argument may be a single column, held through its phase.
    """
    out = np.empty((len(aq), 2, max(aq.shape[1], eh.shape[1])))
    out[:, 0] = aq
    out[:, 1] = eh
    return out.ravel()


def run(scenario: Scenario, spectral: bool = True, eh: bool = True) -> SimulationResult:
    """Simulate one scenario and compute the requested metrics.

    Args:
        scenario: validated inputs (validate() is called internally).
        spectral: compute SNDR/ENOB from the last n_fft codes; requires a
            coherent sine record of at least n_fft periods.
        eh: compute steady-state harvesting metrics from the storage
            voltage at each period's end and the re-solved crossing period.

    Raises:
        ValidationError: invalid scenario, spectral metrics for a run
            shorter than n_fft periods / a non-coherent stimulus, or, with
            no configured p_in, a sine input power that overflows (or, for
            harvesting metrics, underflows to 0); all before the transient.
        NotConverged: harvesting metrics requested before steady state.
    """
    return _run(scenario, spectral, eh, keep_trace=True)


def _run(scenario: Scenario, spectral: bool, eh: bool, keep_trace: bool) -> SimulationResult:
    """run(), with the trace or, for a sweep row, without it: one walk over
    the blocks acquires and then harvests each block, and keeps per period
    the codes and the end storage voltage. With the trace it copies each
    phase's node voltages of the block into the trace arrays, before the
    next phase overwrites them; without it they are kept only while the
    phase solves the block. Either way the harvesting metrics re-solve the
    period that holds the crossing from the end voltage of the one before."""
    s1 = validate(scenario)
    sig_bin = _signal_bin(scenario) if spectral else 0
    p_in = input_power(scenario)
    # summarize reports the power, and eta_e divides by it.
    if scenario.p_in is None and (p_in == math.inf or (eh and p_in == 0.0)):
        # A*A and A*A/(2r) must both lie between the least subnormal and the
        # largest float.
        src = scenario.source
        root_2r = math.sqrt(2.0) * math.sqrt(src.source_resistance)
        lo = math.sqrt(math.ulp(0.0)) * max(root_2r, 1.0)
        hi = math.sqrt(sys.float_info.max) * min(root_2r, 1.0)
        raise ValidationError(
            f"signal.amplitude_v = {src.amplitude!r} V into signal.r_source_ohm = {src.source_resistance!r} "
            f"ohm gives a sine input power A**2/(2*r_source) of {p_in!r} W, which is not positive and "
            f"finite: without signal.p_in_w the amplitude must lie between about {lo:.6g} and {hi:.6g} V"
        )

    plan, adc, source, nsub = scenario.clock, scenario.adc, scenario.source, scenario.n_sub
    shape = (plan.n_periods, nsub)
    pass_transistor = SwitchKind.PASS_TRANSISTOR in (s1.kind, scenario.eh.s2.kind)
    blocks = _blocks(plan.n_periods, nsub)
    buffers = _BlockBuffers(blocks[0].stop, nsub, pass_transistor)
    codes, ends = np.empty(plan.n_periods, dtype=np.int64), np.empty(plan.n_periods)
    if keep_trace:
        dac_aq, ceh_eh = np.empty(shape, order="F"), np.empty(shape)
    level = v = 0.0
    for rows in blocks:
        # Each block starts at the DAC level of the previous block's last
        # code and at the storage voltage it ended at.
        codes[rows], settled = _acquire_rows(s1, adc, plan, source, nsub, rows, level, buffers)
        if keep_trace:  # before the harvest overwrites the buffers
            dac_aq[rows] = settled
        live, ends[rows], walked = _harvest_rows(scenario.eh, plan, source, nsub, rows, v, buffers)
        if keep_trace:
            block = ceh_eh[rows]
            block[live], block[~live] = walked, ends[rows][~live, None]
        level, v = dac_output(int(codes[rows.stop - 1]), adc), float(ends[rows.stop - 1])
    trace = TransientTrace(dac_aq, ceh_eh, codes, scenario) if keep_trace else None

    def resolved_row(p):
        # Period p from the end of period p - 1, with the bits of the whole
        # run. The crossing period rises, so it is live and walked.
        v = float(ends[p - 1]) if p else 0.0
        return _harvest_rows(scenario.eh, plan, source, nsub, slice(p, p + 1), v, buffers)[2][0]

    spec = spectrum(codes[-scenario.n_fft:], adc, plan.f_s, sig_bin) if spectral else None
    metrics = None
    if eh:
        v_m = max(abs(x) for x in source.extremes)
        metrics = period_end_metrics(ends, resolved_row, plan, p_in, scenario.eh, v_m, tol=scenario.steady_tol)
    return SimulationResult(trace, spec, metrics)


def _sweep_worker(args) -> SweepRow:
    make, parameter, value, spectral, eh = args
    try:
        # A Scenario as make is bench/layers.py's alpha sweep; this goes once it passes a make.
        scenario = make(value) if callable(make) else dataclasses.replace(
            make, clock=dataclasses.replace(make.clock, alpha=value))
        # No sweep output reads the trace, so a row never builds it.
        return SweepRow(parameter, value, _run(scenario, spectral, eh, keep_trace=False), None, scenario)
    except (ConfigError, ValidationError, NotConverged) as exc:
        return SweepRow(parameter, value, None, str(exc))


def _forked_rows(tasks, n_workers: int) -> list[SweepRow]:
    """The rows of tasks, in order, from n_workers forked workers.

    Worker w runs tasks w, w + n, w + 2n, ... and writes each finished row
    to its own pipe as one pickle; the parent reads row i from worker
    i mod n, so it holds each row once and computes none. Worker w first
    pins itself to entry w mod len(cpus) of cpus, the parent's allowed CPUs
    in sorted order, then at once allows all of cpus again: it starts on
    its own CPU, and the scheduler may still move it. Where
    os.sched_setaffinity is missing or fails, the kernel places it. A row
    that raises an error _sweep_worker does not record is sent in the row's
    place, ends its worker, and is raised here. On every path the read ends are
    closed and every worker reaped before this returns or raises; a worker
    still writing then gets EPIPE and leaves.
    """
    readers, pids = [], []
    try:
        for w in range(n_workers):
            r, wr = os.pipe()
            readers.append(open(r, "rb"))
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns that a multi-threaded process
                    # forks. A library caller's numpy may have started its
                    # BLAS pool (the ehadc command starts none). A worker
                    # calls no BLAS routine and leaves through os._exit, so
                    # it never takes a lock that pool might hold.
                    warnings.filterwarnings(
                        "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                        DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        if hasattr(os, "sched_setaffinity"):
                            try:
                                cpus = sorted(os.sched_getaffinity(0))
                                os.sched_setaffinity(0, {cpus[w % len(cpus)]})
                                os.sched_setaffinity(0, cpus)
                            except OSError:
                                pass
                        for reader in readers:
                            reader.close()
                        out = open(wr, "wb")
                        for task in tasks[w::n_workers]:
                            try:
                                row = _sweep_worker(task)
                            except Exception as exc:
                                row = exc
                            pickle.dump(row, out)
                            out.flush()
                            if isinstance(row, Exception):
                                break
                        status = 0
                    finally:
                        # Runs none of the parent's atexit handlers and
                        # flushes none of its stdio buffers.
                        os._exit(status)
            finally:
                os.close(wr)
            pids.append(pid)
        rows = []
        for i in range(len(tasks)):
            w = i % n_workers
            try:
                row = pickle.load(readers[w])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(w)
                _, status = os.waitpid(pid, 0)
                raise RuntimeError(
                    f"sweep worker {pid} ended before sending row {i} "
                    f"(wait status {status}, exit code {os.waitstatus_to_exitcode(status)})") from None
            if isinstance(row, Exception):
                raise row
            rows.append(row)
        return rows
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def sweep(
    make,
    parameter: str,
    values,
    jobs: int = 1,
    spectral: bool = True,
    eh: bool = True,
) -> list[SweepRow]:
    """Run one row per value, on the scenario make(value).

    make is any callable, such as functools.partial(config.scenario_with,
    cfg, key); parameter is the rows' label. A ConfigError of make, and a
    validation or convergence failure of the run, is recorded in the row's
    error field instead of aborting the sweep. Rows are returned in input
    order regardless of jobs, and carry no trace; each result row carries
    the scenario it ran. A Scenario passed as make is swept over its
    clock.alpha.

    With jobs > 1 and more than one value, min(jobs, len(values)) workers
    are forked (os.fork), row i runs on worker i mod that count, and each
    row comes back pickled over the worker's pipe, so each row, though not
    make, must pickle. Worker w starts on CPU w mod n of the n CPUs this
    process may use, and may then move to any of them. Any other error of a
    row is raised here. Where os.fork is missing, rows run serially.

    Raises:
        ValueError: jobs < 1 (checked before any run starts).
        RuntimeError: a worker ended before sending its rows.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(make, parameter, float(v), spectral, eh) for v in values]
    if jobs > 1 and len(tasks) > 1 and hasattr(os, "fork"):
        return _forked_rows(tasks, min(jobs, len(tasks)))
    return [_sweep_worker(task) for task in tasks]
