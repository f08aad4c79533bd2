"""Transient simulation engine.

Simulates the two-phase schedule: during acquisition the DAC capacitance
settles toward the input through the sampling switch; at the phase boundary
the settled voltage is converted and the DAC holds the reconstructed level;
during harvesting the storage capacitor charges from the rectified input
while the DAC node is untouched. Each phase is divided into n_sub sub-steps
integrated with the exact RC update, so the only discretization left is the
piecewise-linear approximation of the sine drive.

The result equals a sub-step-by-sub-step walk bit for bit, but the work is
done on whole arrays:

* Acquisition (_acquisition): a period depends on the one before only
  through the DAC level of the previous code. Waveform relaxation guesses
  every start level, settles all periods at once, converts them all with
  one sar_convert call, and redoes the periods whose start level changed.
  The discrete codes make the fixed point exact, and it is the sequential
  answer. After 2*n_periods period updates the rest is finished in order.
* Harvest (_harvest): the diode ratchet holds the storage voltage on most
  sub-steps, so the RC candidate at the held voltage is tested over growing
  blocks, and single steps are taken only while the voltage rises.

Both apply one table of RC step coefficients (_rc_steps) with the float
operations of the one-step RC update in their order (_rc_update). Every decay
factor either solver applies comes from math.exp, not np.exp, which can differ
in the last bit. A pass-transistor S2 has one decay argument per sub-step, and
most harvest sub-steps hold, so its table carries np.exp only as a screen: the
held-block test widens it by _SCREEN_SLACK toward a rise, and math.exp is
taken only at the sub-steps the ratchet steps one at a time.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .clocking import ClockPlan, Phase, time_grid
from .errors import NotConverged, ValidationError
from .frontend import Switch, SwitchKind, default_settling_factor, r_on, required_r_on
from .harvester import EhConfig, EhMetrics, rectified_envelope, steady_state_metrics
from .sar_adc import AdcConfig, c_dac, dac_output, sar_convert
from .spectral import Spectrum, enob, sndr, spectrum
from .stimulus import SineSource, rms_power

# Allowed relative slack when checking the settling budget, so a switch
# resistance solved exactly from the budget is not rejected by round-off.
_FEASIBILITY_SLACK = 1e-9

# Hard cap on the simulated periods of one run.
MAX_PERIODS = 1_048_576

# Largest block of harvest sub-steps over which the held storage voltage is
# tested for a rise at once.
_MAX_HOLD_BLOCK = 16384

# Relative slack of an np.exp screen around math.exp; np.exp strays from it by
# about one ulp (2**-52). The absolute term covers subnormal and flushed decays.
_SCREEN_SLACK = 2.0**-40
_SCREEN_FLOOR = sys.float_info.min

SWEEPABLE_PARAMETERS = ("alpha", "c_eh", "v_drop", "r_on_s1", "n_bits", "f_s")
_UNKNOWN_PARAMETER = "unknown sweep parameter {!r}; choose from " + ", ".join(SWEEPABLE_PARAMETERS)


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

    t_aq, t_eh (the time_grid of each phase) and v_in_aq, v_in_eh (the input
    at those times) are (n_periods, n_sub + 1), column 0 the phase start.
    dac_aq (the DAC node after each acquisition sub-step) and ceh_eh (the
    storage cap after each harvest sub-step) are (n_periods, n_sub). Per
    period: codes, v_sampled (the settled voltage each code converts),
    saturated, and dac_level (the level of each code, held through the
    harvest phase). period_s is the sampling period.

    The flat columns t, v_in, phase (Phase values), v_dac and v_ceh, one row
    per sub-step end and 2*n_sub rows per period, are built on each access.
    """

    t_aq: np.ndarray
    t_eh: np.ndarray
    v_in_aq: np.ndarray
    v_in_eh: np.ndarray
    dac_aq: np.ndarray
    ceh_eh: np.ndarray
    codes: np.ndarray
    v_sampled: np.ndarray
    saturated: np.ndarray
    dac_level: np.ndarray
    period_s: float

    @property
    def ceh_held(self) -> np.ndarray:
        """The storage cap held through each acquisition phase, per period."""
        return np.concatenate(([0.0], self.ceh_eh[:-1, -1]))

    @property
    def t(self) -> np.ndarray:
        return _rows(self.t_aq[:, 1:], self.t_eh[:, 1:])

    @property
    def v_in(self) -> np.ndarray:
        return _rows(self.v_in_aq[:, 1:], self.v_in_eh[:, 1:])

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

    Spectral and harvesting metrics are None when not requested. When both
    are present, enob == (sndr_db - 1.76)/6.02 by construction. trace holds
    the waveforms per phase (TransientTrace); it is None only in a sweep
    row, which carries the metrics without the waveforms.
    """

    trace: TransientTrace | None
    sndr_db: float | None
    enob: float | None
    spectrum: Spectrum | None
    eh: EhMetrics | None


@dataclass(frozen=True)
class SweepRow:
    """One point of a parameter sweep; exactly one of result/error is set.

    result holds the run's metrics with trace None.
    """

    parameter: str
    value: float
    result: SimulationResult | None
    error: str | None


def _source_extremes(source: SineSource) -> tuple[float, float]:
    return source.dc_offset - source.amplitude, source.dc_offset + source.amplitude


def resolve_s1(scenario: Scenario) -> Switch:
    """The sampling-switch model actually used by the run.

    "auto" solves a constant on-resistance from the settling budget
    r = t_aq/(k*c_dac) for the scenario's own acquisition window, so the
    residual settling error stays below half an LSB at any alpha.
    """
    s1 = scenario.adc.s1
    if isinstance(s1, str):  # "auto", enforced by AdcConfig validation
        k = _settling_factor(scenario)
        return Switch.constant(required_r_on(scenario.clock.t_aq, c_dac(scenario.adc), k))
    return s1


def _settling_factor(scenario: Scenario) -> float:
    k = scenario.settling_factor_k
    return default_settling_factor(scenario.adc.n_bits) if k is None else k


def validate(scenario: Scenario) -> Switch:
    """Check cross-parameter constraints; returns the resolved S1 switch.

    Raises:
        ValidationError: Nyquist violation, run length over MAX_PERIODS,
            nonpositive n_sub, settling factor or input power, a steady-state
            tolerance outside (0, 1), or an S1 that cannot settle the DAC
            capacitance within the acquisition window anywhere in the input
            range.
    """
    if scenario.n_sub < 1:
        raise ValidationError(f"n_sub must be >= 1, got {scenario.n_sub}")
    if not (0.0 < scenario.steady_tol < 1.0):
        raise ValidationError(f"steady_tol must lie in (0, 1), got {scenario.steady_tol}")
    if scenario.p_in is not None and not (scenario.p_in > 0.0):
        raise ValidationError(f"p_in must be positive, got {scenario.p_in}")
    k = _settling_factor(scenario)
    if not (k > 0.0):
        raise ValidationError(f"settling_factor_k must be positive, got {k}")
    if scenario.clock.n_periods > MAX_PERIODS:
        raise ValidationError(
            f"n_periods {scenario.clock.n_periods} exceeds the cap of {MAX_PERIODS} periods"
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
    lo, hi = _source_extremes(scenario.source)
    v_worst = lo if s1.v_gate is None else min(max(s1.v_gate, lo), hi)
    r_worst = r_on(s1, v_worst)
    budget = scenario.clock.t_aq * (1.0 + _FEASIBILITY_SLACK)
    if r_worst * c_dac(scenario.adc) * k > budget:
        raise ValidationError(
            f"S1 r_on {r_worst:.6g} ohm at input {v_worst:.6g} V cannot settle c_dac "
            f"{c_dac(scenario.adc):.6g} F within t_aq {scenario.clock.t_aq:.6g} s "
            f"at settling factor {k:.4g}"
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


def _rc_steps(
    switch: Switch,
    r_series: float,
    c: float,
    drive: np.ndarray,
    grid: np.ndarray,
    dt: float,
    screen: bool = False,
):
    """The RC step table (u0, s, a, b, x) of one phase, each (n_periods, n_sub).

    drive holds the (n_periods, n_sub + 1) branch drive voltages at the grid
    times. Steps are dt wide, except the last of each period, which absorbs
    the snap onto the exact boundary and takes its width h from grid.
    tau = (r_series + r_on) * c, with a pass transistor's r_on (the float
    operations of frontend.r_on) at the drive at the start of each sub-step;
    cut off, tau is infinite and the RC update yields NaN. With u1 the drive
    at the step end, s = (u1 - u0)*(tau/h), b = u1 - s and a = exp(-h/tau)
    from math.exp, because np.exp can differ from it in the last bit; x is
    None.

    With screen set and a pass transistor, x holds the decay arguments -h/tau
    and a is np.exp(x), a screen for _harvest, which takes math.exp(x) only
    where it steps. A constant switch has one argument per step width, so
    its table stays exact.
    """
    u0, u1 = drive[:, :-1], drive[:, 1:]
    h = np.full(u0.shape, dt)
    h[:, -1] = grid[:, -1] - grid[:, -2]
    x = None
    if switch.kind is not SwitchKind.PASS_TRANSISTOR:
        tau = (r_series + r_on(switch)) * c
        a = np.full(h.shape, math.exp(-dt / tau))
        a[:, -1] = _math_exp(-h[:, -1] / tau)
    else:
        overdrive = np.abs(switch.v_gate - u0) - switch.v_th
        r = np.full(h.shape, math.inf)
        np.divide(1.0, switch.k_gain * overdrive, out=r, where=overdrive > 0.0)
        tau = (r_series + r) * c
        if screen:
            x = -h / tau
            a = np.exp(x)
        else:
            a = _math_exp((-h / tau).ravel()).reshape(h.shape)
    s = (u1 - u0) * (tau / h)
    return u0, s, a, u1 - s, x


def _math_exp(x: np.ndarray) -> np.ndarray:
    """math.exp of every element of a contiguous 1-D array."""
    return np.fromiter(map(math.exp, memoryview(x)), float, count=x.size)


def _screen_bounds(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) around np.exp decay factors a, holding math.exp of the same
    arguments: a*(1 -/+ _SCREEN_SLACK) -/+ _SCREEN_FLOOR."""
    return a * (1.0 - _SCREEN_SLACK) - _SCREEN_FLOOR, a * (1.0 + _SCREEN_SLACK) + _SCREEN_FLOOR


def _rc_update(v, u0, s, a, b):
    """One exact RC step from v for a drive ramping from u0 over the step.

    With (u0, s, a, b) from a row of _rc_steps this is rc_step_value's
    u1 - s + (v - u0 + s)*a, the same float operations in the same order.
    Works on floats and elementwise on arrays alike.
    """
    return b + (v - u0 + s) * a


def _acquisition(steps, boundary_in: np.ndarray, adc: AdcConfig):
    """DAC node after every acquisition sub-step (n_periods, n_sub), and the codes.

    steps is the exact _rc_steps table of the phase and boundary_in the input
    at each window's end. A period depends on the one before only through its
    start level, the DAC level of the previous code (0.0 for period 0).
    Waveform relaxation: guess every start level from the code of the
    previous boundary input, settle all periods at once, convert, and redo
    the periods whose start level changed until none does. That fixed point
    is the sequential answer. Once the passes have done 2*n_periods period
    updates the rest is finished in order, from the first unsettled period,
    so a slowly settling S1 costs no more than a scalar walk.
    """
    u0, s, a, b, _ = steps
    nper, nsub = u0.shape

    def settle(start, rows):
        v = np.empty((len(start), nsub))
        x = start
        for j in range(nsub):
            x = v[:, j] = _rc_update(x, u0[rows, j], s[rows, j], a[rows, j], b[rows, j])
        return v

    start = np.empty(nper)
    start[0] = 0.0
    start[1:] = dac_output(sar_convert(boundary_in[:-1], adc), adc)
    v = settle(start, slice(None))
    codes = sar_convert(v[:, -1], adc)
    updates = nper
    while True:
        level = dac_output(codes[:-1], adc)
        redo = np.flatnonzero(level != start[1:]) + 1
        if redo.size == 0:
            return v, codes
        if updates >= 2 * nper:
            break
        start[redo] = level[redo - 1]
        v[redo] = settle(start[redo], redo)
        codes[redo] = sar_convert(v[redo, -1], adc)
        updates += redo.size

    # Sequential finish: a period is redone only if its start level differs
    # from the one its values were computed with.
    for p in range(int(redo[0]), nper):
        x = dac_output(int(codes[p - 1]), adc)
        if x == start[p]:
            continue
        start[p] = x
        for j, (u0_j, s_j, a_j, b_j) in enumerate(zip(*(m[p].tolist() for m in (u0, s, a, b)))):
            x = v[p, j] = _rc_update(x, u0_j, s_j, a_j, b_j)
        codes[p] = sar_convert(x, adc)
    return v, codes


def _harvest(steps) -> np.ndarray:
    """Storage-cap voltage after every harvest sub-step, shape (n_periods, n_sub).

    steps is the _rc_steps table of the phase. The node starts at 0.0 and
    carries over from period to period. The diode ratchet takes the RC
    candidate only where it exceeds the held voltage, which happens on few
    sub-steps. So the candidate at the held voltage is evaluated over blocks
    that double from n_sub up to _MAX_HOLD_BLOCK sub-steps; from the first
    sub-step where it rises, the ratchet steps one sub-step at a time while
    it keeps rising. A NaN candidate (S2 cut off) fails the > test on both
    paths, so the node holds.

    A screened table (x set) tests the blocks with a bound on the candidate:
    the screen factor widened by _screen_bounds toward a rise, hi where
    w = (v - u0) + s >= 0 and lo elsewhere. IEEE rounding is monotone, so
    b + w*hi (or lo) is at least the candidate b + w*math.exp(x) with the
    same float operations, and a sub-step the bound holds truly holds. The
    single steps take math.exp(x) at the sub-steps they visit; a screened
    sub-step that does not rise after all is held there. Where the bound is
    NaN, the candidate is NaN or -inf, and the node holds either way.
    """
    nper, nsub = steps[0].shape
    e0, s, a, b, x = (None if m is None else m.ravel() for m in steps)
    if x is not None:
        lo, hi = _screen_bounds(a)
    # The single steps read Python floats straight from the table.
    e0_m, s_m, b_m = (memoryview(m) for m in (e0, s, b))
    decay = memoryview(a if x is None else x)
    n = len(e0)
    out = np.empty(n)
    v = 0.0
    i = 0
    block = nsub
    while i < n:
        j = min(i + block, n)
        cand = v - e0[i:j]
        cand += s[i:j]
        cand *= a[i:j] if x is None else np.where(cand >= 0.0, hi[i:j], lo[i:j])
        cand += b[i:j]
        rises = np.flatnonzero(cand > v)
        if rises.size == 0:
            out[i:j] = v
            i = j
            block = min(2 * block, _MAX_HOLD_BLOCK)
            continue
        k = i + int(rises[0])
        out[i:k] = v
        i = k
        while i < n:  # scalar steps, one window of nsub at a time
            j = min(i + nsub, n)
            risen = []
            # zip stops at the first sub-step that holds, so a screened table
            # takes math.exp only of the sub-steps visited.
            a_w = decay[i:j] if x is None else map(math.exp, decay[i:j])
            for e0_j, s_j, a_j, b_j in zip(e0_m[i:j], s_m[i:j], a_w, b_m[i:j]):
                cand = _rc_update(v, e0_j, s_j, a_j, b_j)
                if not cand > v:
                    break
                v = cand
                risen.append(v)
            out[i : i + len(risen)] = risen
            i += len(risen)
            if i < j:  # the candidate at sub-step i did not rise: it holds
                out[i] = v
                i += 1
                break
        block = nsub
    return out.reshape(nper, nsub)


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
        eh: compute steady-state harvesting metrics from the trace.

    Raises:
        ValidationError: invalid scenario, or spectral metrics for a run
            shorter than n_fft periods / a non-coherent stimulus; all before
            the transient.
        NotConverged: harvesting metrics requested before steady state.
    """
    s1 = validate(scenario)
    sig_bin = _signal_bin(scenario) if spectral else 0
    p_in = input_power(scenario) if eh else None

    plan, adc, ehc = scenario.clock, scenario.adc, scenario.eh
    nsub = scenario.n_sub

    t_aq_grid, t_eh_grid = time_grid(plan, nsub)
    v_aq = scenario.source.sample_at(t_aq_grid)
    v_eh_in = scenario.source.sample_at(t_eh_grid)
    env = rectified_envelope(v_eh_in, ehc.rectifier)

    dac_aq, codes_arr = _acquisition(
        _rc_steps(s1, 0.0, c_dac(adc), v_aq, t_aq_grid, plan.t_aq / nsub), v_aq[:, -1], adc
    )
    with np.errstate(invalid="ignore"):  # a cut-off S2 makes NaN steps and candidates
        ceh_eh = _harvest(
            _rc_steps(
                ehc.s2, ehc.rectifier.r_series, ehc.c_eh, env, t_eh_grid, plan.t_eh / nsub,
                screen=True,
            )
        )

    v_sampled = dac_aq[:, -1].copy()
    trace = TransientTrace(
        t_aq=t_aq_grid,
        t_eh=t_eh_grid,
        v_in_aq=v_aq,
        v_in_eh=v_eh_in,
        dac_aq=dac_aq,
        ceh_eh=ceh_eh,
        codes=codes_arr,
        v_sampled=v_sampled,
        saturated=(v_sampled < -adc.v_ref) | (v_sampled >= adc.v_ref),
        dac_level=dac_output(codes_arr, adc),
        period_s=plan.t_s,
    )

    sndr_db = enob_bits = spec = None
    if spectral:
        spec = spectrum(trace.codes[-scenario.n_fft:], adc, plan.f_s, sig_bin)
        sndr_db = sndr(spec)
        enob_bits = enob(sndr_db) if math.isfinite(sndr_db) else None

    metrics = None
    if eh:
        v_m = max(abs(x) for x in _source_extremes(scenario.source))
        metrics = steady_state_metrics(trace, p_in, ehc, v_m, tol=scenario.steady_tol)

    return SimulationResult(
        trace=trace,
        sndr_db=sndr_db,
        enob=enob_bits,
        spectrum=spec,
        eh=metrics,
    )


def apply_parameter(base: Scenario, parameter: str, value: float) -> Scenario:
    """A copy of base with one sweepable parameter replaced.

    Raises:
        ValueError: unknown parameter name.
        ValidationError: the new value violates a constructor invariant, or an
            n_bits value is not a whole number.
    """
    try:
        if parameter == "alpha":
            return dataclasses.replace(base, clock=dataclasses.replace(base.clock, alpha=value))
        if parameter == "f_s":
            return dataclasses.replace(base, clock=dataclasses.replace(base.clock, f_s=value))
        if parameter == "c_eh":
            return dataclasses.replace(base, eh=dataclasses.replace(base.eh, c_eh=value))
        if parameter == "v_drop":
            rect = dataclasses.replace(base.eh.rectifier, v_drop=value)
            return dataclasses.replace(base, eh=dataclasses.replace(base.eh, rectifier=rect))
        if parameter == "r_on_s1":
            return dataclasses.replace(base, adc=dataclasses.replace(base.adc, s1=Switch.constant(value)))
        if parameter == "n_bits":
            if not float(value).is_integer():
                raise ValueError(f"n_bits must be a whole number, got {value}")
            return dataclasses.replace(base, adc=dataclasses.replace(base.adc, n_bits=int(value)))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    raise ValueError(_UNKNOWN_PARAMETER.format(parameter))


def _sweep_worker(args) -> SweepRow:
    base, parameter, value, spectral, eh = args
    try:
        scenario = apply_parameter(base, parameter, value)
        result = run(scenario, spectral=spectral, eh=eh)
        # The trace is megabytes per row and no sweep output reads it, so
        # it stays in the worker instead of being pickled back.
        return SweepRow(parameter, value, dataclasses.replace(result, trace=None), None)
    except (ValidationError, NotConverged) as exc:
        return SweepRow(parameter, value, None, str(exc))


def sweep(
    base: Scenario,
    parameter: str,
    values,
    jobs: int = 1,
    spectral: bool = True,
    eh: bool = True,
) -> list[SweepRow]:
    """Run one scenario per value of a single parameter.

    Per-row validation and convergence failures are recorded in the row's
    error field instead of aborting the sweep. Rows are returned in input
    order regardless of jobs, and carry no trace. At most jobs worker
    processes run, and never more than there are values.

    Raises:
        ValueError: unknown parameter name or jobs < 1 (checked before any
            run starts).
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(_UNKNOWN_PARAMETER.format(parameter))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    tasks = [(base, parameter, float(v), spectral, eh) for v in values]
    if jobs > 1 and len(tasks) > 1:
        # Imported here: the pool pulls in multiprocessing, which a single
        # run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_sweep_worker, tasks))
    return [_sweep_worker(task) for task in tasks]
