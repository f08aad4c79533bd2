"""Transient simulation engine.

Walks the two-phase schedule period by period: during acquisition the DAC
capacitance settles toward the input through the sampling switch; at the
phase boundary the settled voltage is converted and the DAC holds the
reconstructed level; during harvesting the storage capacitor charges from
the rectified input while the DAC node is untouched. Each phase is divided
into n_sub sub-steps integrated with the exact RC update, so the only
discretization left is the piecewise-linear approximation of the sine drive.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clocking import ClockPlan, Phase, time_grid
from .errors import NotConverged, ValidationError
from .frontend import Switch, SwitchKind, default_settling_factor, r_on, required_r_on
from .harvester import EhConfig, EhMetrics, rectified_envelope, steady_state_metrics
from .sar_adc import AdcConfig, c_dac, dac_output, sar_convert
from .spectral import Spectrum, enob, sndr, spectrum
from .stimulus import InputPowerSpec, SineSource, rms_power

# Allowed relative slack when checking the settling budget, so a switch
# resistance solved exactly from the budget is not rejected by round-off.
_FEASIBILITY_SLACK = 1e-9

SWEEPABLE_PARAMETERS = ("alpha", "c_eh", "v_drop", "r_on_s1", "n_bits", "f_s")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run.

    Attributes:
        source: stimulus (SineSource or TableSource).
        clock: two-phase sampling schedule.
        adc: converter configuration (including the S1 switch model).
        eh: harvesting branch configuration.
        p_in: optional input-power override; computed from the source when None.
        n_sub: sub-steps per phase segment.
        n_fft: record length for spectral metrics.
        settling_factor_k: acquisition settling factor; None selects
            (n_bits + 1)*ln 2, the half-LSB budget.
        max_periods: guard against runaway run lengths.
        steady_tol: steady-state fraction for harvesting metrics.
    """

    source: object
    clock: ClockPlan
    adc: AdcConfig
    eh: EhConfig
    p_in: InputPowerSpec | None = None
    n_sub: int = 64
    n_fft: int = 4096
    settling_factor_k: float | None = None
    max_periods: int = 1_048_576
    steady_tol: float = 0.01


@dataclass(frozen=True)
class TransientTrace:
    """Recorded waveforms and codes of one run.

    Per sub-step arrays (one row per sub-step end, 2*n_sub rows per period):
    t, v_in, phase (Phase enum values), v_dac, v_ceh. Per-period arrays:
    codes, v_sampled, saturated. period_s is the sampling period.
    """

    t: np.ndarray
    v_in: np.ndarray
    phase: np.ndarray
    v_dac: np.ndarray
    v_ceh: np.ndarray
    codes: np.ndarray
    v_sampled: np.ndarray
    saturated: np.ndarray
    period_s: float


@dataclass(frozen=True)
class SimulationResult:
    """Trace plus the metrics computed from it.

    Spectral and harvesting metrics are None when not requested. When both
    are present, enob == (sndr_db - 1.76)/6.02 by construction.
    """

    trace: TransientTrace
    sndr_db: float | None
    enob: float | None
    spectrum: Spectrum | None
    eh: EhMetrics | None
    s1_resolved: Switch


@dataclass(frozen=True)
class SweepRow:
    """One point of a parameter sweep; exactly one of result/error is set."""

    parameter: str
    value: float
    result: SimulationResult | None
    error: str | None


def _source_extremes(source) -> tuple[float, float]:
    if isinstance(source, SineSource):
        lo = source.dc_offset - source.amplitude
        hi = source.dc_offset + source.amplitude
        return lo, hi
    return float(np.min(source.volts)), float(np.max(source.volts))


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
        ValidationError: Nyquist violation, run length over max_periods,
            nonpositive n_sub or settling factor, a steady-state tolerance
            outside (0, 1), or an S1 that cannot settle the DAC capacitance
            within the acquisition window anywhere in the input range.
    """
    if scenario.n_sub < 1:
        raise ValidationError(f"n_sub must be >= 1, got {scenario.n_sub}")
    if not (0.0 < scenario.steady_tol < 1.0):
        raise ValidationError(f"steady_tol must lie in (0, 1), got {scenario.steady_tol}")
    k = _settling_factor(scenario)
    if not (k > 0.0):
        raise ValidationError(f"settling_factor_k must be positive, got {k}")
    if scenario.clock.n_periods > scenario.max_periods:
        raise ValidationError(
            f"n_periods {scenario.clock.n_periods} exceeds max_periods {scenario.max_periods}"
        )
    if isinstance(scenario.source, SineSource):
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


def input_power(scenario: Scenario) -> InputPowerSpec:
    """The configured input power, else the RMS power of the sine source.

    Raises:
        ValidationError: a table source with no configured input power.
    """
    if scenario.p_in is not None:
        return scenario.p_in
    if not isinstance(scenario.source, SineSource):
        raise ValidationError("a table source needs a configured input power (Scenario.p_in)")
    return rms_power(scenario.source)


def _signal_bin(scenario: Scenario) -> int:
    """Stimulus bin index for the FFT record; rejects non-coherent setups."""
    if not isinstance(scenario.source, SineSource):
        raise ValidationError("spectral metrics need a sine stimulus")
    n = scenario.n_fft
    if n < 2 or (n & (n - 1)) != 0:
        raise ValidationError(f"n_fft must be a power of two, got {n}")
    m_exact = scenario.source.frequency * n / scenario.clock.f_s
    m = round(m_exact)
    if abs(m_exact - m) > 1e-6:
        raise ValidationError(f"stimulus is not coherent: {m_exact} cycles per {n}-point record")
    if not (0 < m < n // 2):
        raise ValidationError(f"signal bin {m} outside (0, n_fft/2)")
    return int(m)


def _rc_factors(switch: Switch, r_series: float, c: float, drive: list, dt: float, dt_last: float):
    """exp(-dt/tau) and tau/dt for each sub-step of one phase of one period.

    tau = (r_series + r_on) * c, formed with the same float operations as
    rc_step_value. A pass transistor's r_on follows the drive at the start of
    each sub-step; where it is cut off tau is infinite and the RC update
    yields NaN. The last sub-step has width dt_last, the others dt.
    """
    n = len(drive) - 1
    if switch.kind is not SwitchKind.PASS_TRANSISTOR:
        tau = (r_series + r_on(switch)) * c
        decay = [math.exp(-dt / tau)] * (n - 1) + [math.exp(-dt_last / tau)]
        return decay, [tau / dt] * (n - 1) + [tau / dt_last]
    steps = [dt] * (n - 1) + [dt_last]
    taus = [(r_series + r_on(switch, u)) * c for u in drive[:-1]]
    decay = [math.exp(-h / tau) for h, tau in zip(steps, taus)]
    return decay, [tau / h for h, tau in zip(steps, taus)]


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
        ValidationError: invalid scenario, or spectral metrics requested for
            a run shorter than n_fft periods / a non-coherent stimulus.
        NotConverged: harvesting metrics requested before steady state.
    """
    s1 = validate(scenario)
    sig_bin = _signal_bin(scenario) if spectral else 0
    if spectral and scenario.clock.n_periods < scenario.n_fft:
        raise ValidationError(
            f"spectral metrics need n_periods >= n_fft "
            f"({scenario.clock.n_periods} < {scenario.n_fft})"
        )

    plan, adc, ehc = scenario.clock, scenario.adc, scenario.eh
    nper, nsub = plan.n_periods, scenario.n_sub

    t_aq_grid, t_eh_grid = time_grid(plan, nsub)
    v_aq = scenario.source.sample_at(t_aq_grid)
    v_eh_in = scenario.source.sample_at(t_eh_grid)
    env = rectified_envelope(v_eh_in, ehc.rectifier)

    # The hot loop works on plain Python floats; ndarray scalar access is
    # slow. The last sub-step of each phase absorbs the snap onto the exact
    # boundary, so its width can differ from the nominal dt by round-off.
    dt_aq = plan.t_aq / nsub
    dt_eh = plan.t_eh / nsub
    dt_aq_last = (t_aq_grid[:, -1] - t_aq_grid[:, -2]).tolist()
    dt_eh_last = (t_eh_grid[:, -1] - t_eh_grid[:, -2]).tolist()
    v_aq_rows = v_aq.tolist()
    env_rows = env.tolist()
    c_load = c_dac(adc)

    v_dac = 0.0
    v_ceh = 0.0
    v_dac_aq: list[float] = []
    v_ceh_eh: list[float] = []
    codes: list[int] = []

    for p in range(nper):
        row = v_aq_rows[p]
        decay, ratio = _rc_factors(s1, 0.0, c_load, row, dt_aq, dt_aq_last[p])
        for u0, u1, a, q in zip(row, row[1:], decay, ratio):
            stau = (u1 - u0) * q
            v_dac = u1 - stau + (v_dac - u0 + stau) * a
            v_dac_aq.append(v_dac)

        code = sar_convert(v_dac, adc)
        codes.append(code)
        v_dac = dac_output(code, adc)  # DAC holds the reconstructed level

        row = env_rows[p]
        decay, ratio = _rc_factors(ehc.s2, ehc.rectifier.r_series, ehc.c_eh, row, dt_eh, dt_eh_last[p])
        for e0, e1, a, q in zip(row, row[1:], decay, ratio):
            stau = (e1 - e0) * q
            cand = e1 - stau + (v_ceh - e0 + stau) * a
            if cand > v_ceh:  # diode blocking; NaN (S2 cut off) never passes
                v_ceh = cand
            v_ceh_eh.append(v_ceh)

    # --- assemble the trace ----------------------------------------------
    # Each phase moves one node; the other holds its value through the phase.
    codes_arr = np.asarray(codes, dtype=np.int64)
    dac_aq = np.asarray(v_dac_aq).reshape(nper, nsub)
    ceh_eh = np.asarray(v_ceh_eh).reshape(nper, nsub)
    ceh_held = np.concatenate(([0.0], ceh_eh[:-1, -1]))[:, None]
    v_sampled = dac_aq[:, -1].copy()  # the settled voltage each code converts
    phases = np.array([Phase.ACQUISITION, Phase.ENERGY_HARVEST], dtype=np.uint8)

    trace = TransientTrace(
        t=_rows(t_aq_grid[:, 1:], t_eh_grid[:, 1:]),
        v_in=_rows(v_aq[:, 1:], v_eh_in[:, 1:]),
        phase=np.tile(np.repeat(phases, nsub), nper),
        v_dac=_rows(dac_aq, dac_output(codes_arr, adc)[:, None]),
        v_ceh=_rows(ceh_held, ceh_eh),
        codes=codes_arr,
        v_sampled=v_sampled,
        saturated=(v_sampled < -adc.v_ref) | (v_sampled >= adc.v_ref),
        period_s=plan.t_s,
    )

    sndr_db = enob_bits = spec = None
    if spectral:
        spec = spectrum(trace.codes[-scenario.n_fft:], adc, plan.f_s, sig_bin)
        sndr_db = sndr(spec)
        enob_bits = enob(sndr_db) if math.isfinite(sndr_db) else None

    metrics = None
    if eh:
        p_in = input_power(scenario)
        v_m = max(abs(x) for x in _source_extremes(scenario.source))
        metrics = steady_state_metrics(trace, p_in, ehc, v_m, tol=scenario.steady_tol)

    return SimulationResult(
        trace=trace,
        sndr_db=sndr_db,
        enob=enob_bits,
        spectrum=spec,
        eh=metrics,
        s1_resolved=s1,
    )


def apply_parameter(base: Scenario, parameter: str, value: float) -> Scenario:
    """A copy of base with one sweepable parameter replaced.

    Raises:
        ValueError: unknown parameter name.
        ValidationError: the new value violates a constructor invariant.
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
            return dataclasses.replace(base, adc=dataclasses.replace(base.adc, n_bits=int(value)))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    raise ValueError(
        f"unknown sweep parameter {parameter!r}; choose from {', '.join(SWEEPABLE_PARAMETERS)}"
    )


def _sweep_worker(args) -> SweepRow:
    base, parameter, value, spectral, eh = args
    try:
        scenario = apply_parameter(base, parameter, value)
        result = run(scenario, spectral=spectral, eh=eh)
        return SweepRow(parameter, value, result, None)
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
    order regardless of jobs.

    Raises:
        ValueError: unknown parameter name (checked before any run starts).
    """
    if parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; choose from {', '.join(SWEEPABLE_PARAMETERS)}"
        )
    tasks = [(base, parameter, float(v), spectral, eh) for v in values]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_worker, tasks))
    return [_sweep_worker(task) for task in tasks]
