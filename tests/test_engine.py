"""Tests for the transient engine.

The main cross-check walks the same schedule through the public single-step
APIs (time grid, exact RC update, harvesting step, converter) and demands
bit-identical waveforms, so the engine's vectorized fast paths cannot drift
from the documented single-step semantics.
"""

import dataclasses

import numpy as np
import pytest

from ehadc.clocking import ClockPlan, Phase, time_grid
from ehadc.errors import CutoffError, ValidationError
from ehadc.frontend import Switch, default_settling_factor, r_on, rc_step_value, required_r_on
from ehadc.harvester import EhConfig, RectifierModel, eh_step, rectified_envelope
from ehadc.frontend import RcState
from ehadc.sar_adc import AdcConfig, c_dac, dac_output, sar_convert
from ehadc.stimulus import InputPowerSpec, PowerProvenance, SineSource, TableSource, coherent_frequency
from ehadc.engine import (
    SWEEPABLE_PARAMETERS,
    Scenario,
    apply_parameter,
    resolve_s1,
    run,
    sweep,
    validate,
)


def small_scenario(**overrides):
    """A fast 8-bit scenario with everything feasible by construction."""
    defaults = dict(
        source=SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 16, 3)),
        clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=16),
        adc=AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-10),
        eh=EhConfig(
            c_eh=1e-7,
            rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
            s2=Switch.constant(1.0),
        ),
        n_sub=8,
        n_fft=16,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def reference_walk(scenario):
    """Re-run a scenario through the public one-step APIs.

    Returns (v_dac_rows, v_ceh_rows, codes, v_sampled) built with
    rc_step_value / eh_step / sar_convert on the engine's own time grid.
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
    v_dac_rows, v_ceh_rows, codes, sampled = [], [], [], []
    for p in range(nper):
        for j in range(nsub):
            u0, u1 = float(v_aq[p, j]), float(v_aq[p, j + 1])
            dt = dt_aq if j < nsub - 1 else float(t_aq_grid[p, -1] - t_aq_grid[p, -2])
            try:
                r1 = r_on(s1, u0)
            except CutoffError:
                r1 = None
            if r1 is not None:
                v_dac = rc_step_value(v_dac, u0, u1, r1, c_load, dt)
            v_dac_rows.append(v_dac)
            v_ceh_rows.append(v_ceh)
        code = sar_convert(v_dac, adc)
        codes.append(code)
        sampled.append(v_dac)
        v_dac = dac_output(code, adc)
        state = RcState(v_ceh, float(t_eh_grid[p, 0]))
        for j in range(nsub):
            dt = dt_eh if j < nsub - 1 else float(t_eh_grid[p, -1] - t_eh_grid[p, -2])
            state = eh_step(
                state, float(v_eh_in[p, j]), float(v_eh_in[p, j + 1]), ehc, dt
            )
            v_dac_rows.append(v_dac)
            v_ceh_rows.append(state.v_cap)
        v_ceh = state.v_cap
    return v_dac_rows, v_ceh_rows, codes, sampled


class TestEngineAgainstReferenceWalk:
    def test_constant_switches_walk_bit_identically(self):
        scenario = small_scenario()
        result = run(scenario, spectral=False, eh=False)
        v_dac, v_ceh, codes, sampled = reference_walk(scenario)
        assert result.trace.codes.tolist() == codes
        assert result.trace.v_sampled.tolist() == sampled
        assert result.trace.v_dac.tolist() == v_dac
        assert result.trace.v_ceh.tolist() == v_ceh

    def test_pass_transistor_switches_walk_bit_identically(self):
        scenario = small_scenario(
            adc=AdcConfig(
                n_bits=8,
                v_ref=0.4,
                c_unit=12e-10,
                s1=Switch.pass_transistor(k_gain=0.2, v_th=0.5, v_gate=3.0),
            ),
            eh=EhConfig(
                c_eh=1e-7,
                rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
                s2=Switch.pass_transistor(k_gain=0.1, v_th=0.3, v_gate=2.0),
            ),
        )
        result = run(scenario, spectral=False, eh=False)
        v_dac, v_ceh, codes, sampled = reference_walk(scenario)
        assert result.trace.codes.tolist() == codes
        assert result.trace.v_dac.tolist() == v_dac
        assert result.trace.v_ceh.tolist() == v_ceh

    def test_cut_off_switches_walk_bit_identically(self):
        """Both pass switches open for part of the run, so each node floats
        through some sub-steps instead of charging."""
        s1 = Switch.pass_transistor(k_gain=1.0, v_th=0.05, v_gate=0.0)
        s2 = Switch.pass_transistor(k_gain=0.1, v_th=0.05, v_gate=0.1)
        scenario = small_scenario(
            adc=AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-10, s1=s1),
            eh=EhConfig(
                c_eh=1e-7,
                rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
                s2=s2,
            ),
        )
        t_aq, t_eh = time_grid(scenario.clock, scenario.n_sub)
        v_aq = scenario.source.sample_at(t_aq[:, :-1]).ravel().tolist()
        env = rectified_envelope(
            scenario.source.sample_at(t_eh[:, :-1]), scenario.eh.rectifier
        ).ravel().tolist()
        for switch, drive in ((s1, v_aq), (s2, env)):
            cut = 0
            for v in drive:
                try:
                    r_on(switch, v)
                except CutoffError:
                    cut += 1
            assert 0 < cut < len(drive)
        result = run(scenario, spectral=False, eh=False)
        v_dac, v_ceh, codes, sampled = reference_walk(scenario)
        assert result.trace.codes.tolist() == codes
        assert result.trace.v_sampled.tolist() == sampled
        assert result.trace.v_dac.tolist() == v_dac
        assert result.trace.v_ceh.tolist() == v_ceh


class TestTraceLayout:
    def test_row_counts_and_ordering(self):
        scenario = small_scenario()
        trace = run(scenario, spectral=False, eh=False).trace
        n_rows = 2 * scenario.n_sub * scenario.clock.n_periods
        assert trace.t.shape == (n_rows,)
        assert trace.v_in.shape == (n_rows,)
        assert trace.v_dac.shape == (n_rows,)
        assert trace.v_ceh.shape == (n_rows,)
        assert np.all(np.diff(trace.t) > 0.0)
        assert trace.codes.shape == (scenario.clock.n_periods,)
        assert trace.period_s == scenario.clock.t_s

    def test_phase_pattern_per_period(self):
        scenario = small_scenario()
        trace = run(scenario, spectral=False, eh=False).trace
        nsub = scenario.n_sub
        one_period = [Phase.ACQUISITION] * nsub + [Phase.ENERGY_HARVEST] * nsub
        expected = one_period * scenario.clock.n_periods
        assert trace.phase.tolist() == expected
        assert trace.period.tolist() == sorted(trace.period.tolist())

    def test_phase_isolation(self):
        """v_ceh never moves during acquisition rows, v_dac never moves
        during harvesting rows, and v_ceh carries unchanged across the
        period boundary."""
        scenario = small_scenario(
            clock=ClockPlan(f_s=10e3, alpha=0.3, n_periods=12), n_sub=5
        )
        trace = run(scenario, spectral=False, eh=False).trace
        phase, period = trace.phase, trace.period
        same_period = period[1:] == period[:-1]
        same_phase = phase[1:] == phase[:-1]
        acq_pairs = same_period & same_phase & (phase[1:] == Phase.ACQUISITION)
        eh_pairs = same_period & same_phase & (phase[1:] == Phase.ENERGY_HARVEST)
        assert np.array_equal(trace.v_ceh[1:][acq_pairs], trace.v_ceh[:-1][acq_pairs])
        assert np.array_equal(trace.v_dac[1:][eh_pairs], trace.v_dac[:-1][eh_pairs])
        into_acq = phase[1:] == Phase.ACQUISITION
        cross = ~same_period & into_acq
        assert np.array_equal(trace.v_ceh[1:][cross], trace.v_ceh[:-1][cross])

    def test_determinism_on_repeat_runs(self):
        scenario = small_scenario()
        a = run(scenario, spectral=True, eh=False)
        b = run(scenario, spectral=True, eh=False)
        assert np.array_equal(a.trace.v_dac, b.trace.v_dac)
        assert np.array_equal(a.trace.v_ceh, b.trace.v_ceh)
        assert np.array_equal(a.trace.codes, b.trace.codes)
        assert a.sndr_db == b.sndr_db


class TestDcOperatingPoint:
    def test_dc_input_at_a_code_center_is_a_fixed_point(self):
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-10)
        dc = dac_output(200, cfg)
        scenario = small_scenario(
            source=SineSource(amplitude=1e-9, frequency=100.0, dc_offset=dc),
            clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=50),
            adc=cfg,
            eh=EhConfig(
                c_eh=1e-9,
                rectifier=RectifierModel(v_drop=0.0, r_series=10.0),
                s2=Switch.ideal(),
            ),
        )
        result = run(scenario, spectral=False, eh=False)
        assert np.all(result.trace.codes == 200)
        assert not np.any(result.trace.saturated)
        # During harvesting the DAC holds exactly the reconstructed level.
        eh_rows = result.trace.phase == Phase.ENERGY_HARVEST
        assert np.all(result.trace.v_dac[eh_rows] == dc)
        # The storage cap ratchets up to the DC level (envelope peak).
        assert result.trace.v_ceh[-1] == pytest.approx(dc, rel=1e-6)


class TestSaturation:
    def test_overrange_input_clips_and_flags(self):
        scenario = small_scenario(
            source=SineSource(amplitude=0.6, frequency=coherent_frequency(10e3, 16, 3)),
            clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=32),
        )
        trace = run(scenario, spectral=False, eh=False).trace
        assert bool(np.any(trace.saturated))
        clipped = trace.codes[trace.saturated]
        assert set(np.unique(clipped)) <= {0, 255}
        assert bool(np.any(~trace.saturated))


class TestValidation:
    def test_nyquist(self):
        scenario = small_scenario(
            source=SineSource(amplitude=0.3, frequency=5e3)
        )
        with pytest.raises(ValidationError):
            validate(scenario)

    def test_run_length_guard(self):
        scenario = small_scenario(max_periods=8)
        with pytest.raises(ValidationError):
            validate(scenario)

    def test_nonpositive_substeps(self):
        scenario = small_scenario(n_sub=0)
        with pytest.raises(ValidationError):
            validate(scenario)

    def test_infeasible_sampling_switch(self):
        # 1 kohm into 1.536e-7 F needs ~960 us to settle at the 8-bit budget,
        # far beyond the 10 us acquisition window.
        scenario = small_scenario(
            adc=AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-10, s1=Switch.constant(1e3))
        )
        with pytest.raises(ValidationError):
            validate(scenario)

    def test_exactly_solved_switch_is_feasible(self):
        scenario = small_scenario()
        s1 = validate(scenario)
        k = default_settling_factor(8)
        assert s1.r_on_ohm == required_r_on(scenario.clock.t_aq, c_dac(scenario.adc), k)

    def test_settling_factor_override(self):
        scenario = small_scenario(settling_factor_k=1.0)
        s1 = resolve_s1(scenario)
        assert s1.r_on_ohm == required_r_on(scenario.clock.t_aq, c_dac(scenario.adc), 1.0)

    def test_cut_off_pass_switch_is_rejected(self):
        scenario = small_scenario(
            adc=AdcConfig(
                n_bits=8,
                v_ref=0.4,
                c_unit=12e-10,
                s1=Switch.pass_transistor(k_gain=10.0, v_th=0.5, v_gate=0.0),
            )
        )
        with pytest.raises(ValidationError):
            validate(scenario)

    def test_spectral_needs_enough_periods(self):
        scenario = small_scenario(n_fft=64)
        with pytest.raises(ValidationError):
            run(scenario, spectral=True, eh=False)

    def test_spectral_needs_a_coherent_stimulus(self):
        scenario = small_scenario(
            source=SineSource(amplitude=0.3, frequency=123.4)
        )
        with pytest.raises(ValidationError):
            run(scenario, spectral=True, eh=False)

    def test_table_source_needs_configured_power_for_eh_metrics(self):
        table = TableSource(times=(0.0, 1.0), volts=(0.35, 0.35))
        scenario = small_scenario(source=table)
        with pytest.raises(ValidationError):
            run(scenario, spectral=False, eh=True)
        p_in = InputPowerSpec(p_in_rms=1e-6, provenance=PowerProvenance.CONFIGURED)
        result = run(
            dataclasses.replace(scenario, p_in=p_in), spectral=False, eh=True
        )
        assert result.eh.v_eh == pytest.approx(0.35 - 0.09284, rel=1e-6)


class TestSweep:
    def test_single_value_sweep_matches_run(self):
        scenario = small_scenario()
        rows = sweep(scenario, "alpha", [0.1], spectral=True, eh=False)
        assert len(rows) == 1 and rows[0].error is None
        direct = run(scenario, spectral=True, eh=False)
        assert np.array_equal(rows[0].result.trace.codes, direct.trace.codes)
        assert rows[0].result.sndr_db == direct.sndr_db

    def test_rows_keep_input_order_and_record_errors(self):
        scenario = small_scenario()
        rows = sweep(scenario, "alpha", [0.2, 1.0], spectral=False, eh=False)
        assert [r.value for r in rows] == [0.2, 1.0]
        assert rows[0].error is None and rows[0].result is not None
        assert rows[1].result is None and "alpha" in rows[1].error

    def test_parallel_rows_match_serial_rows(self):
        scenario = small_scenario()
        values = [0.1, 0.2, 0.3]
        serial = sweep(scenario, "alpha", values, jobs=1, spectral=False, eh=False)
        parallel = sweep(scenario, "alpha", values, jobs=2, spectral=False, eh=False)
        for a, b in zip(serial, parallel):
            assert a.value == b.value and a.error == b.error
            assert np.array_equal(a.result.trace.v_ceh, b.result.trace.v_ceh)
            assert np.array_equal(a.result.trace.codes, b.result.trace.codes)

    def test_unknown_parameter_is_rejected_up_front(self):
        scenario = small_scenario()
        with pytest.raises(ValueError):
            sweep(scenario, "v_ref", [0.4])
        with pytest.raises(ValueError):
            apply_parameter(scenario, "v_ref", 0.4)

    def test_apply_parameter_covers_every_sweepable_name(self):
        scenario = small_scenario()
        for name, value in [
            ("alpha", 0.25),
            ("c_eh", 5e-8),
            ("v_drop", 0.05),
            ("r_on_s1", 0.5),
            ("n_bits", 10),
            ("f_s", 20e3),
        ]:
            assert name in SWEEPABLE_PARAMETERS
            changed = apply_parameter(scenario, name, value)
            assert changed is not scenario

    def test_n_bits_sweep_casts_to_int(self):
        scenario = small_scenario()
        changed = apply_parameter(scenario, "n_bits", 10.0)
        assert changed.adc.n_bits == 10


class TestRefinement:
    def test_lowfreq_metrics_stable_under_substep_doubling(self, lowfreq_scenario, lowfreq_run):
        result, _ = lowfreq_run
        fine = run(dataclasses.replace(lowfreq_scenario, n_sub=128))
        assert fine.eh.v_eh == pytest.approx(result.eh.v_eh, rel=1e-3)
        assert fine.eh.t_ceh == pytest.approx(result.eh.t_ceh, rel=1e-3)
        assert fine.sndr_db == pytest.approx(result.sndr_db, rel=1e-3)

    def test_highfreq_metrics_stable_under_substep_doubling(self, highfreq_scenario, highfreq_run):
        result, _ = highfreq_run
        fine = run(dataclasses.replace(highfreq_scenario, n_sub=128))
        assert fine.eh.v_eh == pytest.approx(result.eh.v_eh, rel=1e-3)
        assert fine.eh.t_ceh == pytest.approx(result.eh.t_ceh, rel=1e-3)
