"""Tests for the transient engine.

The main cross-check walks the same schedule one sub-step at a time
(oracles.reference_walk: time grid, exact RC update, harvesting step,
converter) and demands bit-identical waveforms, on hand-picked and on seeded
random scenarios, so the engine's vectorized fast paths cannot drift from
the documented single-step semantics.
"""

import concurrent.futures
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

from ehadc.clocking import ClockPlan, Phase, time_grid
from ehadc.errors import NotConverged, ValidationError
from ehadc.frontend import Switch, default_settling_factor, r_on, required_r_on
from ehadc.harvester import EhConfig, RectifierModel, rectified_envelope
from ehadc.sar_adc import AdcConfig, c_dac, dac_output
from ehadc.stimulus import SineSource, coherent_frequency
from ehadc import engine
from ehadc.cli import summarize
from ehadc.config import build_scenario, load_config
from ehadc.engine import (
    MAX_PERIODS,
    SWEEPABLE_PARAMETERS,
    Scenario,
    apply_parameter,
    resolve_s1,
    run,
    sweep,
    validate,
)

from oracles import check_phase_isolation, reference_walk


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


def assert_same_metrics(a, b):
    """Two SimulationResults report the same metrics and the same spectrum."""
    assert a.sndr_db == b.sndr_db and a.enob == b.enob and a.eh == b.eh
    assert np.array_equal(a.spectrum.power, b.spectrum.power)


@pytest.fixture
def conversions(monkeypatch):
    """Counts of the converter calls made inside engine.run.

    "array" counts sar_convert calls on an array: one for the initial guess
    and one per relaxation pass. "scalar" counts its calls on one voltage:
    one per period redone by the sequential finish.
    """
    counts = {"array": 0, "scalar": 0}
    real = engine.sar_convert

    def counted(v, adc):
        counts["array" if np.ndim(v) else "scalar"] += 1
        return real(v, adc)

    monkeypatch.setattr(engine, "sar_convert", counted)
    return counts


def assert_walks_bit_identically(scenario):
    """run() and reference_walk() agree on every float and code; returns the trace."""
    trace = run(scenario, spectral=False, eh=False).trace
    v_dac, v_ceh, codes, sampled = reference_walk(scenario)
    assert trace.codes.tolist() == codes
    assert trace.v_sampled.tolist() == sampled
    assert trace.v_dac.tolist() == v_dac
    assert trace.v_ceh.tolist() == v_ceh
    return trace


def random_walk_scenario(rng):
    """A feasible scenario drawn over the ranges the engine's fast paths branch on.

    1-64 periods, n_sub 1-8, 1-12 bits, alpha 0.05-0.5 and settling factor
    0.05-4, so S1 often under-settles and relaxation needs several passes
    or the sequential finish. S1 is auto, constant or a pass transistor
    sized to meet the settling budget at its weakest input; S2 is constant
    or a pass transistor that may be cut off over part of the envelope.
    """
    f_s = 10.0 ** float(rng.uniform(3.0, 8.0))
    clock = ClockPlan(
        f_s=f_s, alpha=float(rng.uniform(0.05, 0.5)), n_periods=int(rng.integers(1, 65))
    )
    n_bits = int(rng.integers(1, 13))
    v_ref = float(rng.uniform(0.1, 2.0))
    source = SineSource(
        amplitude=v_ref * float(rng.uniform(0.2, 1.2)),
        frequency=f_s * float(rng.uniform(0.01, 0.49)),
        phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        dc_offset=v_ref * float(rng.uniform(-0.1, 0.1)),
    )
    k = float(rng.uniform(0.05, 4.0))
    c_unit = 10.0 ** float(rng.uniform(-15.0, -9.0))
    c_load = float(1 << (n_bits - 1)) * c_unit
    r_budget = required_r_on(clock.t_aq, c_load, k)
    s1_kind = int(rng.integers(0, 3))
    if s1_kind == 0:
        s1 = "auto"
    elif s1_kind == 1:
        s1 = Switch.constant(r_budget * float(rng.uniform(0.1, 1.0)))
    else:
        # The gate sits above the input range, so the top of the range is
        # the weakest input; k_gain meets the budget there with margin.
        v_th = float(rng.uniform(0.05, 0.5))
        overdrive = float(rng.uniform(0.1, 1.0))
        v_gate = source.dc_offset + source.amplitude + v_th + overdrive
        k_gain = float(rng.uniform(1.0, 10.0)) / (r_budget * overdrive)
        s1 = Switch.pass_transistor(k_gain=k_gain, v_th=v_th, v_gate=v_gate)
    if rng.integers(0, 2):
        s2 = Switch.constant(10.0 ** float(rng.uniform(-1.0, 3.0)))
    else:
        s2 = Switch.pass_transistor(
            k_gain=10.0 ** float(rng.uniform(-3.0, 0.0)),
            v_th=float(rng.uniform(0.05, 0.5)),
            v_gate=float(rng.uniform(0.0, 3.0)),
        )
    eh = EhConfig(
        c_eh=10.0 ** float(rng.uniform(-10.0, -5.0)),
        rectifier=RectifierModel(
            v_drop=v_ref * float(rng.uniform(0.0, 0.3)),
            r_series=10.0 ** float(rng.uniform(0.0, 3.0)),
        ),
        s2=s2,
    )
    return Scenario(
        source=source,
        clock=clock,
        adc=AdcConfig(n_bits=n_bits, v_ref=v_ref, c_unit=c_unit, s1=s1),
        eh=eh,
        n_sub=int(rng.integers(1, 9)),
        settling_factor_k=k,
    )


class TestEngineAgainstReferenceWalk:
    def test_constant_switches_walk_bit_identically(self):
        assert_walks_bit_identically(small_scenario())

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
        assert_walks_bit_identically(scenario)

    def test_cut_off_harvest_switch_walks_bit_identically(self):
        """S2 is open for part of the run, so the storage node holds through
        some sub-steps instead of charging."""
        s1 = Switch.pass_transistor(k_gain=1.0, v_th=0.05, v_gate=1.0)
        s2 = Switch.pass_transistor(k_gain=0.1, v_th=0.05, v_gate=0.1)
        scenario = small_scenario(
            adc=AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-10, s1=s1),
            eh=EhConfig(
                c_eh=1e-7,
                rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
                s2=s2,
            ),
        )
        _, t_eh = time_grid(scenario.clock, scenario.n_sub)
        env = rectified_envelope(
            scenario.source.sample_at(t_eh[:, :-1]), scenario.eh.rectifier
        ).ravel().tolist()
        cut = sum(r_on(s2, e) == math.inf for e in env)
        assert 0 < cut < len(env)
        assert_walks_bit_identically(scenario)

    def test_pass_switch_decay_factors_are_math_exp(self):
        """np.exp differs from math.exp in the last bit on a few percent of
        arguments, and a pass switch has one decay argument per sub-step.
        Both RC branches here are slow enough that such a difference would
        reach the DAC and the storage-cap traces."""
        scenario = small_scenario(
            source=SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 64, 5)),
            clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=64),
            adc=AdcConfig(
                n_bits=8,
                v_ref=0.4,
                c_unit=12e-10,
                s1=Switch.pass_transistor(k_gain=0.1, v_th=0.4, v_gate=1.8),
            ),
            eh=EhConfig(
                c_eh=1e-5,
                rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
                s2=Switch.pass_transistor(k_gain=2.0, v_th=0.4, v_gate=0.9),
            ),
            n_sub=16,
        )
        assert_walks_bit_identically(scenario)

    def test_under_settled_s1_relaxes_in_more_than_two_passes(self, conversions):
        """At k = 2 each period keeps about e**-2 of the previous DAC level,
        so the guessed start levels are wrong in chains that take several
        relaxation passes to settle."""
        scenario = small_scenario(
            source=SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 256, 3)),
            clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=256),
            settling_factor_k=2.0,
        )
        assert_walks_bit_identically(scenario)
        assert conversions["array"] - 1 > 2
        assert conversions["scalar"] == 0

    def test_slowly_settling_s1_finishes_in_order(self, conversions):
        """At k = 0.05 nearly every period's code depends on the one before,
        so relaxation spends its update budget and the sequential finish
        redoes the rest."""
        assert_walks_bit_identically(small_scenario(settling_factor_k=0.05))
        assert conversions["scalar"] > 0

    def test_rising_run_longer_than_a_scalar_window(self):
        """A large storage cap charges on many consecutive sub-steps near
        each input peak, more than the n_sub scalar steps taken at a time."""
        scenario = small_scenario(
            eh=EhConfig(
                c_eh=1e-4,
                rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
                s2=Switch.constant(1.0),
            ),
        )
        trace = assert_walks_bit_identically(scenario)
        stored = np.concatenate(([0.0], trace.v_ceh[trace.phase == Phase.ENERGY_HARVEST]))
        longest = run_ = 0
        for rose in (np.diff(stored) > 0.0).tolist():
            run_ = run_ + 1 if rose else 0
            longest = max(longest, run_)
        assert longest > 2 * scenario.n_sub


    def test_random_scenarios_walk_bit_identically(self, conversions):
        """150 seeded scenarios; together they reach every path of both
        phase solvers: relaxation, the sequential finish, held blocks and
        scalar rises, and cut-off S2 sub-steps."""
        rng = np.random.default_rng(20261018)
        for _ in range(150):
            assert_walks_bit_identically(random_walk_scenario(rng))
        assert conversions["scalar"] > 0


@pytest.fixture
def harvest_exps(monkeypatch):
    """The arguments of the math.exp calls made inside engine._harvest.

    A pass-transistor S2 table is screened, so these are the decay
    arguments of the sub-steps the ratchet's single steps visit.
    """
    args = []
    inside = [False]
    real_exp, real_harvest = math.exp, engine._harvest

    def counted_exp(x):
        if inside[0]:
            args.append(x)
        return real_exp(x)

    def harvest(steps):
        inside[0] = True
        try:
            return real_harvest(steps)
        finally:
            inside[0] = False

    monkeypatch.setattr(math, "exp", counted_exp)
    monkeypatch.setattr(engine, "_harvest", harvest)
    return args


def rises_and_runs(trace):
    """Harvest sub-steps where the storage cap rose, and the maximal runs of them."""
    rose = np.diff(np.concatenate(([0.0], trace.ceh_eh.ravel()))) > 0.0
    return int(rose.sum()), int(rose[0]) + int((rose[1:] & ~rose[:-1]).sum())


def eh_branch(c_eh, r_series, s2):
    return EhConfig(c_eh=c_eh, rectifier=RectifierModel(v_drop=0.09284, r_series=r_series), s2=s2)


# small_scenario's harvest sub-step is h = 0.9e-4/8 s. A strong pass switch
# (r_on under 1 mOhm) leaves tau = (r_series + r_on)*c_eh close to
# r_series*c_eh, so c_eh sets the decay argument -h/tau of every sub-step.
_STRONG_S2 = Switch.pass_transistor(k_gain=1e3, v_th=0.05, v_gate=2.0)
_H_EH = 0.9e-4 / 8
SCREEN_EDGES = {
    # exp(x) is subnormal for x in (-745, -708)
    "subnormal-decay": (
        eh_branch(_H_EH / 720.0, 1.0, _STRONG_S2),
        lambda x: 0.0 < math.exp(x) < sys.float_info.min,
    ),
    # and flushes to zero below about -745.13
    "flushed-decay": (eh_branch(_H_EH / 800.0, 1.0, _STRONG_S2), lambda x: math.exp(x) == 0.0),
    # tau/h >= 1e7, where the two s*tau terms of the step cancel
    "tau-over-h-1e7": (eh_branch(_H_EH * 2e7 / 1e3, 1e3, _STRONG_S2), lambda x: -1e-7 <= x < 0.0),
    # S2 cut off for an envelope in [0.05, 0.15] V: tau is infinite, x is -0.0
    "cut-off": (
        eh_branch(1e-7, 73.8, Switch.pass_transistor(k_gain=0.1, v_th=0.05, v_gate=0.1)),
        lambda x: x == 0.0,
    ),
}


class TestScreenedHarvest:
    """A pass-transistor S2 screens its held blocks with np.exp and takes
    math.exp only at the sub-steps the ratchet steps one at a time."""

    @pytest.mark.parametrize("edge", list(SCREEN_EDGES))
    def test_screen_at_its_edges_walks_bit_identically(self, edge, harvest_exps):
        eh, in_regime = SCREEN_EDGES[edge]
        assert_walks_bit_identically(small_scenario(eh=eh))
        visited = [x for x in harvest_exps if in_regime(x)]
        assert visited, f"no single step visited the {edge} regime"

    @pytest.mark.parametrize("w", [1.0, -1.0])
    def test_a_rise_that_np_exp_would_hide_is_taken(self, w):
        """One sub-step from v = 0 whose candidate b + w*a rises with
        a = math.exp(x) and would hold with a = np.exp(x). The screen is
        widened toward a rise on either sign of w = (v - u0) + s."""
        grid = np.linspace(-1.0, 0.0, 1001)
        # w > 0 needs np.exp below math.exp to hide the rise, w < 0 above it.
        gap = (np.array([math.exp(v) for v in grid.tolist()]) - np.exp(grid)) * w
        if not (gap > 0.0).any():
            pytest.skip("np.exp never errs on that side on this grid")
        x = float(grid[np.argmax(gap > 0.0)])
        u0, s = (0.0, 1.0) if w > 0.0 else (1.0, 0.0)
        b = -w * float(np.exp(x))
        assert not b + w * float(np.exp(x)) > 0.0
        rise = b + (0.0 - u0 + s) * math.exp(x)
        assert rise > 0.0
        table = [np.array([[value]]) for value in (u0, s, np.exp(x), b, x)]
        assert engine._harvest(table).tolist() == [[rise]]

    def test_harvest_takes_math_exp_only_where_it_steps(self, monkeypatch):
        """The S1 table of a pass switch takes one math.exp per sub-step; the
        harvest takes one per sub-step its single steps visit: every rise,
        and the hold that ends each rising run."""
        calls = [0]
        real_exp = math.exp

        def counted_exp(x):
            calls[0] += 1
            return real_exp(x)

        scenario = small_scenario(
            source=SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 256, 5)),
            clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=256),
            adc=AdcConfig(
                n_bits=8,
                v_ref=0.4,
                c_unit=12e-10,
                s1=Switch.pass_transistor(k_gain=0.1, v_th=0.4, v_gate=1.8),
            ),
            eh=eh_branch(1e-5, 73.8, Switch.pass_transistor(k_gain=2.0, v_th=0.4, v_gate=0.9)),
            n_sub=16,
        )
        monkeypatch.setattr(math, "exp", counted_exp)
        trace = run(scenario, spectral=False, eh=False).trace
        monkeypatch.undo()
        sub_steps = scenario.clock.n_periods * scenario.n_sub
        harvest_share = calls[0] - sub_steps
        rises, runs = rises_and_runs(trace)
        assert 0 < rises
        assert harvest_share <= rises + runs
        assert harvest_share < sub_steps

    def test_np_exp_stays_within_the_screen_slack(self, repo_root, monkeypatch):
        """The screen is exact only while np.exp stays within _SCREEN_SLACK
        (relative, plus the smallest normal float) of math.exp; today the
        gap is at most 1 ulp. Checked over [-745, 0], densely where exp is
        subnormal or flushes to zero, and over the S2 decay arguments of the
        pass-transistor bench config."""
        scenario, _ = build_scenario(load_config(repo_root / "bench/configs/lowfreq_pass.cfg"))
        tables = []
        real_harvest = engine._harvest

        def harvest(steps):
            tables.append(steps)
            return real_harvest(steps)

        monkeypatch.setattr(engine, "_harvest", harvest)
        run(scenario, spectral=False, eh=False)
        x_s2 = tables[0][4]
        assert x_s2 is not None and x_s2.size == scenario.clock.n_periods * scenario.n_sub
        x = np.concatenate(
            (np.linspace(-745.0, 0.0, 200_001), np.linspace(-746.0, -708.0, 400_001), x_s2.ravel())
        )
        lo, hi = engine._screen_bounds(np.exp(x))
        exact = np.array([math.exp(v) for v in x.tolist()])
        stray = (exact < lo) | (exact > hi)
        assert not stray.any(), f"np.exp strays past the screen at x = {x[stray][:5].tolist()}"


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

    def test_trace_is_stored_per_phase(self):
        """No stored array has one element per row; the flat columns are
        built on access, the same on every access."""
        scenario = small_scenario()
        trace = run(scenario, spectral=False, eh=True).trace
        n_rows = 2 * scenario.n_sub * scenario.clock.n_periods
        stored = [getattr(trace, f.name) for f in dataclasses.fields(trace)]
        assert [a.size for a in stored if isinstance(a, np.ndarray) and a.size == n_rows] == []
        for name in ("t", "v_in", "phase", "v_dac", "v_ceh"):
            first, second = getattr(trace, name), getattr(trace, name)
            assert first.shape == (n_rows,)
            assert np.array_equal(first, second, equal_nan=first.dtype.kind == "f")

    def test_phase_pattern_per_period(self):
        scenario = small_scenario()
        trace = run(scenario, spectral=False, eh=False).trace
        nsub = scenario.n_sub
        one_period = [Phase.ACQUISITION] * nsub + [Phase.ENERGY_HARVEST] * nsub
        expected = one_period * scenario.clock.n_periods
        assert trace.phase.tolist() == expected

    def test_phase_isolation(self):
        scenario = small_scenario(
            clock=ClockPlan(f_s=10e3, alpha=0.3, n_periods=12), n_sub=5
        )
        check_phase_isolation(run(scenario, spectral=False, eh=False).trace)

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


class TestVoltageEfficiency:
    @pytest.mark.parametrize("dc", [0.3, -0.3])
    def test_dc_offset_divides_by_the_peak_input_magnitude(self, dc):
        # The input swings over [0.2, 0.4] V (or its mirror), so v_m = 0.4 V,
        # not the 0.1 V amplitude.
        source = SineSource(amplitude=0.1, frequency=coherent_frequency(10e3, 16, 3), dc_offset=dc)
        metrics = run(small_scenario(source=source), spectral=False, eh=True).eh
        assert metrics.eta_v <= 1.0
        assert metrics.eta_v == metrics.v_eh / 0.4


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

    def test_run_length_guard(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("an array was built")

        monkeypatch.setattr(engine, "time_grid", no_grid)
        n = MAX_PERIODS + 1
        scenario = small_scenario(clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=n))
        message = f"n_periods {n} exceeds the cap of {MAX_PERIODS} periods"
        with pytest.raises(ValidationError, match=message):
            validate(scenario)
        with pytest.raises(ValidationError, match=message):
            run(scenario, spectral=False, eh=False)

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

    def test_gate_inside_the_input_range_is_rejected(self):
        # The pass gate conducts at both input extremes but is cut off
        # around 0 V, where the sine crosses its gate voltage.
        s1 = Switch.pass_transistor(k_gain=1.0, v_th=0.05, v_gate=0.0)
        scenario = small_scenario(adc=AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-10, s1=s1))
        with pytest.raises(ValidationError, match="inf ohm at input 0 V"):
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

    def test_too_little_input_power_is_not_converged(self):
        # The cap stores more energy than 1 uW delivers in t_ceh: eta_e = 24.16.
        scenario = small_scenario(p_in=1e-6)
        with pytest.raises(NotConverged, match="eta_e = 24.155.* above its limit of 1"):
            run(scenario, spectral=False, eh=True)

    @pytest.mark.parametrize("p_in", [0.0, -1e-6, math.nan])
    def test_nonpositive_input_power_is_rejected(self, p_in, monkeypatch):
        def no_transient(*args):
            raise AssertionError("the transient ran")

        monkeypatch.setattr(engine, "_acquisition", no_transient)
        scenario = small_scenario(p_in=p_in)
        with pytest.raises(ValidationError, match=f"p_in must be positive, got {p_in}"):
            validate(scenario)
        with pytest.raises(ValidationError, match=f"p_in must be positive, got {p_in}"):
            run(scenario, spectral=False, eh=True)


class TestSweep:
    def test_single_value_sweep_matches_run(self):
        scenario = small_scenario()
        rows = sweep(scenario, "alpha", [0.1], spectral=True, eh=True)
        assert len(rows) == 1 and rows[0].error is None
        row, direct = rows[0].result, run(scenario, spectral=True, eh=True)
        assert_same_metrics(row, direct)
        assert summarize(apply_parameter(scenario, "alpha", 0.1), row) == summarize(scenario, direct)

    def test_rows_keep_input_order_and_record_errors(self):
        scenario = small_scenario()
        rows = sweep(scenario, "alpha", [0.2, 1.0], spectral=False, eh=False)
        assert [r.value for r in rows] == [0.2, 1.0]
        assert rows[0].error is None and rows[0].result is not None
        assert rows[1].result is None and "alpha" in rows[1].error

    def test_parallel_rows_match_serial_rows(self):
        scenario = small_scenario()
        values = [0.1, 0.2, 0.3]
        serial = sweep(scenario, "alpha", values, jobs=1, spectral=True, eh=True)
        parallel = sweep(scenario, "alpha", values, jobs=2, spectral=True, eh=True)
        for a, b in zip(serial, parallel):
            assert a.value == b.value and a.error is None and b.error is None
            assert_same_metrics(a.result, b.result)
            case = apply_parameter(scenario, "alpha", a.value)
            assert summarize(case, a.result) == summarize(case, b.result)

    def test_rows_carry_metrics_without_the_trace(self):
        # n_sub = 64 makes each row's trace alone larger than the bound.
        scenario = small_scenario(n_sub=64)
        rows = sweep(scenario, "alpha", [0.1, 0.2, 0.3], jobs=2, spectral=True, eh=False)
        for row in rows:
            assert row.error is None and row.result.trace is None
            assert row.result.spectrum is not None
            assert len(pickle.dumps(row)) < 64 * 1024

    @pytest.mark.parametrize("jobs, n_values, pools", [(64, 3, [3]), (2, 3, [2]), (4, 1, [])])
    def test_pool_is_never_larger_than_the_value_list(self, monkeypatch, jobs, n_values, pools):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        values = [0.1 + 0.05 * i for i in range(n_values)]
        rows = sweep(small_scenario(), "alpha", values, jobs=jobs, spectral=False, eh=False)
        assert started == pools
        assert [r.value for r in rows] == values

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_rejected(self, monkeypatch, jobs):
        monkeypatch.setattr(engine, "_sweep_worker", None)  # no row may run
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            sweep(small_scenario(), "alpha", [0.1, 0.2], jobs=jobs)

    @pytest.mark.parametrize(
        "parameter, value, message",
        [
            ("f_s", math.inf, "f_s must be positive and finite, got inf"),
            ("v_drop", math.nan, "v_drop must be finite and >= 0, got nan"),
            ("c_eh", math.inf, "c_eh must be positive and finite, got inf"),
        ],
    )
    def test_non_finite_values_give_error_rows(self, parameter, value, message):
        scenario = small_scenario()
        rows = sweep(scenario, parameter, [value], spectral=False, eh=True)
        assert rows[0].result is None and rows[0].error == message

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


class TestEfficiencyLimits:
    def test_c_eh_decades_give_not_converged_or_physical_efficiencies(self, lowfreq_scenario):
        """Across storage caps from 1 nF to 10 mF every run either raises
        NotConverged or reports eta_e <= 1 and eta_v <= 1."""
        converged = []
        for exponent in range(-9, -1):
            scenario = apply_parameter(lowfreq_scenario, "c_eh", 10.0**exponent)
            try:
                m = run(scenario, spectral=False, eh=True).eh
            except NotConverged:
                continue
            assert m.eta_e <= 1.0 and m.eta_v <= 1.0, (exponent, m)
            converged.append(exponent)
        assert -4 in converged  # the shipped 100 uF design


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
