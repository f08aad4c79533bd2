"""Tests for the transient engine.

The main cross-check walks the same schedule one sub-step at a time
(oracles.reference_walk: time grid, exact RC update, harvesting step,
converter) and demands bit-identical waveforms, on hand-picked and on seeded
random scenarios, so the engine's vectorized fast paths cannot drift from
the documented single-step semantics.
"""

import ast
import dataclasses
import functools
import math
import os
import pickle
import re
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ehadc.clocking import ClockPlan, Phase, phase_grid, time_grid
from ehadc.errors import NotConverged, ValidationError
from ehadc.frontend import Switch, SwitchKind, default_settling_factor, r_on, rc_step_terms, required_r_on
from ehadc.harvester import EhConfig, RectifierModel, rectified_envelope, steady_state_metrics
from ehadc.sar_adc import AdcConfig, c_dac, dac_output
from ehadc.spectral import enob, sndr
from ehadc.stimulus import SineSource, coherent_frequency
from ehadc import engine
from ehadc.cli import summarize
from ehadc.config import build_scenario, load_config, parse_config, scenario_with
from ehadc.engine import (
    MAX_PERIODS,
    Scenario,
    resolve_s1,
    run,
    sweep,
    validate,
)

from oracles import check_phase_isolation, flat_column_metrics, reference_walk


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


# small_scenario() as config text.
SMALL_CFG = """\
signal.amplitude_v = 0.35
signal.m_cycles = 3
clock.f_s_hz = 10e3
clock.alpha = 0.1
clock.n_periods = 16
adc.n_bits = 8
adc.v_ref = 0.4
adc.c_unit_f = 12e-10
eh.c_eh_f = 1e-7
engine.n_sub = 8
engine.n_fft = 16
"""


def small_sweep(key, text=SMALL_CFG):
    """A sweep's make: the scenario of config text with key set to the value."""
    return functools.partial(scenario_with, parse_config(text), key)


def assert_same_metrics(a, b):
    """Two SimulationResults report the same metrics and the same spectrum."""
    assert a.sndr_db == b.sndr_db and a.enob == b.enob and a.eh == b.eh
    assert np.array_equal(a.spectrum.power, b.spectrum.power)


@pytest.fixture
def conversions(monkeypatch):
    """The sar_convert calls made inside engine.run, as the number of
    voltages each converts. Each block of acquisition periods makes one
    for the initial guess, one for its first settle and one per
    relaxation pass."""
    calls = []
    real = engine.sar_convert

    def counted(v, adc):
        calls.append(np.size(v))
        return real(v, adc)

    monkeypatch.setattr(engine, "sar_convert", counted)
    return calls


def assert_walks_bit_identically(scenario):
    """run() and reference_walk() agree on every float and code of both
    phases and on the node each phase holds; returns the trace."""
    trace = run(scenario, spectral=False, eh=False).trace
    for name, want in reference_walk(scenario).items():
        assert getattr(trace, name).tolist() == want, name
    return trace


def random_walk_scenario(rng):
    """A feasible scenario drawn over the ranges the engine's fast paths branch on.

    1-64 periods, n_sub 1-8, 1-12 bits, alpha 0.05-0.5 and settling factor
    0.05-4, so S1 often under-settles and relaxation needs several passes.
    S1 is auto, constant or a pass transistor sized to meet the settling
    budget at its weakest input; S2 is constant or a pass transistor that
    may be cut off over part of the envelope.
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


def pass_walk_scenario():
    return small_scenario(
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


def cut_off_walk_scenario():
    """S2 is open for part of the run, so the storage node holds through
    some sub-steps instead of charging."""
    s1 = Switch.pass_transistor(k_gain=1.0, v_th=0.05, v_gate=1.0)
    s2 = Switch.pass_transistor(k_gain=0.1, v_th=0.05, v_gate=0.1)
    return small_scenario(
        adc=AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-10, s1=s1),
        eh=EhConfig(
            c_eh=1e-7,
            rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
            s2=s2,
        ),
    )


def slow_pass_walk_scenario():
    """Both switches are pass transistors, so every sub-step has its own
    step argument x = h/tau: S1 steps at x of 0.43 to 0.71, where psi is
    1 - g/x, and S2 into a 10 uF storage cap at x near 0.0075, where psi is
    its series. Both RC branches are slow enough that a last-bit difference
    between the tables and the one-step walk would reach the DAC and the
    storage-cap traces."""
    return small_scenario(
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


def under_settled_walk_scenario():
    """At k = 2 each period keeps about e**-2 of the previous DAC level,
    so the guessed start levels are wrong in chains that take several
    relaxation passes to settle."""
    return small_scenario(
        source=SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 256, 3)),
        clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=256),
        settling_factor_k=2.0,
    )


def slowly_settling_walk_scenario():
    """At k = 0.05 nearly every period's code depends on the one before,
    so each relaxation pass makes only one more period final."""
    return small_scenario(settling_factor_k=0.05)


def rising_run_walk_scenario():
    """A large storage cap charges on many consecutive sub-steps near
    each input peak, so one scalar walk crosses several periods."""
    return small_scenario(
        eh=EhConfig(
            c_eh=1e-4,
            rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
            s2=Switch.constant(1.0),
        ),
    )


WALKS = {
    "constant": small_scenario,
    "pass": pass_walk_scenario,
    "cut-off-s2": cut_off_walk_scenario,
    "slow-pass": slow_pass_walk_scenario,
    "under-settled-s1": under_settled_walk_scenario,
    "slowly-settling": slowly_settling_walk_scenario,
    "rising-run": rising_run_walk_scenario,
}


class TestEngineAgainstReferenceWalk:
    def test_constant_switches_walk_bit_identically(self):
        assert_walks_bit_identically(small_scenario())

    def test_pass_transistor_switches_walk_bit_identically(self):
        assert_walks_bit_identically(pass_walk_scenario())

    def test_cut_off_harvest_switch_walks_bit_identically(self):
        scenario = cut_off_walk_scenario()
        s2 = scenario.eh.s2
        _, t_eh = time_grid(scenario.clock, scenario.n_sub)
        env = rectified_envelope(
            scenario.source.sample_at(t_eh[:, :-1]), scenario.eh.rectifier
        ).ravel().tolist()
        cut = sum(r_on(s2, e) == math.inf for e in env)
        assert 0 < cut < len(env)
        assert_walks_bit_identically(scenario)

    def test_slow_pass_switches_walk_bit_identically(self):
        assert_walks_bit_identically(slow_pass_walk_scenario())

    def test_under_settled_s1_relaxes_in_more_than_two_passes(self, conversions):
        assert_walks_bit_identically(under_settled_walk_scenario())
        assert len(conversions) - 1 > 2

    def test_slowly_settling_s1_relaxes_one_period_per_pass(self, conversions):
        """16 periods in one block: the guess, the first settle and one
        pass per later period, the bound of n + 1 conversions."""
        scenario = slowly_settling_walk_scenario()
        assert len(engine._blocks(scenario.clock.n_periods, scenario.n_sub)) == 1
        assert_walks_bit_identically(scenario)
        assert len(conversions) == scenario.clock.n_periods + 1

    def test_rising_run_spans_several_periods(self):
        scenario = rising_run_walk_scenario()
        trace = assert_walks_bit_identically(scenario)
        stored = np.concatenate(([0.0], trace.ceh_eh.ravel()))
        longest = run_ = 0
        for rose in (np.diff(stored) > 0.0).tolist():
            run_ = run_ + 1 if rose else 0
            longest = max(longest, run_)
        assert longest > 2 * scenario.n_sub


    def test_random_scenarios_walk_bit_identically(self, conversions):
        """150 seeded scenarios; together they reach every path of both
        phase solvers: relaxation over several passes, held blocks and
        scalar rises, and cut-off S2 sub-steps. Relaxation never takes
        more than n + 1 conversions for n periods."""
        rng = np.random.default_rng(20261018)
        passes = []
        for _ in range(150):
            scenario = random_walk_scenario(rng)
            conversions.clear()
            assert_walks_bit_identically(scenario)
            assert len(conversions) <= scenario.clock.n_periods + 1
            passes.append(len(conversions) - 2)
        assert max(passes) > 2


def block_buffers(switch, drive):
    """New engine._BlockBuffers that hold the RC step table of drive."""
    periods, points = drive.shape
    return engine._BlockBuffers(periods, points - 1, switch.kind is SwitchKind.PASS_TRANSISTOR)


def trace_bytes(trace):
    """Bytes of the arrays a TransientTrace holds."""
    return sum(
        a.nbytes for a in (getattr(trace, f.name) for f in dataclasses.fields(trace))
        if isinstance(a, np.ndarray)
    )


class TestBlocks:
    """Each phase is solved in blocks of whole periods (engine._blocks); a
    block starts where the one before it ended."""

    @pytest.mark.parametrize("periods", [1, 3, 5])
    @pytest.mark.parametrize("walk", list(WALKS))
    def test_walks_bit_identically_across_block_edges(self, walk, periods, monkeypatch):
        scenario = WALKS[walk]()
        monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", periods * scenario.n_sub)
        assert len(engine._blocks(scenario.clock.n_periods, scenario.n_sub)) > 1
        assert_walks_bit_identically(scenario)

    def test_slowly_settling_s1_relaxes_within_blocks(self, conversions, monkeypatch):
        """In blocks of 5 periods each block relaxes from the final level
        of the block before it, in at most len(block) + 1 conversions."""
        scenario = slowly_settling_walk_scenario()
        monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", 5 * scenario.n_sub)
        blocks = engine._blocks(scenario.clock.n_periods, scenario.n_sub)
        assert [b.stop - b.start for b in blocks] == [5, 5, 5, 1]
        assert_walks_bit_identically(scenario)
        assert len(conversions) <= sum(b.stop - b.start + 1 for b in blocks)

    @pytest.mark.parametrize("periods", [1, 3])
    def test_random_scenarios_walk_bit_identically_across_block_edges(self, periods, monkeypatch):
        """The first 30 scenarios of the seeded differential walk."""
        rng = np.random.default_rng(20261018)
        for _ in range(30):
            scenario = random_walk_scenario(rng)
            monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", periods * scenario.n_sub)
            assert_walks_bit_identically(scenario)

    def test_blocks_cover_the_periods_in_order(self, monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", 100)
        assert engine._blocks(7, 30) == [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert engine._blocks(2, 101) == [slice(0, 1), slice(1, 2)]

    def test_lowfreq_run_in_blocks_equals_one_block(self, lowfreq_scenario, lowfreq_run, monkeypatch):
        blocked = lowfreq_run[0]
        nper, nsub = lowfreq_scenario.clock.n_periods, lowfreq_scenario.n_sub
        assert len(engine._blocks(nper, nsub)) > 1
        monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", nper * nsub)
        whole = run(lowfreq_scenario)
        for field in dataclasses.fields(whole.trace):
            a, b = getattr(blocked.trace, field.name), getattr(whole.trace, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, field.name
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name
        assert_same_metrics(blocked, whole)

    @pytest.mark.parametrize("config", ["configs/lowfreq.cfg", "bench/configs/lowfreq_pass.cfg"])
    def test_scratch_memory_does_not_grow_with_the_run(self, config, repo_root):
        """The tracemalloc peak of run() beyond the trace it returns is one
        block's tables, at any run length. The storage cap is 10 uF, so the
        harvesting metrics converge within 2048 periods."""
        base, _ = build_scenario(load_config(repo_root / config))
        base = dataclasses.replace(base, eh=dataclasses.replace(base.eh, c_eh=1e-5))

        def scratch(n_periods):
            clock = dataclasses.replace(base.clock, n_periods=n_periods)
            scenario = dataclasses.replace(base, clock=clock)
            tracemalloc.start()
            try:
                result = run(scenario, spectral=False, eh=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - trace_bytes(result.trace)

        scratch(2048)  # first-call set-up is not per-block memory
        small, large = scratch(2048), scratch(16384)
        assert large <= 1.5 * small, (small, large)


class TestPhaseIsolation:
    """The storage node and the DAC node never interact: the acquisition
    solver reads nothing of the harvest branch, and the harvest solver
    nothing of the converter."""

    def test_each_phase_ignores_the_other_branch(self):
        """200 random_walk_scenario draws, each rerun with its harvest branch
        changed (c_eh x2, r_series x2, v_drop x0.5) and with its v_ref x1.5.
        The first keeps the bytes of dac_aq and codes, the second those of
        ceh_eh; in most draws each change moves the outputs it may move."""
        rng = np.random.default_rng(20261030)
        draws, moved = 200, {"harvest": 0, "converter": 0}
        for _ in range(draws):
            base = random_walk_scenario(rng)
            rect = base.eh.rectifier
            harvest = dataclasses.replace(base, eh=dataclasses.replace(
                base.eh, c_eh=2.0 * base.eh.c_eh,
                rectifier=dataclasses.replace(rect, r_series=2.0 * rect.r_series, v_drop=0.5 * rect.v_drop),
            ))
            converter = dataclasses.replace(base, adc=dataclasses.replace(base.adc, v_ref=1.5 * base.adc.v_ref))
            a, h, c = (run(s, spectral=False, eh=False).trace for s in (base, harvest, converter))
            acquired = [(t.dac_aq.tobytes(), t.codes.tobytes()) for t in (a, h, c)]
            assert acquired[1] == acquired[0]
            assert c.ceh_eh.tobytes() == a.ceh_eh.tobytes()
            moved["harvest"] += h.ceh_eh.tobytes() != a.ceh_eh.tobytes()
            moved["converter"] += acquired[2] != acquired[0]
        assert min(moved.values()) > draws // 2, moved


@pytest.fixture
def harvest_x(monkeypatch):
    """The step arguments x = h/tau of the tables engine._harvest_rows builds."""
    seen = []
    inside = [False]
    real_terms, real_solve = engine.rc_step_terms, engine._harvest_rows

    def terms(x, *out):
        if inside[0]:
            seen.extend(np.ravel(x).tolist())
        return real_terms(x, *out)

    def solve(*args, **kwargs):
        inside[0] = True
        try:
            return real_solve(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(engine, "rc_step_terms", terms)
    monkeypatch.setattr(engine, "_harvest_rows", solve)
    return seen


def eh_branch(c_eh, r_series, s2):
    return EhConfig(c_eh=c_eh, rectifier=RectifierModel(v_drop=0.09284, r_series=r_series), s2=s2)


# small_scenario's harvest sub-step is h = 0.9e-4/8 s. A strong pass switch
# (r_on under 1 mOhm) leaves tau = (r_series + r_on)*c_eh close to
# r_series*c_eh, so c_eh sets the step argument x = h/tau of every sub-step.
_STRONG_S2 = Switch.pass_transistor(k_gain=1e3, v_th=0.05, v_gate=2.0)
_H_EH = 0.9e-4 / 8
STEP_RANGE_EDGES = {
    # exp(-x) is subnormal for x in (708, 745)
    "subnormal-decay": (
        eh_branch(_H_EH / 720.0, 1.0, _STRONG_S2),
        lambda x: 0.0 < math.exp(-x) < sys.float_info.min,
    ),
    # and flushes to zero above about 745.13
    "flushed-decay": (eh_branch(_H_EH / 800.0, 1.0, _STRONG_S2), lambda x: math.exp(-x) == 0.0),
    # tau/h >= 1e7, where psi is far inside its series
    "tau-over-h-1e7": (eh_branch(_H_EH * 2e7 / 1e3, 1e3, _STRONG_S2), lambda x: 0.0 < x <= 1e-7),
    # S2 cut off for an envelope in [0.05, 0.15] V: tau is infinite, x is 0
    "cut-off": (
        eh_branch(1e-7, 73.8, Switch.pass_transistor(k_gain=0.1, v_th=0.05, v_gate=0.1)),
        lambda x: x == 0.0,
    ),
    # k_gain*overdrive subnormal at every drive: 1/(k_gain*overdrive)
    # overflows to r_on = inf, an open S2 as in frontend.r_on, and x is 0
    "subnormal-gain": (
        eh_branch(1e-7, 73.8, Switch.pass_transistor(k_gain=1e-309, v_th=0.4, v_gate=0.9)),
        lambda x: x == 0.0,
    ),
}


class TestHarvestStepRangeEdges:
    """Harvest walks whose step arguments x = h/tau reach the edges of the
    step's range: a decay factor exp(-x) that is subnormal or flushed to
    zero, a tau/h of 1e7, and an S2 open at cut-off or by a subnormal
    conductance, whose step holds the node."""

    @pytest.mark.parametrize("edge", list(STEP_RANGE_EDGES))
    def test_walks_bit_identically_at_each_edge(self, edge, harvest_x):
        eh, in_regime = STEP_RANGE_EDGES[edge]
        assert_walks_bit_identically(small_scenario(eh=eh))
        reached = [x for x in harvest_x if in_regime(x)]
        assert reached, f"no harvest sub-step reached the {edge} regime"


def ratchet_tables(gaps, nsub, rng):
    """Harvest step tables (a, q), (periods, n_sub), and the flat indices of
    their rising sub-steps. A held sub-step has a = 1, q = 0, or now and then
    a candidate below the held voltage. The r-th gap of held sub-steps is
    followed by a rise run of r % 3 + 1 sub-steps, and the last gap is
    lengthened to whole periods, so the table's last sub-step rises."""
    runs = [r % 3 + 1 for r in range(len(gaps))]
    gaps = [*gaps[:-1], gaps[-1] + (-(sum(gaps) + sum(runs))) % nsub]
    a, q, rising = [], [], []
    for r, (gap, run_) in enumerate(zip(gaps, runs)):
        held = np.ones(gap)
        held[rng.integers(0, gap, size=gap // 1000)] = 0.5
        a += held.tolist()
        q += (0.1 * (held != 1.0)).tolist()
        # The run climbs towards 4*(r + 1), above every voltage reached before it.
        for _ in range(run_):
            rising.append(len(a))
            a_k = float(rng.uniform(0.2, 0.8))
            a.append(a_k)
            q.append((1.0 - a_k) * 4.0 * (r + 1))
    return np.reshape(a, (-1, nsub)), np.reshape(q, (-1, nsub)), rising


class TestHarvestRatchet:
    """engine._harvest against a plain ratchet, one sub-step at a time, on
    synthetic tables whose rises follow holds of none, one sub-step, about
    n_sub and many n_sub, and holds at the hold window's edges: of
    _HOLD_WINDOW - 1 sub-steps, so a rise lands on a window's last sub-step;
    _HOLD_WINDOW, on the first sub-step after a window with no rise;
    _HOLD_WINDOW + 1, one sub-step into the next window; and several windows
    in."""

    @pytest.mark.parametrize("nsub", [8, 64])
    @pytest.mark.parametrize("order", ["rising", "falling", "shuffled"])
    def test_equals_a_plain_ratchet(self, nsub, order):
        rng = np.random.default_rng(20261019)
        w = engine._HOLD_WINDOW
        gaps = [1, nsub - 1, nsub, nsub + 1, 50 * nsub, w - 1, w, w + 1, 3 * w + 5, 2, 3 * nsub]
        if order == "falling":
            gaps.sort(reverse=True)
        elif order == "shuffled":
            rng.shuffle(gaps)
        # The first sub-step rises, after a gap of 0.
        a, q, rising = ratchet_tables([0, *gaps, nsub], nsub, rng)
        assert rising[0] == 0 and rising[-1] == a.size - 1

        v = v0 = 0.5
        want = []
        for a_k, q_k in zip(a.ravel().tolist(), q.ravel().tolist()):
            cand = v * a_k + q_k
            if cand > v:
                v = cand
            want.append(v)
        assert np.flatnonzero(np.diff([v0, *want]) > 0.0).tolist() == rising

        out = np.empty_like(a)
        got = engine._harvest((a, q), v0, out)
        assert out.tobytes() == np.array(want).reshape(a.shape).tobytes()
        assert np.float64(got).tobytes() == np.float64(v).tobytes()

    def test_the_storage_voltage_never_falls(self, repo_root):
        """ceh_eh, read in time order, is finite and nondecreasing, on the
        three reference configs and on the 150 draws of
        test_random_scenarios_walk_bit_identically. The dead-period rule and
        steady_state_metrics's crossing search both rest on this."""
        configs = ("configs/lowfreq.cfg", "configs/highfreq.cfg", "bench/configs/lowfreq_pass.cfg")
        scenarios = [build_scenario(load_config(repo_root / config))[0] for config in configs]
        rng = np.random.default_rng(20261018)
        scenarios += [random_walk_scenario(rng) for _ in range(150)]
        for scenario in scenarios:
            v = run(scenario, spectral=False, eh=False).trace.ceh_eh.ravel()
            assert np.isfinite(v).all() and v[0] >= 0.0 and (np.diff(v) >= 0.0).all()


@pytest.fixture
def tabled_periods(monkeypatch):
    """The periods whose RC step tables engine._rc_steps builds, by phase."""
    counts = dict.fromkeys(Phase, 0)
    phase = [Phase.ACQUISITION]
    real_steps, real_solve = engine._rc_steps, engine._harvest_rows

    def steps(switch, r_series, c, drive, grid, dt, buffers):
        counts[phase[0]] += len(drive)
        return real_steps(switch, r_series, c, drive, grid, dt, buffers)

    def solve(*args):
        phase[0] = Phase.ENERGY_HARVEST
        try:
            return real_solve(*args)
        finally:
            phase[0] = Phase.ACQUISITION

    monkeypatch.setattr(engine, "_rc_steps", steps)
    monkeypatch.setattr(engine, "_harvest_rows", solve)
    return counts


@pytest.fixture
def live_masks(monkeypatch):
    """The mask of every engine.live_periods decision."""
    seen = []
    real = engine.live_periods

    def live(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(engine, "live_periods", live)
    return seen


def bound_scenario(rng):
    """A harvest window, drive and rectifier over the ranges the drive bound
    branches on: any phase and DC offset, f_in up to 0.49*f_s and, in one
    draw of four, up to 4*f_s (windows of 2*pi or more), alpha in
    [0.01, 0.99] or, in one draw of four, within 1e-12 to 1e-6 of 1, where
    the harvest sub-steps are narrower than the rounding of late periods'
    times."""
    f_s = 10.0 ** float(rng.uniform(2.0, 8.0))
    f_in = f_s * float(rng.uniform(0.49, 4.0) if rng.integers(0, 4) == 0 else rng.uniform(0.001, 0.49))
    alpha = 1.0 - 10.0 ** float(rng.uniform(-12.0, -6.0)) if rng.integers(0, 4) == 0 else float(rng.uniform(0.01, 0.99))
    amp = float(rng.uniform(0.1, 2.0))
    source = SineSource(amplitude=amp, frequency=f_in, phase=float(rng.uniform(-10.0, 10.0)),
                        dc_offset=amp * float(rng.uniform(-1.5, 1.5)))
    rect = RectifierModel(v_drop=amp * float(rng.uniform(0.0, 0.5)), r_series=1.0)
    return ClockPlan(f_s=f_s, alpha=alpha, n_periods=MAX_PERIODS), source, rect


class TestDeadPeriods:
    """Each harvest block tables only the periods whose drive may lift the
    held storage voltage (engine.live_periods); the ratchet holds through
    the rest."""

    def test_drive_bound_covers_the_envelope(self):
        """The rectified source.magnitude_bound of a period's harvest window
        is at least the rectified envelope on every grid point of the window,
        early and late in a MAX_PERIODS run, where the phase reaches about
        3e6 rad. The draws reach windows of 2*pi or more, crests inside a
        window, and grids that round past the window's ends."""
        rng = np.random.default_rng(20261020)
        wide = crest = past = 0
        for _ in range(300):
            plan, source, rect = bound_scenario(rng)
            nsub = int(rng.integers(1, 65))
            early, late = (phase_grid(plan, nsub, Phase.ENERGY_HARVEST, rows)
                           for rows in (slice(0, 64), slice(MAX_PERIODS - 4096, MAX_PERIODS)))
            grid = np.concatenate((early[rng.integers(0, 64, 8)], late[rng.integers(0, 4096, 56)]))
            start, end = grid[:, 0], grid[:, -1]
            bound = rectified_envelope(source.magnitude_bound(start, end), rect)
            env = rectified_envelope(source.sample_at(grid), rect)
            assert (bound >= env.max(axis=1)).all()
            wide += np.count_nonzero((end - start) * source.frequency >= 1.0)
            past += np.count_nonzero((grid.max(axis=1) > end) | (grid.min(axis=1) < start))
            if nsub > 1:
                crest += np.count_nonzero(env[:, 1:-1].max(axis=1) > env[:, [0, -1]].max(axis=1))
        assert wide > 0 and crest > 0 and past > 0

    def test_dead_periods_hold_at_the_edge_of_the_rule(self):
        """For each period, the least storage voltage v at which the rule
        calls it dead (found by bisection on the float's bits): every RC
        candidate v*a + q of the period's table is at most v. One scenario
        in two has a constant S2 at tau/h of 1e6 to 1e12, and half of those
        a drive flat to 1e-12, so the candidate comes within an ulp of v
        but for the rule's rounding margin; one in four has alpha within
        1e-14 to 1e-10 of 1, where the snapped last width can be far
        narrower than dt."""
        rng = np.random.default_rng(20261021)
        edges = 0
        for n in range(80):
            scenario = random_walk_scenario(rng)
            if n % 4 == 2:
                alpha = 1.0 - 10.0 ** -float(rng.uniform(10.0, 14.0))
                scenario = dataclasses.replace(scenario, clock=dataclasses.replace(scenario.clock, alpha=alpha))
            plan, ehc, nsub = scenario.clock, scenario.eh, scenario.n_sub
            if n % 2:
                x = 10.0 ** -float(rng.uniform(6.0, 12.0))
                c_eh = plan.t_eh / nsub / (x * (ehc.rectifier.r_series + 1.0))
                ehc = dataclasses.replace(ehc, c_eh=c_eh, s2=Switch.constant(1.0))
            if n % 4 == 3:
                amp = scenario.source.amplitude
                flat = dataclasses.replace(scenario.source, amplitude=1e-12 * amp, dc_offset=float(rng.choice([-amp, amp])))
                scenario = dataclasses.replace(scenario, source=flat)
            grid = phase_grid(plan, nsub, Phase.ENERGY_HARVEST)
            lo = np.zeros(plan.n_periods, dtype=np.int64)
            hi = np.full(plan.n_periods, np.float64(1e300).view(np.int64))
            for _ in range(64):
                mid = lo + (hi - lo) // 2
                dead = ~engine.live_periods(ehc, scenario.source, grid, plan.t_eh / nsub, mid.view(float))
                hi = np.where(dead, mid, hi)
                lo = np.where(dead, lo, mid)
            v = hi.view(float)
            held = v < 1e300
            env = rectified_envelope(scenario.source.sample_at(grid), ehc.rectifier)
            a, q = engine._rc_steps(ehc.s2, ehc.rectifier.r_series, ehc.c_eh, env, grid, plan.t_eh / nsub,
                                    block_buffers(ehc.s2, env))
            cand = v[held, None] * a[held] + q[held]
            assert (cand <= v[held, None]).all()
            edges += np.count_nonzero(held)
        assert edges > 0

    def test_a_reversed_window_is_live(self):
        """With alpha within 1e-10 of 1, a late period's harvest window is
        narrower than the rounding of its times, and its snapped last width
        can be negative, where a > 1 and the candidate can rise from any v.
        Such a period is live at every v; no dead period's candidate rises."""
        plan = ClockPlan(f_s=1e4, alpha=1.0 - 1e-10, n_periods=MAX_PERIODS)
        ehc = eh_branch(1e-6, 1.0, Switch.constant(1.0))
        source = SineSource(amplitude=1.0, frequency=100.0)
        rows = slice(MAX_PERIODS - 1024, MAX_PERIODS)
        grid = phase_grid(plan, 8, Phase.ENERGY_HARVEST, rows)
        env = rectified_envelope(source.sample_at(grid), ehc.rectifier)
        a, q = engine._rc_steps(ehc.s2, 1.0, ehc.c_eh, env, grid, plan.t_eh / 8, block_buffers(ehc.s2, env))
        reversed_ = grid[:, -1] < grid[:, -2]
        assert (reversed_ & (2.0 * a + q > 2.0).any(axis=1)).any()
        for v in (0.1, 0.5, 0.9, 2.0):
            dead = ~engine.live_periods(ehc, source, grid, plan.t_eh / 8, v)
            assert not (v * a[dead] + q[dead] > v).any()

    @pytest.mark.parametrize("s2", [None, Switch.pass_transistor(k_gain=2.0, v_th=0.5, v_gate=0.1)],
                             ids=["lowfreq", "cut-off-pass"])
    def test_the_first_block_applies_the_rule(self, repo_root, tabled_periods, live_masks, s2):
        """The first block starts at 0 V, where a period is dead only when
        its drive bound is 0: lowfreq at 64 periods, one block, tables none
        of the periods inside the rectifier's dead zone, 55 tabled. So does a
        pass S2 cut off at every drive, whose g is 0. The envelope of each
        dead period is 0 on its whole grid, and the walk keeps every bit."""
        scenario, _ = build_scenario(load_config(repo_root / "configs/lowfreq.cfg"))
        scenario = dataclasses.replace(scenario, clock=dataclasses.replace(scenario.clock, n_periods=64))
        if s2 is not None:
            scenario = dataclasses.replace(scenario, eh=dataclasses.replace(scenario.eh, s2=s2))
        assert len(engine._blocks(64, scenario.n_sub)) == 1
        assert_walks_bit_identically(scenario)
        [live] = live_masks
        assert tabled_periods[Phase.ENERGY_HARVEST] == np.count_nonzero(live) == 55
        grid = phase_grid(scenario.clock, scenario.n_sub, Phase.ENERGY_HARVEST)
        assert not rectified_envelope(scenario.source.sample_at(grid[~live]), scenario.eh.rectifier).any()

    def test_a_cut_off_window_at_a_subnormal_voltage_holds(self, monkeypatch):
        """g = 0 also where the voltage is subnormal enough for v*64*2**-53
        to round to 0: a pass S2 whose gate lies inside a drive of about
        1e-310 V, into a C_EH near 1e-306 F, in blocks of 4 periods. Some
        such windows with U <= v are dead, and the walk keeps every bit."""
        dead = []
        real = engine.live_periods

        def live(ehc, source, grid, dt, v):
            mask = real(ehc, source, grid, dt, v)
            u = rectified_envelope(source.magnitude_bound(grid[:, 0], grid[:, -1]), ehc.rectifier)
            dead.append(v > 0.0 and np.count_nonzero(~mask & (u >= ehc.s2.v_gate - ehc.s2.v_th)))
            return mask

        monkeypatch.setattr(engine, "live_periods", live)
        monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", 4 * 8)
        rng = np.random.default_rng(20261023)
        for _ in range(10):
            amp = 10.0 ** rng.uniform(-312, -309)
            v_th = amp * rng.uniform(0.0, 0.5)
            s2 = Switch.pass_transistor(k_gain=10.0 ** rng.uniform(9, 11), v_th=v_th,
                                        v_gate=v_th + amp * rng.uniform(0.1, 0.9))
            m_cycles = 2 * int(rng.integers(0, 15)) + 1
            assert_walks_bit_identically(small_scenario(
                source=SineSource(amplitude=amp, frequency=coherent_frequency(10e3, 64, m_cycles)),
                clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=64),
                eh=EhConfig(c_eh=10.0 ** rng.uniform(-307, -306),
                            rectifier=RectifierModel(v_drop=0.0, r_series=1.0), s2=s2),
            ))
        assert sum(dead) > 0

    @pytest.mark.parametrize("gap, c_eh", [(3e-12, 1e291), (1e-11, 1e292)])
    def test_a_drive_bound_whose_product_underflows_is_live(self, gap, c_eh):
        """A pass S2 a few ulps above cut-off at the bound's drive, and a
        huge C_EH, make g subnormal and U*g underflow to 0 at a drive of a
        few pV. At 0 V the product test alone would call such a period
        dead, yet its candidate rises by a subnormal step where the drive is
        further from the gate. A dead period needs U <= v, so it is live."""
        scenario = small_scenario(
            source=SineSource(amplitude=0.99999 * gap, frequency=coherent_frequency(10e3, 64, 3)),
            clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=64),
            eh=EhConfig(c_eh=c_eh, rectifier=RectifierModel(v_drop=0.0, r_series=1.0),
                        s2=Switch.pass_transistor(k_gain=1.0, v_th=0.1, v_gate=0.1 + gap)),
        )
        trace = assert_walks_bit_identically(scenario)
        assert 0.0 < trace.ceh_eh[-1, -1] < 1e-300

    def test_random_scenarios_walk_bit_identically_in_small_blocks(self, live_masks, monkeypatch):
        """32-128 periods in blocks of 2-8, so most blocks start above 0 V
        and table only their live periods; the walk keeps every bit."""
        rng = np.random.default_rng(20261022)
        for _ in range(60):
            scenario = random_walk_scenario(rng)
            clock = dataclasses.replace(scenario.clock, n_periods=int(rng.integers(32, 129)))
            scenario = dataclasses.replace(scenario, clock=clock)
            monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", int(rng.integers(2, 9)) * scenario.n_sub)
            assert_walks_bit_identically(scenario)
        mixed = sum(0 < np.count_nonzero(mask) < mask.size for mask in live_masks)
        dead = sum(not mask.any() for mask in live_masks)
        assert mixed > 50 and dead > 50, (mixed, dead)

    @pytest.mark.parametrize("config", ["configs/lowfreq.cfg", "configs/highfreq.cfg", "bench/configs/lowfreq_pass.cfg"])
    def test_harvest_tables_cover_few_periods(self, config, repo_root, tabled_periods):
        """S1 is tabled on every period and S2 on at most 40% of them. The
        harvesting metrics re-solve one harvest period and no acquisition."""
        scenario, _ = build_scenario(load_config(repo_root / config))
        run(scenario, spectral=False, eh=False)
        nper = scenario.clock.n_periods
        assert tabled_periods[Phase.ACQUISITION] == nper
        harvested = tabled_periods[Phase.ENERGY_HARVEST]
        assert 0 < harvested <= 0.4 * nper
        tabled_periods.update(dict.fromkeys(Phase, 0))
        run(scenario, spectral=False, eh=True)
        assert tabled_periods == {Phase.ACQUISITION: nper, Phase.ENERGY_HARVEST: harvested + 1}


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

    @pytest.mark.parametrize("config", ["configs/lowfreq.cfg", "bench/configs/lowfreq_pass.cfg"])
    def test_results_store_only_what_the_run_computed(self, config, repo_root):
        """The trace stores the solver outputs and the scenario, the result
        the trace and the metrics. Every other figure is derived on access,
        with the bits of its definition."""
        scenario, _ = build_scenario(load_config(repo_root / config))
        result = run(scenario)
        trace, adc = result.trace, scenario.adc
        assert [f.name for f in dataclasses.fields(trace)] == ["dac_aq", "ceh_eh", "codes", "scenario"]
        assert [f.name for f in dataclasses.fields(result)] == ["trace", "spectrum", "eh"]
        assert trace.scenario is scenario
        v_sampled = trace.dac_aq[:, -1].copy()
        want = {
            "v_sampled": v_sampled,
            "saturated": (v_sampled < -adc.v_ref) | (v_sampled >= adc.v_ref),
            "dac_level": dac_output(trace.codes, adc),
        }
        for name, w in want.items():
            got = getattr(trace, name)
            assert got.dtype == w.dtype and got.shape == w.shape and got.tobytes() == w.tobytes(), name
        sndr_db = sndr(result.spectrum)
        assert math.isfinite(sndr_db)
        assert repr((result.sndr_db, result.enob)) == repr((sndr_db, enob(sndr_db)))

    def test_sndr_without_signal_power_has_no_enob(self):
        """A record with no power in the signal bin has SNDR -inf and ENOB
        None; a run without spectral metrics has neither."""
        scenario = small_scenario(source=dataclasses.replace(small_scenario().source, amplitude=1e-9))
        result = run(scenario, spectral=True, eh=False)
        assert result.sndr_db == -math.inf and result.enob is None
        bare = run(scenario, spectral=False, eh=False)
        assert bare.spectrum is None and bare.sndr_db is None and bare.enob is None

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

    def test_inputs_are_the_scenario_grid_and_stimulus(self, lowfreq_scenario, lowfreq_run):
        """The derived grids and inputs are time_grid and sample_at of the
        scenario, bit for bit and in their layouts; inputs(rows) gives their
        rows, and the flat t and v_in columns interleave them per period."""
        scenario, trace = lowfreq_scenario, lowfreq_run[0].trace
        nper, nsub = scenario.clock.n_periods, scenario.n_sub
        t_aq, t_eh = time_grid(scenario.clock, nsub)
        want = (t_aq, t_eh, scenario.source.sample_at(t_aq), scenario.source.sample_at(t_eh))
        for g, w in zip(trace.inputs(), want):
            assert g.flags.f_contiguous == w.flags.f_contiguous
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
        for rows in engine._blocks(nper, nsub) + [slice(0, 1), slice(5, 8), slice(nper - 3, nper)]:
            for g, w in zip(trace.inputs(rows), want):
                assert np.array_equal(g.view(np.uint64), w[rows].view(np.uint64)), rows
        for flat, (aq, eh) in ((trace.t, want[:2]), (trace.v_in, want[2:])):
            rows = np.stack((aq[:, 1:], eh[:, 1:]), axis=1).ravel()
            assert np.array_equal(flat.view(np.uint64), rows.view(np.uint64))

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
        assert np.array_equal(a.trace.dac_aq, b.trace.dac_aq)
        assert np.array_equal(a.trace.ceh_eh, b.trace.ceh_eh)
        assert np.array_equal(a.trace.codes, b.trace.codes)
        assert a.sndr_db == b.sndr_db


# RC step tables as (switch, r_series, c). The cut-off pass S1 is open while
# the drive is within 0.05 V of 0.1 V.
_LAYOUT_TABLES = {
    "constant": (Switch.constant(40.0), 0.0, 1e-9),
    "pass-exact": (Switch.pass_transistor(k_gain=0.1, v_th=0.4, v_gate=1.8), 0.0, 1e-9),
    "pass-cut-off": (Switch.pass_transistor(k_gain=0.1, v_th=0.05, v_gate=0.1), 0.0, 1e-9),
}


class TestClosedFormAcquisition:
    """The acquisition against the circuit's own equation, sharing no code
    with the engine. An S1 of constant resistance charges c_dac with
    tau = r*c_dac, and the "auto" S1 has r = T_aq/(k*c_dac), so tau = T_aq/k
    with k = (n_bits + 1)*ln 2. Driven by dc + A*sin(w*t + phi), the node
    follows v(t) = v_ss(t) + (v0 - v_ss(t0))*exp(-(t - t0)/tau), with
    v_ss(t) = dc + A*cos(theta)*sin(w*t + phi - theta) and
    theta = atan(w*tau). Each period starts at the level of the previous
    code (0 V for the first), so the settled voltage of a period is
    v_ss(t1) + (v0 - v_ss(t0))*exp(-T_aq/tau) over its window [t0, t1].
    The engine's piecewise-linear drive is second order in the sub-step:
    the error falls 4x per halving."""

    @staticmethod
    def max_error(scenario, trace):
        src, plan, adc = scenario.source, scenario.clock, scenario.adc
        w = 2.0 * math.pi * src.frequency
        t_aq = plan.alpha / plan.f_s
        tau = t_aq / ((adc.n_bits + 1) * math.log(2.0))
        theta = math.atan(w * tau)

        def v_ss(t):
            return src.dc_offset + src.amplitude * math.cos(theta) * np.sin(w * t + src.phase - theta)

        t0 = np.arange(plan.n_periods) / plan.f_s
        level = -adc.v_ref + (trace.codes + 0.5) * (2.0 * adc.v_ref / 2**adc.n_bits)
        v0 = np.concatenate(([0.0], level[:-1]))
        want = v_ss(t0 + t_aq) + (v0 - v_ss(t0)) * math.exp(-t_aq / tau)
        return float(np.max(np.abs(trace.v_sampled - want)))

    def test_settled_voltage_converges_at_second_order(self, lowfreq_scenario):
        assert lowfreq_scenario.adc.s1 == "auto" and lowfreq_scenario.settling_factor_k is None
        errors = []
        for n_sub in (8, 16, 32, 64):
            scenario = dataclasses.replace(lowfreq_scenario, n_sub=n_sub)
            errors.append(self.max_error(scenario, run(scenario, spectral=False, eh=False).trace))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5, errors
        assert errors[-1] < 1e-9, errors


class TestTableLayout:
    """The acquisition phase runs on sub-step-major arrays. The reference
    walk shares time_grid and sample_at with the engine, so these checks are
    what catches a numpy that computes sub-step-major arrays differently."""

    @pytest.mark.parametrize("case", list(_LAYOUT_TABLES))
    def test_rc_steps_from_a_substep_major_drive_match_a_contiguous_copy(self, case):
        switch, r_series, c = _LAYOUT_TABLES[case]
        plan = ClockPlan(f_s=10e3, alpha=0.1, n_periods=512)
        grid, _ = time_grid(plan, 16)
        drive = SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 512, 5)).sample_at(grid)
        assert drive.flags.f_contiguous
        dt = plan.t_aq / 16
        # One set of buffers each: the tables are views of them.
        f_tables = engine._rc_steps(switch, r_series, c, drive, grid, dt, block_buffers(switch, drive))
        c_tables = engine._rc_steps(
            switch, r_series, c, np.ascontiguousarray(drive), np.ascontiguousarray(grid), dt,
            block_buffers(switch, drive),
        )
        assert len(f_tables) == len(c_tables) == 2
        if case == "pass-cut-off":
            a, q = f_tables
            assert ((a == 1.0) & (q == 0.0)).any()  # x = 0 where S1 is open: the node holds
        for f, c_ in zip(f_tables, c_tables):
            assert f.flags.f_contiguous
            assert np.array_equal(f.view(np.uint64), c_.view(np.uint64))

    @pytest.mark.parametrize("phase", list(Phase))
    @pytest.mark.parametrize("cut_off", [False, True])
    def test_pass_tables_equal_the_float_steps(self, cut_off, phase):
        """A pass-transistor table of one block, with no sub-step cut off
        and with some cut off (overdrive clamped to 0, 1/(k*0) = inf),
        equals the table built one sub-step at a time
        from r_on and the float rc_step_terms, bit for bit, on the
        acquisition (Fortran-order) and harvest (C-order) grid. One drive
        value sits at v_gate - v_th: an overdrive of exactly 0 (cut off) for
        the cut-off switch, and of 1.1e-16 V (on, r_on near 1e17 ohm) for
        the other."""
        v_gate, v_th = (0.1, 0.05) if cut_off else (1.8, 0.4)
        switch = Switch.pass_transistor(k_gain=0.1, v_th=v_th, v_gate=v_gate)
        r_series, c = (0.0, 1e-9) if phase is Phase.ACQUISITION else (73.8, 1e-7)
        plan = ClockPlan(f_s=10e3, alpha=0.1, n_periods=24)
        n_sub = 16
        grid = phase_grid(plan, n_sub, phase)
        drive = SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 32, 5)).sample_at(grid)
        drive[3, 5] = v_gate - v_th
        dt = (plan.t_aq if phase is Phase.ACQUISITION else plan.t_eh) / n_sub
        a, q = engine._rc_steps(switch, r_series, c, drive, grid, dt, block_buffers(switch, drive))
        assert a.flags.f_contiguous == (phase is Phase.ACQUISITION)
        want_a, want_q = np.empty_like(a), np.empty_like(q)
        for p in range(plan.n_periods):
            for j in range(n_sub):
                u0, u1 = float(drive[p, j]), float(drive[p, j + 1])
                h = dt if j < n_sub - 1 else float(grid[p, -1] - grid[p, -2])
                a_x, g, psi = rc_step_terms(h / ((r_series + r_on(switch, u0)) * c))
                want_a[p, j], want_q[p, j] = a_x, u0 * g + (u1 - u0) * psi
        held = (a == 1.0) & (q == 0.0)
        assert held.any() == cut_off and held[3, 5] == cut_off
        assert np.array_equal(a.view(np.uint64), want_a.view(np.uint64))
        assert np.array_equal(q.view(np.uint64), want_q.view(np.uint64))

    def test_acquisition_arrays_are_substep_major(self):
        trace = run(small_scenario(), spectral=False, eh=False).trace
        t_aq, t_eh, v_in_aq, v_in_eh = trace.inputs()
        for array in (t_aq, v_in_aq, trace.dac_aq):
            assert array.flags.f_contiguous
        for array in (t_eh, v_in_eh, trace.ceh_eh):
            assert array.flags.c_contiguous


def time_scaled(scenario, lam):
    """scenario with f_s and f_in times lam and c_unit and c_eh over lam."""
    return dataclasses.replace(
        scenario,
        source=dataclasses.replace(scenario.source, frequency=scenario.source.frequency * lam),
        clock=dataclasses.replace(scenario.clock, f_s=scenario.clock.f_s * lam),
        adc=dataclasses.replace(scenario.adc, c_unit=scenario.adc.c_unit / lam),
        eh=dataclasses.replace(scenario.eh, c_eh=scenario.eh.c_eh / lam),
    )


def assert_scales_bit_for_bit(base, scaled, lam):
    want = run(base, spectral=False, eh=False).trace
    got = run(scaled, spectral=False, eh=False).trace
    for name in ("codes", "dac_aq", "ceh_eh"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for g, w in zip(got.inputs()[:2], want.inputs()[:2]):
        assert g.tobytes() == (w / lam).tobytes()


class TestScaleLaw:
    """Scaling f_s and f_in by lam = 2**k and c_unit and c_eh by 1/lam scales
    every time and every tau by exactly 1/lam, so every step argument
    x = h/tau, and with it every code and node voltage, keeps its bits."""

    @pytest.mark.parametrize("k", [-20, -3, 1, 10, 20])
    @pytest.mark.parametrize("config", ["configs/lowfreq.cfg", "bench/configs/lowfreq_pass.cfg"])
    def test_power_of_two_time_scaling_keeps_every_bit(self, config, k, repo_root):
        base, _ = build_scenario(load_config(repo_root / config))
        base = dataclasses.replace(base, clock=dataclasses.replace(base.clock, n_periods=64))
        lam = 2.0**k
        assert_scales_bit_for_bit(base, time_scaled(base, lam), lam)

    def test_random_scenarios_scale_bit_for_bit(self, monkeypatch):
        """Seeded random scenarios (random_walk_scenario: constant, auto and
        pass-transistor switches, 1-64 periods), each scaled by 2**k for k
        in -20..20. reference_walk shares time_grid and sample_at with the
        engine; this oracle is the engine at another time scale, so a units
        slip there (an absolute-seconds constant) breaks it. The
        pass-transistor step tables must keep their bits too, and between
        them they take the series alone, the quotient alone and both, with
        and without a cut-off sub-step."""
        tables, reached = [], set()
        real_steps, real_terms = engine._rc_steps, engine.rc_step_terms

        def steps(switch, *args):
            table = real_steps(switch, *args)
            if switch.kind is SwitchKind.PASS_TRANSISTOR:
                # The tables are views of buffers that the next block reuses.
                tables.append(tuple(m.copy() for m in table))
            return table

        def terms(x, *out):
            if np.ndim(x) == 2:  # a pass-transistor table's arguments
                n_below = np.count_nonzero(x < 0.125)
                reached.add("series" if n_below == x.size else "quotient" if n_below == 0 else "both")
                reached.add("cut-off" if (x == 0.0).any() else "on")
            return real_terms(x, *out)

        monkeypatch.setattr(engine, "_rc_steps", steps)
        monkeypatch.setattr(engine, "rc_step_terms", terms)
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            base = random_walk_scenario(rng)
            lam = 2.0 ** int(rng.integers(-20, 21))
            tables.clear()
            assert_scales_bit_for_bit(base, time_scaled(base, lam), lam)
            half = len(tables) // 2
            assert len(tables) == 2 * half
            for (a, q), (a_lam, q_lam) in zip(tables[:half], tables[half:]):
                assert a_lam.tobytes() == a.tobytes() and q_lam.tobytes() == q.tobytes()
        assert reached == {"series", "quotient", "both", "cut-off", "on"}


def voltage_scaled(scenario, lam):
    """scenario with every voltage times lam: amplitude, dc_offset, v_ref,
    v_drop and a pass switch's v_gate and v_th; a pass switch's k_gain over
    lam, so its r_on keeps its value, and a configured p_in times lam**2."""

    def switch(s):
        if not isinstance(s, Switch) or s.kind is not SwitchKind.PASS_TRANSISTOR:
            return s
        return Switch.pass_transistor(k_gain=s.k_gain / lam, v_th=s.v_th * lam, v_gate=s.v_gate * lam)

    source, adc, eh = scenario.source, scenario.adc, scenario.eh
    return dataclasses.replace(
        scenario,
        source=dataclasses.replace(source, amplitude=source.amplitude * lam, dc_offset=source.dc_offset * lam),
        adc=dataclasses.replace(adc, v_ref=adc.v_ref * lam, s1=switch(adc.s1)),
        eh=dataclasses.replace(
            eh, rectifier=dataclasses.replace(eh.rectifier, v_drop=eh.rectifier.v_drop * lam), s2=switch(eh.s2)
        ),
        p_in=None if scenario.p_in is None else scenario.p_in * lam * lam,
    )


def assert_voltages_scale_bit_for_bit(base, lam, metrics):
    want = run(base, spectral=metrics, eh=metrics)
    got = run(voltage_scaled(base, lam), spectral=metrics, eh=metrics)
    assert got.trace.codes.tobytes() == want.trace.codes.tobytes()
    for name in ("dac_aq", "ceh_eh"):
        assert getattr(got.trace, name).tobytes() == (getattr(want.trace, name) * lam).tobytes(), name
    if metrics:
        assert float_bits(got.enob) == float_bits(want.enob)
        for name in ("t_ceh", "eta_e", "eta_v"):
            assert float_bits(getattr(got.eh, name)) == float_bits(getattr(want.eh, name)), name
        assert float_bits(got.eh.v_eh) == float_bits(want.eh.v_eh * lam)


class TestVoltageScaleLaw:
    """Scaling every voltage by lam = 2**k (and the input power by lam**2)
    scales every drive, node voltage and bound by exactly lam and leaves
    every tau, every code and every ratio as it is: codes, ENOB, t_ceh,
    eta_e and eta_v keep their bits, and dac_aq, ceh_eh and v_eh scale by
    exactly lam."""

    @pytest.mark.parametrize("k", range(-3, 5))
    @pytest.mark.parametrize(
        "config", ["configs/lowfreq.cfg", "configs/highfreq.cfg", "bench/configs/lowfreq_pass.cfg"]
    )
    def test_power_of_two_voltage_scaling_keeps_every_bit(self, config, k, repo_root):
        base, _ = build_scenario(load_config(repo_root / config))
        assert_voltages_scale_bit_for_bit(base, 2.0**k, metrics=True)

    def test_random_scenarios_scale_bit_for_bit(self):
        """Seeded random scenarios (random_walk_scenario: constant, auto and
        pass-transistor switches, some S2 cut off over part of the envelope),
        each scaled by 2**k for k in -20..20."""
        rng = np.random.default_rng(20261022)
        for _ in range(200):
            base = random_walk_scenario(rng)
            assert_voltages_scale_bit_for_bit(base, 2.0 ** int(rng.integers(-20, 21)), metrics=False)


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
        assert np.all(result.trace.dac_level == dc)
        # The storage cap ratchets up to the DC level (envelope peak).
        assert result.trace.ceh_eh[-1, -1] == pytest.approx(dc, rel=1e-6)


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
        monkeypatch.setattr(engine, "phase_grid", no_grid)
        n = MAX_PERIODS + 1
        scenario = small_scenario(clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=n))
        message = f"n_periods {n} exceeds the cap of {MAX_PERIODS} periods"
        with pytest.raises(ValidationError, match=message):
            validate(scenario)
        with pytest.raises(ValidationError, match=message):
            run(scenario, spectral=False, eh=False)

    def test_substep_guard(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("an array was built")

        monkeypatch.setattr(engine, "time_grid", no_grid)
        monkeypatch.setattr(engine, "phase_grid", no_grid)
        cap = MAX_PERIODS * 64

        def scenario(n_periods, n_sub):
            return small_scenario(clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=n_periods), n_sub=n_sub)

        validate(scenario(4096, cap // 4096))
        validate(scenario(MAX_PERIODS, 64))
        message = (
            f"n_periods 4096 x n_sub 100000000 = 409600000000 sub-steps per phase exceeds "
            f"the cap of {cap} by {409600000000 - cap} (6104 times the cap)"
        )
        with pytest.raises(ValidationError, match=re.escape(message)):
            validate(scenario(4096, 100_000_000))
        with pytest.raises(ValidationError, match=re.escape(message)):
            run(scenario(4096, 100_000_000), spectral=False, eh=False)
        validate(scenario(1, cap))
        with pytest.raises(ValidationError, match=f"= {cap + 1} sub-steps per phase exceeds .* by 1 "):
            validate(scenario(1, cap + 1))
        # The period cap is checked first.
        with pytest.raises(ValidationError, match=f"n_periods {MAX_PERIODS + 1} exceeds the cap"):
            validate(scenario(MAX_PERIODS + 1, 1000))

    @pytest.mark.parametrize("alpha", [1.0 - 1e-10, 1e-10], ids=["harvest", "acquisition"])
    def test_substep_width_guard(self, alpha, monkeypatch):
        """A phase's sub-step no wider than 8 ulps of the run's end time is
        rejected before any grid is built: late periods of such a run can
        snap to a reversed last width, where the RC step grows the node."""
        def no_grid(*args):
            raise AssertionError("an array was built")

        monkeypatch.setattr(engine, "time_grid", no_grid)
        monkeypatch.setattr(engine, "phase_grid", no_grid)

        def scenario(alpha):
            return small_scenario(clock=ClockPlan(f_s=10e3, alpha=alpha, n_periods=MAX_PERIODS))

        message = (
            "sub-step width min(t_aq, t_eh)/n_sub = 1.25e-15 s is not above 8 ulps of the "
            "run's end time, 1.13687e-13 s (0.011 times that bound)"
        )
        with pytest.raises(ValidationError, match=re.escape(message)):
            validate(scenario(alpha))
        with pytest.raises(ValidationError, match=re.escape(message)):
            run(scenario(alpha), spectral=False, eh=False)
        # 1.25e-13 s, 1.1 times the bound.
        validate(scenario(1.0 - 1e-8 if alpha > 0.5 else 1e-8))

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

    def test_auto_switch_needs_a_finite_resistance(self):
        """k*c_dac rounding to 0 is a ValidationError naming both keys, not a
        ZeroDivisionError."""
        scenario = small_scenario(settling_factor_k=5e-324)
        message = "= inf ohm is not positive and finite: engine.settling_factor_k = 5e-324, adc.c_unit_f = 1.2e-09"
        for check in (resolve_s1, validate):
            with pytest.raises(ValidationError, match=re.escape(message)):
                check(scenario)

    def test_harvest_time_constant_floor(self):
        """A harvest sub-step of more than 1e307 time constants (r_series +
        r_on)*c_eh is rejected, since its h/tau could overflow; at twice the
        least c_eh the run's tables hold no inf."""
        def scenario(c_eh):
            return small_scenario(eh=dataclasses.replace(small_scenario().eh, c_eh=c_eh))

        dt = small_scenario().clock.t_eh / 8
        c_min = dt / 1e307 / 74.8
        with pytest.raises(ValidationError, match=re.escape(f"eh.c_eh_f = 5e-324 F is below {c_min:.6g} F")):
            validate(scenario(5e-324))
        trace = run(scenario(2 * c_min), spectral=False, eh=False).trace
        assert np.isfinite(trace.ceh_eh).all() and trace.ceh_eh.max() > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sampling_time_constant_floor(self):
        """S1 has the bound of S2: an acquisition sub-step of more than 1e307
        of S1's least time constant r_on*c_dac is rejected, naming
        adc.c_unit_f, since its h/tau could divide by 0 or overflow; at twice
        the least r_on the run's tables hold no inf. Either pass switch whose
        k_gain times its largest overdrive is not finite is rejected too."""
        def scenario(s1=None, s2=None):
            base = small_scenario()
            return small_scenario(adc=dataclasses.replace(base.adc, s1=s1 or base.adc.s1),
                                  eh=dataclasses.replace(base.eh, s2=s2 or base.eh.s2))

        r_min = small_scenario().clock.t_aq / 8 / 1e307 / c_dac(small_scenario().adc)
        for r in (5e-324, r_min / 2):
            with pytest.raises(ValidationError, match=re.escape("adc.c_unit_f = 1.2e-09 F is below")):
                validate(scenario(s1=Switch.constant(r)))
        trace = run(scenario(s1=Switch.constant(2 * r_min)), spectral=False, eh=False).trace
        assert np.isfinite(trace.dac_aq).all()
        for key, switches in (("switch.s1", {"s1": Switch.pass_transistor(1e308, 0.4, 2.0)}),
                              ("switch.s2", {"s2": Switch.pass_transistor(1e308, 0.4, 5.0)})):
            with pytest.raises(ValidationError, match=re.escape(f"{key}.k_gain = 1e+308 is above")):
                validate(scenario(**switches))

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

    @pytest.mark.parametrize("p_in", [0.0, -1e-6, math.nan, math.inf])
    def test_nonpositive_or_infinite_input_power_is_rejected(self, p_in, monkeypatch):
        def no_transient(*args):
            raise AssertionError("the transient ran")

        monkeypatch.setattr(engine, "_acquisition", no_transient)
        scenario = small_scenario(p_in=p_in)
        with pytest.raises(ValidationError, match=f"p_in must be positive and finite, got {p_in}"):
            validate(scenario)
        with pytest.raises(ValidationError, match=f"p_in must be positive and finite, got {p_in}"):
            run(scenario, spectral=False, eh=True)


def float_bits(x):
    return None if x is None else struct.pack("<d", x)


def assert_row_matches_run(row, scenario, spectral):
    """A sweep row of scenario has the bits of run(scenario): the same error
    text, or the same EhMetrics and SNDR bits and spectrum. Both re-solve
    the crossing period, so their EhMetrics must also be those that
    steady_state_metrics reads off run's whole trace. Returns run's result,
    or its error text."""
    try:
        direct = run(scenario, spectral=spectral, eh=True)
    except (ValidationError, NotConverged) as exc:
        assert row.result is None and row.error == str(exc)
        return str(exc)
    assert row.error is None and row.result.trace is None
    v_m = max(abs(x) for x in scenario.source.extremes)
    from_trace = steady_state_metrics(direct.trace, engine.input_power(scenario), scenario.eh, v_m,
                                      tol=scenario.steady_tol)
    for m in (row.result.eh, from_trace):
        assert [float_bits(x) for x in dataclasses.astuple(m)] == [
            float_bits(x) for x in dataclasses.astuple(direct.eh)]
    assert float_bits(row.result.sndr_db) == float_bits(direct.sndr_db)
    if spectral:
        assert row.result.spectrum.power.tobytes() == direct.spectrum.power.tobytes()
    return direct


def crossing_period(result):
    """The period whose end first reaches (1 - tol)*v_eh, and whether the
    period before it held the storage voltage of the one before that."""
    ends = result.trace.ceh_eh[:, -1]
    p = int(np.searchsorted(ends, (1.0 - result.trace.scenario.steady_tol) * result.eh.v_eh))
    return p, bool(p >= 2 and ends[p - 1] == ends[p - 2])


def small_eh(c_eh=1e-7, v_drop=0.09284, s2=Switch.constant(1.0)):
    return EhConfig(c_eh=c_eh, rectifier=RectifierModel(v_drop=v_drop, r_series=73.8), s2=s2)


def phased_source(phase, n_fft=16):
    return SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, n_fft, 3), phase=phase)


# A sweep row solves without the trace and re-solves the crossing period
# from the end voltage of the period before it. Each case: (scenario,
# spectral, and what run() must show: the crossing period and whether the
# period before it held, or the start of the error text).
SWEEP_ROW_CASES = {
    "crossing-in-period-1": (small_scenario, True, (1, False)),
    "crossing-in-period-0": (lambda: small_scenario(source=phased_source(0.98), eh=small_eh(1e-9)), True,
                             (0, False)),
    "crossing-after-a-held-period": (
        lambda: small_scenario(source=phased_source(1.5), eh=small_eh(1e-9)), True, (2, True)),
    # Blocks of 1,024 periods at n_sub 64; the crossing is in the second.
    "crossing-in-a-later-block": (
        lambda: small_scenario(clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=2048), eh=small_eh(1e-4),
                               n_sub=64),
        True, (1582, True)),
    "pass-s2": (pass_walk_scenario, True, (1, False)),
    "cut-off-pass-s2": (
        lambda: small_scenario(
            source=phased_source(2.0),
            eh=small_eh(1e-8, s2=Switch.pass_transistor(k_gain=0.1, v_th=0.05, v_gate=0.1))),
        True, (2, False)),
    "ten-periods": (
        lambda: small_scenario(clock=ClockPlan(f_s=10e3, alpha=0.1, n_periods=10)), False,
        "run has 10 periods"),
    "still-moving": (lambda: small_scenario(eh=small_eh(1e-6)), True, "storage voltage still moving"),
    "eta-above-1": (lambda: small_scenario(p_in=1e-12), True, "eta_e = "),
    "no-charge": (lambda: small_scenario(eh=small_eh(v_drop=0.5)), True, "storage capacitor ended at 0 V"),
}


class TestSweep:
    @pytest.mark.parametrize("case", list(SWEEP_ROW_CASES))
    def test_single_value_sweep_matches_run(self, case):
        make, spectral, want = SWEEP_ROW_CASES[case]
        scenario = make()
        rows = sweep(lambda _: scenario, "alpha", [scenario.clock.alpha], spectral=spectral, eh=True)
        assert len(rows) == 1
        direct = assert_row_matches_run(rows[0], scenario, spectral)
        if isinstance(want, str):
            assert direct.startswith(want), direct
            return
        assert crossing_period(direct) == want
        assert summarize(scenario, rows[0].result) == summarize(scenario, direct)

    @pytest.mark.parametrize("block_periods", [None, 3])
    def test_rows_without_the_trace_match_run_on_random_scenarios(self, block_periods, monkeypatch):
        """Random scenarios over the walk's ranges, 11-200 periods, storage
        caps that often converge and, in half of them, an input power low
        enough that eta_e may exceed 1; run() on each either raises or
        reports metrics, and a sweep row of it gives the same bits or error
        text. In the default blocks, and in blocks of 3 periods, where some
        crossings fall on the first period of a block."""
        rng = np.random.default_rng(20261020)
        crossings, errors = [], []
        for _ in range(300):
            scenario = random_walk_scenario(rng)
            scenario = dataclasses.replace(
                scenario,
                clock=dataclasses.replace(scenario.clock, n_periods=int(rng.integers(11, 200))),
                eh=dataclasses.replace(scenario.eh, c_eh=10.0 ** float(rng.uniform(-13.0, -7.0))),
                p_in=10.0 ** float(rng.uniform(-16.0, -8.0)) if rng.integers(0, 2) else None,
            )
            if block_periods:
                monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", block_periods * scenario.n_sub)
            (row,) = sweep(lambda _: scenario, "alpha", [scenario.clock.alpha], spectral=False, eh=True)
            direct = assert_row_matches_run(row, scenario, spectral=False)
            if isinstance(direct, str):
                errors.append(direct.split(":")[0].split(" = ")[0])
            else:
                crossings.append(crossing_period(direct))
        periods, held = zip(*crossings)
        assert 0 in periods and any(p > 1 for p in periods)
        if block_periods:
            assert any(p > 0 and p % block_periods == 0 for p in periods), periods
        assert sum(held) >= 10
        assert {"storage voltage still moving", "storage capacitor ended at 0 V, which is not above 0 V",
                "eta_e"} <= set(errors), set(errors)

    def test_row_memory_is_flat_in_run_length(self, repo_root):
        """A lowfreq row holds its per-period arrays plus one block: its
        tracemalloc peak at 16,384 periods is within 1 MiB of its peak at
        4,096, and that is at most 3.5 MiB. A row that kept the trace would
        hold 1 KiB more per period."""
        cfg = load_config(repo_root / "configs/lowfreq.cfg")
        make = functools.partial(scenario_with, cfg, "clock.n_periods")

        def peak(n_periods):
            task = (make, "clock.n_periods", float(n_periods), True, True)
            tracemalloc.start()
            try:
                row = engine._sweep_worker(task)
                highest = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert row.error is None, row.error
            return highest

        peak(4096)  # first-call set-up is not per-row memory
        small, large = peak(4096), peak(16384)
        assert small <= 3.5 * 2**20, small
        assert large - small <= 2**20, (small, large)

    def test_rows_keep_input_order_and_record_errors(self):
        rows = sweep(small_sweep("alpha"), "alpha", [0.2, 1.0], spectral=False, eh=False)
        assert [r.value for r in rows] == [0.2, 1.0]
        assert rows[0].error is None and rows[0].result is not None
        assert rows[1].result is None and "alpha" in rows[1].error

    def test_parallel_rows_match_serial_rows(self):
        values = [0.1, 0.2, 0.3]
        serial = sweep(small_sweep("alpha"), "alpha", values, jobs=1, spectral=True, eh=True)
        parallel = sweep(small_sweep("alpha"), "alpha", values, jobs=2, spectral=True, eh=True)
        for a, b in zip(serial, parallel):
            assert a.value == b.value and a.error is None and b.error is None
            assert_same_metrics(a.result, b.result)
            case = small_scenario(clock=ClockPlan(f_s=10e3, alpha=a.value, n_periods=16))
            assert a.scenario == case and b.scenario == case
            assert summarize(case, a.result) == summarize(case, b.result)

    def test_rows_carry_the_scenario_they_ran(self):
        """A result row's scenario is the one its result came from, so
        run(row.scenario) gives its bits; an error row carries none."""
        rows = sweep(small_sweep("n_bits"), "n_bits", [6.0, 4.5, 10.0], spectral=True, eh=True)
        assert [r.value for r in rows] == [6.0, 4.5, 10.0]
        assert rows[1].scenario is None and rows[1].result is None
        assert rows[1].error == "key 'adc.n_bits' needs a whole number, got 4.5"
        for row in (rows[0], rows[2]):
            assert row.scenario.adc.n_bits == int(row.value)
            assert_row_matches_run(row, row.scenario, spectral=True)

    def test_rows_carry_metrics_without_the_trace(self):
        # n_sub = 64 makes each row's trace alone larger than the bound.
        make = small_sweep("alpha", SMALL_CFG.replace("engine.n_sub = 8", "engine.n_sub = 64"))
        rows = sweep(make, "alpha", [0.1, 0.2, 0.3], jobs=2, spectral=True, eh=False)
        for row in rows:
            assert row.error is None and row.result.trace is None
            assert row.result.spectrum is not None
            assert len(pickle.dumps(row)) < 64 * 1024

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers sweep forks, in the order it forks them."""
        pids, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("jobs, n_values, n_forks", [(64, 3, 3), (2, 3, 2), (4, 1, 0)])
    def test_workers_are_never_more_than_the_values(self, forks, jobs, n_values, n_forks):
        values = [0.1 + 0.05 * i for i in range(n_values)]
        rows = sweep(small_sweep("alpha"), "alpha", values, jobs=jobs, spectral=False, eh=False)
        assert len(forks) == n_forks
        assert [r.value for r in rows] == values
        self.assert_no_child_left()

    def test_rows_come_back_in_input_order_with_their_errors(self, forks):
        """Five values on three workers; the error row 4.5 is worker 1's
        first, and its second row, 8, still runs."""
        values = [6.0, 4.5, 10.0, 7.0, 8.0]
        serial = sweep(small_sweep("n_bits"), "n_bits", values, jobs=1, spectral=True, eh=True)
        parallel = sweep(small_sweep("n_bits"), "n_bits", values, jobs=3, spectral=True, eh=True)
        assert len(forks) == 3
        assert [r.value for r in parallel] == values
        for a, b in zip(serial, parallel):
            assert (a.value, a.error, a.scenario) == (b.value, b.error, b.scenario)
            if a.error is None:
                assert_same_metrics(a.result, b.result)
        assert parallel[1].error == "key 'adc.n_bits' needs a whole number, got 4.5"
        self.assert_no_child_left()

    def test_a_row_error_that_is_not_recorded_is_raised(self):
        make = small_sweep("alpha")

        def boom(value):
            if value == 0.2:
                raise RuntimeError("boom")
            return make(value)

        with pytest.raises(RuntimeError, match="^boom$"):
            sweep(boom, "alpha", [0.1, 0.2, 0.3], jobs=2, spectral=False, eh=False)
        self.assert_no_child_left()

    def test_a_worker_that_dies_is_named(self, forks):
        make = small_sweep("alpha")

        def die(value):
            if value == 0.2:
                os._exit(3)
            return make(value)

        with pytest.raises(RuntimeError) as exc:
            sweep(die, "alpha", [0.1, 0.2, 0.3], jobs=2, spectral=False, eh=False)
        assert str(exc.value) == (
            f"sweep worker {forks[1]} ended before sending row 1 (wait status 768, exit code 3)")
        self.assert_no_child_left()

    def test_make_need_not_pickle(self):
        scenario = small_sweep("alpha")(0.1)
        rows = sweep(lambda v: dataclasses.replace(scenario, clock=dataclasses.replace(scenario.clock, alpha=v)),
                     "alpha", [0.1, 0.2], jobs=2, spectral=False, eh=False)
        assert [r.scenario.clock.alpha for r in rows] == [0.1, 0.2]
        assert all(r.error is None for r in rows)
        self.assert_no_child_left()

    def test_the_fork_warning_of_a_threaded_process_is_filtered(self, monkeypatch):
        """Python >= 3.12 warns when a process with more than one thread
        forks, as numpy's BLAS pool makes this one; Tier-1 turns a
        DeprecationWarning into an error, so sweep filters that message."""
        fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
                          "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        rows = sweep(small_sweep("alpha"), "alpha", [0.1, 0.2], jobs=2, spectral=False, eh=False)
        assert [r.error for r in rows] == [None, None]
        self.assert_no_child_left()

    @pytest.fixture
    def placements(self, monkeypatch, tmp_path):
        """(cpus, read): this process is allowed on the two CPUs cpus while
        the test runs, and read() maps each pid that called
        os.sched_setaffinity to the masks it set, in order. Each worker is
        its own process, so the recorder appends to a file."""
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is missing")
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            pytest.skip("fewer than 2 CPUs are allowed")
        log, setaffinity, cpus = tmp_path / "placements", os.sched_setaffinity, sorted(allowed)[:2]

        def recording_setaffinity(pid, mask):
            with open(log, "a") as fh:
                fh.write(f"{(os.getpid(), sorted(mask))!r}\n")
            setaffinity(pid, mask)

        def read():
            calls = {}
            for line in log.read_text().splitlines():
                pid, mask = ast.literal_eval(line)
                calls.setdefault(pid, []).append(mask)
            return calls

        setaffinity(0, cpus)
        monkeypatch.setattr(os, "sched_setaffinity", recording_setaffinity)
        try:
            yield cpus, read
        finally:
            setaffinity(0, allowed)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_each_worker_starts_on_its_own_cpu(self, forks, placements, jobs):
        """Worker w sets CPU w mod 2 alone, then both again; at three jobs
        on two CPUs, worker 2 wraps around to the first."""
        cpus, read = placements
        values = [0.1, 0.2, 0.3]
        rows = sweep(small_sweep("alpha"), "alpha", values, jobs=jobs, spectral=False, eh=False)
        assert [r.value for r in rows] == values and all(r.error is None for r in rows)
        assert read() == {pid: [[cpus[w % 2]], cpus] for w, pid in enumerate(forks)}
        assert len(forks) == jobs
        self.assert_no_child_left()

    @pytest.mark.parametrize("placement", ["fails", "missing"])
    def test_rows_do_not_depend_on_placement(self, monkeypatch, placement):
        values = [0.1, 0.2, 0.3]
        serial = sweep(small_sweep("alpha"), "alpha", values, jobs=1, spectral=True, eh=True)
        if placement == "missing":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        elif hasattr(os, "sched_setaffinity"):
            def refuse(pid, mask):
                raise OSError(22, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        else:
            pytest.skip("os.sched_setaffinity is missing")
        rows = sweep(small_sweep("alpha"), "alpha", values, jobs=2, spectral=True, eh=True)
        for a, b in zip(serial, rows, strict=True):
            assert (a.value, a.error, a.scenario) == (b.value, b.error, b.scenario)
            assert_same_metrics(a.result, b.result)
        self.assert_no_child_left()

    def test_rows_run_serially_without_fork(self, monkeypatch):
        values = [0.1, 0.2, 0.3]
        serial = sweep(small_sweep("alpha"), "alpha", values, jobs=1, spectral=True, eh=True)
        monkeypatch.delattr(os, "fork")
        rows = sweep(small_sweep("alpha"), "alpha", values, jobs=2, spectral=True, eh=True)
        for a, b in zip(serial, rows, strict=True):
            assert (a.value, a.error, a.scenario) == (b.value, b.error, b.scenario)
            assert_same_metrics(a.result, b.result)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_rejected(self, monkeypatch, jobs):
        monkeypatch.setattr(engine, "_sweep_worker", None)  # no row may run
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            sweep(small_sweep("alpha"), "alpha", [0.1, 0.2], jobs=jobs)

    @pytest.mark.parametrize(
        "parameter, value, message",
        [
            ("f_s", math.inf, "key 'clock.f_s_hz' must be finite, got inf"),
            ("v_drop", math.nan, "key 'eh.v_drop_v' must be finite, got nan"),
            ("c_eh", math.inf, "key 'eh.c_eh_f' must be finite, got inf"),
            ("r_on_s1", math.inf, "key 'switch.s1.r_on' must be finite, got inf"),
            ("n_bits", math.inf, "key 'adc.n_bits' needs a whole number, got inf"),
            ("c_eh", -1e-6, "c_eh must be positive and finite, got -1e-06"),
        ],
    )
    def test_bad_values_give_error_rows(self, parameter, value, message):
        rows = sweep(small_sweep(parameter), parameter, [value], spectral=False, eh=True)
        assert rows[0].result is None and rows[0].error == message

    @pytest.mark.parametrize("key", ["v_ref", "switch.s1.type", "run.out_dir"])
    def test_only_aliases_and_numeric_keys_are_sweepable(self, key):
        with pytest.raises(ValueError, match=f"cannot sweep '{key}'"):
            scenario_with(parse_config(SMALL_CFG), key, 0.4)

    def test_each_alias_sets_its_key(self):
        """An alias row's scenario is the base scenario with that one field
        replaced; an f_s row's input frequency follows signal.m_cycles."""
        cfg, base = parse_config(SMALL_CFG), small_scenario()
        rect = base.eh.rectifier
        for name, value, want in [
            ("alpha", 0.25, small_scenario(clock=ClockPlan(f_s=10e3, alpha=0.25, n_periods=16))),
            ("f_s", 20e3, small_scenario(
                source=dataclasses.replace(base.source, frequency=coherent_frequency(20e3, 16, 3)),
                clock=ClockPlan(f_s=20e3, alpha=0.1, n_periods=16))),
            ("c_eh", 5e-8, small_scenario(eh=dataclasses.replace(base.eh, c_eh=5e-8))),
            ("v_drop", 0.05, small_scenario(
                eh=dataclasses.replace(base.eh, rectifier=dataclasses.replace(rect, v_drop=0.05)))),
            ("r_on_s1", 0.5, small_scenario(adc=dataclasses.replace(base.adc, s1=Switch.constant(0.5)))),
            ("n_bits", 10.0, small_scenario(adc=dataclasses.replace(base.adc, n_bits=10))),
        ]:
            assert scenario_with(cfg, name, value) == want, name
        assert type(scenario_with(cfg, "n_bits", 10.0).adc.n_bits) is int


class TestEfficiencyLimits:
    def test_c_eh_decades_give_not_converged_or_physical_efficiencies(self, repo_root):
        """Across storage caps from 1 nF to 10 mF every run either raises
        NotConverged or reports eta_e <= 1 and eta_v <= 1."""
        cfg = load_config(repo_root / "configs/lowfreq.cfg")
        converged = []
        for exponent in range(-9, -1):
            scenario = scenario_with(cfg, "c_eh", 10.0**exponent)
            try:
                m = run(scenario, spectral=False, eh=True).eh
            except NotConverged:
                continue
            assert m.eta_e <= 1.0 and m.eta_v <= 1.0, (exponent, m)
            converged.append(exponent)
        assert -4 in converged  # the shipped 100 uF design

    def test_storage_never_rises_above_the_largest_conducting_drive(self, repo_root):
        """C_EH charges through S2 toward the rectified envelope, so it never
        passes v_sup, the largest drive at either end of a harvest sub-step
        whose S2 conducts at its start. Seeded random runs, fast-converging
        ones (c_eh 1e-15 to 1e-9 F over 50 to 400 periods) among them, and
        the three reference configs; some converging runs end within 1e-9
        of v_sup."""

        def v_sup(trace):
            scenario = trace.scenario
            u = rectified_envelope(trace.inputs()[3], scenario.eh.rectifier)
            on = np.broadcast_to(np.isfinite(r_on(scenario.eh.s2, u[:, :-1])), u[:, 1:].shape)
            return np.maximum(u[:, :-1], u[:, 1:])[on].max(initial=0.0)

        scenarios = [
            build_scenario(load_config(repo_root / config))[0]
            for config in ("configs/lowfreq.cfg", "configs/highfreq.cfg", "bench/configs/lowfreq_pass.cfg")
        ]
        rng = np.random.default_rng(20261022)
        scenarios += [random_walk_scenario(rng) for _ in range(200)]
        for _ in range(300):
            base = random_walk_scenario(rng)
            scenarios.append(dataclasses.replace(
                base,
                clock=dataclasses.replace(base.clock, n_periods=int(rng.integers(50, 401))),
                eh=dataclasses.replace(base.eh, c_eh=10.0 ** float(rng.uniform(-15.0, -9.0))),
            ))
        reached = 0
        for scenario in scenarios:
            trace = run(scenario, spectral=False, eh=False).trace
            top = v_sup(trace)
            assert trace.ceh_eh.max() <= top, scenario
            reached += top > 0.0 and top - trace.ceh_eh[-1, -1] <= 1e-9 * top
        assert reached > 0


def still_moving(trace, tol):
    """Whether steady_state_metrics at tol finds the storage voltage moving."""
    scenario = trace.scenario
    v_m = max(abs(x) for x in scenario.source.extremes)
    try:
        steady_state_metrics(trace, engine.input_power(scenario), scenario.eh, v_m, tol=tol)
    except NotConverged as exc:
        return "still moving" in str(exc)
    return False


def assert_metrics_match_flat_columns(result):
    """t_ceh is bit for bit the crossing read off the flat columns, and the
    drift test passes exactly when that drift is within tol*v_eh: the probes
    are the tol that puts the limit on the drift and the floats next to it.
    Returns (drift, whether the crossing is in the first harvest sub-step)."""
    trace = result.trace
    t_ceh, drift, first_row = flat_column_metrics(trace, trace.scenario.steady_tol)
    assert result.eh.t_ceh == t_ceh
    v_eh = result.eh.v_eh
    for probe in (np.nextafter(drift / v_eh, 0.0), drift / v_eh, np.nextafter(drift / v_eh, 1.0)):
        if 0.0 < probe < 1.0:
            assert still_moving(trace, float(probe)) == (drift > probe * v_eh), probe
    return drift, first_row % (2 * trace.scenario.n_sub) == trace.scenario.n_sub


class TestHarvestMetricsOracle:
    """steady_state_metrics reads the run's grid by period index; the oracle
    reads the storage cap's trace.csv column by time and shares none of
    that arithmetic."""

    @pytest.mark.parametrize("config", ["configs/lowfreq.cfg", "configs/highfreq.cfg",
                                        "bench/configs/lowfreq_pass.cfg"])
    def test_shipped_configs(self, config, repo_root):
        scenario, _ = build_scenario(load_config(repo_root / config))
        assert_metrics_match_flat_columns(run(scenario, spectral=False))

    def test_random_converging_scenarios(self):
        rng = np.random.default_rng(20261019)
        found = []
        for _ in range(1000):
            if len(found) == 200:
                break
            scenario = random_walk_scenario(rng)
            scenario = dataclasses.replace(
                scenario,
                clock=dataclasses.replace(scenario.clock, n_periods=int(rng.integers(11, 200))),
                eh=dataclasses.replace(scenario.eh, c_eh=10.0 ** float(rng.uniform(-13.0, -8.0))),
            )
            try:
                result = run(scenario, spectral=False)
            except NotConverged:
                continue
            found.append(assert_metrics_match_flat_columns(result))
        assert len(found) == 200
        drifts, first_substep = zip(*found)
        # Only a drift above 0 tells the row it was read at from its neighbours.
        assert sum(d > 0.0 for d in drifts) >= 30
        assert any(first_substep) and not all(first_substep)


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
