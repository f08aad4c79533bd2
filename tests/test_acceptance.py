"""Acceptance suite: one test per release criterion.

Each test carries the numeric targets and tolerances it enforces; the
reference operating points are the published low-frequency (10 kHz) and
high-frequency (40 MHz) designs plus closed-form regressions of the metric
definitions themselves.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from ehadc.clocking import ClockPlan, Phase
from ehadc.engine import Scenario, run, sweep
from ehadc.frontend import Switch, rc_step_value, required_r_on
from ehadc.harvester import (
    EhConfig,
    RectifierModel,
    boost_charge_time,
    steady_state_metrics,
)
from ehadc.sar_adc import AdcConfig, dac_output, quantize_oracle, sar_convert
from ehadc.spectral import enob, sndr, spectrum
from ehadc.stimulus import InputPowerSpec, PowerProvenance, SineSource

from test_frontend import euler_reference


def ramp_then_flat_trace(v_eh, t_ceh, period_s, tol=0.01, extra_periods=20):
    """Synthetic storage-cap trace whose (1 - tol) crossing is exactly t_ceh."""
    ramp_end = t_ceh / (1.0 - tol)
    t = np.arange(0.0, ramp_end + extra_periods * period_s, period_s / 10.0)
    v = np.minimum(t / ramp_end, 1.0) * v_eh
    return SimpleNamespace(t=t, v_ceh=v, period_s=period_s)


def eh_config(c_eh):
    return EhConfig(
        c_eh=c_eh,
        rectifier=RectifierModel(v_drop=0.09284, r_series=73.8),
        s2=Switch.constant(1.0),
    )


def test_c01_efficiency_definitions_low_frequency_operating_point():
    """Reported low-frequency figures: eta_e 75.7% +/- 0.1 pp, eta_v 76.79% +/- 0.01 pp."""
    trace = ramp_then_flat_trace(v_eh=0.30716, t_ceh=0.22491, period_s=1e-4)
    p_in = InputPowerSpec(27.7e-6, PowerProvenance.CONFIGURED)
    m = steady_state_metrics(trace, p_in, eh_config(100e-6), v_m=0.4)
    assert abs(m.eta_e * 100.0 - 75.7) <= 0.1
    assert abs(m.eta_v * 100.0 - 76.79) <= 0.01


def test_c02_efficiency_definition_high_frequency_operating_point():
    """Reported high-frequency figure: eta_e within +/- 0.2 pp of 72.64%."""
    trace = ramp_then_flat_trace(v_eh=0.304, t_ceh=58.32e-6, period_s=2.5e-8)
    p_in = InputPowerSpec(27.255e-6, PowerProvenance.CONFIGURED)
    m = steady_state_metrics(trace, p_in, eh_config(25e-9), v_m=0.4)
    assert abs(m.eta_e * 100.0 - 72.64) <= 0.2


def test_c03_low_frequency_scenario_end_to_end(lowfreq_run):
    """10 kHz design: V_EH within 2% of 307.16 mV, T_CEH within 15% of
    224.91 ms, ENOB >= 7.8, simulated in under 60 s."""
    result, elapsed = lowfreq_run
    assert result.eh.v_eh == pytest.approx(0.30716, rel=0.02)
    assert result.eh.t_ceh == pytest.approx(0.22491, rel=0.15)
    assert result.enob >= 7.8
    assert elapsed < 60.0


def test_c04_high_frequency_scenario_end_to_end(highfreq_run):
    """40 MHz design: V_EH within 2% of 304 mV, T_CEH within 15% of 58.32 us."""
    result, elapsed = highfreq_run
    assert result.eh.v_eh == pytest.approx(0.304, rel=0.02)
    assert result.eh.t_ceh == pytest.approx(58.32e-6, rel=0.15)
    assert elapsed < 60.0


def test_c05_ideal_quantizer_metrology():
    """Full-scale coherent sine through the ideal 8-bit quantizer: SNDR within
    0.3 dB of 49.92 dB, and the ENOB identity inverts exactly."""
    cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
    n_fft, m = 4096, 41
    k = np.arange(n_fft)
    v = 0.4 * np.sin(2.0 * math.pi * m * k / n_fft)
    codes = np.array([sar_convert(float(x), cfg) for x in v])
    spec = spectrum(codes, cfg, f_s=10e3, signal_bin=m)
    assert sndr(spec) == pytest.approx(49.92, abs=0.3)
    for n in range(1, 17):
        assert enob(6.02 * n + 1.76) == float(n)


def test_c06_converter_matches_the_oracle_exhaustively():
    """sar_convert == quantize_oracle on 2**(n+3)-point grids for n in
    {4, 8, 10}; reconstruction error <= LSB/2 everywhere."""
    for n in (4, 8, 10):
        cfg = AdcConfig(n_bits=n, v_ref=0.4, c_unit=1e-12)
        points = 1 << (n + 3)
        pitch = 2.0 * cfg.v_ref / points
        grid = -cfg.v_ref + (np.arange(points) + 0.5) * pitch
        half = 0.5 * cfg.lsb * (1.0 + 1e-12)
        for v in grid:
            v = float(v)
            code = sar_convert(v, cfg)
            assert code == quantize_oracle(v, cfg)
            assert abs(dac_output(code, cfg) - v) <= half


def test_c07_integrator_exactness():
    """Constant drive to 1e-12 relative, ramp drive to 1e-6 against a
    10**6-step Euler oracle, interval splitting to 1e-12."""
    rng = np.random.default_rng(71)

    # Constant drive against the independent expm1 form.
    for ratio in (0.01, 0.3, 1.0, 7.0, 100.0):
        for _ in range(10):
            v0 = float(rng.uniform(-2.0, 2.0))
            u = float(rng.uniform(-2.0, 2.0))
            dt = 1.0 / ratio
            got = rc_step_value(v0, u, u, r=1.0, c=1.0, dt=dt)
            want = v0 + (u - v0) * -math.expm1(-dt)
            assert abs(got - want) <= 1e-12 * max(abs(v0), abs(u), 1e-30)

    # Ramp drive against brute force.
    for ratio in (0.3, 1.0, 7.0):
        v0 = float(rng.uniform(0.5, 1.5))
        u0 = float(rng.uniform(1.0, 2.0))
        u1 = float(rng.uniform(1.0, 2.0))
        dt = 1.0 / ratio
        ref = euler_reference(v0, u0, u1, r=1.0, c=1.0, dt=dt)
        got = rc_step_value(v0, u0, u1, r=1.0, c=1.0, dt=dt)
        assert got == pytest.approx(ref, rel=1e-6)

    # Composition: two half-steps equal one full step.
    for _ in range(100):
        v0 = float(rng.uniform(-2.0, 2.0))
        u0 = float(rng.uniform(-2.0, 2.0))
        u1 = float(rng.uniform(-2.0, 2.0))
        tau = 10.0 ** float(rng.uniform(-2.0, 2.0))
        frac = float(rng.uniform(0.1, 0.9))
        u_mid = u0 + (u1 - u0) * frac
        direct = rc_step_value(v0, u0, u1, r=tau, c=1.0, dt=1.0)
        v_mid = rc_step_value(v0, u0, u_mid, r=tau, c=1.0, dt=frac)
        split = rc_step_value(v_mid, u_mid, u1, r=tau, c=1.0, dt=1.0 - frac)
        scale = max(abs(v0), abs(u0), abs(u1), abs(direct), 1e-30)
        assert abs(split - direct) <= 1e-12 * scale


def test_c08_capacitance_to_charge_time_ratio(lowfreq_run, highfreq_run):
    """Both designs land near the published c_eh/t_ceh figure of
    0.4e-3 F/s, inside [0.34e-3, 0.46e-3]."""
    low, _ = lowfreq_run
    high, _ = highfreq_run
    for result, c_eh in ((low, 100e-6), (high, 25e-9)):
        ratio = c_eh / result.eh.t_ceh
        assert 0.34e-3 <= ratio <= 0.46e-3


def test_c09_acquisition_fraction_tradeoff(lowfreq_scenario):
    """Sweeping alpha from 0.05 to 0.5: ENOB stays above n - 0.5 and the
    charge time never decreases (longer acquisition = slower harvesting)."""
    import dataclasses

    base = dataclasses.replace(
        lowfreq_scenario,
        clock=dataclasses.replace(lowfreq_scenario.clock, n_periods=6144),
        n_sub=32,
    )
    values = [k / 20.0 for k in range(1, 11)]  # 0.05 .. 0.50
    rows = sweep(base, "alpha", values, spectral=True, eh=True)
    assert [r.value for r in rows] == values
    for row in rows:
        assert row.error is None, f"alpha={row.value}: {row.error}"
        assert row.result.enob >= 8.0 - 0.5
    t_cehs = [row.result.eh.t_ceh for row in rows]
    assert all(a <= b for a, b in zip(t_cehs, t_cehs[1:]))


def test_c10_boost_converter_energy_balance():
    """boost_charge_time is exactly inverse-proportional to efficiency and
    average power, and self-consistently reproduces the 16.58 s / 64.98%
    hardware figure from its back-solved source power."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        c = 10.0 ** float(rng.uniform(-7.0, -4.0))
        v = float(rng.uniform(1.0, 10.0))
        eta = float(rng.uniform(0.1, 0.33))
        p = 10.0 ** float(rng.uniform(-7.0, -3.0))
        t = boost_charge_time(p, eta, c, v)
        # Power-of-two factors commute with rounding: equality is exact.
        assert boost_charge_time(2.0 * p, eta, c, v) == t / 2.0
        assert boost_charge_time(p / 4.0, eta, c, v) == 4.0 * t
        assert boost_charge_time(p, eta / 2.0, c, v) == 2.0 * t
        # Arbitrary factors within round-off.
        assert boost_charge_time(3.0 * p, eta, c, v) == pytest.approx(t / 3.0, rel=1e-12)
        assert boost_charge_time(p, 3.0 * eta, c, v) == pytest.approx(t / 3.0, rel=1e-12)

    e_load = 0.5 * 10e-6 * 5.0**2
    p_back = e_load / (0.6498 * 16.58)
    assert boost_charge_time(p_back, 0.6498, 10e-6, 5.0) == pytest.approx(16.58, rel=1e-9)


def random_scenario(rng):
    """One validated scenario drawn from the documented parameter ranges."""
    f_s = 10.0 ** float(rng.uniform(3.0, 8.0))
    alpha = float(rng.uniform(0.05, 0.9))
    n_periods = int(rng.integers(2, 7))
    n_sub = int(rng.integers(1, 9))
    n_bits = int(rng.integers(1, 13))
    v_ref = float(rng.uniform(0.1, 2.0))
    clock = ClockPlan(f_s=f_s, alpha=alpha, n_periods=n_periods)

    source = SineSource(
        amplitude=v_ref * float(rng.uniform(0.2, 1.2)),
        frequency=f_s * float(rng.uniform(0.01, 0.49)),
        phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        dc_offset=v_ref * float(rng.uniform(-0.1, 0.1)),
    )

    c_unit = 10.0 ** float(rng.uniform(-15.0, -9.0))
    c_load = float(1 << (n_bits - 1)) * c_unit
    k = (n_bits + 1) * math.log(2.0)
    s1_kind = rng.integers(0, 3)
    if s1_kind == 0:
        s1 = "auto"
    elif s1_kind == 1:
        s1 = Switch.ideal()
    else:
        s1 = Switch.constant(
            required_r_on(clock.t_aq, c_load, k) * float(rng.uniform(0.1, 0.9))
        )
    adc = AdcConfig(n_bits=n_bits, v_ref=v_ref, c_unit=c_unit, s1=s1)

    s2_kind = rng.integers(0, 3)
    if s2_kind == 0:
        s2 = Switch.ideal()
    elif s2_kind == 1:
        s2 = Switch.constant(10.0 ** float(rng.uniform(-1.0, 3.0)))
    else:
        s2 = Switch.pass_transistor(
            k_gain=10.0 ** float(rng.uniform(-4.0, -1.0)),
            v_th=float(rng.uniform(0.1, 0.6)),
            v_gate=float(rng.uniform(3.0, 6.0)),
        )
    eh = EhConfig(
        c_eh=10.0 ** float(rng.uniform(-9.0, -4.0)),
        rectifier=RectifierModel(
            v_drop=v_ref * float(rng.uniform(0.0, 0.3)),
            r_series=10.0 ** float(rng.uniform(0.0, 4.0)),
        ),
        s2=s2,
    )
    return Scenario(source=source, clock=clock, adc=adc, eh=eh, n_sub=n_sub)


def check_phase_isolation(trace):
    # A new period starts wherever the phase steps from harvest to acquisition.
    phase = trace.phase
    same_period = ~((phase[:-1] == Phase.ENERGY_HARVEST) & (phase[1:] == Phase.ACQUISITION))
    same_phase = phase[1:] == phase[:-1]
    acq_pairs = same_period & same_phase & (phase[1:] == Phase.ACQUISITION)
    eh_pairs = same_period & same_phase & (phase[1:] == Phase.ENERGY_HARVEST)
    assert np.array_equal(trace.v_ceh[1:][acq_pairs], trace.v_ceh[:-1][acq_pairs])
    assert np.array_equal(trace.v_dac[1:][eh_pairs], trace.v_dac[:-1][eh_pairs])
    cross = ~same_period & (phase[1:] == Phase.ACQUISITION)
    assert np.array_equal(trace.v_ceh[1:][cross], trace.v_ceh[:-1][cross])


def test_c11_randomized_phase_isolation_and_determinism():
    """10**4 randomized scenarios: repeat runs are bit-identical and the
    phases never touch each other's state."""
    rng = np.random.default_rng(20260815)
    for _ in range(10_000):
        scenario = random_scenario(rng)
        a = run(scenario, spectral=False, eh=False)
        b = run(scenario, spectral=False, eh=False)
        assert np.array_equal(a.trace.v_dac, b.trace.v_dac)
        assert np.array_equal(a.trace.v_ceh, b.trace.v_ceh)
        assert np.array_equal(a.trace.v_sampled, b.trace.v_sampled)
        assert np.array_equal(a.trace.codes, b.trace.codes)
        check_phase_isolation(a.trace)
