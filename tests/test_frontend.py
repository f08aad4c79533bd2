"""Tests for switch models and the exact RC step.

The RC step is the numerical core of the whole simulator, so it gets three
independent checks: closed-form constant-drive results, a brute-force
forward-Euler reference, and self-consistency under interval splitting.
"""

import math

import numpy as np
import pytest

from ehadc.frontend import (
    IDEAL_R_FLOOR,
    Switch,
    default_settling_factor,
    r_on,
    rc_step_value,
    required_r_on,
    settling_error,
)


def euler_reference(v_start, u_start, u_end, r, c, dt, n_steps=1_000_000):
    """Left-endpoint forward-Euler integration of C dv/dt = (u(t) - v)/R."""
    h = dt / n_steps
    tau = r * c
    slope = (u_end - u_start) / dt
    v = v_start
    t = 0.0
    for k in range(n_steps):
        u = u_start + slope * (k * h)
        v += h * (u - v) / tau
    return v


class TestSwitchModels:
    def test_ideal_switch_uses_the_resistance_floor(self):
        assert r_on(Switch.ideal()) == IDEAL_R_FLOOR
        assert r_on(Switch.ideal(), v_signal=0.3) == IDEAL_R_FLOOR

    def test_constant_switch_ignores_the_signal(self):
        sw = Switch.constant(6.51)
        assert r_on(sw) == 6.51
        assert r_on(sw, v_signal=-0.2) == 6.51

    def test_pass_transistor_overdrive(self):
        sw = Switch.pass_transistor(k_gain=1e-3, v_th=0.4, v_gate=0.0)
        assert r_on(sw, v_signal=1.2) == pytest.approx(1250.0, rel=1e-12)

    def test_pass_transistor_cuts_off_at_the_threshold(self):
        sw = Switch.pass_transistor(k_gain=1e-3, v_th=0.4, v_gate=0.0)
        assert r_on(sw, v_signal=0.4) == math.inf
        assert r_on(sw, v_signal=0.1) == math.inf

    def test_pass_transistor_resistance_falls_with_overdrive(self):
        sw = Switch.pass_transistor(k_gain=5e-4, v_th=0.3, v_gate=3.3)
        values = [r_on(sw, v_signal=v) for v in (2.5, 2.0, 1.0, 0.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_switch_validation(self):
        with pytest.raises(ValueError):
            Switch.constant(0.0)
        with pytest.raises(ValueError):
            Switch.pass_transistor(k_gain=0.0, v_th=0.4, v_gate=1.0)
        with pytest.raises(ValueError):
            Switch.pass_transistor(k_gain=1e-3, v_th=-0.1, v_gate=1.0)


class TestRcStepClosedForm:
    def test_step_response_after_one_time_constant(self):
        v = rc_step_value(0.0, 1.0, 1.0, r=1.0, c=1.0, dt=1.0)
        assert v == 1.0 + (0.0 - 1.0) * math.exp(-1.0)

    def test_equilibrium_is_a_fixed_point(self):
        assert rc_step_value(0.7, 0.7, 0.7, r=3.0, c=2e-6, dt=1e-3) == 0.7

    def test_ramp_drive_after_one_time_constant(self):
        # u ramps 0 -> 1 over dt = tau; the lag behind the ramp is exactly
        # tau*s*(1 - exp(-1)) which leaves v(dt) = exp(-1).
        v = rc_step_value(0.0, 0.0, 1.0, r=1.0, c=1.0, dt=1.0)
        assert v == math.exp(-1.0)

    def test_matches_independent_constant_drive_expression(self):
        """Constant drive: v = u + (v0 - u)*exp(-dt/tau), built here via expm1."""
        rng = np.random.default_rng(21)
        for ratio in (0.01, 0.1, 1.0, 10.0, 100.0):
            for _ in range(20):
                v0 = float(rng.uniform(-2.0, 2.0))
                u = float(rng.uniform(-2.0, 2.0))
                tau = 10.0 ** float(rng.uniform(-8.0, 2.0))
                dt = tau / ratio
                got = rc_step_value(v0, u, u, r=tau, c=1.0, dt=dt)
                want = v0 + (u - v0) * -math.expm1(-dt / tau)
                scale = max(abs(v0), abs(u), 1e-30)
                assert abs(got - want) <= 1e-12 * scale

    def test_no_overshoot_toward_a_constant_drive(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            v0 = float(rng.uniform(-1.0, 1.0))
            u = float(rng.uniform(-1.0, 1.0))
            dt = 10.0 ** float(rng.uniform(-3.0, 3.0))
            v1 = rc_step_value(v0, u, u, r=1.0, c=1.0, dt=dt)
            assert min(v0, u) <= v1 <= max(v0, u)

    def test_rejects_nonpositive_r_c_or_dt(self):
        with pytest.raises(ValueError):
            rc_step_value(0.0, 0.0, 1.0, r=0.0, c=1.0, dt=1.0)
        with pytest.raises(ValueError):
            rc_step_value(0.0, 0.0, 1.0, r=1.0, c=0.0, dt=1.0)
        with pytest.raises(ValueError):
            rc_step_value(0.0, 0.0, 1.0, r=1.0, c=1.0, dt=0.0)


class TestRcStepAgainstEuler:
    def test_frozen_reference_point(self):
        # Canonical ramp case, frozen so any drift in the reference itself
        # is caught: v0=0, u ramps 0 -> 1 over one time constant.
        ref = euler_reference(0.0, 0.0, 1.0, r=1.0, c=1.0, dt=1.0)
        assert ref == pytest.approx(0.3678792572316538, abs=1e-15)
        exact = rc_step_value(0.0, 0.0, 1.0, r=1.0, c=1.0, dt=1.0)
        assert exact == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("ratio", [0.01, 0.3, 1.0, 7.0, 100.0])
    def test_ramp_drives_across_time_constant_ratios(self, ratio):
        rng = np.random.default_rng(int(ratio * 1000) + 5)
        v0 = float(rng.uniform(0.5, 1.5))
        u0 = float(rng.uniform(1.0, 2.0))
        u1 = float(rng.uniform(1.0, 2.0))
        tau = 1.0
        dt = tau / ratio
        ref = euler_reference(v0, u0, u1, r=tau, c=1.0, dt=dt)
        got = rc_step_value(v0, u0, u1, r=tau, c=1.0, dt=dt)
        assert got == pytest.approx(ref, rel=1e-6)


class TestRcStepComposition:
    def test_two_half_steps_equal_one_full_step(self):
        """Splitting the interval anywhere must not change the endpoint."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            v0 = float(rng.uniform(-2.0, 2.0))
            u0 = float(rng.uniform(-2.0, 2.0))
            u1 = float(rng.uniform(-2.0, 2.0))
            ratio = 10.0 ** float(rng.uniform(-2.0, 2.0))
            dt = 1.0
            tau = ratio * dt
            frac = float(rng.uniform(0.1, 0.9))
            t_mid = frac * dt
            u_mid = u0 + (u1 - u0) * (t_mid / dt)
            direct = rc_step_value(v0, u0, u1, r=tau, c=1.0, dt=dt)
            v_mid = rc_step_value(v0, u0, u_mid, r=tau, c=1.0, dt=t_mid)
            split = rc_step_value(v_mid, u_mid, u1, r=tau, c=1.0, dt=dt - t_mid)
            scale = max(abs(v0), abs(u0), abs(u1), abs(direct), 1e-30)
            assert abs(split - direct) <= 1e-12 * scale


class TestSettlingHelpers:
    def test_settling_error_after_one_time_constant(self):
        assert settling_error(1.0, 1.0, 1.0) == math.exp(-1.0)

    def test_settling_error_reaches_half_lsb_at_the_default_factor(self):
        # Nine time constants of ln 2 each leave 2**-9 of the initial error.
        t = 9.0 * math.log(2.0)
        assert settling_error(1.0, 1.0, t) == pytest.approx(2.0**-9, rel=1e-12)

    def test_settling_error_is_a_fraction(self):
        # tau is 1e-5 here; keep t/tau inside the representable range.
        for t in (1e-7, 1e-6, 1e-5, 5e-4):
            assert 0.0 < settling_error(10.0, 1e-6, t) <= 1.0
        # Hundreds of time constants underflow cleanly to zero.
        assert settling_error(10.0, 1e-6, 1.0) == 0.0

    def test_default_settling_factor(self):
        assert default_settling_factor(8) == 9.0 * math.log(2.0)

    def test_required_r_on_reference_values(self):
        k8 = default_settling_factor(8)
        assert required_r_on(1e-5, 1.536e-6, k8) == pytest.approx(1.0436, rel=1e-3)
        assert required_r_on(2.5e-9, 1.92e-12, k8) == pytest.approx(208.72, rel=1e-3)

    def test_required_r_on_inverts_the_settling_rule(self):
        r = required_r_on(1e-5, 1.536e-6, 9.0 * math.log(2.0))
        assert settling_error(r, 1.536e-6, 1e-5) == pytest.approx(2.0**-9, rel=1e-9)

    def test_settling_validation(self):
        with pytest.raises(ValueError):
            settling_error(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            required_r_on(1e-5, 0.0, 1.0)
