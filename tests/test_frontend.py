"""Tests for switch models and the exact RC step.

The RC step is the numerical core of the whole simulator, so it gets four
independent checks: closed-form constant-drive results, a brute-force
forward-Euler reference, self-consistency under interval splitting, and a
60-digit decimal evaluation of the exact step.
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from ehadc import engine, frontend
from ehadc.config import build_scenario, load_config
from ehadc.frontend import (
    IDEAL_R_FLOOR,
    Switch,
    default_settling_factor,
    r_on,
    rc_step_terms,
    rc_step_value,
    required_r_on,
)

from oracles import euler_reference, settling_error


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

    def test_pass_transistor_whose_conductance_underflows_is_open(self):
        """k_gain*overdrive rounding to 0 is an open switch, as 1/(+0) is in
        the engine's tables, not a ZeroDivisionError."""
        sw = Switch.pass_transistor(k_gain=5e-324, v_th=0.4, v_gate=0.9)
        assert r_on(sw, v_signal=0.2) == math.inf  # overdrive 0.3
        assert r_on(sw, v_signal=0.0) == math.inf  # overdrive 0.5, a tie that rounds to 0

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["r_on", "k_gain", "v_th", "v_gate"])
    def test_non_finite_fields_are_rejected_by_name(self, field, value):
        pass_fields = {"k_gain": 1e-3, "v_th": 0.4, "v_gate": 1.0}
        with pytest.raises(ValueError, match=f"{field}.*got {value}$"):
            if field == "r_on":
                Switch.constant(value)
            else:
                Switch.pass_transistor(**{**pass_fields, field: value})


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


# (v_start, u_start, u_end): a slow ramp, a drive of the other sign than the
# node on a rising and on a falling ramp, a constant drive, and a large node.
_DECIMAL_POINTS = [
    (0.1, 0.2, 0.2000001),
    (-0.3, 0.25, 0.4),
    (0.35, -0.2, -0.38),
    (0.0, 0.3, 0.3),
    (1.7, 0.9, 1.3),
]


class TestRcStepAgainstDecimal:
    """rc_step_value against the exact step u1 - s*tau + (v0 - u0 + s*tau)*exp(-x),
    s*tau = (u1 - u0)/x, evaluated with 60 decimal digits. r = c = 1 and
    dt = 1/ratio, so x = dt holds the float's value exactly."""

    @pytest.mark.parametrize("ratio", [1e-2, 1.0, 1e3, 1e5, 1e7, 1e9, 1e12])
    def test_step_is_within_two_ulp_at_every_tau_over_h(self, ratio):
        dt = 1.0 / ratio
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(dt)
            decay = (-x).exp()
            for v0, u0, u1 in _DECIMAL_POINTS:
                stau = (Decimal(u1) - Decimal(u0)) / x
                exact = Decimal(u1) - stau + (Decimal(v0) - Decimal(u0) + stau) * decay
                got = rc_step_value(v0, u0, u1, r=1.0, c=1.0, dt=dt)
                ulp = Decimal(math.ulp(max(abs(v0), abs(u0), abs(u1))))
                assert abs(Decimal(got) - exact) <= 2 * ulp, (v0, u0, u1)

    @pytest.mark.parametrize("ratio", [1e-2, 1.0, 1e3, 1e5, 1e7, 1e9, 1e12])
    def test_psi_is_within_1e_14_relative(self, ratio):
        dt = 1.0 / ratio
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(dt)
            exact = 1 - (1 - (-x).exp()) / x
            psi = rc_step_terms(dt)[2]
            assert abs(Decimal(psi) - exact) <= Decimal("1e-14") * exact


# Arrays of step arguments on one side of the psi series threshold (0.125)
# or on both, 64 elements each: x = 0, the smallest subnormal and the
# largest float below 0.125; 0.125 itself, the float above it, 746 (where
# exp(-x) flushes to zero) and inf; and a mix of the two in no order.
_BELOW = np.concatenate(([0.0, 5e-324, np.nextafter(0.125, 0.0)], np.logspace(-20.0, math.log10(0.124), 61)))
_AT_OR_ABOVE = np.concatenate(([0.125, np.nextafter(0.125, 1.0), 746.0, math.inf], np.linspace(0.125, 746.0, 60)))
_SIDED_ARGUMENTS = {
    "all-below": _BELOW,
    "all-at-or-above": _AT_OR_ABOVE,
    "mixed": np.random.default_rng(7).permutation(np.concatenate((_BELOW[::2], _AT_OR_ABOVE[::2]))),
}


def layouts_of(x):
    """x (a multiple of 16 elements) as a C-order and a Fortran-order
    (-1, 16) array and as a strided 1-D view."""
    c_order = x.reshape(-1, 16)
    buffer = np.zeros(2 * x.size)
    buffer[::2] = x
    layouts = {"C": c_order, "F": np.asfortranarray(c_order), "strided": buffer[::2]}
    assert layouts["F"].flags.f_contiguous and not layouts["strided"].flags.c_contiguous
    return layouts


@pytest.fixture(scope="module")
def pass_bench_arguments(repo_root):
    """The step arguments x = h/tau of every S1 and S2 table that engine.run
    builds for bench/configs/lowfreq_pass.cfg: S1 on every acquisition
    sub-step, S2 on every harvest sub-step of the periods whose storage
    voltage may rise (engine.live_periods), which include every period
    where it does."""
    scenario, _ = build_scenario(load_config(repo_root / "bench/configs/lowfreq_pass.cfg"))
    seen = {"S1": [], "S2": []}
    branch = ["S1"]
    real_terms, real_solve = engine.rc_step_terms, engine._harvest_rows

    def terms(x, *out):
        seen[branch[0]].append(np.array(x, dtype=float).ravel())
        return real_terms(x, *out)

    def solve(*args):
        branch[0] = "S2"
        try:
            return real_solve(*args)
        finally:
            branch[0] = "S1"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "rc_step_terms", terms)
        patch.setattr(engine, "_harvest_rows", solve)
        trace = engine.run(scenario, spectral=False, eh=False).trace
    s1, s2 = (np.concatenate(seen[k]) for k in ("S1", "S2"))
    nper, nsub = scenario.clock.n_periods, scenario.n_sub
    assert s1.size == nper * nsub
    rising = np.count_nonzero(trace.ceh_eh[:, -1] > np.concatenate(([0.0], trace.ceh_eh[:-1, -1])))
    assert s2.size % nsub == 0 and 0 < rising <= s2.size // nsub <= nper
    return np.concatenate((s1, s2))


@pytest.fixture(scope="module")
def pass_bench_drives(repo_root):
    """{switch: drives} for both pass transistors of
    bench/configs/lowfreq_pass.cfg: every drive at which engine.run's S1 and
    S2 tables take their r_on, the start of each tabled sub-step."""
    scenario, _ = build_scenario(load_config(repo_root / "bench/configs/lowfreq_pass.cfg"))
    seen = {}
    real = engine.r_on

    def spy(model, v_signal=0.0, out=None):
        if isinstance(v_signal, np.ndarray):
            seen.setdefault(model, []).append(np.ravel(v_signal).copy())
        return real(model, v_signal, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "r_on", spy)
        engine.run(scenario, spectral=False, eh=False)
    assert set(seen) == {scenario.adc.s1, scenario.eh.s2}
    return {model: np.concatenate(drives) for model, drives in seen.items()}


class TestROnForms:
    def test_array_bits_equal_the_float_bits_in_every_layout(self, pass_bench_drives):
        """The engine's tables take r_on of whole arrays of drives, and the
        one-step walk of one float at a time; each element has the float
        form's bits, written into a given out too, in C-order, Fortran-order
        and strided arrays. Checked at the S1 and S2 drives of the
        pass-transistor bench config, across and at the edges of each
        switch's cut-off band |v_gate - v| <= v_th, and for a k_gain of
        1e-309, whose subnormal conductance gives inf."""
        switches = dict(pass_bench_drives)
        tiny = Switch.pass_transistor(k_gain=1e-309, v_th=0.4, v_gate=0.9)
        switches[tiny] = np.linspace(-1.0, 1.0, 161)
        for sw, drives in switches.items():
            edges = (sw.v_gate - sw.v_th, sw.v_gate + sw.v_th)
            x = np.concatenate((drives, np.linspace(*edges, 161), np.nextafter(edges, 0.0), edges,
                                np.nextafter(edges, sw.v_gate), [sw.v_gate, 0.0, -0.0]))
            x = np.concatenate((x, np.zeros(-x.size % 16)))
            want = np.array([r_on(sw, v) for v in x.tolist()])
            inf = np.isinf(want)
            assert inf.all() if sw is tiny else 0 < np.count_nonzero(inf) < inf.size
            for name, arr in layouts_of(x).items():
                for out in (None, np.full_like(arr, np.nan)):
                    with np.errstate(divide="raise", invalid="raise", over="raise"):
                        got = r_on(sw, arr, out)
                    assert out is None or got is out
                    bits = np.ravel(got).view(np.uint64)
                    assert np.array_equal(bits, want.view(np.uint64)), (name, x[np.ravel(got) != want][:5])

    def test_a_constant_switch_returns_its_resistance_for_an_array(self):
        sw = Switch.constant(6.51)
        for arr in layouts_of(np.linspace(-1.0, 1.0, 32)).values():
            out = np.full_like(arr, np.nan)
            assert r_on(sw, arr) == r_on(sw, arr, out) == 6.51
            assert np.isnan(out).all()


class TestRcStepTerms:
    def test_an_open_branch_holds(self):
        assert rc_step_terms(0.0) == (1.0, 0.0, 0.0)
        assert rc_step_value(-0.25, 0.3, 0.4, r=math.inf, c=1e-6, dt=1e-3) == -0.25

    def test_array_bits_equal_the_float_bits_in_every_layout(self, pass_bench_arguments):
        """The engine's tables take the terms of whole arrays, and the one-step
        walk the terms of one float at a time; bit identity between the two
        needs numpy's exp and expm1 to give the same bits in either. Checked
        densely over x in [0, 746], where exp(-x) goes subnormal (above 708)
        and flushes to zero (above 745.13), around the series threshold, at
        x = 0, and at the S1 and S2 arguments of the pass-transistor bench
        config, on C-order, Fortran-order and strided arrays."""
        x = np.concatenate(
            (
                np.linspace(0.0, 746.0, 100_001),
                np.linspace(0.0, 0.25, 4_001),
                np.logspace(-20.0, 0.0, 2_001),
                [0.0, 5e-324, 1e300, math.inf],
                pass_bench_arguments,
            )
        )
        x = np.concatenate((x, np.zeros(-x.size % 16)))
        one_at_a_time = np.array([rc_step_terms(v) for v in x.tolist()])
        want = one_at_a_time.view(np.uint64).T
        for name, arr in layouts_of(x).items():
            for k, term in enumerate(rc_step_terms(arr)):
                got = np.ravel(term).view(np.uint64)
                assert np.array_equal(got, want[k]), (name, "agq"[k], x[got != want[k]][:5])

    @pytest.mark.parametrize("side", list(_SIDED_ARGUMENTS))
    def test_one_sided_and_mixed_arrays_take_the_float_bits(self, side):
        """An array all below the series threshold runs only the series, one
        all at or above it only 1 - g/x, and a mixed array both; each keeps
        the bits of the float path in every layout, also written into given
        out arrays, and no form divides 0/0 or overflows."""
        x = _SIDED_ARGUMENTS[side]
        n_below = np.count_nonzero(x < 0.125)
        assert {"all-below": n_below == x.size, "all-at-or-above": n_below == 0, "mixed": 0 < n_below < x.size}[side]
        want = np.array([rc_step_terms(v) for v in x.tolist()]).view(np.uint64).T
        for name, arr in layouts_of(x).items():
            for out in (None, tuple(np.full_like(arr, np.nan) for _ in "agq")):
                with np.errstate(divide="raise", invalid="raise", over="raise"):
                    terms = rc_step_terms(arr, out)
                assert out is None or all(t is o for t, o in zip(terms, out))
                for k, term in enumerate(terms):
                    got = np.ravel(term).view(np.uint64)
                    assert np.array_equal(got, want[k]), (side, name, "agq"[k], x[got != want[k]][:5])

    @pytest.mark.parametrize("side, series_runs", [("all-below", 1), ("all-at-or-above", 0), ("mixed", 1)])
    def test_the_series_runs_only_where_some_element_needs_it(self, side, series_runs, monkeypatch):
        calls = []
        real = frontend._psi_series
        monkeypatch.setattr(frontend, "_psi_series", lambda x, *out: calls.append(x.size) or real(x, *out))
        rc_step_terms(_SIDED_ARGUMENTS[side])
        assert len(calls) == series_runs


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
