"""Tests for the harvesting branch: rectifier, ratchet charging, metrics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from ehadc.errors import NotConverged
from ehadc.frontend import Switch
from ehadc.harvester import (
    EhConfig,
    RectifierModel,
    boost_charge_time,
    eh_step,
    harvested_energy,
    rectified_envelope,
    size_capacitor,
    steady_state_metrics,
)

RECT = RectifierModel(v_drop=0.09284, r_series=73.8)
P_IN = 27.7e-6


def eh_config(c_eh=100e-6, rect=RECT, s2=None):
    return EhConfig(c_eh=c_eh, rectifier=rect, s2=s2 or Switch.constant(1.0))


def ramp_then_flat_trace(v_eh, t_ceh, period_s, tol=0.01, extra_periods=20):
    """Trace whose interpolated (1 - tol) crossing lands exactly on t_ceh."""
    ramp_end = t_ceh / (1.0 - tol)
    t = np.arange(0.0, ramp_end + extra_periods * period_s, period_s / 10.0)
    v = np.minimum(t / ramp_end, 1.0) * v_eh
    return SimpleNamespace(t=t, v_ceh=v, period_s=period_s)


class TestRectifiedEnvelope:
    def test_conduction_drop(self):
        assert rectified_envelope(0.4, RECT) == pytest.approx(0.30716, abs=1e-12)
        assert rectified_envelope(-0.4, RECT) == pytest.approx(0.30716, abs=1e-12)

    def test_dead_zone(self):
        assert rectified_envelope(0.0, RECT) == 0.0
        assert rectified_envelope(0.09, RECT) == 0.0
        assert rectified_envelope(-0.05, RECT) == 0.0

    def test_zero_drop_is_absolute_value(self):
        rect = RectifierModel(v_drop=0.0, r_series=1.0)
        assert rectified_envelope(-0.3, rect) == 0.3

    def test_array_input(self):
        out = rectified_envelope(np.array([-0.4, 0.0, 0.2]), RECT)
        assert out.shape == (3,)
        assert out[1] == 0.0 and out[2] == pytest.approx(0.2 - 0.09284, abs=1e-12)

    def test_rectifier_validation(self):
        with pytest.raises(ValueError):
            RectifierModel(v_drop=-0.1, r_series=1.0)
        with pytest.raises(ValueError):
            RectifierModel(v_drop=0.1, r_series=0.0)

    @pytest.mark.parametrize(
        "v_drop, r_series, message",
        [
            (math.nan, 1.0, "v_drop must be finite and >= 0, got nan"),
            (math.inf, 1.0, "v_drop must be finite and >= 0, got inf"),
            (-0.1, 1.0, "v_drop must be finite and >= 0, got -0.1"),
            (0.1, math.inf, "r_series must be positive and finite, got inf"),
            (0.1, math.nan, "r_series must be positive and finite, got nan"),
            (0.1, 0.0, "r_series must be positive and finite, got 0.0"),
        ],
    )
    def test_rectifier_rejects_each_bad_value_by_name(self, v_drop, r_series, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RectifierModel(v_drop=v_drop, r_series=r_series)


class TestEhStep:
    def test_charges_toward_a_constant_envelope(self):
        # With S2 ideal the branch resistance is essentially r_series; one
        # time constant of charging from zero reaches (1 - 1/e) of the drive.
        rect = RectifierModel(v_drop=0.0, r_series=50.0)
        cfg = eh_config(c_eh=1e-6, rect=rect, s2=Switch.ideal())
        r_tot = 50.0 + 1e-6
        dt = r_tot * 1e-6
        assert eh_step(0.0, 0.3, 0.3, cfg, dt) == 0.3 + (-0.3) * math.exp(-1.0)

    def test_blocks_when_the_envelope_is_below_the_stored_voltage(self):
        cfg = eh_config()
        assert eh_step(0.25, 0.1, 0.12, cfg, dt=1e-3) == 0.25

    def test_holds_when_s2_is_cut_off(self):
        s2 = Switch.pass_transistor(k_gain=1e-3, v_th=0.5, v_gate=0.4)
        cfg = eh_config(s2=s2)
        assert eh_step(0.1, 0.4, 0.4, cfg, dt=1e-3) == 0.1

    def test_never_decreases_and_never_overshoots(self):
        rng = np.random.default_rng(51)
        cfg = eh_config(c_eh=1e-6)
        v = 0.0
        peak = 0.0
        for _ in range(500):
            a = float(rng.uniform(0.0, 0.5))
            b = float(rng.uniform(0.0, 0.5))
            peak = max(peak, rectified_envelope(a, RECT), rectified_envelope(b, RECT))
            new = eh_step(v, a, b, cfg, dt=float(rng.uniform(1e-6, 1e-3)))
            assert new >= v
            assert new <= peak + 1e-15
            v = new

    def test_charging_approaches_the_envelope_peak(self):
        cfg = eh_config(c_eh=1e-9)
        v = 0.0
        for _ in range(200):
            v = eh_step(v, 0.4, 0.4, cfg, dt=1e-4)
        assert v == pytest.approx(0.30716, rel=1e-9)


class TestSteadyStateMetrics:
    def test_interpolated_crossing_and_efficiencies(self):
        trace = ramp_then_flat_trace(v_eh=0.30716, t_ceh=0.22491, period_s=1e-4)
        m = steady_state_metrics(trace, P_IN, eh_config(), v_m=0.4)
        assert m.v_eh == pytest.approx(0.30716, rel=1e-12)
        assert m.t_ceh == pytest.approx(0.22491, rel=1e-9)
        assert m.eta_v == pytest.approx(0.30716 / 0.4, rel=1e-12)
        assert m.e_h == pytest.approx(0.5 * 100e-6 * 0.30716**2, rel=1e-12)
        assert m.eta_e == pytest.approx(m.e_h / (27.7e-6 * m.t_ceh), rel=1e-12)

    def test_short_trace_is_not_converged(self):
        trace = SimpleNamespace(
            t=np.array([0.0, 1e-4]), v_ceh=np.array([0.1, 0.1]), period_s=1e-4
        )
        with pytest.raises(NotConverged):
            steady_state_metrics(trace, P_IN, eh_config(), v_m=0.4)

    def test_still_moving_trace_is_not_converged(self):
        t = np.arange(0.0, 100e-4, 1e-5)
        v = 0.3 * t / t[-1]  # still ramping at the end
        trace = SimpleNamespace(t=t, v_ceh=v, period_s=1e-4)
        with pytest.raises(NotConverged):
            steady_state_metrics(trace, P_IN, eh_config(), v_m=0.4)

    def test_unity_charge_is_not_converged(self):
        t = np.arange(0.0, 100e-4, 1e-5)
        trace = SimpleNamespace(t=t, v_ceh=np.zeros_like(t), period_s=1e-4)
        with pytest.raises(NotConverged):
            steady_state_metrics(trace, P_IN, eh_config(), v_m=0.4)

    def test_instant_charge_reports_the_first_timestamp(self):
        # Engine traces start after the first substep, so t[0] > 0; a cap
        # already at its final voltage pins t_ceh to that first sample.
        # Storing 4.5 uJ in 10 us takes at least 0.45 W: at 1 W eta_e = 0.45.
        t = np.arange(1e-5, 200e-4, 1e-5)
        trace = SimpleNamespace(t=t, v_ceh=np.full_like(t, 0.3), period_s=1e-4)
        m = steady_state_metrics(trace, 1.0, eh_config(), v_m=0.4)
        assert m.t_ceh == 1e-5
        assert math.isfinite(m.eta_e)

    def test_efficiency_above_one_is_not_converged(self):
        # The instant charge above at 27.7 uW would give eta_e = 16245.
        t = np.arange(1e-5, 200e-4, 1e-5)
        trace = SimpleNamespace(t=t, v_ceh=np.full_like(t, 0.3), period_s=1e-4)
        with pytest.raises(NotConverged, match="eta_e = 16245.* above its limit of 1"):
            steady_state_metrics(trace, P_IN, eh_config(), v_m=0.4)
        # A final voltage above the peak input magnitude: eta_v = 1.5.
        with pytest.raises(NotConverged, match="eta_v = 1.5 is above its limit of 1"):
            steady_state_metrics(trace, 1.0, eh_config(), v_m=0.2)

    def test_charge_before_the_record_starts_is_rejected(self):
        t = np.arange(0.0, 200e-4, 1e-5)
        trace = SimpleNamespace(t=t, v_ceh=np.full_like(t, 0.3), period_s=1e-4)
        with pytest.raises(NotConverged):
            steady_state_metrics(trace, P_IN, eh_config(), v_m=0.4)

    def test_validates_inputs(self):
        trace = ramp_then_flat_trace(0.3, 0.2, 1e-4)
        with pytest.raises(ValueError, match="p_in must be positive"):
            steady_state_metrics(trace, 0.0, eh_config(), v_m=0.4)
        with pytest.raises(ValueError):
            steady_state_metrics(trace, P_IN, eh_config(), v_m=0.0)
        with pytest.raises(ValueError):
            steady_state_metrics(trace, P_IN, eh_config(), v_m=0.4, tol=1.5)


class TestEnergyHelpers:
    def test_harvested_energy_reference_points(self):
        assert harvested_energy(0.30716, 100e-6) == pytest.approx(4.717e-6, rel=1e-3)
        assert harvested_energy(0.304, 25e-9) == pytest.approx(1.155e-9, rel=1e-3)
        assert harvested_energy(0.0, 100e-6) == 0.0

    def test_harvested_energy_validation(self):
        with pytest.raises(ValueError):
            harvested_energy(-0.1, 100e-6)

    def test_size_capacitor_examples(self):
        assert size_capacitor(1e-3, 1e-4, 1e-3) == 1e-4
        assert size_capacitor(5e-6, 5e-3, 1e-3) == 25e-6
        assert size_capacitor(0.0, 1e-3, 1e-3) == 0.0

    def test_size_capacitor_validation(self):
        with pytest.raises(ValueError):
            size_capacitor(1e-3, 1e-4, 0.0)
        with pytest.raises(ValueError):
            size_capacitor(1e-3, 0.0, 1e-3)
        with pytest.raises(ValueError):
            size_capacitor(-1e-3, 1e-4, 1e-3)

    def test_boost_charge_time_energy_balance(self):
        # 10 uF to 5 V needs 125 uJ; at unit efficiency and 125 uW it takes 1 s.
        assert 0.5 * 10e-6 * 5.0**2 == 1.25e-4
        assert boost_charge_time(1.25e-4, 1.0, 10e-6, 5.0) == 1.0

    def test_boost_charge_time_validation(self):
        with pytest.raises(ValueError):
            boost_charge_time(0.0, 0.65, 10e-6, 5.0)
        with pytest.raises(ValueError):
            boost_charge_time(1e-6, 1.0001, 10e-6, 5.0)
        with pytest.raises(ValueError):
            boost_charge_time(1e-6, 0.0, 10e-6, 5.0)


class TestConfigValidation:
    def test_eh_config_rejects_bad_capacitance(self):
        with pytest.raises(ValueError):
            EhConfig(c_eh=0.0, rectifier=RECT, s2=Switch.ideal())

    @pytest.mark.parametrize("c_eh", [math.inf, math.nan, 0.0, -1e-6])
    def test_storage_cap_must_be_positive_and_finite(self, c_eh):
        with pytest.raises(ValueError, match=f"^c_eh must be positive and finite, got {c_eh}$"):
            eh_config(c_eh=c_eh)
