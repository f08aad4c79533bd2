"""Tests for the two-phase clock plan and its sub-step time grid."""

import math

import numpy as np
import pytest

from ehadc.clocking import PHASE_LABELS, ClockPlan, Phase, time_grid

REFERENCE_PLANS = (
    ClockPlan(f_s=10e3, alpha=0.1, n_periods=4),
    ClockPlan(f_s=40e6, alpha=0.1, n_periods=4),
    ClockPlan(f_s=1.0, alpha=0.5, n_periods=4),
)


class TestClockPlan:
    def test_durations_at_10khz(self):
        plan = ClockPlan(f_s=10e3, alpha=0.1, n_periods=8)
        assert plan.t_s == 1e-4
        assert plan.t_aq == pytest.approx(10e-6, rel=1e-12)
        assert plan.t_eh == pytest.approx(90e-6, rel=1e-12)

    def test_durations_at_40mhz(self):
        plan = ClockPlan(f_s=40e6, alpha=0.1, n_periods=8)
        assert plan.t_s == 2.5e-8
        assert plan.t_aq == pytest.approx(2.5e-9, rel=1e-12)

    def test_phase_split_is_exact_for_reference_plans(self):
        for plan in REFERENCE_PLANS:
            assert plan.t_aq + plan.t_eh == plan.t_s

    def test_phase_split_within_an_ulp_for_random_plans(self):
        # t_eh is defined by subtraction, so the recomposition can miss t_s by
        # at most half an ulp when the rounding of alpha * t_s falls on a tie.
        rng = np.random.default_rng(3)
        for _ in range(500):
            plan = ClockPlan(
                f_s=10.0 ** rng.uniform(2.0, 8.0),
                alpha=float(rng.uniform(0.01, 0.99)),
                n_periods=1,
            )
            err = abs((plan.t_aq + plan.t_eh) - plan.t_s)
            assert err <= math.ulp(plan.t_s)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ClockPlan(f_s=0.0, alpha=0.1, n_periods=1)
        with pytest.raises(ValueError):
            ClockPlan(f_s=1e3, alpha=0.0, n_periods=1)
        with pytest.raises(ValueError):
            ClockPlan(f_s=1e3, alpha=1.0, n_periods=1)
        with pytest.raises(ValueError):
            ClockPlan(f_s=1e3, alpha=0.5, n_periods=0)


class TestTimeGrid:
    def test_first_period_at_10khz(self):
        aq, eh = time_grid(ClockPlan(f_s=10e3, alpha=0.1, n_periods=2), 4)
        assert aq.shape == eh.shape == (2, 5)
        assert (aq[0, 0], aq[0, -1]) == (0.0, 1e-5)
        assert (eh[0, 0], eh[0, -1]) == (1e-5, 1e-4)

    def test_first_acquisition_at_40mhz(self):
        aq, _ = time_grid(ClockPlan(f_s=40e6, alpha=0.1, n_periods=1), 4)
        assert aq[0, -1] == pytest.approx(2.5e-9, rel=1e-12)

    def test_even_split_at_alpha_half(self):
        aq, eh = time_grid(ClockPlan(f_s=1.0, alpha=0.5, n_periods=1), 3)
        assert aq[0, -1] == 0.5
        assert eh[0, -1] == 1.0

    def test_phase_boundary_is_shared(self):
        """Acquisition ends exactly where harvesting of the same period starts."""
        plan = ClockPlan(f_s=10e3, alpha=0.1, n_periods=4)
        aq, eh = time_grid(plan, 7)
        assert np.array_equal(aq[:, -1], eh[:, 0])
        assert eh[0, 0] == 1e-5

    def test_period_boundary_starts_the_next_acquisition(self):
        plan = ClockPlan(f_s=10e3, alpha=0.1, n_periods=2)
        aq, eh = time_grid(plan, 7)
        assert eh[0, -1] == aq[1, 0] == 1e-4

    def test_grid_tiles_without_gaps(self):
        """Consecutive phases share endpoints and cover [0, n_periods / f_s]."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            plan = ClockPlan(
                f_s=10.0 ** rng.uniform(2.0, 8.0),
                alpha=float(rng.uniform(0.05, 0.95)),
                n_periods=int(rng.integers(1, 9)),
            )
            aq, eh = time_grid(plan, int(rng.integers(1, 9)))
            assert aq[0, 0] == 0.0
            assert np.array_equal(aq[:, -1], eh[:, 0])
            assert np.array_equal(eh[:-1, -1], aq[1:, 0])
            total = plan.n_periods / plan.f_s
            assert eh[-1, -1] == pytest.approx(total, rel=1e-12)

    def test_substep_endpoints_stay_inside_their_phase(self):
        """Every sub-step has positive width and lies between its phase's
        closed-form boundaries."""
        plan = ClockPlan(f_s=40e6, alpha=0.37, n_periods=6)
        aq, eh = time_grid(plan, 16)
        k = np.arange(plan.n_periods)[:, None]
        assert np.all(np.diff(aq, axis=1) > 0.0)
        assert np.all(np.diff(eh, axis=1) > 0.0)
        assert np.all((aq >= k * plan.t_s) & (aq <= k * plan.t_s + plan.t_aq))
        assert np.all((eh >= k * plan.t_s + plan.t_aq) & (eh <= (k + 1) * plan.t_s))

    def test_boundaries_do_not_accumulate_error(self):
        # Late-period boundaries must match the closed-form expression, not a
        # running sum of step widths.
        plan = ClockPlan(f_s=10e3, alpha=0.1, n_periods=10_000)
        aq, _ = time_grid(plan, 4)
        k = 9_999
        assert aq[k, 0] == k * plan.t_s
        assert aq[k, -1] == k * plan.t_s + plan.t_aq

    def test_duty_identity(self):
        for plan in REFERENCE_PLANS:
            aq, eh = time_grid(plan, 8)
            acq_total = float(np.sum(aq[:, -1] - aq[:, 0]))
            assert acq_total / eh[-1, -1] == pytest.approx(plan.alpha, rel=1e-12)


def test_phase_labels_cover_both_phases():
    assert PHASE_LABELS[Phase.ACQUISITION] == "acq"
    assert PHASE_LABELS[Phase.ENERGY_HARVEST] == "eh"
