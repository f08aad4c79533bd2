"""Tests for the two-phase clock plan and its sub-step time grid."""

import math

import numpy as np
import pytest

from ehadc import engine
from ehadc.clocking import PHASE_LABELS, ClockPlan, Phase, phase_grid, time_grid

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

    @pytest.mark.parametrize("f_s", [math.inf, math.nan, 0.0, -1e3])
    def test_sampling_rate_must_be_positive_and_finite(self, f_s):
        with pytest.raises(ValueError, match=f"^f_s must be positive and finite, got {f_s}$"):
            ClockPlan(f_s=f_s, alpha=0.1, n_periods=1)


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

    @pytest.mark.parametrize("plan", REFERENCE_PLANS + (ClockPlan(f_s=40e6, alpha=0.37, n_periods=4096),))
    def test_acquisition_grid_is_substep_major_with_the_closed_form_values(self, plan):
        """The acquisition grid is stored sub-step-major and holds, bit for
        bit, the period-major closed form; the harvest grid stays period-major."""
        n_sub = 64
        aq, eh = time_grid(plan, n_sub)
        assert aq.flags.f_contiguous and not aq.flags.c_contiguous
        assert eh.flags.c_contiguous
        k = np.arange(plan.n_periods, dtype=float)
        closed = k[:, None] * plan.t_s + np.arange(n_sub + 1, dtype=float) * (plan.t_aq / n_sub)
        closed[:, -1] = k * plan.t_s + plan.alpha * plan.t_s
        assert np.array_equal(aq.view(np.uint64), closed.view(np.uint64))

    @pytest.mark.parametrize("periods", [None, 1, 3])
    @pytest.mark.parametrize("plan", [ClockPlan(f_s=10e3, alpha=0.1, n_periods=2050),
                                      ClockPlan(f_s=40e6, alpha=0.37, n_periods=2050)])
    def test_rows_have_the_bits_of_the_whole_grid(self, plan, periods, monkeypatch):
        """time_grid over each block of whole periods that the engine's
        _blocks makes (the default of 1,024 periods, 1 period, and 3
        periods; the default and 3 end in a short block) has the bits of
        those rows of the whole grid, the acquisition rows sub-step-major
        and the harvest rows period-major."""
        n_sub = 64
        if periods is not None:
            monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", periods * n_sub)
        blocks = engine._blocks(plan.n_periods, n_sub)
        sizes = [rows.stop - rows.start for rows in blocks]
        if periods != 1:
            assert sizes[-1] < sizes[0]
        whole = time_grid(plan, n_sub)
        for rows in blocks:
            aq, eh = time_grid(plan, n_sub, rows)
            assert aq.flags.f_contiguous and eh.flags.c_contiguous
            assert aq.shape == eh.shape == (rows.stop - rows.start, n_sub + 1)
            for part, full in zip((aq, eh), whole):
                assert np.array_equal(part.view(np.uint64), full[rows].view(np.uint64))

    @pytest.mark.parametrize("periods", [None, 1, 3])
    @pytest.mark.parametrize("plan", [ClockPlan(f_s=10e3, alpha=0.1, n_periods=2050),
                                      ClockPlan(f_s=40e6, alpha=0.37, n_periods=2050)])
    def test_one_phase_has_the_bits_of_that_phase_of_the_grid(self, plan, periods, monkeypatch):
        """phase_grid of one phase, as each phase solver builds it, over
        every block of whole periods that _blocks makes, has the bits and
        the layout of that phase of time_grid: acquisition sub-step-major,
        harvest period-major. So does each written into a view of one
        buffer that every block reuses, as the solvers write them."""
        n_sub = 64
        if periods is not None:
            monkeypatch.setattr(engine, "_BLOCK_SUBSTEPS", periods * n_sub)
        whole = time_grid(plan, n_sub)
        blocks = engine._blocks(plan.n_periods, n_sub)
        buffer = np.empty(blocks[0].stop * (n_sub + 1))
        for rows in blocks:
            for phase, full in zip(Phase, whole):
                part = phase_grid(plan, n_sub, phase, rows)
                order = "F" if phase is Phase.ACQUISITION else "C"
                assert part.flags[order + "_CONTIGUOUS"]
                assert part.shape == (rows.stop - rows.start, n_sub + 1)
                assert np.array_equal(part.view(np.uint64), full[rows].view(np.uint64))
                out = buffer[:part.size].reshape(part.shape, order=order)
                assert phase_grid(plan, n_sub, phase, rows, out) is out
                assert np.array_equal(out.view(np.uint64), part.view(np.uint64))

    def test_duty_identity(self):
        for plan in REFERENCE_PLANS:
            aq, eh = time_grid(plan, 8)
            acq_total = float(np.sum(aq[:, -1] - aq[:, 0]))
            assert acq_total / eh[-1, -1] == pytest.approx(plan.alpha, rel=1e-12)


def test_phase_labels_cover_both_phases():
    assert PHASE_LABELS[Phase.ACQUISITION] == "acq"
    assert PHASE_LABELS[Phase.ENERGY_HARVEST] == "eh"
