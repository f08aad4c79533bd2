"""Tests for the stimulus sources and input-power bookkeeping."""

import math
import re

import numpy as np
import pytest

from ehadc.clocking import ClockPlan, time_grid
from ehadc.stimulus import (
    SineSource,
    coherent_frequency,
    rms_power,
)


class TestSineSource:
    def test_zero_crossing_at_origin(self):
        src = SineSource(amplitude=0.4, frequency=100.0)
        assert src.sample_at(0.0) == 0.0

    def test_quarter_period_hits_positive_peak(self):
        src = SineSource(amplitude=0.4, frequency=100.0)
        assert src.sample_at(2.5e-3) == 0.4

    def test_half_period_returns_to_zero(self):
        # Half a period lands on the falling zero crossing; round-off in the
        # phase argument keeps it from being exactly zero.
        src = SineSource(amplitude=0.4, frequency=100.098)
        assert abs(src.sample_at(0.5 / 100.098)) < 1e-12

    def test_dc_offset_and_phase(self):
        src = SineSource(amplitude=1.0, frequency=50.0, phase=math.pi / 2, dc_offset=0.25)
        assert src.sample_at(0.0) == pytest.approx(1.25, rel=1e-12)

    def test_array_sampling_matches_scalar(self):
        src = SineSource(amplitude=0.3, frequency=1e3, phase=0.7, dc_offset=-0.05)
        t = np.linspace(0.0, 2e-3, 101)
        v = src.sample_at(t)
        assert v.shape == t.shape
        for k in (0, 17, 100):
            assert v[k] == src.sample_at(float(t[k]))

    def test_substep_major_grid_samples_like_a_contiguous_copy(self):
        """Sampling keeps the grid's memory layout, and a sub-step-major grid
        gives the bits of its period-major copy."""
        src = SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 4096, 41), phase=0.3)
        grid, _ = time_grid(ClockPlan(f_s=10e3, alpha=0.1, n_periods=4096), 64)
        v = src.sample_at(grid)
        assert v.flags.f_contiguous and not v.flags.c_contiguous
        expected = src.sample_at(np.ascontiguousarray(grid))
        assert np.array_equal(v.view(np.uint64), expected.view(np.uint64))

    def test_array_sampling_into_out_keeps_the_bits(self):
        src = SineSource(amplitude=0.35, frequency=coherent_frequency(10e3, 4096, 41), phase=0.3)
        grid, _ = time_grid(ClockPlan(f_s=10e3, alpha=0.1, n_periods=64), 64)
        out = np.full_like(grid, np.nan)
        assert src.sample_at(grid, out) is out
        assert np.array_equal(out.view(np.uint64), src.sample_at(grid).view(np.uint64))

    def test_scalar_sample_is_a_float(self):
        src = SineSource(amplitude=0.3, frequency=1e3)
        assert isinstance(src.sample_at(1e-4), float)

    def test_integer_cycle_count_repeats(self):
        """An integer number of cycles over the record makes v(0) = v(T_rec)."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            f_s = 10.0 ** rng.uniform(3.0, 7.0)
            n_fft = 2 ** rng.integers(6, 13)
            m = int(2 * rng.integers(1, n_fft // 4) + 1)
            src = SineSource(amplitude=1.0, frequency=coherent_frequency(f_s, n_fft, m))
            t_rec = n_fft / f_s
            assert abs(src.sample_at(t_rec) - src.sample_at(0.0)) < 1e-9

    def test_rms_of_long_record(self):
        # 2**20 coherent samples: the sample RMS equals amplitude / sqrt(2).
        n = 2**20
        f_s = 1e6
        src = SineSource(amplitude=0.4, frequency=coherent_frequency(f_s, n, 41))
        v = src.sample_at(np.arange(n) / f_s)
        rms = math.sqrt(float(np.mean(v * v)))
        assert rms == pytest.approx(0.4 / math.sqrt(2.0), rel=1e-6)

    def test_rejects_nonpositive_amplitude_and_frequency(self):
        with pytest.raises(ValueError):
            SineSource(amplitude=0.0, frequency=100.0)
        with pytest.raises(ValueError):
            SineSource(amplitude=1.0, frequency=-5.0)
        with pytest.raises(ValueError):
            SineSource(amplitude=1.0, frequency=100.0, source_resistance=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("amplitude", math.nan, "amplitude must be positive and finite, got nan"),
            ("amplitude", math.inf, "amplitude must be positive and finite, got inf"),
            ("frequency", math.inf, "frequency must be positive and finite, got inf"),
            ("frequency", math.nan, "frequency must be positive and finite, got nan"),
            ("source_resistance", math.inf, "source_resistance must be positive and finite, got inf"),
            ("source_resistance", -1.0, "source_resistance must be positive and finite, got -1.0"),
            ("phase", math.nan, "phase must be finite, got nan"),
            ("phase", -math.inf, "phase must be finite, got -inf"),
            ("dc_offset", math.nan, "dc_offset must be finite, got nan"),
            ("dc_offset", math.inf, "dc_offset must be finite, got inf"),
        ],
    )
    def test_rejects_non_finite_fields_by_name(self, field, value, message):
        """Each field is checked where the source is built, so a bad one
        never reaches a transient."""
        fields = {"amplitude": 0.4, "frequency": 100.0, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SineSource(**fields)

    def test_magnitude_bound_covers_a_sine_that_errs_by_a_few_ulps(self, monkeypatch):
        """magnitude_bound bounds what sample_at computes under any np.sin
        faithful to a few ulps, not only under one that keeps sin's order.
        Here np.sin errs by up to 2 ulps, by the bits of its argument, on
        windows that end just short of a crest or trough: sin is flat there,
        so a time inside a window can compute above the window's widened
        end, which only the absolute slack covers."""
        sin = np.sin

        def sin_off_by_ulps(x, out=None):
            s = sin(x, out=out)
            ulps = (np.asarray(x).view(np.uint64) * np.uint64(0x9E37_79B9_7F4A_7C15)) >> np.uint64(61)
            s.view(np.int64)[...] += np.clip(ulps.astype(np.int64) - 3, -2, 2)
            return np.clip(s, -1.0, 1.0, out=s)

        rng = np.random.default_rng(20261022)
        src = SineSource(amplitude=float(rng.uniform(0.1, 2.0)), frequency=1e3, dc_offset=0.3)
        n = 20_000
        turns = rng.integers(0, 1000, n) + rng.choice([0.25, 0.75], n)  # a crest or a trough
        end = (turns - 10.0 ** rng.uniform(-9.0, -4.0, n) / (2 * math.pi)) / src.frequency
        start = end - 10.0 ** rng.uniform(-9.0, -4.0, n) / (2 * math.pi * src.frequency)
        grid = start[:, None] + (end - start)[:, None] * np.linspace(0.0, 1.0, 17)
        grid[:, -1] = end
        monkeypatch.setattr(np, "sin", sin_off_by_ulps)
        assert (np.abs(src.sample_at(grid)) <= src.magnitude_bound(start, end)[:, None]).all()


class TestCoherentFrequency:
    def test_reference_grid_examples(self):
        assert coherent_frequency(10e3, 4096, 41) == 100.09765625
        assert coherent_frequency(10e3, 4096, 1) == 2.44140625
        assert coherent_frequency(40e6, 4096, 41) == 400390.625

    def test_rejects_even_cycle_counts(self):
        with pytest.raises(ValueError):
            coherent_frequency(10e3, 4096, 40)

    def test_rejects_cycle_count_at_nyquist(self):
        with pytest.raises(ValueError):
            coherent_frequency(10e3, 4096, 2048)
        with pytest.raises(ValueError):
            coherent_frequency(10e3, 4096, 2049)

    def test_rejects_non_power_of_two_records(self):
        with pytest.raises(ValueError):
            coherent_frequency(10e3, 4000, 41)

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(ValueError):
            coherent_frequency(10e3, 4096, 0)

    def test_rejects_nonpositive_sampling_rate(self):
        with pytest.raises(ValueError, match="f_s must be positive, got 0.0"):
            coherent_frequency(0.0, 4096, 41)


class TestRmsPower:
    def test_computed_from_sine_source(self):
        p_in = rms_power(SineSource(amplitude=0.4, frequency=100.0, source_resistance=50.0))
        assert p_in == 0.4 * 0.4 / (2.0 * 50.0)

    def test_scales_with_source_resistance(self):
        lo = rms_power(SineSource(amplitude=0.4, frequency=1.0, source_resistance=50.0))
        hi = rms_power(SineSource(amplitude=0.4, frequency=1.0, source_resistance=100.0))
        assert lo == pytest.approx(2.0 * hi, rel=1e-12)
