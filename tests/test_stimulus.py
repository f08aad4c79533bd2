"""Tests for the stimulus sources and input-power bookkeeping."""

import math

import numpy as np
import pytest

from ehadc.stimulus import (
    InputPowerSpec,
    PowerProvenance,
    SineSource,
    TableSource,
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


class TestRmsPower:
    def test_computed_from_sine_source(self):
        spec = rms_power(SineSource(amplitude=0.4, frequency=100.0, source_resistance=50.0))
        assert spec.p_in_rms == 0.4 * 0.4 / (2.0 * 50.0)
        assert spec.provenance is PowerProvenance.COMPUTED_FROM_SOURCE

    def test_scales_with_source_resistance(self):
        lo = rms_power(SineSource(amplitude=0.4, frequency=1.0, source_resistance=50.0))
        hi = rms_power(SineSource(amplitude=0.4, frequency=1.0, source_resistance=100.0))
        assert lo.p_in_rms == pytest.approx(2.0 * hi.p_in_rms, rel=1e-12)

    def test_power_spec_validates(self):
        with pytest.raises(ValueError):
            InputPowerSpec(p_in_rms=-1e-6, provenance=PowerProvenance.CONFIGURED)


class TestTableSource:
    def test_linear_interpolation_between_points(self):
        src = TableSource(times=(0.0, 1.0, 2.0), volts=(0.0, 1.0, 0.0))
        assert src.sample_at(0.5) == 0.5
        assert src.sample_at(1.5) == 0.5

    def test_clamps_outside_the_table(self):
        src = TableSource(times=(0.0, 1.0), volts=(0.2, 0.8))
        assert src.sample_at(-1.0) == 0.2
        assert src.sample_at(5.0) == 0.8

    def test_array_sampling(self):
        src = TableSource(times=(0.0, 1.0), volts=(0.0, 1.0))
        v = src.sample_at(np.array([0.0, 0.25, 1.0]))
        assert np.array_equal(v, np.array([0.0, 0.25, 1.0]))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            TableSource(times=(0.0, 1.0, 1.0), volts=(0.0, 0.5, 1.0))
        with pytest.raises(ValueError):
            TableSource(times=(0.0,), volts=(0.0,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TableSource(times=(0.0, 1.0), volts=(0.0, 0.5, 1.0))

    def test_from_csv(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("time_s,volts\n0.0,0.1\n1e-3,0.3\n2e-3,0.2\n")
        src = TableSource.from_csv(path)
        assert src.sample_at(0.5e-3) == pytest.approx(0.2, rel=1e-12)

    def test_from_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_text("t,v\n0.0,0.1\n1.0,0.2\n")
        with pytest.raises(ValueError):
            TableSource.from_csv(path)
