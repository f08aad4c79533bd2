"""Tests for spectral metrics, cross-checked against a direct DFT and a
least-squares sine fit."""

import math

import numpy as np
import pytest

from ehadc.sar_adc import AdcConfig, dac_output, sar_convert
from ehadc.spectral import Spectrum, enob, sndr, spectrum, write_spectrum_csv


def quantized_sine_codes(n_fft, m, amplitude, cfg, phase=0.0, dc=0.0):
    k = np.arange(n_fft)
    v = dc + amplitude * np.sin(2.0 * math.pi * m * k / n_fft + phase)
    return np.array([sar_convert(float(x), cfg) for x in v])


def dft_bin_power(rec, k):
    """Single-bin power by direct correlation, same normalization as spectrum()."""
    n = len(rec)
    idx = np.arange(n)
    x = np.dot(rec, np.exp(-2j * math.pi * k * idx / n))
    p = (x.real * x.real + x.imag * x.imag) / (float(n) * float(n))
    if 0 < k < n // 2:
        p *= 2.0
    return p


class TestSpectrum:
    def test_signal_bin_dominates_for_a_coherent_sine(self):
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
        codes = quantized_sine_codes(1024, 41, 0.39, cfg)
        spec = spectrum(codes, cfg, f_s=10e3, signal_bin=41)
        assert int(np.argmax(spec.power[1:])) + 1 == 41
        assert spec.bin_frequency(41) == 41 * 10e3 / 1024

    def test_constant_codes_have_no_ac_power(self):
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
        spec = spectrum(np.full(256, 200), cfg, f_s=1e3, signal_bin=10)
        assert float(np.sum(spec.power[1:])) < 1e-25

    def test_parseval_normalization(self):
        cfg = AdcConfig(n_bits=10, v_ref=0.5, c_unit=1e-12)
        rng = np.random.default_rng(41)
        codes = rng.integers(0, cfg.n_codes, size=512)
        spec = spectrum(codes, cfg, f_s=1e3, signal_bin=5)
        rec = dac_output(codes, cfg)
        mean_square = float(np.mean(rec * rec))
        assert float(np.sum(spec.power)) == pytest.approx(mean_square, rel=1e-9)

    def test_bin_powers_match_a_direct_dft(self):
        """Two quantized tones at bins m and 3m against per-bin correlation."""
        cfg = AdcConfig(n_bits=14, v_ref=1.0, c_unit=1e-12)
        n, m = 2048, 21
        k = np.arange(n)
        v = 0.6 * np.sin(2.0 * math.pi * m * k / n) + 0.15 * np.sin(
            2.0 * math.pi * 3 * m * k / n
        )
        codes = np.array([sar_convert(float(x), cfg) for x in v])
        spec = spectrum(codes, cfg, f_s=1e6, signal_bin=m)
        rec = dac_output(codes, cfg)
        for bin_k in (m, 3 * m):
            assert float(spec.power[bin_k]) == pytest.approx(
                dft_bin_power(rec, bin_k), rel=1e-9
            )
        # Tone power ratio survives quantization at 14 bits.
        ratio = float(spec.power[3 * m] / spec.power[m])
        assert ratio == pytest.approx((0.15 / 0.6) ** 2, rel=1e-3)

    def test_validation(self):
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
        with pytest.raises(ValueError):
            spectrum(np.zeros(1000, dtype=int), cfg, f_s=1e3, signal_bin=10)
        with pytest.raises(ValueError):
            spectrum(np.zeros(1024, dtype=int), cfg, f_s=1e3, signal_bin=512)
        with pytest.raises(ValueError):
            spectrum(np.zeros(1024, dtype=int), cfg, f_s=1e3, signal_bin=0)
        with pytest.raises(ValueError, match="power must hold n_fft/2 \\+ 1 one-sided bins"):
            Spectrum(power=np.zeros(512), n_fft=1024, f_s=1e3, signal_bin=10)


class TestSndr:
    def test_ideal_eight_bit_converter(self):
        # Full-scale coherent sine through an ideal 8-bit quantizer: the
        # classic 6.02n + 1.76 dB figure, within the tolerance the dithering
        # of a finite record allows.
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
        codes = quantized_sine_codes(4096, 41, 0.4, cfg)
        spec = spectrum(codes, cfg, f_s=10e3, signal_bin=41)
        assert sndr(spec) == pytest.approx(6.02 * 8 + 1.76, abs=0.3)

    def test_sndr_improves_with_resolution(self):
        values = []
        for n_bits in (6, 8, 10):
            cfg = AdcConfig(n_bits=n_bits, v_ref=0.4, c_unit=1e-12)
            codes = quantized_sine_codes(4096, 41, 0.4, cfg)
            values.append(sndr(spectrum(codes, cfg, f_s=10e3, signal_bin=41)))
        assert values[0] < values[1] < values[2]

    def test_noiseless_spectrum_returns_the_infinity_sentinel(self):
        power = np.zeros(129)
        power[0] = 0.01
        power[7] = 0.08
        spec = Spectrum(power=power, n_fft=256, f_s=1e3, signal_bin=7)
        assert sndr(spec) == math.inf

    def test_constant_code_offset_only_moves_dc(self):
        # Shifting every code by the same amount lands entirely in bin 0, so
        # the ratio of signal to everything-but-DC cannot move.
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
        codes = quantized_sine_codes(1024, 17, 0.2, cfg)
        a = sndr(spectrum(codes, cfg, f_s=1e3, signal_bin=17))
        b = sndr(spectrum(codes + 40, cfg, f_s=1e3, signal_bin=17))
        assert b == pytest.approx(a, abs=1e-9)

    def test_agrees_with_a_least_squares_sine_fit(self):
        """Fit sin/cos/constant at the stimulus frequency; the residual mean
        square must equal the spectrum's noise-plus-distortion power."""
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
        n, m = 2048, 37
        codes = quantized_sine_codes(n, m, 0.35, cfg, phase=0.9)
        rec = dac_output(codes, cfg)
        k = np.arange(n)
        basis = np.column_stack(
            [
                np.sin(2.0 * math.pi * m * k / n),
                np.cos(2.0 * math.pi * m * k / n),
                np.ones(n),
            ]
        )
        coef, *_ = np.linalg.lstsq(basis, rec, rcond=None)
        fit_power = 0.5 * (coef[0] ** 2 + coef[1] ** 2)
        residual = rec - basis @ coef
        noise_power = float(np.mean(residual * residual))
        spec = spectrum(codes, cfg, f_s=1e3, signal_bin=m)
        assert float(spec.power[m]) == pytest.approx(fit_power, rel=1e-9)
        direct = 10.0 * math.log10(fit_power / noise_power)
        assert sndr(spec) == pytest.approx(direct, abs=1e-9)


class TestEnob:
    def test_published_operating_points(self):
        assert round(enob(49.0), 2) == 7.85
        assert round(enob(48.52), 2) == 7.77

    def test_eight_bit_ideal_figure(self):
        assert enob(49.92) == 8.0

    def test_inverts_the_ideal_sndr_identity_exactly(self):
        for n in range(1, 17):
            assert enob(6.02 * n + 1.76) == float(n)

    def test_rejects_the_infinity_sentinel(self):
        with pytest.raises(ValueError):
            enob(math.inf)
        with pytest.raises(ValueError):
            enob(math.nan)


class TestSpectrumCsv:
    def test_row_shape_and_roundtrip(self, tmp_path):
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
        codes = quantized_sine_codes(256, 11, 0.3, cfg)
        spec = spectrum(codes, cfg, f_s=10e3, signal_bin=11)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(spec, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin,freq_hz,power_db"
        assert len(lines) == 1 + 129
        k, freq, db = lines[12].split(",")
        assert int(k) == 11
        assert float(freq) == spec.bin_frequency(11)
        assert float(db) == pytest.approx(10.0 * math.log10(spec.power[11]), rel=1e-12)
