"""Tests for the SAR converter against a brute-force quantizer oracle."""

import numpy as np
import pytest

from ehadc.sar_adc import (
    AdcConfig,
    c_dac,
    dac_output,
    quantize_oracle,
    sar_convert,
)

CFG8 = AdcConfig(n_bits=8, v_ref=0.4, c_unit=12e-9)


class TestAdcConfig:
    def test_lsb_and_code_count(self):
        assert CFG8.n_codes == 256
        assert CFG8.lsb == 2.0 * 0.4 / 256

    def test_dac_capacitance_examples(self):
        assert c_dac(CFG8) == 1.536e-6
        assert c_dac(AdcConfig(n_bits=8, v_ref=0.4, c_unit=15e-15)) == 1.92e-12

    def test_one_bit_array_is_a_single_unit(self):
        cfg = AdcConfig(n_bits=1, v_ref=1.0, c_unit=3e-12)
        assert c_dac(cfg) == 3e-12

    def test_capacitance_doubles_per_bit(self):
        for n in range(2, 17):
            lo = c_dac(AdcConfig(n_bits=n - 1, v_ref=1.0, c_unit=1e-12))
            hi = c_dac(AdcConfig(n_bits=n, v_ref=1.0, c_unit=1e-12))
            assert hi == 2.0 * lo

    def test_validation(self):
        with pytest.raises(ValueError):
            AdcConfig(n_bits=0, v_ref=0.4, c_unit=1e-12)
        with pytest.raises(ValueError):
            AdcConfig(n_bits=17, v_ref=0.4, c_unit=1e-12)
        with pytest.raises(ValueError):
            AdcConfig(n_bits=8, v_ref=0.0, c_unit=1e-12)
        with pytest.raises(ValueError):
            AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12, s1="bootstrapped")


class TestSarConvert:
    def test_zero_sits_on_the_midscale_boundary(self):
        # 0 V is exactly the decision boundary between codes 127 and 128
        # (the threshold -0.4 + 128*lsb computes to exactly 0.0), and
        # boundaries resolve to the lower code. Anything above picks 128.
        assert sar_convert(0.0, CFG8) == 127
        assert quantize_oracle(0.0, CFG8) == 127
        assert sar_convert(1e-12, CFG8) == 128

    def test_full_scale_edges(self):
        assert sar_convert(-0.4, CFG8) == 0
        assert sar_convert(0.4 - CFG8.lsb / 2, CFG8) == 255

    def test_clipping_outside_full_scale(self):
        assert sar_convert(-1.0, CFG8) == 0
        assert sar_convert(0.4, CFG8) == 255
        assert sar_convert(2.0, CFG8) == 255

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for v in rng.uniform(-0.45, 0.45, size=10_000):
            v = float(v)
            assert sar_convert(v, CFG8) == quantize_oracle(v, CFG8)

    def test_matches_oracle_at_other_resolutions(self):
        rng = np.random.default_rng(32)
        for n in (1, 4, 12, 16):
            cfg = AdcConfig(n_bits=n, v_ref=1.0, c_unit=1e-12)
            for v in rng.uniform(-1.1, 1.1, size=500):
                v = float(v)
                assert sar_convert(v, cfg) == quantize_oracle(v, cfg)

    def test_codes_are_monotone_in_the_input(self):
        cfg = AdcConfig(n_bits=10, v_ref=0.5, c_unit=1e-12)
        ramp = np.linspace(-0.6, 0.6, 4 * cfg.n_codes)
        codes = [sar_convert(float(v), cfg) for v in ramp]
        assert all(a <= b for a, b in zip(codes, codes[1:]))
        assert codes[0] == 0 and codes[-1] == cfg.n_codes - 1

    def test_exact_boundary_resolves_to_the_lower_code(self):
        # v_ref = 0.5 makes every threshold -0.5 + k/1024 exactly
        # representable, so ties are genuine rather than round-off artifacts.
        cfg = AdcConfig(n_bits=9, v_ref=0.5, c_unit=1e-12)
        for k in (1, 2, 255, 256, 511):
            boundary = -cfg.v_ref + k * cfg.lsb
            assert sar_convert(boundary, cfg) == k - 1
            assert quantize_oracle(boundary, cfg) == k - 1


class TestDacOutput:
    def test_code_centers(self):
        assert dac_output(128, CFG8) == pytest.approx(CFG8.lsb / 2, rel=1e-12)
        assert dac_output(0, CFG8) == pytest.approx(-0.4 + CFG8.lsb / 2, rel=1e-9)
        assert dac_output(255, CFG8) == pytest.approx(0.4 - CFG8.lsb / 2, rel=1e-9)

    def test_roundtrip_error_is_at_most_half_an_lsb(self):
        rng = np.random.default_rng(33)
        for n in (4, 8, 10):
            cfg = AdcConfig(n_bits=n, v_ref=0.4, c_unit=1e-12)
            half = 0.5 * cfg.lsb * (1.0 + 1e-12)
            for v in rng.uniform(-0.4, 0.39999, size=2_000):
                v = float(v)
                assert abs(dac_output(sar_convert(v, cfg), cfg)) <= 0.4
                assert abs(dac_output(sar_convert(v, cfg), cfg) - v) <= half

    def test_dac_output_maps_code_arrays(self):
        codes = np.array([0, 1, 127, 128, 255])
        rec = dac_output(codes, CFG8)
        assert rec.shape == codes.shape
        for k, code in enumerate(codes):
            assert rec[k] == dac_output(int(code), CFG8)

    def test_code_center_quantizes_to_its_own_code(self):
        cfg = AdcConfig(n_bits=8, v_ref=0.4, c_unit=1e-12)
        for code in (0, 1, 100, 128, 254, 255):
            assert sar_convert(dac_output(code, cfg), cfg) == code
