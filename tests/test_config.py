"""Tests for config parsing and scenario construction."""

import itertools

import pytest

from ehadc.config import KEY_TABLE, build_scenario, load_config, parse_config
from ehadc.engine import run, validate
from ehadc.errors import ConfigError, NotConverged, ValidationError
from ehadc.frontend import Switch, SwitchKind

MINIMAL = """\
signal.amplitude_v = 0.4
signal.m_cycles = 41
clock.f_s_hz = 10e3
clock.alpha = 0.1
clock.n_periods = 4096
adc.n_bits = 8
adc.v_ref = 0.4
adc.c_unit_f = 12e-9
eh.c_eh_f = 100e-6
"""


# Each is set alone on every numeric key: the edges of the float and int
# ranges, signed zero, a subnormal, the subnormal minimum and 2**63.
FUZZ_FLOATS = ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "1e-309", "5e-324", "-0.0")
FUZZ_INTS = ("0", "-1", "1", "2", "3", "65", str(2**63))


def scenario_from(text):
    return build_scenario(parse_config(text))


def set_keys(text, keys):
    """Config text with each key's line replaced by 'key = value', or dropped
    where the value is None."""
    lines = [line for line in text.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join([*lines, *(f"{k} = {v}" for k, v in keys.items() if v is not None)]) + "\n"


class TestParseConfig:
    def test_values_comments_and_blank_lines(self):
        cfg = parse_config(
            "# header comment\n"
            "\n"
            "clock.alpha = 0.1  # trailing comment\n"
            "adc.n_bits = 8\n"
            "switch.s1.type = ideal\n"
        )
        assert cfg.get("clock.alpha") == 0.1
        assert cfg.get("adc.n_bits") == 8
        assert cfg.get("switch.s1.type") == "ideal"

    def test_defaults_fill_unset_keys(self):
        cfg = parse_config("")
        assert cfg.get("eh.v_drop_v") == 0.09284
        assert cfg.get("eh.r_series_ohm") == 73.8
        assert cfg.get("switch.s2.type") == "constant"
        assert cfg.get("switch.s2.r_on") == 1.0
        assert cfg.get("engine.n_sub") == 64
        assert cfg.get("run.out_dir") == "out"

    def test_unknown_key_is_anchored_to_its_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("clock.alpha = 0.1\nsignal.amplitude = 0.4\n", path="x.cfg")
        assert exc.value.line == 2
        assert "x.cfg:2" in str(exc.value)
        assert "signal.amplitude" in str(exc.value)

    def test_duplicate_key_is_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("clock.alpha = 0.1\nclock.alpha = 0.2\n")
        assert exc.value.line == 2
        assert "duplicate" in str(exc.value)

    def test_malformed_line_is_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("clock.alpha 0.1\n")
        assert exc.value.line == 1

    def test_wrong_value_type_is_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("clock.alpha = fast\n")
        assert "float" in str(exc.value)
        with pytest.raises(ConfigError):
            parse_config("adc.n_bits = 8.5\n")

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("clock.alpha = nan\n")
        with pytest.raises(ConfigError):
            parse_config("clock.alpha = inf\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(tmp_path / "absent.cfg")
        assert "absent.cfg" in str(exc.value)


class TestBuildScenario:
    def test_minimal_config_builds(self):
        scenario, options = scenario_from(MINIMAL)
        assert scenario.clock.f_s == 10e3
        assert scenario.adc.n_bits == 8
        assert scenario.adc.s1 == "auto"
        assert scenario.eh.rectifier.v_drop == 0.09284
        assert scenario.eh.s2.kind is SwitchKind.CONSTANT_R
        assert scenario.source.frequency == 41 * 10e3 / 4096
        assert scenario.p_in is None
        assert options.out_dir == "out"
        assert options.spectral and options.eh

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from(MINIMAL.replace("eh.c_eh_f = 100e-6\n", ""))
        assert "eh.c_eh_f" in str(exc.value)

    def test_frequency_keys_are_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            scenario_from(MINIMAL + "signal.freq_hz = 100.0\n")
        with pytest.raises(ConfigError):
            scenario_from(MINIMAL.replace("signal.m_cycles = 41\n", ""))

    def test_explicit_frequency_is_used_verbatim(self):
        text = MINIMAL.replace("signal.m_cycles = 41\n", "signal.freq_hz = 97.0\n")
        scenario, _ = scenario_from(text)
        assert scenario.source.frequency == 97.0

    def test_configured_power_override(self):
        scenario, _ = scenario_from(MINIMAL + "signal.p_in_w = 27.7e-6\n")
        assert scenario.p_in == 27.7e-6

    def test_domain_invariants_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            scenario_from(MINIMAL.replace("clock.alpha = 0.1", "clock.alpha = 1.5"))
        with pytest.raises(ConfigError):
            scenario_from(MINIMAL.replace("adc.n_bits = 8", "adc.n_bits = 17"))
        with pytest.raises(ConfigError):
            scenario_from(MINIMAL + "signal.p_in_w = -1e-6\n")

    def test_even_cycle_count_is_a_config_error(self):
        with pytest.raises(ConfigError):
            scenario_from(MINIMAL.replace("signal.m_cycles = 41", "signal.m_cycles = 40"))

    def test_pass_switch_needs_all_fields(self):
        text = MINIMAL + "switch.s1.type = pass\nswitch.s1.k_gain = 0.2\n"
        with pytest.raises(ConfigError) as exc:
            scenario_from(text)
        assert "v_th" in str(exc.value)

    def test_pass_switch_builds_when_complete(self):
        text = (
            MINIMAL
            + "switch.s1.type = pass\n"
            + "switch.s1.k_gain = 10.0\n"
            + "switch.s1.v_th = 0.5\n"
            + "switch.s1.v_gate = 3.0\n"
        )
        scenario, _ = scenario_from(text)
        assert scenario.adc.s1.kind is SwitchKind.PASS_TRANSISTOR
        assert scenario.adc.s1.v_gate == 3.0

    @pytest.mark.parametrize(
        "k_gain, v_th, line, message",
        [("10.0", "-0.1", 12, "v_th >= 0"), ("0.0", "0.5", 11, "k_gain > 0")],
    )
    def test_pass_switch_error_is_anchored_at_the_bad_key(self, k_gain, v_th, line, message):
        text = MINIMAL + (
            f"switch.s1.type = pass\nswitch.s1.k_gain = {k_gain}\n"
            f"switch.s1.v_th = {v_th}\nswitch.s1.v_gate = 3.0\n"
        )
        with pytest.raises(ConfigError) as exc:
            scenario_from(text)
        assert exc.value.line == line
        assert message in exc.value.message

    def test_ideal_switch_builds(self):
        scenario, _ = scenario_from(MINIMAL + "switch.s1.type = ideal\n")
        assert scenario.adc.s1 == Switch.ideal()

    def test_constant_switch_error_is_anchored_at_r_on(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from(MINIMAL + "switch.s1.type = constant\nswitch.s1.r_on = -1\n")
        assert exc.value.line == 11
        assert "r_on" in exc.value.message

    def test_s2_rejects_auto(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from(MINIMAL + "switch.s2.type = auto\n")
        assert "sampling switch" in str(exc.value)

    def test_unknown_switch_type(self):
        with pytest.raises(ConfigError):
            scenario_from(MINIMAL + "switch.s1.type = bootstrap\n")

    def test_constant_switch_needs_r_on(self):
        text = MINIMAL + "switch.s1.type = constant\n"
        with pytest.raises(ConfigError) as exc:
            scenario_from(text)
        assert "r_on" in str(exc.value)

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("switch.s1.r_on = 0.5\n", "switch.s1.r_on"),
            ("switch.s1.type = ideal\nswitch.s1.r_on = 0.5\n", "switch.s1.r_on"),
            ("switch.s2.type = pass\nswitch.s2.r_on = 7\n", "switch.s2.r_on"),
            ("switch.s1.v_th = 0.4\n", "switch.s1.v_th"),
            ("switch.s1.type = ideal\nswitch.s1.k_gain = 2\n", "switch.s1.k_gain"),
            ("switch.s2.r_on = 2\nswitch.s2.v_gate = 0.9\n", "switch.s2.v_gate"),
        ],
    )
    def test_key_the_switch_type_does_not_use_is_rejected_at_its_line(self, lines, key):
        with pytest.raises(ConfigError) as exc:
            scenario_from(MINIMAL + lines)
        assert exc.value.line == 10 + lines.count("\n") - 1
        assert exc.value.message.startswith(f"{key} is not used by switch type")

    def test_metrics_selection(self):
        scenario, options = scenario_from(MINIMAL + "run.metrics = eh\n")
        assert options.eh and not options.spectral
        _, none_opts = scenario_from(MINIMAL + "run.metrics =\n")
        assert not none_opts.eh and not none_opts.spectral

    def test_unknown_metric_is_rejected(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from(MINIMAL + "run.metrics = spectral,thd\n")
        assert "thd" in str(exc.value)

    def test_empty_out_dir_is_rejected_at_its_line(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from(MINIMAL + "run.out_dir =\n")
        assert exc.value.line == 10
        assert exc.value.message == "run.out_dir must not be empty"

    def test_engine_keys_reach_the_scenario(self):
        text = (
            MINIMAL
            + "engine.n_sub = 32\n"
            + "engine.n_fft = 1024\n"
            + "engine.settling_factor_k = 4.0\n"
            + "eh.steady_tol = 0.02\n"
        )
        scenario, _ = scenario_from(text)
        assert scenario.n_sub == 32
        assert scenario.n_fft == 1024
        assert scenario.settling_factor_k == 4.0
        assert scenario.steady_tol == 0.02
        # The run-length cap is the constant engine.MAX_PERIODS.
        with pytest.raises(ConfigError, match="unknown key 'engine.max_periods'"):
            scenario_from(text + "engine.max_periods = 5000\n")


class TestConfigFuzz:
    """Every numeric key, set alone to each edge value on a 64-period lowfreq
    config, with and without its signal.p_in_w, ends in a result, a
    ConfigError, a ValidationError or NotConverged, and raises no
    RuntimeWarning. So does each key an explicit switch type reads, set
    alone on a valid switch of that type: with S1 on auto, every
    switch.s1.* value would end as an unused key. Without signal.p_in_w,
    eta_e divides by the sine power A**2/(2*r_source)."""

    @pytest.fixture
    def base(self, repo_root):
        base = (repo_root / "configs" / "lowfreq.cfg").read_text()
        # A 64-point record needs an odd m_cycles below 32.
        return set_keys(base, {"clock.n_periods": "64", "engine.n_fft": "64", "signal.m_cycles": "5"})

    @staticmethod
    def failures(base, key, values):
        failures = []
        for text, value in itertools.product((base, set_keys(base, {"signal.p_in_w": None})), values):
            try:
                scenario, options = scenario_from(set_keys(text, {key: value}))
                # A transient of at most a few 64 x 65 arrays, or none.
                if scenario.clock.n_periods * scenario.n_sub <= 64 * 65:
                    run(scenario, spectral=options.spectral, eh=options.eh)
                else:
                    validate(scenario)
            except (ConfigError, ValidationError, NotConverged):
                pass
            except Exception as exc:  # every other outcome is a failure
                p_in = "" if text is base else " without signal.p_in_w"
                failures.append(f"{key} = {value}{p_in}: {type(exc).__name__}: {exc}")
        return failures

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key", [key for key, (typ, _) in KEY_TABLE.items() if typ in (int, float)])
    def test_every_value_runs_or_is_rejected(self, base, key):
        if key == "signal.freq_hz":  # it replaces m_cycles
            base = set_keys(base, {"signal.m_cycles": None})
        assert self.failures(base, key, FUZZ_INTS if KEY_TABLE[key][0] is int else FUZZ_FLOATS) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("switch", ["s1", "s2"])
    @pytest.mark.parametrize("kind", ["constant", "pass"])
    def test_every_switch_value_runs_or_is_rejected(self, base, switch, kind):
        if kind == "constant":
            valid = {"r_on": "1.0"}
        else:
            valid = {"k_gain": "2", "v_th": "0.4", "v_gate": "1.8" if switch == "s1" else "0.9"}
        prefix = f"switch.{switch}"
        base = set_keys(base, {f"{prefix}.type": kind, **{f"{prefix}.{f}": v for f, v in valid.items()}})
        run(scenario_from(base)[0], eh=False)  # the baseline runs
        assert sum((self.failures(base, f"{prefix}.{f}", FUZZ_FLOATS) for f in valid), []) == []
