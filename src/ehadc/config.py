"""Line-oriented scenario configuration.

Files are plain ``key = value`` lines with dotted section keys and ``#``
comments. The flat format keeps diffs readable and sweep scripting trivial.
All quantities are plain numbers in SI units; the unit lives in the key name
(``_v``, ``_f``, ``_ohm``, ``_hz``, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .clocking import ClockPlan
from .engine import Scenario
from .errors import ConfigError
from .frontend import Switch
from .harvester import EhConfig, RectifierModel
from .sar_adc import AdcConfig
from .stimulus import InputPowerSpec, PowerProvenance, SineSource, coherent_frequency

_REQUIRED = object()

# key -> (type, default); _REQUIRED marks keys a config must provide and
# None marks truly optional keys with no default value.
KEY_TABLE: dict[str, tuple[type, object]] = {
    "signal.amplitude_v": (float, _REQUIRED),
    "signal.freq_hz": (float, None),
    "signal.m_cycles": (int, None),
    "signal.phase_rad": (float, 0.0),
    "signal.dc_offset_v": (float, 0.0),
    "signal.r_source_ohm": (float, 50.0),
    "signal.p_in_w": (float, None),
    "clock.f_s_hz": (float, _REQUIRED),
    "clock.alpha": (float, _REQUIRED),
    "clock.n_periods": (int, _REQUIRED),
    "switch.s1.type": (str, "auto"),
    "switch.s1.r_on": (float, None),
    "switch.s1.k_gain": (float, None),
    "switch.s1.v_th": (float, None),
    "switch.s1.v_gate": (float, None),
    "switch.s2.type": (str, "constant"),
    "switch.s2.r_on": (float, 1.0),
    "switch.s2.k_gain": (float, None),
    "switch.s2.v_th": (float, None),
    "switch.s2.v_gate": (float, None),
    "adc.n_bits": (int, _REQUIRED),
    "adc.v_ref": (float, _REQUIRED),
    "adc.c_unit_f": (float, _REQUIRED),
    "eh.c_eh_f": (float, _REQUIRED),
    "eh.v_drop_v": (float, 0.09284),
    "eh.r_series_ohm": (float, 73.8),
    "eh.steady_tol": (float, 0.01),
    "engine.n_sub": (int, 64),
    "engine.n_fft": (int, 4096),
    "engine.max_periods": (int, 1_048_576),
    "engine.settling_factor_k": (float, None),
    "run.out_dir": (str, "out"),
    "run.metrics": (str, "spectral,eh"),
}

_SWITCH_TYPES = ("auto", "ideal", "constant", "pass")


@dataclass(frozen=True)
class RunOptions:
    """Output destination and which metrics a CLI run should compute."""

    out_dir: str
    spectral: bool
    eh: bool


class ParsedConfig:
    """Key/value mapping plus the source line of each key, for error anchoring."""

    def __init__(self, path: str):
        self.path = path
        self.values: dict[str, object] = {}
        self.lines: dict[str, int] = {}

    def get(self, key: str):
        if key in self.values:
            return self.values[key]
        return KEY_TABLE[key][1]

    def error(self, key: str, message: str) -> ConfigError:
        return ConfigError(message, self.path, self.lines.get(key))


def parse_config(text: str, path: str = "<config>") -> ParsedConfig:
    """Parse config text; unknown keys, bad values, and duplicates are errors."""
    cfg = ParsedConfig(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_TABLE:
            raise ConfigError(f"unknown key {key!r}", path, lineno)
        if key in cfg.values:
            raise ConfigError(
                f"duplicate key {key!r} (first set on line {cfg.lines[key]})", path, lineno
            )
        typ = KEY_TABLE[key][0]
        if typ is str:
            parsed: object = value
        else:
            try:
                parsed = typ(value)
            except ValueError:
                raise ConfigError(
                    f"key {key!r} needs a {typ.__name__}, got {value!r}", path, lineno
                ) from None
        if typ is float and not math.isfinite(parsed):
            raise ConfigError(f"key {key!r} must be finite, got {value!r}", path, lineno)
        cfg.values[key] = parsed
        cfg.lines[key] = lineno
    return cfg


def load_config(path) -> ParsedConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    return parse_config(text, str(path))


def _switch_from(cfg: ParsedConfig, prefix: str, allow_auto: bool):
    kind = cfg.get(f"{prefix}.type")
    if kind not in _SWITCH_TYPES:
        raise cfg.error(f"{prefix}.type", f"switch type must be one of {_SWITCH_TYPES}, got {kind!r}")
    if kind == "auto":
        if not allow_auto:
            raise cfg.error(f"{prefix}.type", "only the sampling switch supports type 'auto'")
        return "auto"
    if kind == "ideal":
        return Switch.ideal()
    if kind == "constant":
        r = cfg.get(f"{prefix}.r_on")
        if r is None:
            raise cfg.error(f"{prefix}.type", f"{prefix}.r_on is required for a constant switch")
        try:
            return Switch.constant(r)
        except ValueError as exc:
            raise cfg.error(f"{prefix}.r_on", str(exc)) from exc
    for field in ("k_gain", "v_th", "v_gate"):
        if cfg.get(f"{prefix}.{field}") is None:
            raise cfg.error(
                f"{prefix}.type", f"{prefix}.{field} is required for a pass-transistor switch"
            )
    try:
        return Switch.pass_transistor(
            cfg.get(f"{prefix}.k_gain"), cfg.get(f"{prefix}.v_th"), cfg.get(f"{prefix}.v_gate")
        )
    except ValueError as exc:
        raise cfg.error(f"{prefix}.k_gain", str(exc)) from exc


def build_scenario(cfg: ParsedConfig) -> tuple[Scenario, RunOptions]:
    """Construct a Scenario (plus run options) from parsed keys.

    Constructor invariants of the domain types are re-raised as ConfigError
    anchored to the offending key's line where possible.
    """
    for key, (_, default) in KEY_TABLE.items():
        if default is _REQUIRED and key not in cfg.values:
            raise ConfigError(f"missing required key {key!r}", cfg.path)

    n_fft = cfg.get("engine.n_fft")
    f_s = cfg.get("clock.f_s_hz")

    has_freq = cfg.get("signal.freq_hz") is not None
    has_m = cfg.get("signal.m_cycles") is not None
    if has_freq == has_m:
        raise ConfigError(
            "exactly one of signal.freq_hz and signal.m_cycles must be set", cfg.path
        )
    try:
        if has_m:
            freq = coherent_frequency(f_s, n_fft, cfg.get("signal.m_cycles"))
        else:
            freq = cfg.get("signal.freq_hz")
        source = SineSource(
            amplitude=cfg.get("signal.amplitude_v"),
            frequency=freq,
            phase=cfg.get("signal.phase_rad"),
            dc_offset=cfg.get("signal.dc_offset_v"),
            source_resistance=cfg.get("signal.r_source_ohm"),
        )
        clock = ClockPlan(
            f_s=f_s,
            alpha=cfg.get("clock.alpha"),
            n_periods=cfg.get("clock.n_periods"),
        )
        adc = AdcConfig(
            n_bits=cfg.get("adc.n_bits"),
            v_ref=cfg.get("adc.v_ref"),
            c_unit=cfg.get("adc.c_unit_f"),
            s1=_switch_from(cfg, "switch.s1", allow_auto=True),
        )
        eh = EhConfig(
            c_eh=cfg.get("eh.c_eh_f"),
            rectifier=RectifierModel(
                v_drop=cfg.get("eh.v_drop_v"),
                r_series=cfg.get("eh.r_series_ohm"),
            ),
            s2=_switch_from(cfg, "switch.s2", allow_auto=False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), cfg.path) from exc

    p_in = None
    if cfg.get("signal.p_in_w") is not None:
        try:
            p_in = InputPowerSpec(cfg.get("signal.p_in_w"), PowerProvenance.CONFIGURED)
        except ValueError as exc:
            raise cfg.error("signal.p_in_w", str(exc)) from exc

    scenario = Scenario(
        source=source,
        clock=clock,
        adc=adc,
        eh=eh,
        p_in=p_in,
        n_sub=cfg.get("engine.n_sub"),
        n_fft=n_fft,
        settling_factor_k=cfg.get("engine.settling_factor_k"),
        max_periods=cfg.get("engine.max_periods"),
        steady_tol=cfg.get("eh.steady_tol"),
    )

    metrics = [m.strip() for m in str(cfg.get("run.metrics")).split(",") if m.strip()]
    unknown = set(metrics) - {"spectral", "eh"}
    if unknown:
        raise cfg.error("run.metrics", f"unknown metrics {sorted(unknown)}")
    options = RunOptions(
        out_dir=str(cfg.get("run.out_dir")),
        spectral="spectral" in metrics,
        eh="eh" in metrics,
    )
    return scenario, options
