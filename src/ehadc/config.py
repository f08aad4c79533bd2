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
from .stimulus import SineSource, coherent_frequency

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
    "engine.settling_factor_k": (float, None),
    "run.out_dir": (str, "out"),
    "run.metrics": (str, "spectral,eh"),
}

_SWITCH_TYPES = ("auto", "ideal", "constant", "pass")

# The sweep names of earlier releases, kept as the parameter text of
# sweep.csv, and the config key each sets.
SWEEP_ALIASES = {"alpha": "clock.alpha", "f_s": "clock.f_s_hz", "c_eh": "eh.c_eh_f", "v_drop": "eh.v_drop_v",
                 "n_bits": "adc.n_bits", "r_on_s1": "switch.s1.r_on"}

# What a sweep may set: an alias or a numeric key.
SWEEP_KEYS = (*SWEEP_ALIASES, *(key for key, (typ, _) in KEY_TABLE.items() if typ is not str))


@dataclass(frozen=True)
class RunOptions:
    """Output destination and which metrics a CLI run should compute."""

    out_dir: str
    spectral: bool
    eh: bool


class ParsedConfig:
    """Key/value mapping plus the source line of each key, for error anchoring."""

    def __init__(self, path: str | None):
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
    if kind == "auto" and not allow_auto:
        raise cfg.error(f"{prefix}.type", "only the sampling switch supports type 'auto'")
    read = {"constant": ("r_on",), "pass": ("k_gain", "v_th", "v_gate")}.get(kind, ())
    for key in (f"{prefix}.{f}" for f in ("r_on", "k_gain", "v_th", "v_gate") if f not in read):
        if key in cfg.values:
            raise cfg.error(key, f"{key} is not used by switch type {kind!r}")
    if kind == "auto":
        return "auto"
    if kind == "ideal":
        return Switch.ideal()
    values = [cfg.get(f"{prefix}.{field}") for field in read]
    for field, value in zip(read, values):
        if value is None:
            name = "pass-transistor" if kind == "pass" else kind
            raise cfg.error(f"{prefix}.type", f"{prefix}.{field} is required for a {name} switch")
    try:
        return (Switch.constant if kind == "constant" else Switch.pass_transistor)(*values)
    except ValueError as exc:  # anchored at the key its message names
        field = next((f for f in read if f in str(exc)), "type")
        raise cfg.error(f"{prefix}.{field}", str(exc)) from exc


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

    p_in = cfg.get("signal.p_in_w")
    if p_in is not None and not (p_in > 0.0):
        raise cfg.error("signal.p_in_w", f"signal.p_in_w must be positive, got {p_in}")

    scenario = Scenario(
        source=source,
        clock=clock,
        adc=adc,
        eh=eh,
        p_in=p_in,
        n_sub=cfg.get("engine.n_sub"),
        n_fft=n_fft,
        settling_factor_k=cfg.get("engine.settling_factor_k"),
        steady_tol=cfg.get("eh.steady_tol"),
    )

    metrics = [m.strip() for m in str(cfg.get("run.metrics")).split(",") if m.strip()]
    unknown = set(metrics) - {"spectral", "eh"}
    if unknown:
        raise cfg.error("run.metrics", f"unknown metrics {sorted(unknown)}")
    out_dir = cfg.get("run.out_dir")
    if not out_dir:
        raise cfg.error("run.out_dir", "run.out_dir must not be empty")
    options = RunOptions(
        out_dir=out_dir,
        spectral="spectral" in metrics,
        eh="eh" in metrics,
    )
    return scenario, options


def scenario_with(cfg: ParsedConfig, key: str, value: float) -> Scenario:
    """The scenario of cfg with one SWEEP_KEYS key set to value, built as a
    config that sets it on its own line would be.

    The value passes the checks of a config line: a float key's must be
    finite and an int key's a whole number. r_on_s1 also makes S1 a
    constant switch, dropping any pass-transistor keys of S1. Its errors
    name no file, since the scenario is not the file's.

    Raises:
        ValueError: key is not in SWEEP_KEYS.
        ConfigError: the value or the scenario it gives is invalid.
    """
    if key not in SWEEP_KEYS:
        raise ValueError(f"cannot sweep {key!r}: it is neither an alias nor a numeric config key")
    point = ParsedConfig(None)
    point.values = dict(cfg.values)
    if key == "r_on_s1":
        for field in ("k_gain", "v_th", "v_gate"):
            point.values.pop(f"switch.s1.{field}", None)
        point.values["switch.s1.type"] = "constant"
    key = SWEEP_ALIASES.get(key, key)
    if KEY_TABLE[key][0] is int:
        if not float(value).is_integer():
            raise ConfigError(f"key {key!r} needs a whole number, got {value!r}")
        value = int(value)
    elif not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {value!r}")
    point.values[key] = value
    return build_scenario(point)[0]
