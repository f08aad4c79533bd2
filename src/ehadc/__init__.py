"""Behavioral simulator for an ADC front end that harvests energy from its
input signal during the hold phase of every sampling period.

The package splits a sampling period into an acquisition interval (the
sampling switch settles the SAR converter's DAC capacitance onto the input)
and a harvesting interval (a rectifier charges a storage capacitor from the
same input). It reproduces converter quality (SNDR/ENOB under coherent
sampling) and harvesting figures (steady-state voltage, charge time, voltage
and energy efficiency) for configurable scenarios, plus the design equations
for sizing the storage capacitor and budgeting a boost stage.
"""

import importlib

# The module that defines each public name, imported on first use
# (__getattr__). So `import ehadc` loads no numpy, and the ehadc command
# (__main__) can set its environment before numpy loads.
_EXPORTS = {
    name: module
    for module, names in {
        "clocking": ["ClockPlan", "Phase", "time_grid"],
        "engine": ["Scenario", "SimulationResult", "SweepRow", "TransientTrace", "run", "sweep"],
        "errors": ["ConfigError", "NotConverged", "ValidationError"],
        "frontend": ["Switch", "SwitchKind", "default_settling_factor", "r_on", "rc_step_value", "required_r_on"],
        "harvester": [
            "EhConfig",
            "EhMetrics",
            "RectifierModel",
            "boost_charge_time",
            "harvested_energy",
            "rectified_envelope",
            "size_capacitor",
            "steady_state_metrics",
        ],
        "sar_adc": ["AdcConfig", "c_dac", "dac_output", "sar_convert"],
        "spectral": ["Spectrum", "enob", "sndr", "spectrum"],
        "stimulus": ["SineSource", "coherent_frequency", "rms_power"],
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
