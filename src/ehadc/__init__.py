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

from .clocking import ClockPlan, Phase, time_grid
from .engine import (
    Scenario,
    SimulationResult,
    SweepRow,
    TransientTrace,
    run,
    sweep,
)
from .errors import ConfigError, NotConverged, ValidationError
from .frontend import (
    Switch,
    SwitchKind,
    default_settling_factor,
    r_on,
    rc_step_value,
    required_r_on,
)
from .harvester import (
    EhConfig,
    EhMetrics,
    RectifierModel,
    boost_charge_time,
    harvested_energy,
    rectified_envelope,
    size_capacitor,
    steady_state_metrics,
)
from .sar_adc import AdcConfig, c_dac, dac_output, sar_convert
from .spectral import Spectrum, enob, sndr, spectrum
from .stimulus import SineSource, coherent_frequency, rms_power

__version__ = "0.1.0"

__all__ = [
    "AdcConfig",
    "ClockPlan",
    "ConfigError",
    "EhConfig",
    "EhMetrics",
    "NotConverged",
    "Phase",
    "RectifierModel",
    "Scenario",
    "SimulationResult",
    "SineSource",
    "Spectrum",
    "SweepRow",
    "Switch",
    "SwitchKind",
    "TransientTrace",
    "ValidationError",
    "boost_charge_time",
    "c_dac",
    "coherent_frequency",
    "dac_output",
    "default_settling_factor",
    "enob",
    "harvested_energy",
    "r_on",
    "rc_step_value",
    "rectified_envelope",
    "required_r_on",
    "rms_power",
    "run",
    "sar_convert",
    "size_capacitor",
    "sndr",
    "spectrum",
    "steady_state_metrics",
    "sweep",
    "time_grid",
]
