"""Shared fixtures: the two reference scenarios, each simulated once per session."""

import time
from pathlib import Path

import pytest

from ehadc.config import build_scenario, load_config
from ehadc.engine import run

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_out_dir_override(monkeypatch):
    """Clear ESAMPLE_OUT_DIR, so each command writes where the test says."""
    monkeypatch.delenv("ESAMPLE_OUT_DIR", raising=False)


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def lowfreq_scenario():
    scenario, _ = build_scenario(load_config(REPO_ROOT / "configs" / "lowfreq.cfg"))
    return scenario


@pytest.fixture(scope="session")
def highfreq_scenario():
    scenario, _ = build_scenario(load_config(REPO_ROOT / "configs" / "highfreq.cfg"))
    return scenario


@pytest.fixture(scope="session")
def lowfreq_run(lowfreq_scenario):
    """(SimulationResult, elapsed seconds) for the 10 kHz reference scenario."""
    t0 = time.perf_counter()
    result = run(lowfreq_scenario)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def highfreq_run(highfreq_scenario):
    """(SimulationResult, elapsed seconds) for the 40 MHz reference scenario."""
    t0 = time.perf_counter()
    result = run(highfreq_scenario)
    return result, time.perf_counter() - t0
