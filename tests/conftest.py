"""Shared fixtures for the H2P reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.lookup_space import LookupSpace
from repro.teg.module import default_server_module
from repro.thermal.cpu_model import CoolingSetting, CpuThermalModel
from repro.workloads.synthetic import (
    common_trace,
    drastic_trace,
    irregular_trace,
)


@pytest.fixture(scope="session")
def cpu_model() -> CpuThermalModel:
    """The paper-calibrated CPU thermal model."""
    return CpuThermalModel()


@pytest.fixture(scope="session")
def teg_module():
    """The 12-TEG per-server module of the prototype."""
    return default_server_module()


@pytest.fixture
def warm_setting() -> CoolingSetting:
    """A representative warm-water cooling setting."""
    return CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=45.0)


@pytest.fixture(scope="session")
def lookup_space() -> LookupSpace:
    """A shared (expensive-to-build) measurement space."""
    return LookupSpace()


@pytest.fixture(scope="session")
def tiny_traces() -> dict:
    """Small instances of the three paper trace classes (fast tests)."""
    kwargs = dict(n_servers=40, duration_s=4 * 3600.0, interval_s=300.0)
    return {
        "drastic": drastic_trace(seed=10, **kwargs),
        "irregular": irregular_trace(seed=11, **kwargs),
        "common": common_trace(seed=12, **kwargs),
    }


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that need randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def no_backoff(monkeypatch):
    """Retries without the engine's backoff sleep."""
    monkeypatch.setattr("repro.core.engine.RETRY_BACKOFF_S", 0.0)
