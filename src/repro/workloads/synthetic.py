"""Synthetic stand-ins for the Alibaba and Google cluster traces.

The paper classifies its evaluation workloads into three types (Sec. V-C):

* **drastic** — Alibaba cluster, 1,313 servers over 12 hours; "drastic and
  frequent fluctuations" of CPU utilisation;
* **irregular** — 1,000 Google servers over 24 hours; "relatively common,
  but with occasional high peaks";
* **common** — another 1,000 Google servers over 24 hours; "very little
  fluctuations".

The raw traces are not redistributable, so the generators below synthesise
traces with the same qualitative structure and with mean utilisations
back-solved from the paper's own PRE numbers (PRE = generation / CPU power
with Eq. 20 pins the average utilisation of each class to ~0.26 / ~0.19 /
~0.25 respectively).  Every generator is deterministic given a seed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import PhysicalRangeError
from .trace import WorkloadTrace

#: Native sampling interval of the synthetic traces (matches the control
#: interval of Sec. V-B so no resampling is needed by default).
DEFAULT_INTERVAL_S = 300.0


def _rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def _diurnal(n_steps: int, interval_s: float, amplitude: float,
             phase_h: float = 14.0) -> np.ndarray:
    """Daily load curve peaking at ``phase_h`` o'clock (Sec. VI-B:
    "during the peak hours (midday to the evening) the CPU load is
    generally high")."""
    hours = np.arange(n_steps) * interval_s / 3600.0
    return amplitude * np.cos((hours - phase_h) / 24.0 * 2.0 * np.pi)


def _ar1(rng: np.random.Generator, n_steps: int, n_servers: int,
         rho: float, sigma: float) -> np.ndarray:
    """Per-server AR(1) noise with persistence ``rho``.

    The recursion ``x[t] = rho * x[t - 1] + noise[t]`` runs inside the
    drawn noise array, so the plane is allocated once.
    """
    series = rng.normal(0.0, sigma, size=(n_steps, n_servers))
    carried = np.empty(n_servers)
    for t in range(1, n_steps):
        series[t] += np.multiply(rho, series[t - 1], out=carried)
    return series


def _steps(duration_s: float, interval_s: float) -> int:
    if duration_s <= 0 or interval_s <= 0:
        raise PhysicalRangeError(
            "duration and interval must both be > 0")
    n_steps = int(round(duration_s / interval_s))
    if n_steps == 0:
        raise PhysicalRangeError(
            "duration shorter than one interval")
    return n_steps


def drastic_trace(n_servers: int = 1313, duration_s: float = 12 * 3600.0,
                  interval_s: float = DEFAULT_INTERVAL_S,
                  seed: int | None = 0) -> WorkloadTrace:
    """Alibaba-like trace: large, fast, frequent utilisation swings.

    Mean utilisation ~0.26 with heavy step-to-step movement: weakly
    persistent AR(1) noise, random square-wave batch jobs and a diurnal
    baseline.
    """
    rng = _rng(seed)
    n_steps = _steps(duration_s, interval_s)
    base = 0.22 + _diurnal(n_steps, interval_s, amplitude=0.05)
    matrix = _ar1(rng, n_steps, n_servers, rho=0.3, sigma=0.07)
    # Batch jobs: rectangular bursts of extra load on random servers.
    bursts = np.zeros((n_steps, n_servers))
    n_bursts = max(1, n_steps * n_servers // 40)
    starts = rng.integers(0, n_steps, size=n_bursts)
    servers = rng.integers(0, n_servers, size=n_bursts)
    lengths = rng.integers(1, max(2, n_steps // 6), size=n_bursts)
    heights = rng.uniform(0.12, 0.32, size=n_bursts)
    for start, server, length, height in zip(starts, servers, lengths,
                                             heights):
        bursts[start:start + length, server] += height
    # Cluster schedulers keep CPU headroom; sustained utilisation above
    # ~90 % is rare in the public Alibaba data, so stacked bursts saturate
    # there rather than at the theoretical 100 %.
    matrix += base[:, None]
    matrix += bursts
    np.clip(matrix, 0.0, 0.90, out=matrix)
    return WorkloadTrace._owning(matrix, interval_s, name="drastic")


def irregular_trace(n_servers: int = 1000, duration_s: float = 24 * 3600.0,
                    interval_s: float = DEFAULT_INTERVAL_S,
                    seed: int | None = 1) -> WorkloadTrace:
    """Google-like trace with occasional high peaks.

    Mean utilisation ~0.19; smooth persistent background with rare,
    tall utilisation spikes on a few servers at a time.
    """
    rng = _rng(seed)
    n_steps = _steps(duration_s, interval_s)
    base = 0.17 + _diurnal(n_steps, interval_s, amplitude=0.04)
    matrix = _ar1(rng, n_steps, n_servers, rho=0.9, sigma=0.02)
    spikes = np.zeros((n_steps, n_servers))
    n_spikes = max(1, n_steps * n_servers // 400)
    starts = rng.integers(0, n_steps, size=n_spikes)
    servers = rng.integers(0, n_servers, size=n_spikes)
    lengths = rng.integers(1, 4, size=n_spikes)
    heights = rng.uniform(0.5, 0.8, size=n_spikes)
    for start, server, length, height in zip(starts, servers, lengths,
                                             heights):
        spikes[start:start + length, server] += height
    matrix += base[:, None]
    matrix += spikes
    np.clip(matrix, 0.0, 1.0, out=matrix)
    return WorkloadTrace._owning(matrix, interval_s, name="irregular")


def common_trace(n_servers: int = 1000, duration_s: float = 24 * 3600.0,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 seed: int | None = 2) -> WorkloadTrace:
    """Google-like trace with very little fluctuation.

    Mean utilisation ~0.25; strongly persistent noise with small variance
    and a gentle diurnal swing, no spikes.
    """
    rng = _rng(seed)
    n_steps = _steps(duration_s, interval_s)
    base = 0.22 + _diurnal(n_steps, interval_s, amplitude=0.03)
    matrix = _ar1(rng, n_steps, n_servers, rho=0.97, sigma=0.008)
    # Server heterogeneity: most servers cluster near the base load, but a
    # small share host steadily busy services (the binding CPUs a shared
    # circulation must be cooled for).
    per_server_offset = rng.normal(0.0, 0.05, size=n_servers)
    hot = rng.random(n_servers) < 0.04
    per_server_offset[hot] += rng.uniform(0.18, 0.32, size=int(hot.sum()))
    matrix += base[:, None]
    matrix += per_server_offset
    np.clip(matrix, 0.0, 1.0, out=matrix)
    return WorkloadTrace._owning(matrix, interval_s, name="common")


#: Registry of the paper's three workload classes.
TRACE_GENERATORS: dict[str, Callable[..., WorkloadTrace]] = {
    "drastic": drastic_trace,
    "irregular": irregular_trace,
    "common": common_trace,
}


def trace_by_name(name: str, **kwargs) -> WorkloadTrace:
    """Generate one of the paper's trace classes by name.

    Parameters
    ----------
    name:
        One of ``"drastic"``, ``"irregular"``, ``"common"``.
    **kwargs:
        Forwarded to the generator (``n_servers``, ``duration_s``,
        ``interval_s``, ``seed``).
    """
    try:
        generator = TRACE_GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown trace class {name!r}; expected one of "
            f"{sorted(TRACE_GENERATORS)}") from None
    return generator(**kwargs)
