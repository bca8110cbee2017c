"""Scenario builder: composable synthetic events on utilisation traces.

The three class generators reproduce the paper's traces statistically;
stress-testing a *policy* needs targeted events instead — a step, a
ramp, a synchronized surge, a runaway server.  :class:`ScenarioBuilder`
starts from any base trace (or a flat background) and layers events on
chosen servers and time windows, always clipping to ``[0, 1]``.

>>> from repro.workloads.scenarios import ScenarioBuilder
>>> trace = (ScenarioBuilder(n_servers=20, duration_s=7200.0)
...          .background(0.2)
...          .step(start_s=1800.0, magnitude=0.6, servers=[3])
...          .build())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, PhysicalRangeError
from .trace import WorkloadTrace


@dataclass
class ScenarioBuilder:
    """Fluent builder for event-driven traces.

    Attributes
    ----------
    n_servers / duration_s / interval_s:
        Shape of the trace being built.
    base:
        Optional base trace to start from (its shape wins over the
        explicit dimensions).
    """

    n_servers: int = 20
    duration_s: float = 12 * 3600.0
    interval_s: float = 300.0
    base: WorkloadTrace | None = None
    name: str = "scenario"
    _matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.base is not None:
            self._matrix = self.base.utilisation.copy()
            self.n_servers = self.base.n_servers
            self.duration_s = self.base.duration_s
            self.interval_s = self.base.interval_s
        else:
            if self.n_servers <= 0:
                raise PhysicalRangeError("n_servers must be > 0")
            if self.duration_s <= 0 or self.interval_s <= 0:
                raise PhysicalRangeError(
                    "duration and interval must be > 0")
            steps = int(round(self.duration_s / self.interval_s))
            if steps == 0:
                raise PhysicalRangeError(
                    "duration shorter than one interval")
            self._matrix = np.zeros((steps, self.n_servers))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _steps(self) -> int:
        return self._matrix.shape[0]

    def _window(self, start_s: float, duration_s: float | None,
                ) -> slice:
        if start_s < 0:
            raise PhysicalRangeError("start_s must be >= 0")
        start = int(start_s / self.interval_s)
        if start >= self._steps():
            raise ConfigurationError(
                f"event at {start_s}s starts after the trace ends")
        if duration_s is None:
            return slice(start, self._steps())
        if duration_s <= 0:
            raise PhysicalRangeError("event duration must be > 0")
        stop = min(self._steps(),
                   start + max(1, int(round(duration_s
                                            / self.interval_s))))
        return slice(start, stop)

    def _columns(self, servers: Sequence[int] | None) -> np.ndarray:
        if servers is None:
            return np.arange(self.n_servers)
        columns = np.asarray(list(servers), dtype=int)
        if columns.size == 0:
            raise ConfigurationError("server list must not be empty")
        if np.any((columns < 0) | (columns >= self.n_servers)):
            raise ConfigurationError(
                f"server indices must be in [0, {self.n_servers})")
        return columns

    # ------------------------------------------------------------------
    # Events (each returns self for chaining)
    # ------------------------------------------------------------------

    def background(self, level: float,
                   servers: Sequence[int] | None = None,
                   ) -> "ScenarioBuilder":
        """Set a constant background utilisation."""
        if not 0.0 <= level <= 1.0:
            raise PhysicalRangeError("level must be in [0, 1]")
        self._matrix[:, self._columns(servers)] = level
        return self

    def step(self, start_s: float, magnitude: float,
             duration_s: float | None = None,
             servers: Sequence[int] | None = None) -> "ScenarioBuilder":
        """Add a rectangular load step (negative magnitude allowed)."""
        window = self._window(start_s, duration_s)
        self._matrix[window][:, self._columns(servers)] += magnitude
        return self

    def ramp(self, start_s: float, duration_s: float, magnitude: float,
             servers: Sequence[int] | None = None) -> "ScenarioBuilder":
        """Add a linear ramp from 0 to ``magnitude`` over the window,
        holding the final level afterwards."""
        window = self._window(start_s, duration_s)
        length = window.stop - window.start
        profile = np.linspace(0.0, magnitude, length)
        columns = self._columns(servers)
        self._matrix[window.start:window.stop][:, columns] += \
            profile[:, None]
        if window.stop < self._steps():
            self._matrix[window.stop:][:, columns] += magnitude
        return self

    def sine(self, period_s: float, amplitude: float,
             servers: Sequence[int] | None = None) -> "ScenarioBuilder":
        """Add a sinusoidal modulation over the whole trace."""
        if period_s <= 0:
            raise PhysicalRangeError("period must be > 0")
        if amplitude < 0:
            raise PhysicalRangeError("amplitude must be >= 0")
        t = np.arange(self._steps()) * self.interval_s
        wave = amplitude * np.sin(2.0 * np.pi * t / period_s)
        self._matrix[:, self._columns(servers)] += wave[:, None]
        return self

    def runaway(self, server: int, start_s: float) -> "ScenarioBuilder":
        """Pin one server at 100 % from ``start_s`` onward (a stuck
        process — the hot-spot generator of Sec. II-B)."""
        window = self._window(start_s, None)
        self._matrix[window, server] = 1.0
        return self

    def noise(self, sigma: float, seed: int = 0,
              servers: Sequence[int] | None = None) -> "ScenarioBuilder":
        """Add iid Gaussian noise."""
        if sigma < 0:
            raise PhysicalRangeError("sigma must be >= 0")
        rng = np.random.default_rng(seed)
        columns = self._columns(servers)
        self._matrix[:, columns] += rng.normal(
            0.0, sigma, size=(self._steps(), columns.size))
        return self

    # ------------------------------------------------------------------

    def build(self) -> WorkloadTrace:
        """Clip to [0, 1] and produce the trace."""
        return WorkloadTrace._owning(np.clip(self._matrix, 0.0, 1.0),
                                     self.interval_s, name=self.name)
