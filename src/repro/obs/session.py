"""Telemetry sessions: the glue between instruments and instrumented code.

A :class:`Telemetry` session bundles one metrics registry, one span
tracer and one event log.  Instrumented code never holds a session —
it calls the module-level helpers (:func:`span`, :func:`add`,
:func:`observe`, :func:`emit`, ...) which read the *current* session
from a :class:`contextvars.ContextVar`:

* no session installed -> every helper is a near-free no-op (one
  context-variable read), which is how the kernel hot path stays within
  the 3 % overhead budget when telemetry is off;
* a session installed with :func:`session` -> all helpers record into
  it.  Sessions are context-local, so thread-pool jobs running
  concurrently in one process each record into their own session and
  the per-job snapshots never double count.

Cross-process flow: a worker job runs under its own session, freezes it
into a :class:`TelemetrySnapshot` (plain picklable data), and attaches
the snapshot to its :class:`~repro.core.results.SimulationResult`; the
batch layer merges every snapshot into its session with
:meth:`Telemetry.merge_snapshot`.  Because counter merge is addition,
gauge merge is max and histogram merge is per-bucket addition, the
aggregate is identical for serial, thread and process executors.

Environment knobs (validated, ``ConfigurationError`` names the
variable on malformed values):

* ``REPRO_TELEMETRY`` — boolean flag enabling telemetry by default;
* ``REPRO_TELEMETRY_DIR`` — default directory for run artefacts
  (``manifest.json``, ``events.jsonl``, ``metrics.prom``).
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import _env
from .events import Event, EventLog
from .metrics import (
    DEFAULT_TEG_POWER_BUCKETS_W,
    MetricsRegistry,
    MetricsSnapshot,
)
from .spans import NULL_SPAN, Tracer

__all__ = [
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_DIR_ENV_VAR",
    "Telemetry",
    "TelemetrySnapshot",
    "current",
    "session",
    "span",
    "add",
    "gauge_max",
    "observe",
    "emit",
    "record_result",
    "telemetry_enabled",
    "resolve_telemetry_dir",
]

#: Environment variable enabling telemetry by default (boolean flag).
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: Environment variable naming the default run-artefact directory.
TELEMETRY_DIR_ENV_VAR = "REPRO_TELEMETRY_DIR"

#: Cap on per-run safety-violation events so a pathological run cannot
#: balloon the event log; the full count is always in the metrics.
MAX_VIOLATION_EVENTS = 50


def telemetry_enabled(explicit: bool | None = None) -> bool:
    """Whether telemetry is on: explicit > ``REPRO_TELEMETRY`` > off.

    Raises
    ------
    ConfigurationError
        When ``REPRO_TELEMETRY`` is set to something that is not a
        boolean word (``1/0``, ``true/false``, ``yes/no``, ``on/off``).
    """
    return _env.flag(explicit, TELEMETRY_ENV_VAR)


def resolve_telemetry_dir(explicit: str | Path | None = None) -> Path | None:
    """Artefact directory: explicit > ``REPRO_TELEMETRY_DIR`` > ``None``.

    Raises
    ------
    ConfigurationError
        When ``REPRO_TELEMETRY_DIR`` is blank, or either source names an
        existing path that is not a directory.
    """
    return _env.directory(explicit, TELEMETRY_DIR_ENV_VAR,
                          "telemetry directory")


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One session frozen to plain data (what worker processes pickle)."""

    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    spans: dict = field(default_factory=dict)
    events: tuple[Event, ...] = ()

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Combine two snapshots with the standard order-free semantics."""
        tracer = Tracer()
        tracer.merge(self.spans)
        tracer.merge(other.spans)
        return TelemetrySnapshot(
            metrics=self.metrics.merge(other.metrics),
            spans=tracer.snapshot(),
            events=self.events + other.events,
        )


class Telemetry:
    """One live telemetry session: registry + tracer + event log."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog()

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the whole session into picklable plain data."""
        return TelemetrySnapshot(
            metrics=self.registry.snapshot(),
            spans=self.tracer.snapshot(),
            events=tuple(self.events.snapshot()),
        )

    def merge_snapshot(self, snap: TelemetrySnapshot) -> None:
        """Fold a (worker) snapshot into this session."""
        self.registry.merge(snap.metrics)
        self.tracer.merge(snap.spans)
        self.events.extend(snap.events)


_CURRENT: contextvars.ContextVar[Telemetry | None] = contextvars.ContextVar(
    "repro_obs_telemetry", default=None)


def current() -> Telemetry | None:
    """The session helpers record into right now (``None`` = disabled)."""
    return _CURRENT.get()


@contextmanager
def session(telemetry: Telemetry | None):
    """Install ``telemetry`` as the current session for the block.

    ``session(None)`` explicitly disables recording inside the block
    (used to shield nested code from an outer session).
    """
    token = _CURRENT.set(telemetry)
    try:
        yield telemetry
    finally:
        _CURRENT.reset(token)


def span(name: str):
    """A timing span under the current session (no-op when disabled)."""
    telemetry = _CURRENT.get()
    if telemetry is None:
        return NULL_SPAN
    return telemetry.tracer.span(name)


def add(name: str, amount: float = 1.0,
        labels: dict[str, object] | None = None) -> None:
    """Increment the counter ``name`` (no-op when disabled)."""
    telemetry = _CURRENT.get()
    if telemetry is not None:
        telemetry.registry.counter(name, labels).inc(amount)


def gauge_max(name: str, value: float,
              labels: dict[str, object] | None = None) -> None:
    """Raise the gauge ``name`` to at least ``value`` (no-op disabled)."""
    telemetry = _CURRENT.get()
    if telemetry is not None:
        telemetry.registry.gauge(name, labels).set_max(value)


def observe(name: str, values,
            buckets: tuple[float, ...] = DEFAULT_TEG_POWER_BUCKETS_W,
            labels: dict[str, object] | None = None) -> None:
    """Fold observations into the histogram ``name`` (no-op disabled).

    Non-finite observations are skipped by the histogram rather than
    poisoning its sum; when any are dropped an ``obs.histogram_skipped``
    event records the series and how many were skipped.
    """
    telemetry = _CURRENT.get()
    if telemetry is not None:
        dropped = telemetry.registry.histogram(
            name, buckets, labels).observe_many(
                np.asarray(values, dtype=float))
        if dropped:
            telemetry.events.emit("obs.histogram_skipped", metric=name,
                                  dropped=dropped)


def emit(kind: str, **data) -> None:
    """Record a structured event (no-op when disabled)."""
    telemetry = _CURRENT.get()
    if telemetry is not None:
        telemetry.events.emit(kind, **data)


def record_result(result, circulation_size: int | None = None) -> None:
    """Fold one finished :class:`SimulationResult` into the session.

    Called by the simulator/kernel at the end of every run; the whole
    recording is column-level NumPy work, so it costs a handful of array
    passes per *run* (never per step).  Catalogue (see
    ``docs/observability.md``): ``sim.runs``, ``sim.steps``,
    ``sim.safety_violations``, ``sim.degraded_steps``,
    ``sim.lost_harvest_kwh``, gauge ``sim.max_cpu_temp_c`` and the
    ``teg.power_w`` per-CPU generation histogram — every series labelled
    ``{scheme, trace}``.  When the caller supplies ``circulation_size``
    (the simulator passes its config's), safety violations are
    additionally broken down per circulation as
    ``sim.circulation.safety_violations{scheme, trace, circulation}``;
    violation ``server_id``s are already in the global frame on every
    path that records results, so the labelled totals are identical
    whichever executor ran the jobs.  Safety violations are also emitted
    as events (capped at :data:`MAX_VIOLATION_EVENTS` per run).
    """
    telemetry = _CURRENT.get()
    if telemetry is None:
        return
    registry = telemetry.registry
    labels = {"scheme": result.scheme, "trace": result.trace_name}
    n_steps = len(result.records)
    registry.counter("sim.runs", labels).inc()
    registry.counter("sim.steps", labels).inc(n_steps)
    if n_steps == 0:
        return
    registry.counter("sim.safety_violations", labels).inc(
        result.total_safety_violations)
    registry.counter("sim.degraded_steps", labels).inc(
        result.degraded_steps)
    registry.counter("sim.lost_harvest_kwh", labels).inc(
        result.total_lost_harvest_kwh)
    registry.gauge("sim.max_cpu_temp_c", labels).set_max(
        float(np.max(result._series("max_cpu_temp_c"))))
    registry.histogram("teg.power_w", labels=labels).observe_many(
        result.generation_series_w)
    if circulation_size is not None and circulation_size > 0:
        per_circ: dict[int, int] = {}
        for violation in result.violations:
            circ = violation.server_id // circulation_size
            per_circ[circ] = per_circ.get(circ, 0) + 1
        for circ, count in per_circ.items():
            registry.counter(
                "sim.circulation.safety_violations",
                {**labels, "circulation": str(circ)}).inc(count)
    for violation in result.violations[:MAX_VIOLATION_EVENTS]:
        telemetry.events.emit(
            "sim.safety_violation",
            scheme=result.scheme, trace=result.trace_name,
            server_id=violation.server_id,
            step_index=violation.step_index,
            time_s=violation.time_s,
            temperature_c=round(violation.temperature_c, 3))
    dropped = len(result.violations) - MAX_VIOLATION_EVENTS
    if dropped > 0:
        telemetry.events.emit(
            "sim.safety_violations_truncated",
            scheme=result.scheme, trace=result.trace_name,
            dropped=dropped)
