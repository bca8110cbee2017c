"""Live telemetry plane: an in-process Prometheus scrape endpoint.

A :class:`LiveTelemetryServer` is a stdlib-only ``http.server`` thread
that exposes the *current* state of a run while it is still in flight:

* ``GET /metrics`` — the shared registry rendered in the Prometheus
  text exposition format (labelled ``repro_*`` series), exactly what
  ``metrics.prom`` would contain if the run stopped now;
* ``GET /healthz`` — a JSON liveness document: run phase, jobs and
  shards completed/total.

The server holds a reference to a live :class:`~repro.obs.session.
Telemetry` (bound per run with :meth:`LiveTelemetryServer.bind`) and a
:class:`RunHealth` progress tracker the engine updates from its
coordinator thread.  Scrapes snapshot the registry over a point-in-time
copy of its instrument table, so the run thread never blocks on a
scrape and the scrape never observes a torn dict.  Everything here is
strictly observational: simulation records are bit-identical with the
endpoint attached or not.

Attachment points: ``BatchSimulationEngine(metrics_port=N)`` /
``run_batch(metrics_port=N)``, ``h2p batch --metrics-port N``, or the
``REPRO_METRICS_PORT`` environment variable, which an engine reads
(validated; port ``0`` binds an ephemeral port and the bound address is
reported).  The engine shuts the server down in ``close()``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .. import _env
from ..errors import ConfigurationError
from .export import prometheus_text
from .session import Telemetry

__all__ = [
    "METRICS_PORT_ENV_VAR",
    "resolve_metrics_port",
    "RunHealth",
    "LiveTelemetryServer",
]

#: Environment variable naming the default live-scrape port.
METRICS_PORT_ENV_VAR = "REPRO_METRICS_PORT"


def resolve_metrics_port(explicit: int | None = None) -> int | None:
    """Scrape port: explicit > ``REPRO_METRICS_PORT`` > ``None`` (off).

    Raises
    ------
    ConfigurationError
        When either source is not an integer in ``[0, 65535]`` (``0``
        asks the OS for an ephemeral port).
    """
    return _env.number(explicit, METRICS_PORT_ENV_VAR, "metrics_port",
                       positive=False, most=65535)


class RunHealth:
    """Thread-safe progress state behind ``GET /healthz``.

    The engine's coordinator thread mutates it (phase transitions, job
    and shard completions); the scrape thread renders it.  All methods
    take the lock, none are on a per-step hot path — the finest
    granularity is one call per job or shard.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.phase = "idle"
        self.jobs_total = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.shards_total = 0
        self.shards_completed = 0
        self.runs = 0

    def begin(self, *, jobs_total: int = 0, shards_total: int = 0) -> None:
        """Reset progress for a new run (phase becomes ``running``)."""
        with self._lock:
            self.phase = "running"
            self.jobs_total = jobs_total
            self.jobs_completed = 0
            self.jobs_failed = 0
            self.shards_total = shards_total
            self.shards_completed = 0
            self.runs += 1

    def set_phase(self, phase: str) -> None:
        with self._lock:
            self.phase = phase

    def shard_done(self, n: int = 1) -> None:
        with self._lock:
            self.shards_completed += n

    def job_done(self, *, failed: bool = False) -> None:
        with self._lock:
            if failed:
                self.jobs_failed += 1
            else:
                self.jobs_completed += 1

    def finish(self, phase: str = "done") -> None:
        with self._lock:
            self.phase = phase

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "phase": self.phase,
                "runs": self.runs,
                "jobs": {"completed": self.jobs_completed,
                         "failed": self.jobs_failed,
                         "total": self.jobs_total},
                "shards": {"completed": self.shards_completed,
                           "total": self.shards_total},
            }


class _ScrapeHandler(BaseHTTPRequestHandler):
    """Routes ``/metrics`` and ``/healthz``; everything else is 404."""

    server_version = "repro-obs-live/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            telemetry = self.server.live_telemetry
            text = (prometheus_text(telemetry.registry.snapshot())
                    if telemetry is not None else "")
            self._reply(200, text,
                        "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            health = self.server.live_health
            body = json.dumps(
                health.to_dict() if health is not None
                else {"phase": "idle"}, sort_keys=True) + "\n"
            self._reply(200, body, "application/json")
        else:
            self._reply(404, f"no such route: {path}\n", "text/plain")

    def _reply(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args) -> None:
        """Scrapes are high-frequency; never write them to stderr."""


class _LiveHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Scrape targets restart often in tests and CI; never fight TIME_WAIT.
    allow_reuse_address = True

    live_telemetry: Telemetry | None = None
    live_health: RunHealth | None = None


class LiveTelemetryServer:
    """Serve ``/metrics`` and ``/healthz`` for a run in flight.

    The server binds eagerly at construction (so callers can report the
    resolved address before any work starts), serves from a daemon
    thread, and is re-bindable: each engine run points it at that run's
    live session with :meth:`bind`.  :meth:`close` shuts the listener
    down and joins the thread — the engine calls it from ``close()`` so
    a context-managed engine never leaks the port.
    """

    def __init__(self, *, port: int = 0, host: str = "127.0.0.1") -> None:
        try:
            self._server = _LiveHTTPServer((host, port), _ScrapeHandler)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot bind live metrics endpoint on {host}:{port}: "
                f"{exc}") from exc
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-obs-live", daemon=True)
        self._thread.start()
        self._closed = False

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The actually bound port (resolved when constructed with 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def bind(self, telemetry: Telemetry | None,
             health: RunHealth | None = None) -> None:
        """Point ``/metrics`` (and ``/healthz``) at a live session."""
        self._server.live_telemetry = telemetry
        self._server.live_health = health

    def close(self) -> None:
        """Stop serving and join the listener thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._thread.join(timeout=5.0)
        self._server.server_close()

    def __enter__(self) -> "LiveTelemetryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
