"""``repro.obs`` — zero-dependency telemetry for the H2P reproduction.

Three pillars (see ``docs/observability.md`` for the full contract):

* **tracing** — nestable :func:`span` context managers building a
  hierarchical wall/CPU timing tree (:mod:`repro.obs.spans`);
* **metrics** — a process-local registry of counters, gauges and
  fixed-bucket histograms with order-free snapshot/merge semantics so
  worker registries aggregate exactly across serial, thread and process
  executors (:mod:`repro.obs.metrics`);
* **events + manifest** — a JSONL structured event log and a per-run
  ``manifest.json`` with config, git SHA, environment, timings and
  metric totals (:mod:`repro.obs.events`, :mod:`repro.obs.manifest`).

Instrumented code calls the module-level helpers; with no session
installed every helper is a near-free no-op, so the kernel hot path is
unaffected when telemetry is off::

    from repro import obs

    with obs.session(obs.Telemetry()) as telemetry:
        with obs.span("kernel.evaluate"):
            ...
        obs.add("engine.kernel.decide_cells", 12)
    telemetry.registry.snapshot().counters["engine.kernel.decide_cells"]
"""

from .events import Event, EventLog
from .export import (
    atomic_write_text,
    prometheus_labels,
    prometheus_name,
    prometheus_text,
    render_span_tree,
    write_prometheus,
)
from .live import (
    METRICS_PORT_ENV_VAR,
    LiveTelemetryServer,
    RunHealth,
    resolve_metrics_port,
)
from .manifest import (
    MANIFEST_SCHEMA,
    ManifestDiff,
    build_manifest,
    counter_totals,
    diff_manifests,
    git_revision,
    load_manifest,
    write_run_artifacts,
)
from .metrics import (
    DEFAULT_TEG_POWER_BUCKETS_W,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    decode_series,
    encode_series,
    escape_label_value,
    series_family,
)
from .otel import telemetry_to_otlp
from .reporter import Reporter
from .session import (
    TELEMETRY_DIR_ENV_VAR,
    TELEMETRY_ENV_VAR,
    Telemetry,
    TelemetrySnapshot,
    add,
    current,
    emit,
    gauge_max,
    observe,
    record_result,
    resolve_telemetry_dir,
    session,
    span,
    telemetry_enabled,
)
from .spans import NULL_SPAN, SpanNode, Tracer

__all__ = [
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_DIR_ENV_VAR",
    "MANIFEST_SCHEMA",
    "DEFAULT_TEG_POWER_BUCKETS_W",
    "NULL_SPAN",
    "Telemetry",
    "TelemetrySnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "Tracer",
    "SpanNode",
    "Event",
    "EventLog",
    "Reporter",
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
    "prometheus_name",
    "prometheus_labels",
    "prometheus_text",
    "write_prometheus",
    "render_span_tree",
    "atomic_write_text",
    "git_revision",
    "build_manifest",
    "write_run_artifacts",
    "counter_totals",
    "load_manifest",
    "ManifestDiff",
    "diff_manifests",
    "encode_series",
    "decode_series",
    "series_family",
    "escape_label_value",
    "METRICS_PORT_ENV_VAR",
    "LiveTelemetryServer",
    "RunHealth",
    "resolve_metrics_port",
    "telemetry_to_otlp",
]
