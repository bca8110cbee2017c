"""OTLP export without a dependency: pure snapshot converters.

:func:`telemetry_to_otlp` maps a frozen
:class:`~repro.obs.session.TelemetrySnapshot` onto OTLP-JSON-shaped
dictionaries (``resourceSpans`` / ``resourceMetrics``) that any
OTLP/HTTP-JSON collector accepts.  Our spans are aggregates (count +
wall/cpu totals, no per-call timestamps), so span times are
synthesised: the root starts at ``base_time_unix_nano`` and children
nest sequentially inside their parent's window.  Histograms convert
losslessly (explicit bounds + bucket counts).  No third-party import
anywhere — the converters are always available and fully testable.
"""

from __future__ import annotations

import hashlib

from .metrics import MetricsSnapshot, decode_series
from .session import TelemetrySnapshot

__all__ = ["telemetry_to_otlp"]

_SCOPE = {"name": "repro.obs", "version": "1"}


def _attributes(mapping: dict) -> list[dict]:
    """Label dict -> OTLP keyValue list (string values, sorted keys)."""
    return [{"key": key, "value": {"stringValue": str(mapping[key])}}
            for key in sorted(mapping)]


def _spans_to_otlp(tree: dict, base_ns: int) -> list[dict]:
    """Flatten a serialised span tree into OTLP span dicts.

    Synthetic clock: each node occupies ``wall_s`` of its parent's
    window, siblings laid out sequentially from the parent's start.
    Aggregate counts/cpu ride as attributes — the tree is a profile,
    not a trace, and the attributes say so.
    """
    spans: list[dict] = []

    def walk(name: str, node: dict, start_ns: int, parent_id: str,
             path: str) -> int:
        wall_ns = int(float(node.get("wall_s", 0.0)) * 1e9)
        span_id = hashlib.blake2b(path.encode(),
                                  digest_size=8).hexdigest()
        spans.append({
            "name": name,
            "spanId": span_id,
            "parentSpanId": parent_id,
            "startTimeUnixNano": str(start_ns),
            "endTimeUnixNano": str(start_ns + wall_ns),
            "attributes": _attributes({
                "repro.span.count": int(node.get("count", 0)),
                "repro.span.cpu_s": float(node.get("cpu_s", 0.0)),
                "repro.span.aggregate": "true",
            }),
        })
        child_start = start_ns
        for child_name, child in (node.get("children") or {}).items():
            child_start = walk(child_name, child, child_start, span_id,
                               f"{path}/{child_name}")
        return start_ns + wall_ns

    cursor = base_ns
    for name, node in (tree or {}).items():
        cursor = walk(name, node, cursor, "", name)
    return spans


def _metrics_to_otlp(metrics: MetricsSnapshot, base_ns: int) -> list[dict]:
    out: list[dict] = []
    for key, value in sorted(metrics.counters.items()):
        name, labels = decode_series(key)
        out.append({
            "name": name,
            "sum": {
                "aggregationTemporality": 2,  # CUMULATIVE
                "isMonotonic": True,
                "dataPoints": [{
                    "asDouble": float(value),
                    "timeUnixNano": str(base_ns),
                    "attributes": _attributes(labels),
                }],
            },
        })
    for key, value in sorted(metrics.gauges.items()):
        name, labels = decode_series(key)
        out.append({
            "name": name,
            "gauge": {
                "dataPoints": [{
                    "asDouble": float(value),
                    "timeUnixNano": str(base_ns),
                    "attributes": _attributes(labels),
                }],
            },
        })
    for key, hist in sorted(metrics.histograms.items()):
        name, labels = decode_series(key)
        out.append({
            "name": name,
            "histogram": {
                "aggregationTemporality": 2,
                "dataPoints": [{
                    "count": str(hist.total),
                    "sum": float(hist.sum),
                    "explicitBounds": list(hist.buckets),
                    "bucketCounts": [str(c) for c in hist.counts],
                    "timeUnixNano": str(base_ns),
                    "attributes": _attributes(labels),
                }],
            },
        })
    return out


def telemetry_to_otlp(snapshot: TelemetrySnapshot, *,
                      resource: dict | None = None,
                      base_time_unix_nano: int = 0) -> dict:
    """Convert one snapshot into OTLP-JSON-shaped payloads.

    Pure data-in/data-out (no SDK, no clock reads): the caller picks the
    synthetic ``base_time_unix_nano`` origin, so conversions are
    deterministic and the shapes can be asserted in tests or shipped to
    any OTLP/HTTP-JSON collector directly.
    """
    resource_obj = {"attributes": _attributes(
        {"service.name": "repro", **(resource or {})})}
    return {
        "resourceSpans": [{
            "resource": resource_obj,
            "scopeSpans": [{
                "scope": dict(_SCOPE),
                "spans": _spans_to_otlp(snapshot.spans,
                                        base_time_unix_nano),
            }],
        }],
        "resourceMetrics": [{
            "resource": resource_obj,
            "scopeMetrics": [{
                "scope": dict(_SCOPE),
                "metrics": _metrics_to_otlp(snapshot.metrics,
                                            base_time_unix_nano),
            }],
        }],
    }
