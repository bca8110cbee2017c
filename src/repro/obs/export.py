"""Exporters: Prometheus text format and the console span-tree renderer.

Everything here consumes *snapshots* (plain data), never live sessions,
so exporters work identically on a local run and on merged worker
telemetry.  JSONL export lives on :class:`repro.obs.events.EventLog`
itself; the run manifest is assembled in :mod:`repro.obs.manifest`.
"""

from __future__ import annotations

import re
from pathlib import Path

from .._durable import atomic_write
from .metrics import (MetricsSnapshot, decode_series, escape_label_value,
                      series_family)

__all__ = [
    "prometheus_name",
    "prometheus_labels",
    "prometheus_text",
    "write_prometheus",
    "render_span_tree",
    "atomic_write_text",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, suffix: str = "") -> str:
    """Map a dotted metric name onto the Prometheus grammar.

    ``engine.cache.hit`` -> ``repro_engine_cache_hit``; any character
    outside ``[a-zA-Z0-9_:]`` becomes ``_``.  ``name`` must be a bare
    family name — labels are rendered separately (see
    :func:`prometheus_labels`).
    """
    return "repro_" + _NAME_OK.sub("_", name) + suffix


def prometheus_labels(labels: dict[str, str],
                      extra: dict[str, str] | None = None) -> str:
    """Render a label dict as a ``{k="v",...}`` block (or ``""``).

    Values are escaped per the exposition format (backslash, quote,
    newline); ``extra`` labels (e.g. ``le``) append after the sorted
    series labels.
    """
    pairs = [(key, labels[key]) for key in sorted(labels)]
    if extra:
        pairs.extend(extra.items())
    if not pairs:
        return ""
    body = ",".join(f'{key}="{escape_label_value(value)}"'
                    for key, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _families(series: dict) -> dict[str, list[str]]:
    """Group sorted series keys by family, families sorted by name."""
    grouped: dict[str, list[str]] = {}
    for key in sorted(series, key=lambda k: (series_family(k), k)):
        grouped.setdefault(series_family(key), []).append(key)
    return grouped


def prometheus_text(snapshot: MetricsSnapshot) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
    Labelled series render as ``metric{k="v"}`` with one ``# TYPE`` line
    per family.  The output is deterministic (sorted by family, then by
    series key).
    """
    lines: list[str] = []
    for name, keys in _families(snapshot.counters).items():
        metric = prometheus_name(name, "_total")
        lines.append(f"# TYPE {metric} counter")
        for key in keys:
            _, labels = decode_series(key)
            lines.append(f"{metric}{prometheus_labels(labels)} "
                         f"{_format_value(snapshot.counters[key])}")
    for name, keys in _families(snapshot.gauges).items():
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        for key in keys:
            _, labels = decode_series(key)
            lines.append(f"{metric}{prometheus_labels(labels)} "
                         f"{_format_value(snapshot.gauges[key])}")
    for name, keys in _families(snapshot.histograms).items():
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for key in keys:
            hist = snapshot.histograms[key]
            _, labels = decode_series(key)
            block = prometheus_labels(labels)
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                le = prometheus_labels(labels,
                                       {"le": _format_value(bound)})
                lines.append(f"{metric}_bucket{le} {cumulative}")
            le = prometheus_labels(labels, {"le": "+Inf"})
            lines.append(f"{metric}_bucket{le} {hist.total}")
            lines.append(f"{metric}_sum{block} {_format_value(hist.sum)}")
            lines.append(f"{metric}_count{block} {hist.total}")
    return "\n".join(lines) + ("\n" if lines else "")


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Durably replace ``path`` with ``text`` (UTF-8): write-fsync-rename.

    The same :func:`repro._durable.atomic_write` the checkpoint store and
    result cache use, so a SIGKILL at any point leaves either the old
    artifact or the new one, never a truncated hybrid.
    """
    return atomic_write(path, text.encode("utf-8"))


def write_prometheus(snapshot: MetricsSnapshot, path: str | Path) -> Path:
    """Atomically write the Prometheus rendering of ``snapshot``."""
    return atomic_write_text(path, prometheus_text(snapshot))


def render_span_tree(tree: dict, indent: str = "  ") -> str:
    """Render a serialised span tree as an aligned console listing.

    ``tree`` is the ``Tracer.snapshot()`` shape: top-level span names
    mapping to ``{count, wall_s, cpu_s, children}`` dicts.  Children are
    shown in recorded order, indented under their parent, with each
    node's share of its parent's wall time.
    """
    rows: list[tuple[str, int, float, float, str]] = []

    def walk(name: str, node: dict, depth: int, parent_wall: float) -> None:
        wall = float(node.get("wall_s", 0.0))
        share = ""
        if parent_wall > 0:
            share = f"{wall / parent_wall:6.1%}"
        rows.append((indent * depth + name, int(node.get("count", 0)),
                     wall, float(node.get("cpu_s", 0.0)), share))
        for child_name, child in node.get("children", {}).items():
            walk(child_name, child, depth + 1, wall)

    for name, node in tree.items():
        walk(name, node, 0, 0.0)
    if not rows:
        return "(no spans recorded)"
    name_width = max(len(row[0]) for row in rows + [("span", 0, 0, 0, "")])
    lines = [f"{'span':<{name_width}}  {'calls':>7} {'wall s':>10} "
             f"{'cpu s':>10} {'parent%':>7}"]
    for name, count, wall, cpu, share in rows:
        lines.append(f"{name:<{name_width}}  {count:>7} {wall:>10.4f} "
                     f"{cpu:>10.4f} {share:>7}")
    return "\n".join(lines)
