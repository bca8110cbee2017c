"""Trace persistence and cluster-table ingestion.

Two on-disk formats are supported:

* **Matrix CSV** — the library's native format: a header row
  ``interval_s,<value>`` followed by one row per time step with one column
  per server.  Round-trips :class:`~repro.workloads.trace.WorkloadTrace`
  exactly (up to float formatting).
* **Cluster table** — the long format the public Google/Alibaba traces
  use after standard preprocessing: rows of
  ``timestamp_s,server_id,cpu_utilisation``.  :func:`load_cluster_table`
  pivots such a table into a trace, aligning timestamps onto a fixed grid
  and forward-filling gaps, which is the same preparation the paper
  describes (selecting 1,000 servers for 24 hours).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..errors import TraceFormatError
from .trace import WorkloadTrace


def save_trace_csv(trace: WorkloadTrace, path: str | Path) -> None:
    """Write a trace to the native matrix-CSV format."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["interval_s", repr(trace.interval_s), trace.name])
        for row in trace.utilisation:
            writer.writerow([f"{value:.6f}" for value in row])


def load_trace_csv(path: str | Path) -> WorkloadTrace:
    """Read a trace previously written by :func:`save_trace_csv`."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty trace file") from None
        if len(header) < 2 or header[0] != "interval_s":
            raise TraceFormatError(
                f"{path}: expected header 'interval_s,<seconds>[,name]', "
                f"got {header!r}")
        try:
            interval_s = float(header[1])
        except ValueError:
            raise TraceFormatError(
                f"{path}: invalid interval {header[1]!r}") from None
        name = header[2] if len(header) > 2 else path.stem
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(value) for value in row])
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}:{line_no}: non-numeric value ({exc})") from None
    if not rows:
        raise TraceFormatError(f"{path}: no data rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise TraceFormatError(
            f"{path}: ragged rows (widths {sorted(widths)})")
    return WorkloadTrace._owning(np.array(rows), interval_s, name=name)


def load_cluster_table(path: str | Path, interval_s: float = 300.0,
                       max_servers: int | None = None,
                       name: str | None = None) -> WorkloadTrace:
    """Pivot a long-format cluster table into a trace.

    Parameters
    ----------
    path:
        CSV file with rows ``timestamp_s,server_id,cpu_utilisation``
        (a header row is permitted and detected).  Utilisation may be a
        fraction in [0, 1] or a percentage in (1, 100]; percentages are
        detected and rescaled.
    interval_s:
        Grid the timestamps are binned onto; within a bin, the mean
        utilisation per server is used.
    max_servers:
        Optionally keep only the first N distinct server ids (the paper
        selects 1,000 of Google's 12.5k servers).
    name:
        Trace label; defaults to the file stem.

    Returns
    -------
    WorkloadTrace
        Dense trace; bins a server never reported in are forward-filled
        from its previous value (0 before its first report).
    """
    path = Path(path)
    timestamps: list[float] = []
    server_ids: list[str] = []
    utils: list[float] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if line_no == 1 and not _is_numeric(row[0]):
                continue  # header
            if len(row) < 3:
                raise TraceFormatError(
                    f"{path}:{line_no}: expected 3 columns "
                    f"(timestamp, server, utilisation), got {len(row)}")
            try:
                timestamps.append(float(row[0]))
                utils.append(float(row[2]))
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}:{line_no}: non-numeric field ({exc})") from None
            server_ids.append(row[1])
    if not timestamps:
        raise TraceFormatError(f"{path}: no data rows")

    util_array = np.array(utils)
    if util_array.max() > 1.0:
        if util_array.max() > 100.0:
            raise TraceFormatError(
                f"{path}: utilisation values exceed 100 "
                f"(max {util_array.max()})")
        util_array = util_array / 100.0

    unique_servers: list[str] = []
    seen: set[str] = set()
    for server in server_ids:
        if server not in seen:
            seen.add(server)
            unique_servers.append(server)
    if max_servers is not None:
        unique_servers = unique_servers[:max_servers]
    server_index = {server: i for i, server in enumerate(unique_servers)}

    t0 = min(timestamps)
    t1 = max(timestamps)
    n_steps = int(np.floor((t1 - t0) / interval_s)) + 1
    n_servers = len(unique_servers)
    sums = np.zeros((n_steps, n_servers))
    counts = np.zeros((n_steps, n_servers))
    for ts, server, util in zip(timestamps, server_ids, util_array):
        column = server_index.get(server)
        if column is None:
            continue
        row_idx = int((ts - t0) / interval_s)
        sums[row_idx, column] += util
        counts[row_idx, column] += 1

    matrix = np.zeros((n_steps, n_servers))
    have = counts > 0
    matrix[have] = sums[have] / counts[have]
    # Forward-fill bins with no reports from the previous bin.
    for step in range(1, n_steps):
        missing = ~have[step]
        matrix[step, missing] = matrix[step - 1, missing]
    return WorkloadTrace._owning(np.clip(matrix, 0.0, 1.0), interval_s,
                                 name=name or path.stem)


def _is_numeric(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
