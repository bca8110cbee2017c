"""Workload trace container.

A :class:`WorkloadTrace` is a rectangular matrix of CPU utilisations —
rows are time steps at a fixed interval, columns are servers — plus enough
metadata to resample, slice and describe it.  All utilisations are
fractions in ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PhysicalRangeError, TraceFormatError


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of a trace (used to compare against the paper).

    ``volatility`` is the mean absolute step-to-step utilisation change
    averaged over servers — the paper's qualitative "drastic and frequent
    fluctuations" made quantitative.
    """

    mean: float
    std: float
    p95: float
    max: float
    volatility: float

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"mean={self.mean:.3f} std={self.std:.3f} "
                f"p95={self.p95:.3f} max={self.max:.3f} "
                f"volatility={self.volatility:.4f}")


class WorkloadTrace:
    """A (time x servers) matrix of CPU utilisations at a fixed interval.

    Parameters
    ----------
    utilisation:
        2-D array-like of shape ``(n_steps, n_servers)`` with values in
        ``[0, 1]``.  The trace stores a read-only copy, so later writes
        to the caller's array do not reach it.
    interval_s:
        Seconds between consecutive rows.
    name:
        Human-readable trace label ("drastic", "google-123", ...).
    """

    def __init__(self, utilisation: np.ndarray, interval_s: float,
                 name: str = "trace") -> None:
        # The trace keeps its own copy: callers key digests and
        # shared-memory segments on the trace object, so the plane must
        # not change behind it through the caller's array or a view.
        # The copy is row-major: NumPy sums the rows of a column-major
        # plane column by column, not as the serial loop's 1-D rows.
        self._adopt(np.array(utilisation, dtype=float, order="C"),
                    interval_s, name)

    @classmethod
    def _owning(cls, matrix: np.ndarray, interval_s: float,
                name: str = "trace") -> "WorkloadTrace":
        """A trace over ``matrix`` without copying it.

        Only for arrays no one else writes to: built fresh by the
        caller, or a view of a plane a trace already owns.
        """
        trace = cls.__new__(cls)
        trace._adopt(np.asarray(matrix, dtype=float), interval_s, name)
        return trace

    def _adopt(self, matrix: np.ndarray, interval_s: float,
               name: str, *, check_cells: bool = True) -> None:
        """Validate ``matrix`` and make it this trace's read-only plane.

        ``check_cells=False`` checks the shape and interval but reads no
        cell, for a view of a plane an owning trace already validated.
        """
        if matrix.ndim != 2:
            raise TraceFormatError(
                f"utilisation must be 2-D (time x servers), "
                f"got shape {matrix.shape}")
        if matrix.size == 0:
            raise TraceFormatError("trace must not be empty")
        if check_cells:
            # A NaN or an infinity reaches the minimum or the maximum,
            # so two reductions check the whole plane without a
            # temporary.
            lo, hi = matrix.min(), matrix.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise TraceFormatError(
                    "trace contains NaN or infinite values")
            if lo < 0 or hi > 1:
                raise PhysicalRangeError(
                    "all utilisations must be in [0, 1]; offending range "
                    f"[{lo:.3f}, {hi:.3f}]")
        if interval_s <= 0:
            raise PhysicalRangeError(
                f"interval must be > 0, got {interval_s}")
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self.interval_s = float(interval_s)
        self.name = name
        #: Keeps the backing ``multiprocessing.shared_memory`` segment
        #: alive when this trace is a zero-copy view (see
        #: :meth:`from_shared`); ``None`` for ordinary traces.
        self._shared_block = None

    @classmethod
    def from_shared(cls, matrix: np.ndarray, interval_s: float,
                    name: str = "trace", *,
                    block=None) -> "WorkloadTrace":
        """Wrap a matrix that lives in shared memory, without copying.

        ``matrix`` must already satisfy the trace invariants: it is a
        window of a plane its owning trace validated before export, so
        only its shape and the interval are checked and no cell is read
        again.  ``block`` is the ``SharedMemory`` handle the view was
        created from; the trace holds it so the mapping outlives the
        caller's local variable.
        """
        trace = cls.__new__(cls)
        trace._adopt(np.asarray(matrix, dtype=float), interval_s, name,
                     check_cells=False)
        trace._shared_block = block
        return trace

    # ------------------------------------------------------------------
    # Shape and access
    # ------------------------------------------------------------------

    @property
    def utilisation(self) -> np.ndarray:
        """The read-only (time x servers) utilisation matrix."""
        return self._matrix

    @property
    def n_steps(self) -> int:
        """Number of time steps."""
        return self._matrix.shape[0]

    @property
    def n_servers(self) -> int:
        """Number of servers (columns)."""
        return self._matrix.shape[1]

    @property
    def duration_s(self) -> float:
        """Total covered wall-clock time."""
        return self.n_steps * self.interval_s

    @property
    def times_s(self) -> np.ndarray:
        """Start time of every step."""
        return np.arange(self.n_steps) * self.interval_s

    def step(self, index: int) -> np.ndarray:
        """Per-server utilisations of one time step."""
        return self._matrix[index]

    def server(self, index: int) -> np.ndarray:
        """Utilisation time series of one server."""
        return self._matrix[:, index]

    def __len__(self) -> int:
        return self.n_steps

    def __repr__(self) -> str:
        return (f"WorkloadTrace(name={self.name!r}, steps={self.n_steps}, "
                f"servers={self.n_servers}, interval={self.interval_s:.0f}s)")

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------

    def mean_per_step(self) -> np.ndarray:
        """Cluster-average utilisation at every step (the balanced view)."""
        return self._matrix.mean(axis=1)

    def max_per_step(self) -> np.ndarray:
        """Hottest-server utilisation at every step (the binding view)."""
        return self._matrix.max(axis=1)

    def statistics(self) -> TraceStatistics:
        """Summary statistics of the whole trace."""
        flat = self._matrix.ravel()
        if self.n_steps > 1:
            volatility = float(
                np.mean(np.abs(np.diff(self._matrix, axis=0))))
        else:
            volatility = 0.0
        return TraceStatistics(
            mean=float(flat.mean()),
            std=float(flat.std()),
            p95=float(np.percentile(flat, 95)),
            max=float(flat.max()),
            volatility=volatility,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def slice_servers(self, start: int, stop: int) -> "WorkloadTrace":
        """A trace containing only servers ``start:stop``."""
        if not 0 <= start < stop <= self.n_servers:
            raise TraceFormatError(
                f"invalid server slice [{start}:{stop}] for "
                f"{self.n_servers} servers")
        return WorkloadTrace(self._matrix[:, start:stop], self.interval_s,
                             name=f"{self.name}[{start}:{stop}]")

    def window(self, step_start: int, step_stop: int,
               server_start: int, server_stop: int) -> "WorkloadTrace":
        """A rectangular tile ``[step_start:step_stop, server_start:server_stop]``.

        Unlike :meth:`slice_servers` / :meth:`slice_time` the tile is a
        zero-copy *view* on this trace's matrix — the property the
        fleet-scale sharding layer (:mod:`repro.core.shard`) depends on —
        and it keeps any backing shared-memory segment alive.  The tile
        keeps the parent's name: a shard is an execution detail, not a
        new trace identity.
        """
        if not (0 <= step_start < step_stop <= self.n_steps
                and 0 <= server_start < server_stop <= self.n_servers):
            raise TraceFormatError(
                f"invalid window [{step_start}:{step_stop}, "
                f"{server_start}:{server_stop}] for a "
                f"{self.n_steps} x {self.n_servers} trace")
        view = self._matrix[step_start:step_stop, server_start:server_stop]
        return WorkloadTrace.from_shared(view, self.interval_s,
                                         name=self.name,
                                         block=self._shared_block)

    def slice_time(self, start_s: float, stop_s: float) -> "WorkloadTrace":
        """A trace restricted to the window ``[start_s, stop_s)``."""
        start_idx = int(np.floor(start_s / self.interval_s))
        stop_idx = int(np.ceil(stop_s / self.interval_s))
        if not 0 <= start_idx < stop_idx <= self.n_steps:
            raise TraceFormatError(
                f"invalid time window [{start_s}, {stop_s}) for a trace of "
                f"{self.duration_s} s")
        return WorkloadTrace(self._matrix[start_idx:stop_idx],
                             self.interval_s, name=self.name)

    def resample(self, interval_s: float) -> "WorkloadTrace":
        """Resample to a coarser interval by block-averaging.

        The control plane acts every 5 minutes (Sec. V-B); traces recorded
        at finer granularity are averaged into control intervals.
        """
        if interval_s <= 0:
            raise PhysicalRangeError(
                f"interval must be > 0, got {interval_s}")
        if interval_s < self.interval_s:
            raise TraceFormatError(
                "resample only coarsens: requested "
                f"{interval_s}s < native {self.interval_s}s")
        block = int(round(interval_s / self.interval_s))
        usable = (self.n_steps // block) * block
        if usable == 0:
            raise TraceFormatError(
                "trace too short for the requested interval")
        blocks = self._matrix[:usable].reshape(
            usable // block, block, self.n_servers)
        return WorkloadTrace._owning(blocks.mean(axis=1),
                                     block * self.interval_s, name=self.name)

    def balanced(self) -> "WorkloadTrace":
        """The trace after ideal workload balancing (Sec. V-B2).

        Every server carries the cluster-average utilisation of its step;
        total work per step is preserved exactly.
        """
        means = self.mean_per_step()
        matrix = np.repeat(means[:, None], self.n_servers, axis=1)
        return WorkloadTrace._owning(matrix, self.interval_s,
                                     name=f"{self.name}-balanced")

    def concat_time(self, other: "WorkloadTrace") -> "WorkloadTrace":
        """Append another trace of the same width and interval in time."""
        if other.n_servers != self.n_servers:
            raise TraceFormatError(
                f"server counts differ: {self.n_servers} vs "
                f"{other.n_servers}")
        if not np.isclose(other.interval_s, self.interval_s):
            raise TraceFormatError(
                f"intervals differ: {self.interval_s} vs {other.interval_s}")
        return WorkloadTrace._owning(
            np.vstack([self._matrix, other.utilisation]), self.interval_s,
            name=f"{self.name}+{other.name}")
