"""Batch execution engine for (scheme x trace) simulation sweeps.

Every headline result of the paper (Fig. 14/15, Table I, the ablations)
re-runs :class:`~repro.core.simulator.DatacenterSimulator` once per
scheme per trace.  This module turns that hot path into a batch API:

* :class:`SimulationJob` names one (trace, config) pair to evaluate;
* :class:`BatchSimulationEngine` fans a list of jobs out over a process
  pool (``concurrent.futures``), degrading gracefully to threads or a
  serial loop when processes are unavailable, with a ``REPRO_WORKERS``
  environment override;
* each job is one :func:`simulate` call, which builds a plain
  :class:`~repro.core.simulator.DatacenterSimulator` and replays it
  with the whole-trace kernel (:mod:`repro.core.kernel`), which asks
  the policy once per distinct binding; a job with a fault schedule,
  or on a ``WorkloadTrace`` subclass, steps through the simulator's
  serial loop instead;
* :class:`EngineMetrics` (wall time per phase, steps/sec, decision hit
  rate) is attached to every :class:`~repro.core.results.SimulationResult`
  so benchmarks can assert speedups.

Bit-identity
------------
Engine results are **bit-identical** to the serial
``DatacenterSimulator.run`` path:

* all per-server quantities (CPU temperature, outlet temperature, CPU
  power, TEG power) are elementwise NumPy computations, so evaluating a
  gathered multi-circulation batch yields exactly the per-circulation
  values;
* the cluster-level fold (:func:`~repro.core.kernel.fold_columns`)
  adds the circulations in the order and with the sequential float
  adds of the simulator's own
  :meth:`DatacenterSimulator._aggregate_step`;
* every cooling decision comes from the simulator's own policy, in the
  serial loop's first-occurrence order, so a memoising policy ends up
  with the memo the serial loop gives it.

The golden and determinism tests in ``tests/core/test_engine.py``
enforce this equivalence.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import sys
import time
import uuid
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ThreadPoolExecutor,
    wait,
)
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from multiprocessing import shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .. import _env, obs
from .._durable import pid_alive
from ..errors import ConfigurationError, JobExecutionError
from ..faults import FaultSchedule
from ..teg.module import TegModule
from ..thermal.cpu_model import CpuThermalModel
from ..workloads.trace import WorkloadTrace
from .cache import (
    ResultCache,
    _fs_slug,
    resolve_result_cache,
    result_key,
)
from .config import SimulationConfig
from .kernel import (
    COLUMN_PLANES,
    KernelTimings,
    _column_planes,
    _decision_counts,
    _decision_memo,
    run_whole_trace,
)
from .results import SimulationResult
from .simulator import DatacenterSimulator

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .checkpoint import CheckpointStore, RunKey

#: Environment variable overriding the engine's worker count.
#: ``0`` or ``1`` force the serial in-process path.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable setting the per-job wall-clock budget (seconds).
#: Enforced on pooled executors; see ``docs/engine.md`` for the exact
#: guarantees per executor kind.
JOB_TIMEOUT_ENV_VAR = "REPRO_JOB_TIMEOUT"

#: Base sleep before a failed attempt is retried: the retry after
#: attempt ``k`` sleeps ``RETRY_BACKOFF_S * 2**(k-1)`` seconds.
RETRY_BACKOFF_S = 0.1

#: How often the batch layer polls in-flight futures for completion,
#: timeouts and pool breakage.
_POLL_INTERVAL_S = 0.05

#: Execution modes of :func:`simulate`, fastest first.  Both are
#: bit-identical:
#:
#: * ``"kernel"`` — whole-trace NumPy pipeline (no per-step Python loop);
#: * ``"loop"``   — the serial simulator's own per-circulation loop.
#:
#: Batch jobs always ask for the kernel.  A run carrying a fault
#: schedule, or on a ``WorkloadTrace`` subclass, steps through the
#: simulator's serial loop whatever mode was requested.
EXECUTION_MODES = ("kernel", "loop")


def resolve_mode(mode: str | None) -> str:
    """Validate an execution mode; ``None`` selects ``"kernel"``."""
    if mode is None:
        return "kernel"
    if mode not in EXECUTION_MODES:
        raise ConfigurationError(
            f"mode must be one of {EXECUTION_MODES}, got {mode!r}")
    return mode


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

@dataclass
class EngineMetrics:
    """Observability attached to engine-produced results.

    Attributes
    ----------
    setup_time_s / step_time_s / wall_time_s:
        Wall time spent building the simulator (policy, lookup space,
        circulations), stepping the trace, and in total.
    n_steps / steps_per_s:
        Steps replayed and throughput of the stepping phase.
    cache_hits / cache_misses / cache_hit_rate:
        Cooling decisions of this run: a lookup is a decision the serial
        loop makes, a miss one the policy computed (its memo's growth,
        or every request to a policy without a memo), a hit the rest.
    mode:
        The execution path this run actually took (see
        :data:`EXECUTION_MODES`): fault-carrying runs and runs on a
        ``WorkloadTrace`` subclass report ``"loop"``.
    kernel:
        Per-phase wall times of the whole-trace kernel
        (decide/evaluate/reduce/fold); ``None`` outside kernel mode.
    executor / n_workers:
        How the batch layer ran this job (``"process"``, ``"thread"``
        or ``"serial"``); filled in by :class:`BatchSimulationEngine`.
    retries:
        How many failed attempts were retried on the way to this result
        (0 on a first-try success): a whole job's, filled in by the
        batch layer, or a sharded job's tiles'.
    n_shards:
        How many shards this job was split into (0 when it ran whole;
        see :mod:`repro.core.shard`).
    shards_resumed:
        How many of those shards were loaded from a checkpoint
        directory instead of computed (see
        :mod:`repro.core.checkpoint`).
    """

    setup_time_s: float = 0.0
    step_time_s: float = 0.0
    wall_time_s: float = 0.0
    n_steps: int = 0
    steps_per_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    mode: str = "kernel"
    kernel: KernelTimings | None = None
    executor: str = "serial"
    n_workers: int = 1
    retries: int = 0
    n_shards: int = 0
    shards_resumed: int = 0
    #: Whether this result was served from the content-addressed result
    #: cache (:mod:`repro.core.cache`) instead of being computed.
    result_cache_hit: bool = False

    def summary(self) -> dict:
        """Headline metrics as a plain dictionary (for tables/JSON)."""
        summary = {
            "wall_time_s": round(self.wall_time_s, 4),
            "steps_per_s": round(self.steps_per_s, 1),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "mode": self.mode,
            "executor": self.executor,
            "n_workers": self.n_workers,
            "retries": self.retries,
        }
        if self.n_shards:
            summary["shards"] = self.n_shards
        if self.shards_resumed:
            summary["shards_resumed"] = self.shards_resumed
        if self.result_cache_hit:
            summary["result_cache_hit"] = True
        if self.kernel is not None:
            summary["kernel"] = self.kernel.summary()
        return summary


@dataclass(frozen=True)
class BatchMetrics:
    """Aggregate metrics of one :meth:`BatchSimulationEngine.run` call.

    ``retries`` counts failed attempts that were retried, ``timeouts``
    counts jobs killed by the wall-clock budget, and ``n_failed`` counts
    jobs that exhausted their attempts (each has a matching
    :class:`FailedJob` record on the :class:`BatchResult`).
    """

    wall_time_s: float
    n_jobs: int
    n_workers: int
    executor: str
    total_steps: int
    steps_per_s: float
    cache_hits: int
    cache_misses: int
    retries: int = 0
    timeouts: int = 0
    n_failed: int = 0
    #: Total shards dispatched across all sharded jobs (0 = none).
    shards: int = 0
    #: Shards loaded from a checkpoint directory instead of computed.
    shards_resumed: int = 0
    #: Whole (non-sharded) jobs answered from a checkpointed result.
    jobs_resumed: int = 0
    #: Jobs served from the content-addressed result cache.
    result_cache_hits: int = 0
    #: Cache lookups that missed; each such job was then resumed from
    #: its checkpoint or computed.
    result_cache_misses: int = 0
    #: Duplicate jobs answered by fanning out another job's result.
    jobs_deduped: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Aggregate cooling-decision hit rate across all jobs."""
        lookups = self.cache_hits + self.cache_misses
        if not lookups:
            return 0.0
        return self.cache_hits / lookups

    def summary(self) -> dict:
        """Headline metrics as a plain dictionary (for tables/JSON)."""
        summary = {
            "jobs": self.n_jobs,
            "executor": self.executor,
            "workers": self.n_workers,
            "wall_time_s": round(self.wall_time_s, 3),
            "steps_per_s": round(self.steps_per_s, 1),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failed": self.n_failed,
        }
        if self.shards:
            summary["shards"] = self.shards
        if self.shards_resumed:
            summary["shards_resumed"] = self.shards_resumed
        if self.jobs_resumed:
            summary["jobs_resumed"] = self.jobs_resumed
        if self.result_cache_hits or self.result_cache_misses:
            summary["result_cache_hits"] = self.result_cache_hits
            summary["result_cache_misses"] = self.result_cache_misses
        if self.jobs_deduped:
            summary["jobs_deduped"] = self.jobs_deduped
        return summary


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationJob:
    """One (scheme x trace) pair to evaluate.

    ``cpu_model`` / ``teg_module`` default to the simulator's
    paper-calibrated hardware when omitted; heterogeneous-fleet sweeps
    pass per-slice models.  ``faults`` attaches an optional
    :class:`~repro.faults.FaultSchedule`; jobs without one keep the
    bit-exact nominal path.  An empty schedule is stored as ``None``,
    so every path treats it as no schedule at all.
    """

    trace: WorkloadTrace
    config: SimulationConfig
    cpu_model: CpuThermalModel | None = None
    teg_module: TegModule | None = None
    faults: FaultSchedule | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", self.faults or None)

    @property
    def key(self) -> tuple[str, str]:
        """``(scheme, trace)`` label used to index batch results."""
        return (self.config.name, self.trace.name)


def _run_loop(sim: DatacenterSimulator) -> SimulationResult:
    """``sim.run()``, storing its decisions' ``(hits, misses)`` on
    ``sim.decisions`` as the kernel does (see :class:`EngineMetrics`).

    The serial loop decides every circulation of every step, a faulted
    step's healthy shadow too, but not a degraded circulation, which
    takes the conservative setting.
    """
    memo = _decision_memo(sim._policy)
    before = len(memo) if memo is not None else 0
    result = sim.run()
    lookups = int(sim.n_circulations * (
        len(result.records) + np.count_nonzero(
            result._series("active_faults")))
        - result._series("degraded_circulations").sum())
    sim.decisions = _decision_counts(memo, before, lookups, lookups)
    return result


def simulate(trace: WorkloadTrace, config: SimulationConfig,
             cpu_model: CpuThermalModel | None = None,
             teg_module: TegModule | None = None, *,
             mode: str | None = None,
             faults: FaultSchedule | None = None,
             telemetry: bool | None = None,
             result_cache=None,
             ) -> SimulationResult:
    """Run one scheme over one trace through the engine's fast path.

    Returns a :class:`SimulationResult` that is bit-identical to
    ``DatacenterSimulator(trace, config, ...).run()`` but carries
    :class:`EngineMetrics` (phase wall times, steps/sec, decision
    counts, kernel-phase timings).  This is the one place that chooses
    how a run executes: it builds a plain :class:`DatacenterSimulator`
    and replays it with :func:`~repro.core.kernel.run_whole_trace` or
    the simulator's own ``run``.  ``mode`` asks for one (see
    :data:`EXECUTION_MODES`; default ``"kernel"``); batches always ask
    for the kernel.  A ``faults`` schedule or a ``WorkloadTrace``
    subclass runs the serial loop whatever ``mode`` asks, and the run's
    cache key and ``metrics.mode`` say ``"loop"``.  Without a schedule
    (or with an empty one) the output is unchanged down to the bit.

    ``telemetry`` (explicit, else ``REPRO_TELEMETRY``) records the run
    into a *private* :class:`repro.obs.Telemetry` session and attaches
    its frozen :class:`~repro.obs.TelemetrySnapshot` to
    ``result.telemetry`` — worker processes pickle that snapshot back to
    the batch layer.  Telemetry is purely observational: records are
    bit-identical with it on or off.

    ``result_cache`` (a :class:`~repro.core.cache.ResultCache`, a
    directory, ``True``/``False``, or ``None`` to consult
    ``REPRO_CACHE``) memoises the whole run on disk: a content-key hit
    returns the persisted result — bit-identical records — without
    simulating, and a miss stores the computed result (see
    ``docs/cache.md``).  Batch workers pass ``False``: the batch
    coordinator answers and stores their jobs.
    """
    started = time.perf_counter()
    mode = resolve_mode(mode)
    faults = faults or None
    if faults is not None or type(trace) is not WorkloadTrace:
        # Fault injection needs the simulator's fault-aware serial step
        # (degraded fallback, shadow accounting), and a trace subclass
        # may override step(), which the kernel would silently bypass by
        # reading the plane: both run the serial loop.
        mode = "loop"
    store = resolve_result_cache(result_cache)
    key = None
    if store is not None and type(trace) is WorkloadTrace:
        key = result_key(trace, config, cpu_model, teg_module,
                         faults=faults, mode=mode)
        cached = store.load(key)
        if cached is not None:
            return cached
    local = obs.Telemetry() if obs.telemetry_enabled(telemetry) else None
    context = obs.session(local) if local is not None else nullcontext()
    with context:
        with obs.span("engine.simulate"):
            with obs.span("engine.setup"):
                sim = DatacenterSimulator(trace, config, cpu_model,
                                          teg_module, faults=faults)
            setup_done = time.perf_counter()
            if mode == "kernel":
                result = run_whole_trace(sim)
            else:
                result = _run_loop(sim)
            finished = time.perf_counter()
    step_time = finished - setup_done
    hits, misses = sim.decisions
    result.metrics = EngineMetrics(
        setup_time_s=setup_done - started,
        step_time_s=step_time,
        wall_time_s=finished - started,
        n_steps=trace.n_steps,
        steps_per_s=trace.n_steps / step_time if step_time > 0 else 0.0,
        cache_hits=hits,
        cache_misses=misses,
        cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        mode=mode,
        kernel=sim.kernel_timings if mode == "kernel" else None,
    )
    if local is not None:
        result.telemetry = local.snapshot()
    if key is not None:
        store.store(key, result)
    return result


# ----------------------------------------------------------------------
# Zero-copy trace dispatch (process pools)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SharedTraceRef:
    """Handle to a trace plane living in ``multiprocessing.shared_memory``.

    The handle is what a process-pool job pickles instead of the
    ``(steps x servers)`` array: segment name, shape/dtype to rebuild
    the NumPy view, and the trace metadata.  The segment is owned by the
    :class:`BatchSimulationEngine` that created it and stays alive until
    the engine is closed (see ``docs/engine.md`` for the contract).

    ``row_start:row_stop`` / ``col_start:col_stop`` select a rectangular
    window of the plane (``None`` stops mean "to the end"): a shard of a
    fleet-scale trace ships the *same* segment name with different
    window bounds, so worker payload size stays independent of both the
    trace length and the shard count, and the worker maps the segment
    exactly once however many windows of it it is asked to run.
    """

    shm_name: str
    shape: tuple[int, int]
    dtype: str
    interval_s: float
    name: str
    row_start: int = 0
    row_stop: int | None = None
    col_start: int = 0
    col_stop: int | None = None


#: Name prefix of every shared-memory segment this package creates.
#: The owning pid is embedded right after it
#: (``repro-shm-{pid}-{token}``) so the reaper can tell a crashed run's
#: orphan from a live run's segment without guessing.
SEGMENT_PREFIX = "repro-shm-"

#: Every live registry in this process; the janitor (atexit + SIGTERM)
#: closes whatever is still here when the coordinator dies, so segments
#: cannot outlive it on any exit path short of SIGKILL.
_LIVE_REGISTRIES: "weakref.WeakSet[_SharedTraceRegistry]" = weakref.WeakSet()

_JANITOR_INSTALLED = False


def _close_live_registries() -> None:
    """Unlink every segment still owned by this process (best effort).

    Forked workers inherit ``_LIVE_REGISTRIES`` (and the SIGTERM
    handler) from the coordinator; the owner-pid check keeps a dying
    worker from unlinking segments the coordinator is still serving.
    """
    for registry in list(_LIVE_REGISTRIES):
        if registry.owner_pid != os.getpid():
            continue
        try:
            registry.close()
        except Exception:  # pragma: no cover - dying anyway
            pass


def _install_segment_janitor() -> None:
    """One-time atexit + SIGTERM hook that unlinks owned segments.

    The SIGTERM handler chains to whatever handler was installed before
    it (or re-raises the default disposition), so embedding
    applications keep their own shutdown behaviour.  Installing from a
    non-main thread silently keeps the atexit half only — CPython
    forbids signal handlers elsewhere.
    """
    global _JANITOR_INSTALLED
    if _JANITOR_INSTALLED:
        return
    _JANITOR_INSTALLED = True
    atexit.register(_close_live_registries)
    try:
        previous = signal.getsignal(signal.SIGTERM)

        def _on_sigterm(signum, frame):
            _close_live_registries()
            if callable(previous):
                previous(signum, frame)
            else:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def reap_orphaned_segments(directory: str | os.PathLike = "/dev/shm"
                           ) -> list[str]:
    """Unlink ``repro``-tagged segments whose owning process is dead.

    SIGKILL (OOM killer, ``kill -9``) gives the janitor no chance to
    run, so a crashed coordinator can leave its trace segments behind.
    Their names embed the owner pid; any segment whose pid no longer
    exists is an orphan and is removed.  Segments of live processes —
    including this one — are never touched.  Returns the names reaped.
    """
    root = Path(directory)
    if not root.is_dir():  # pragma: no cover - non-POSIX-shm platform
        return []
    reaped = []
    for path in root.glob(SEGMENT_PREFIX + "*"):
        tail = path.name[len(SEGMENT_PREFIX):]
        try:
            pid = int(tail.split("-", 1)[0])
        except ValueError:
            continue
        if pid == os.getpid() or pid_alive(pid):
            continue
        try:
            path.unlink()
        except OSError:  # pragma: no cover - concurrent reaper
            continue
        reaped.append(path.name)
    return reaped


class _SharedTraceRegistry:
    """Owner-side registry of shared-memory trace segments.

    One engine owns one registry.  ``ref_for`` uploads a trace's plane
    into a fresh segment on first sight (keyed by object identity — the
    registry keeps a strong reference, so a key can never be recycled
    while its entry lives) and returns the same :class:`SharedTraceRef`
    for every job that reuses the trace.  ``close`` unmaps and unlinks
    every segment; workers that still hold a mapping keep it until they
    drop it (POSIX unlink semantics), so no copy is ever torn out from
    under a running job.

    Segments are named ``repro-shm-{pid}-{token}`` and every registry
    joins the module janitor (atexit + SIGTERM), so normal and
    signalled exits unlink them; only SIGKILL can orphan one, and
    :func:`reap_orphaned_segments` picks those up on the next run.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[WorkloadTrace,
                                       shared_memory.SharedMemory,
                                       SharedTraceRef]] = {}
        #: Scratch segments (shard column blocks) keyed by name; same
        #: pid-stamped naming and janitor coverage as trace segments,
        #: but released per job rather than living engine-long.
        self._scratch: dict[str, shared_memory.SharedMemory] = {}
        #: Only this pid may unlink the registry's segments — a forked
        #: worker inherits the object but never owns it.
        self.owner_pid = os.getpid()
        _LIVE_REGISTRIES.add(self)
        _install_segment_janitor()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _create_segment(size: int) -> shared_memory.SharedMemory:
        """A fresh segment with a ``repro``-tagged, pid-stamped name."""
        for _ in range(8):
            name = f"{SEGMENT_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
            try:
                return shared_memory.SharedMemory(name=name, create=True,
                                                  size=size)
            except FileExistsError:  # pragma: no cover - token collision
                continue
        # Eight collisions means something is squatting on the
        # namespace; an anonymous name still works, it just cannot be
        # reaped after a SIGKILL.
        return shared_memory.SharedMemory(  # pragma: no cover
            create=True, size=size)

    def ref_for(self, trace: WorkloadTrace) -> SharedTraceRef:
        """The (possibly freshly uploaded) shared handle for ``trace``."""
        entry = self._entries.get(id(trace))
        if entry is not None:
            return entry[2]
        matrix = trace.utilisation
        block = self._create_segment(matrix.nbytes)
        try:
            np.ndarray(matrix.shape, dtype=matrix.dtype,
                       buffer=block.buf)[:] = matrix
            ref = SharedTraceRef(
                shm_name=block.name,
                shape=matrix.shape,
                dtype=str(matrix.dtype),
                interval_s=trace.interval_s,
                name=trace.name,
            )
            self._entries[id(trace)] = (trace, block, ref)
        except BaseException:
            # The upload died between create and registration: unlink
            # now or nobody ever will.
            try:
                block.close()
            except OSError:  # pragma: no cover - already unmapped
                pass
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            raise
        return ref

    def scratch_block(self, nbytes: int) -> shared_memory.SharedMemory:
        """A janitor-covered scratch segment of ``nbytes``.

        Same pid-stamped naming (and therefore reaping and janitor
        coverage) as trace segments; the caller releases it with
        :meth:`release_scratch` when the job that filled it is merged,
        or :meth:`close` sweeps whatever is left.
        """
        block = self._create_segment(nbytes)
        self._scratch[block.name] = block
        return block

    def release_scratch(self, block: shared_memory.SharedMemory) -> None:
        """Unmap and unlink one scratch segment (idempotent).

        Workers still holding a mapping keep it until they drop it
        (POSIX unlink semantics), so a tile still running after its job
        failed can finish writing harmlessly.  A still-exported
        coordinator-side view makes the unmap fail quietly; the unlink
        still runs, so the segment cannot outlive the process either
        way.
        """
        self._scratch.pop(block.name, None)
        try:
            block.close()
        except (OSError, BufferError):  # pragma: no cover - live views
            pass
        if os.getpid() != self.owner_pid:
            return
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Unmap and unlink every owned segment (idempotent).

        A process that merely inherited the registry across ``fork``
        unmaps but never unlinks — the segments still belong to the
        coordinator.
        """
        unlink = os.getpid() == self.owner_pid
        while self._scratch:
            _, block = self._scratch.popitem()
            try:
                block.close()
            except (OSError, BufferError):  # pragma: no cover - live views
                pass
            if not unlink:
                continue
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        while self._entries:
            _, (_, block, _) = self._entries.popitem()
            try:
                block.close()
            except OSError:  # pragma: no cover - already unmapped
                pass
            if not unlink:
                continue
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


#: Per-worker cache of attached shared-memory segments, keyed by segment
#: name: one ``(SharedMemory, full plane)`` pair per segment for the
#: worker process's lifetime, however many windows of it are dispatched.
_WORKER_BLOCKS: dict[str, tuple[shared_memory.SharedMemory,
                                np.ndarray]] = {}

#: Per-worker cache of wrapped trace (windows), keyed by the full ref —
#: window bounds included — so validating and wrapping happens once per
#: distinct window and every subsequent job ships only the ref.
_WORKER_TRACES: dict[SharedTraceRef, WorkloadTrace] = {}


def _trace_from_ref(ref: SharedTraceRef) -> WorkloadTrace:
    """Attach (or reuse) the shared trace window named by ``ref``."""
    trace = _WORKER_TRACES.get(ref)
    if trace is not None:
        return trace
    entry = _WORKER_BLOCKS.get(ref.shm_name)
    if entry is None:
        # Attaching re-registers the segment with the resource tracker
        # the worker shares with the engine's process; registration is
        # set-idempotent, and the engine's own unlink balances it, so no
        # unregister dance is needed here.
        block = shared_memory.SharedMemory(name=ref.shm_name)
        matrix = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype),
                            buffer=block.buf)
        entry = _WORKER_BLOCKS[ref.shm_name] = (block, matrix)
    block, matrix = entry
    view = matrix[ref.row_start:ref.row_stop, ref.col_start:ref.col_stop]
    trace = WorkloadTrace.from_shared(view, ref.interval_s,
                                      name=ref.name, block=block)
    _WORKER_TRACES[ref] = trace
    return trace


@dataclass(frozen=True)
class _JobPayload:
    """What a process-pool job actually pickles: config + trace handle.

    Everything except the trace rides along as-is (configs and hardware
    models are tiny); the trace plane itself is referenced by a
    :class:`SharedTraceRef`, so payload size is independent of trace
    length — the property the zero-copy dispatch tests pin down.
    ``WorkloadTrace`` *subclasses* can carry behaviour (an overridden
    ``step``, say) that a rebuilt plain trace would lose, so those are
    pickled whole via ``trace`` instead of going through shared memory.
    """

    trace_ref: SharedTraceRef | None
    config: SimulationConfig
    cpu_model: CpuThermalModel | None
    teg_module: TegModule | None
    faults: FaultSchedule | None
    trace: WorkloadTrace | None = None
    #: Resolved by the engine before dispatch so worker processes need
    #: no environment propagation to agree on whether to record.
    telemetry: bool = False


def _execute_payload(payload: _JobPayload) -> SimulationResult:
    """Process-worker entry point for shared-memory dispatched jobs."""
    if payload.trace is not None:
        trace = payload.trace
    else:
        trace = _trace_from_ref(payload.trace_ref)
    return simulate(trace, payload.config, payload.cpu_model,
                    payload.teg_module, faults=payload.faults,
                    telemetry=payload.telemetry,
                    result_cache=False)


# ----------------------------------------------------------------------
# Batch layer
# ----------------------------------------------------------------------

@dataclass(eq=False)
class _Unit:
    """One piece of pool work: a whole job or one kernel tile.

    ``local()`` runs it on a thread or in this process; a process worker
    runs the ``remote`` ``(fn, payload)`` pair instead.  ``land(unit,
    result)`` takes the result.  ``retry(unit, exc)`` records a failed
    attempt, sleeps the backoff (:func:`_back_off`) and says whether to
    rerun; a tile raises instead of saying no, since its job is lost.
    An attempt running for ``deadline_s`` fires ``time_out(unit)``
    (whole jobs only; terminal).  Callbacks get the unit rather than
    close over it: a unit that referenced itself would keep its job's
    trace alive until the cycle collector ran.
    """

    local: Callable[[], object]
    land: Callable[["_Unit", object], None]
    retry: Callable[["_Unit", BaseException], bool]
    remote: tuple | None = None
    deadline_s: float | None = None
    time_out: Callable[["_Unit"], None] | None = None
    #: Attempts made and failed attempts retried.
    attempts: int = 0
    retries: int = 0
    started_at: float = field(default_factory=time.perf_counter)
    done: bool = False


def _back_off(unit: _Unit) -> None:
    """Count a retry of ``unit`` and sleep before its next attempt.

    The one retry rule of whole jobs and tiles: the retry after attempt
    ``k`` sleeps ``RETRY_BACKOFF_S * 2**(k-1)`` seconds.
    """
    unit.retries += 1
    time.sleep(RETRY_BACKOFF_S * 2 ** (unit.attempts - 1))


def _run_local(units: Iterable[_Unit]) -> None:
    """The in-process loop: run each unit in turn, retrying it as allowed.

    It serves the serial executor, ``simulate_sharded`` and the fault
    windows.  No deadline fires (one thread cannot pre-empt itself);
    whatever ``land`` or ``retry`` raises propagates.
    """
    for unit in units:
        unit.started_at = time.perf_counter()
        while not unit.done:
            unit.attempts += 1
            try:
                result = unit.local()
            except Exception as exc:
                unit.done = not unit.retry(unit, exc)
            else:
                unit.done = True
                unit.land(unit, result)


def _new_pool(kind: str, workers: int):
    """A fresh process or thread pool of ``workers`` workers."""
    if kind == "process":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=workers)
    return ThreadPoolExecutor(max_workers=workers)


@dataclass(frozen=True)
class FailedJob:
    """Structured record of one job the batch could not complete.

    Attributes
    ----------
    scheme / trace_name:
        The job's ``(scheme, trace)`` label.
    error_type / message:
        Class name and text of the last failure (for a worker crash this
        is the pool's ``BrokenProcessPool``-style error; the batch keeps
        running either way).
    attempts:
        Execution attempts consumed, including the first one.
    elapsed_s:
        Wall-clock time spent on this job across all attempts.
    timed_out:
        Whether the final attempt was killed by the ``REPRO_JOB_TIMEOUT``
        wall-clock budget (timeouts are terminal; they are not retried).
    """

    scheme: str
    trace_name: str
    error_type: str
    message: str
    attempts: int = 1
    elapsed_s: float = 0.0
    timed_out: bool = False

    @property
    def key(self) -> tuple[str, str]:
        """``(scheme, trace)`` label matching :attr:`SimulationJob.key`."""
        return (self.scheme, self.trace_name)

    def to_error(self) -> JobExecutionError:
        """Re-package the record as a raisable :class:`JobExecutionError`."""
        return JobExecutionError(
            f"job ({self.scheme!r}, {self.trace_name!r}) failed after "
            f"{self.attempts} attempt(s): [{self.error_type}] {self.message}",
            scheme=self.scheme, trace_name=self.trace_name,
            attempts=self.attempts, elapsed_s=self.elapsed_s,
            timed_out=self.timed_out)


@dataclass
class BatchResult:
    """Results and aggregate metrics of one batch run.

    ``results`` holds every job that completed, in submission order;
    ``failures`` holds a :class:`FailedJob` record for every job that
    did not.  A crashed or timed-out job never aborts the batch — check
    :attr:`ok` (or ``metrics.n_failed``) before trusting completeness.
    """

    results: list[SimulationResult]
    metrics: BatchMetrics
    failures: list[FailedJob] = field(default_factory=list)
    #: The batch-level :class:`repro.obs.Telemetry` session (``None``
    #: when telemetry was off): every worker snapshot merged, plus the
    #: engine's own counters, spans and events.  The CLI renders run
    #: artefacts (manifest, events, Prometheus snapshot) from it.
    telemetry: "obs.Telemetry | None" = field(default=None, repr=False,
                                              compare=False)

    @property
    def ok(self) -> bool:
        """True when every submitted job produced a result."""
        return not self.failures

    def get(self, scheme: str, trace_name: str) -> SimulationResult:
        """Look one result up by its (scheme, trace) label.

        Raises
        ------
        JobExecutionError
            When the job ran but failed (the :class:`FailedJob` record
            is re-packaged with its attempt/timeout details).
        ConfigurationError
            When no job with that label was submitted at all.
        """
        for result in self.results:
            if (result.scheme, result.trace_name) == (scheme, trace_name):
                return result
        for failed in self.failures:
            if failed.key == (scheme, trace_name):
                raise failed.to_error()
        raise ConfigurationError(
            f"no result for scheme {scheme!r} on trace {trace_name!r}")

    def summaries(self) -> list[dict]:
        """Per-job headline summaries plus engine metrics."""
        out = []
        for result in self.results:
            summary = result.summary()
            if result.metrics is not None:
                summary["engine"] = result.metrics.summary()
            out.append(summary)
        return out


def resolve_workers(n_workers: int | None, n_jobs: int) -> int:
    """Worker count for a batch: explicit > ``REPRO_WORKERS`` > default.

    The default is one worker per job capped at the CPU count; the
    result is always at least 1 (``0`` forces the serial path).

    Raises
    ------
    ConfigurationError
        When ``REPRO_WORKERS`` is not a non-negative integer.
    """
    if n_workers is None:
        n_workers = _env.number(None, WORKERS_ENV_VAR, "n_workers",
                                positive=False)
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    return max(1, min(n_workers, n_jobs))


def resolve_job_timeout(timeout_s: float | None = None) -> float | None:
    """Per-job wall-clock budget: explicit > ``REPRO_JOB_TIMEOUT`` > none.

    Returns ``None`` when no timeout is configured.

    Raises
    ------
    ConfigurationError
        When ``timeout_s`` or ``REPRO_JOB_TIMEOUT`` is not a positive
        number of seconds.
    """
    return _env.number(timeout_s, JOB_TIMEOUT_ENV_VAR, "job_timeout_s",
                       kind=float)


@dataclass(eq=False)
class _Answer:
    """How one batch job is answered, resolved once before dispatch.

    ``source`` is ``"duplicate"`` (an earlier job has the same content
    ``key``; ``rep`` is that job's record and the two share one result
    or failure), ``"resumed"`` (a whole job's result loaded from its
    checkpoint ``store``), ``"cached"`` (served by the result cache) or
    ``"computed"``.  Everything the batch reports — metrics, telemetry,
    ``/healthz`` — is read from these records.
    """

    job: SimulationJob
    key: RunKey
    specs: list | None
    store: CheckpointStore | None = None
    source: str = "computed"
    rep: _Answer | None = None
    result: SimulationResult | None = None
    failure: FailedJob | None = None


class BatchSimulationEngine:
    """Run many (scheme x trace) simulations through one API.

    Parameters
    ----------
    n_workers:
        Parallel workers; ``None`` defers to ``REPRO_WORKERS`` or the
        CPU count.  ``1`` runs serially in-process.
    prefer:
        ``"process"`` (default), ``"thread"`` or ``"serial"``.  Process
        pools that cannot start (sandboxes, exotic platforms) degrade
        automatically: process -> thread -> serial.
    max_retries:
        Extra attempts per job after the first one fails (crashed
        worker or raised exception); a sharded job's tiles get the
        same budget each.  The sleep before a retry doubles from
        :data:`RETRY_BACKOFF_S`.  Timeouts are terminal: a job killed
        by the wall-clock budget is never retried.
    job_timeout_s:
        Per-job wall-clock budget in seconds; ``None`` defers to
        ``REPRO_JOB_TIMEOUT`` (unset means no timeout).  Enforced on
        pooled executors only — the serial path cannot pre-empt a job
        (see ``docs/engine.md``).
    telemetry:
        Record every run into :mod:`repro.obs`; ``None`` defers to
        ``REPRO_TELEMETRY`` (unset means off).  Each job records into a
        private session whose snapshot rides back on its result; the
        batch merges them all into ``BatchResult.telemetry`` alongside
        engine-level counters (``engine.jobs.*``), the ``engine.batch``
        span and batch/job lifecycle events.  See
        ``docs/observability.md``.
    shard:
        Fleet-scale sharding of individual jobs (see
        :mod:`repro.core.shard` and ``docs/engine.md``).  ``None``
        (default) auto-shards a kernel job once its trace plane reaches
        ``AUTO_SHARD_MIN_CELLS`` cells — or whenever a shard size is
        given explicitly or via the environment; ``True`` forces
        sharding; ``False`` disables it.
    shard_servers / shard_steps:
        Target shard tile size (servers wide, steps long); ``None``
        defers to ``REPRO_SHARD_SERVERS`` / ``REPRO_SHARD_STEPS``, else
        the defaults.  The engine validates these against each job's
        trace **before** dispatch: non-positive values or values
        exceeding the trace dimensions raise ``ConfigurationError`` on
        the coordinator, never a worker-side crash.
    checkpoint:
        Root directory for durable checkpoint state (see
        :mod:`repro.core.checkpoint` and ``docs/checkpoint.md``).  Each
        job gets a content-keyed subdirectory; sharded jobs persist
        every completed shard as it finishes, whole jobs persist their
        result.  ``None`` (default) disables checkpointing.
    resume:
        With ``checkpoint`` set: ``True`` (default) loads completed
        work from a matching checkpoint and raises
        :class:`~repro.errors.CheckpointError` when the directory
        belongs to a different run; ``False`` wipes per-job state and
        starts fresh.

    Lifetime
    --------
    An engine owns two long-lived resources: the shared executor pool
    (reused across :meth:`run` calls — repeated batches do not re-fork
    workers) and the shared-memory trace segments uploaded for process
    dispatch.  :meth:`close` releases both; the engine is also a context
    manager, and a garbage-collected engine cleans its segments up via a
    finalizer.  :func:`run_batch` closes its throwaway engine for you.
    """

    def __init__(self, n_workers: int | None = None, *,
                 prefer: str = "process",
                 max_retries: int = 0,
                 job_timeout_s: float | None = None,
                 telemetry: bool | None = None,
                 shard: bool | None = None,
                 shard_servers: int | None = None,
                 shard_steps: int | None = None,
                 checkpoint: "str | os.PathLike | None" = None,
                 resume: bool = True,
                 cache=None,
                 metrics_port: int | None = None) -> None:
        if prefer not in ("process", "thread", "serial"):
            raise ConfigurationError(
                f"prefer must be 'process', 'thread' or 'serial', "
                f"got {prefer!r}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}")
        # Explicit knobs are checked here by the same rules the
        # environment fallbacks go through; those are read by run().
        self.n_workers = n_workers
        self.job_timeout_s = _env.number(job_timeout_s, None,
                                         "job_timeout_s", kind=float)
        self.shard_servers = _env.number(shard_servers, None,
                                         "shard_servers")
        self.shard_steps = _env.number(shard_steps, None, "shard_steps")
        self.shard = shard
        self.checkpoint = (None if checkpoint is None
                           else Path(os.fspath(checkpoint)))
        self.resume = resume
        #: Trace plane digests keyed by object identity (strong ref kept
        #: alongside, so an id can never be recycled while cached).
        self._trace_digests: dict[int, tuple[WorkloadTrace, str]] = {}
        self.prefer = prefer
        self.max_retries = max_retries
        # Resolved once up front (explicit > REPRO_TELEMETRY > off) so a
        # malformed environment fails here, not inside a worker, and all
        # executors agree on whether jobs record.
        self.metrics_port = obs.resolve_metrics_port(metrics_port)
        if self.metrics_port is not None and telemetry is None:
            # A scrape endpoint without a session would serve nothing.
            telemetry = True
        self.telemetry = obs.telemetry_enabled(telemetry)
        #: Live scrape endpoint (``/metrics`` + ``/healthz``).  Bound
        #: eagerly so callers can report the resolved address before the
        #: first run; each ``run()`` re-binds it to that run's session.
        self._health = obs.RunHealth()
        self._live_server = (obs.LiveTelemetryServer(port=self.metrics_port)
                             if self.metrics_port is not None else None)
        if self._live_server is not None:
            self._live_server.bind(None, self._health)
        # Same treatment for the result cache (explicit > REPRO_CACHE);
        # only this coordinator reads or writes it.
        self.result_cache = resolve_result_cache(cache)
        self._shared_traces = _SharedTraceRegistry()
        self._executor = None
        self._executor_kind: str | None = None
        self._executor_workers = 0
        #: How many shared pools this engine has created — stays at 1
        #: across repeated ``run`` calls of the same kind (the reuse the
        #: executor-persistence tests pin down).
        self.executor_launches = 0
        self._finalizer = weakref.finalize(self, self._shared_traces.close)

    # -- lifetime ------------------------------------------------------

    @property
    def metrics_address(self) -> str | None:
        """``http://host:port`` of the live scrape endpoint (or None)."""
        return (self._live_server.url
                if self._live_server is not None else None)

    def close(self) -> None:
        """Release the persistent executor and shared trace segments.

        Idempotent; the engine degrades to creating a fresh pool if it
        is (unusually) run again after closing.
        """
        if self._live_server is not None:
            self._live_server.close()
            self._live_server = None
        self._drop_executor(wait=True)
        self._shared_traces.close()
        # The digest cache holds a strong reference to every trace run.
        self._trace_digests.clear()
        self._finalizer.detach()

    def __enter__(self) -> "BatchSimulationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- executors -----------------------------------------------------

    def _ensure_executor(self, kind: str, workers: int):
        """The persistent shared pool, recreated only when unsuitable.

        A new pool first makes one no-op round trip: under fork, the
        first ``submit`` forks the workers, so a pool that cannot fork
        fails here, before any unit relies on it.
        """
        if (self._executor is not None and self._executor_kind == kind
                and self._executor_workers >= workers):
            return self._executor
        self._drop_executor(wait=True)
        executor = _new_pool(kind, workers)
        try:
            executor.submit(int).result()
        except BaseException:
            self._kill_executor(executor, kind)
            raise
        self._executor = executor
        self._executor_kind = kind
        self._executor_workers = workers
        self.executor_launches += 1
        return executor

    def _drop_executor(self, wait: bool = False) -> None:
        """Discard the persistent pool (gracefully or by killing it)."""
        if self._executor is None:
            return
        executor, kind = self._executor, self._executor_kind
        self._executor = None
        self._executor_kind = None
        self._executor_workers = 0
        if wait:
            executor.shutdown(wait=True)
        else:
            self._kill_executor(executor, kind)

    def _emit_job_event(self, kind: str, answer: _Answer, unit: _Unit,
                        exc: BaseException | None = None) -> None:
        """Record one job lifecycle event into the batch session.

        Called on the coordinating thread only, where the batch-level
        session (if any) is installed; a no-op with telemetry off.
        Terminal failure kinds also advance the ``/healthz`` progress.
        """
        data = {"scheme": answer.job.config.name,
                "trace": answer.job.trace.name,
                "attempt": unit.attempts}
        if exc is not None:
            data["error_type"] = type(exc).__name__
            data["error"] = str(exc)
        if kind in ("job.failed", "job.timeout"):
            self._health.job_done(failed=True)
        obs.emit(kind, **data)

    def _payload(self, job: SimulationJob) -> _JobPayload:
        """Zero-copy payload: the job with its trace swapped for a ref.

        Trace subclasses are pickled whole — rebuilding them from a bare
        plane in the worker would strip their overridden behaviour.
        """
        if type(job.trace) is WorkloadTrace:
            trace_ref, trace = self._shared_traces.ref_for(job.trace), None
        else:
            trace_ref, trace = None, job.trace
        return _JobPayload(
            trace_ref=trace_ref,
            config=job.config,
            cpu_model=job.cpu_model,
            teg_module=job.teg_module,
            faults=job.faults,
            trace=trace,
            telemetry=self.telemetry,
        )

    @staticmethod
    def _kill_executor(executor, kind: str) -> None:
        """Tear a pool down without waiting on hung workers.

        Process workers are terminated outright (a hung worker would
        otherwise block shutdown and interpreter exit).  Thread workers
        cannot be killed in CPython; the pool is abandoned and a truly
        hung thread may delay interpreter exit — documented in
        ``docs/engine.md``.
        """
        # Snapshot the worker processes *before* shutdown: the executor
        # clears its ``_processes`` map on shutdown even with
        # ``wait=False``, which would leave a hung worker unkillable.
        processes = []
        if kind == "process":
            processes = list((getattr(executor, "_processes", None)
                              or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()

    # -- units ---------------------------------------------------------

    def _job_unit(self, answer: _Answer, kind: str,
                  timeout_s: float | None) -> _Unit:
        """The unit of one whole job on a ``kind`` executor.

        Workers only compute: caching stays off whatever their
        environment says, because the coordinator looks every job up
        and stores every result.  ``telemetry`` was resolved once by the
        engine, so every executor agrees on whether jobs record.
        """
        job = answer.job
        return _Unit(
            local=partial(simulate, job.trace, job.config, job.cpu_model,
                          job.teg_module, faults=job.faults,
                          telemetry=self.telemetry, result_cache=False),
            remote=((_execute_payload, self._payload(job))
                    if kind == "process" else None),
            land=partial(self._land, answer),
            retry=partial(self._retry, answer),
            deadline_s=timeout_s,
            time_out=partial(self._fail, answer))

    def _land(self, answer: _Answer, unit: _Unit,
              result: SimulationResult) -> None:
        """Record a computed job's result: cache, checkpoint, ``/healthz``.

        The one landing for every computed job, whole or sharded.
        Saving the moment a job completes means a coordinator crash one
        job into a 50-job batch still leaves the finished jobs' results
        on disk, whatever executor ran them.  A sharded job's
        checkpoint holds its shards, not the merged result.  A store
        that raises (a full disk, say) fails this job alone: the pool
        is not to blame.
        """
        if result.metrics is not None:
            # A sharded job's metrics already count its tiles' retries;
            # its own unit never retries.
            result.metrics.retries += unit.retries
        try:
            if self._cacheable(answer.job):
                self.result_cache.store(answer.key, result)
            if answer.store is not None and answer.specs is None:
                answer.store.save_result(result)
        except Exception as exc:
            return self._fail(answer, unit, exc)
        answer.result = result
        self._health.job_done()

    def _retry(self, answer: _Answer, unit: _Unit,
               exc: BaseException) -> bool:
        """A whole job's retry hook: rerun within ``max_retries``."""
        if unit.attempts > self.max_retries:
            self._fail(answer, unit, exc)
            return False
        self._emit_job_event("job.retry", answer, unit, exc)
        _back_off(unit)
        return True

    def _fail(self, answer: _Answer, unit: _Unit,
              exc: BaseException | None = None) -> None:
        """Fail ``answer``'s job with ``exc``, or by timeout without one.

        Also the retry hook of a sharded job, which never reruns whole:
        its tiles retry instead.
        """
        job, timed_out = answer.job, exc is None
        answer.failure = FailedJob(
            scheme=job.config.name, trace_name=job.trace.name,
            error_type="TimeoutError" if timed_out else type(exc).__name__,
            message=(f"job exceeded the {unit.deadline_s:g}s wall-clock "
                     f"budget ({JOB_TIMEOUT_ENV_VAR})" if timed_out
                     else str(exc)),
            attempts=unit.attempts,
            elapsed_s=time.perf_counter() - unit.started_at,
            timed_out=timed_out)
        self._emit_job_event("job.timeout" if timed_out else "job.failed",
                             answer, unit, exc)

    # -- pools ---------------------------------------------------------

    def _start_pool(self, pooled: list[_Answer], workers: int) -> str:
        """Choose this run's executor: process, else thread, else serial.

        A pool has started once it is built, has made its first round
        trip (:meth:`_ensure_executor`) and, for processes, every
        payload of ``pooled`` pickles.
        """
        kinds = (("process", "thread") if self.prefer == "process"
                 else ("thread",))
        for kind in kinds:
            try:
                if kind == "process":
                    pickle.dumps([self._payload(answer.job)
                                  for answer in pooled])
                self._ensure_executor(kind, workers)
            except Exception:  # this kind cannot start here: degrade
                continue
            return kind
        return "serial"

    def _run_units(self, units: Sequence[_Unit], kind: str,
                   workers: int) -> None:
        """Run units on this run's executor, ``kind``.

        A dead worker or a timeout tears the shared pool down, since the
        stdlib cannot tell which unit broke it.  Every unit it left
        unfinished then runs alone in a fresh single-worker pool of the
        same kind, where a crash is charged to exactly that unit.
        """
        if kind == "serial":
            return _run_local(units)
        leftovers = self._pool_loop(self._ensure_executor(kind, workers),
                                    kind, units)
        if leftovers is not None:
            self._drop_executor()
        for unit in leftovers or ():
            pending = [unit]
            while pending:
                solo = _new_pool(kind, 1)
                try:
                    pending = self._pool_loop(solo, kind, pending,
                                              isolated=True)
                finally:
                    self._kill_executor(solo, kind)

    def _pool_loop(self, executor, kind: str, units: Sequence[_Unit],
                   isolated: bool = False) -> list[_Unit] | None:
        """The pool loop: run ``units`` on ``executor``, landing each.

        A raised attempt reruns while ``retry`` allows.  An attempt
        running past ``deadline_s`` (timed from when it is first seen
        running) fires the unit's timeout.  Returns ``None`` while the
        pool is healthy, else — after a dead worker or a timeout — the
        units left unfinished, with no attempt charged for the dead
        worker; the pool must then go.  In an ``isolated`` pool a dead
        worker is its one unit's failed attempt instead.  What a
        callback raises propagates, with this loop's futures cancelled.
        """
        futures: dict[Future, _Unit] = {}
        running_since: dict[Future, float] = {}

        def submit(unit: _Unit) -> bool:
            call = unit.remote if kind == "process" else (unit.local,)
            try:
                futures[executor.submit(*call)] = unit
            except BrokenExecutor:  # the pool is dead
                return False
            return True

        def unfinished(*units: _Unit) -> list[_Unit]:
            return [unit for unit in dict.fromkeys((*units,
                                                    *futures.values()))
                    if not unit.done]

        deadlines = any(unit.deadline_s is not None for unit in units)
        poll = _POLL_INTERVAL_S if deadlines else None
        try:
            if not all(submit(unit) for unit in units):
                return unfinished(*units)
            while futures:
                completed, _ = wait(futures, timeout=poll,
                                    return_when=FIRST_COMPLETED)
                for future in completed:
                    unit = futures.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:
                        if isinstance(exc, BrokenExecutor) and not isolated:
                            return unfinished(unit)
                        unit.attempts += 1
                        if not unit.retry(unit, exc):
                            unit.done = True
                        elif not submit(unit):
                            return unfinished(unit)
                        continue
                    unit.attempts += 1
                    unit.done = True
                    unit.land(unit, result)
                now = time.perf_counter()
                for future, unit in list(futures.items()):
                    if unit.deadline_s is None or not future.running():
                        continue
                    started = running_since.setdefault(future, now)
                    if now - started >= unit.deadline_s:
                        # Terminal: the hung worker spoils the pool.
                        del futures[future]
                        unit.attempts += 1
                        unit.done = True
                        unit.time_out(unit)
                        return unfinished()
        finally:
            for future in futures:
                future.cancel()
        return None

    # -- sharded jobs --------------------------------------------------

    def _shard_plan(self, job: SimulationJob,
                    shard_servers: int | None,
                    shard_steps: int | None):
        """Shard specs for one job, or ``None`` to run it whole.

        Validation is coordinator-side by design (the satellite fix of
        the sharding PR): a knob that is non-positive or exceeds the
        job's trace dimensions raises :class:`ConfigurationError` here,
        before anything is dispatched to a worker.
        """
        from .shard import (
            AUTO_SHARD_MIN_CELLS,
            DEFAULT_SHARD_SERVERS,
            DEFAULT_SHARD_STEPS,
            SHARD_SERVERS_ENV_VAR,
            SHARD_STEPS_ENV_VAR,
            plan_shards,
        )

        if self.shard is False:
            return None
        trace = job.trace
        if type(trace) is not WorkloadTrace:
            # Subclasses can carry behaviour (an overridden step());
            # window views would strip it, exactly like the kernel and
            # the zero-copy dispatch, so such jobs run whole.
            return None
        if trace.n_servers < job.config.circulation_size:
            # The unsharded path raises the proper ConfigurationError.
            return None
        explicit = shard_servers is not None or shard_steps is not None
        cells = trace.n_steps * trace.n_servers
        if (not self.shard and not explicit
                and cells < AUTO_SHARD_MIN_CELLS):
            return None
        if shard_servers is not None and shard_servers > trace.n_servers:
            raise ConfigurationError(
                f"shard_servers / {SHARD_SERVERS_ENV_VAR} is "
                f"{shard_servers} but trace {trace.name!r} has only "
                f"{trace.n_servers} servers")
        if shard_steps is not None and shard_steps > trace.n_steps:
            raise ConfigurationError(
                f"shard_steps / {SHARD_STEPS_ENV_VAR} is {shard_steps} "
                f"but trace {trace.name!r} has only {trace.n_steps} "
                f"steps")
        servers = (shard_servers if shard_servers is not None
                   else min(DEFAULT_SHARD_SERVERS, trace.n_servers))
        steps = (shard_steps if shard_steps is not None
                 else min(DEFAULT_SHARD_STEPS, trace.n_steps))
        if job.faults is not None:
            servers = None  # masks span the cluster: time-only shards
        specs = plan_shards(trace.n_steps, trace.n_servers,
                            job.config.circulation_size,
                            shard_servers=servers, shard_steps=steps)
        if len(specs) <= 1:
            return None
        return specs

    # -- checkpointing -------------------------------------------------

    def _trace_hash(self, trace: WorkloadTrace) -> str:
        """Content digest of ``trace``, hashed at most once per engine."""
        from .checkpoint import trace_digest

        entry = self._trace_digests.get(id(trace))
        if entry is None:
            entry = (trace, trace_digest(trace))
            self._trace_digests[id(trace)] = entry
        return entry[1]

    def _cacheable(self, job: SimulationJob) -> bool:
        """Whether the result cache answers and stores ``job``: a trace
        subclass keys on object identity, which is never persisted."""
        return (self.result_cache is not None
                and type(job.trace) is WorkloadTrace)

    def _content_key(self, job: SimulationJob, specs):
        """The result-cache / dedup identity of one job.

        A whole job's key matches the one :func:`simulate` derives for
        a direct call, so a result a direct call stored answers the
        batch and vice versa.  Trace subclasses can carry behaviour the
        plane digest cannot see, so they key on object identity — good
        enough for within-batch dedup, never persisted.
        """
        if type(job.trace) is WorkloadTrace:
            trace_hash = self._trace_hash(job.trace)
        else:
            trace_hash = f"id:{id(job.trace)}"
        return result_key(job.trace, job.config, job.cpu_model,
                          job.teg_module, faults=job.faults, specs=specs,
                          trace_hash=trace_hash)

    def _job_store(self, job: SimulationJob, specs):
        """The per-job checkpoint store under the engine's root.

        Each job owns a subdirectory named after its scheme, trace and
        the 12-hex content key, so two different runs can never collide
        in one root — a key mismatch simply lands in a different
        directory.  ``specs`` is the job's shard plan (``None`` runs
        whole and checkpoints at job granularity).
        """
        from .checkpoint import CheckpointStore, run_key

        key = run_key(job.trace, job.config, job.cpu_model, job.teg_module,
                      faults=job.faults, specs=specs,
                      trace_hash=self._trace_hash(job.trace))
        name = "--".join((_fs_slug(job.config.name),
                          _fs_slug(job.trace.name), key.short))
        return CheckpointStore(
            self.checkpoint / name, key,
            n_shards=len(specs) if specs is not None else 0,
            resume=self.resume)

    def _run_sharded_job(self, job: SimulationJob, specs,
                         kind: str, workers: int,
                         store=None) -> SimulationResult:
        """Run one job's shard plan through the shared ``_drive_shards``.

        :func:`repro.core.shard._drive_shards` owns checkpoint resume,
        priming, the sequential fault-window loop, the streaming merge
        and the metrics; this method adds what only a pool has.  On the
        process pool without a checkpoint store, workers write their
        plane tiles straight into one shared column block that backs
        the merge, so results come back zero-copy (saved shards must
        carry their own columns).  Kernel tiles go to
        :meth:`_dispatch_shards` and run as units, like whole jobs: a
        dead worker sends the unfinished ones to isolated pools, never
        to this process.  Fault windows run in-process.  The per-job
        wall-clock budget is **not** enforced on sharded jobs
        (documented in ``docs/engine.md``).
        """
        from .shard import ShardColumnRef, _drive_shards

        labels = {"scheme": job.config.name, "trace": job.trace.name}
        obs.emit("shard.dispatch", **labels, shards=len(specs),
                 executor="sequential" if job.faults is not None else kind)
        obs.add("engine.shards.dispatched", len(specs), labels=labels)

        block = planes = column_ref = None
        if kind == "process" and store is None and job.faults is None:
            n_steps = job.trace.n_steps
            n_circs = -(-job.trace.n_servers
                        // job.config.circulation_size)
            try:
                block = self._shared_traces.scratch_block(
                    len(COLUMN_PLANES) * n_steps * n_circs
                    * np.dtype(np.float64).itemsize)
            except OSError:  # pragma: no cover - no POSIX shm
                pass
            else:
                planes = _column_planes(n_steps, n_circs, block.buf)
                column_ref = ShardColumnRef(shm_name=block.name,
                                            n_steps=n_steps,
                                            n_circs=n_circs)
        dispatch = partial(self._dispatch_shards, job, kind, workers,
                           column_ref)
        try:
            result = _drive_shards(
                job, specs, telemetry=self.telemetry, health=self._health,
                store=store,
                # With a live scrape endpoint attached, shard telemetry
                # folds straight into the batch session as each shard
                # lands, so a mid-run GET /metrics sees repro_shard_*
                # series accumulate.
                telemetry_sink=(obs.current()
                                if self._live_server is not None else None),
                result_cache=self.result_cache,
                trace_hash=(self._trace_hash(job.trace)
                            if self.result_cache is not None else None),
                max_retries=self.max_retries,
                dispatch=dispatch, plane_block=planes)
        finally:
            if block is not None:
                del planes  # no view of the block may outlive its unmap
                self._shared_traces.release_scratch(block)
        metrics = result.metrics
        obs.add("engine.shards.completed", metrics.n_shards, labels=labels)
        obs.emit("shard.merge", **labels, shards=metrics.n_shards,
                 resumed=metrics.shards_resumed,
                 wall_time_s=round(metrics.wall_time_s, 4))
        return result

    def _dispatch_shards(self, job: SimulationJob, kind: str, workers: int,
                         column_ref, pending, primed, tile) -> None:
        """Run kernel tiles on this run's executor: land all or raise.

        ``tile(spec)`` builds one tile's unit (see ``_drive_shards``); on
        a process pool it ships a :class:`~repro.core.shard._ShardPayload`
        — a windowed :class:`SharedTraceRef`, the spec and the ``primed``
        policy memo — so payload size is independent of trace length
        and shard count.
        """
        from .shard import _ShardPayload, _execute_shard_payload

        base_ref = (self._shared_traces.ref_for(job.trace)
                    if kind == "process" else None)
        units = []
        for spec in pending:
            unit = tile(spec)
            if base_ref is not None:
                unit.remote = (_execute_shard_payload, _ShardPayload(
                    trace_ref=replace(base_ref, row_start=spec.step_start,
                                      row_stop=spec.step_stop,
                                      col_start=spec.server_start,
                                      col_stop=spec.server_stop),
                    spec=spec, config=job.config, cpu_model=job.cpu_model,
                    teg_module=job.teg_module,
                    decisions=primed, telemetry=self.telemetry,
                    column_ref=column_ref))
            units.append(unit)
        self._run_units(units, kind, workers)

    def run(self, jobs: Iterable[SimulationJob]) -> BatchResult:
        """Execute every job; return partial results plus failures.

        Results come back in submission order.  A job that crashes its
        worker, raises, or exceeds the wall-clock budget becomes a
        :class:`FailedJob` record on the returned :class:`BatchResult`
        — it never aborts the batch or takes other jobs' results with
        it.

        With telemetry on, the whole batch runs under one
        :mod:`repro.obs` session: per-job worker snapshots are merged
        into it, engine-level counters and lifecycle events are added,
        and the live session is attached as ``BatchResult.telemetry``.
        A job that is not a :class:`SimulationJob`, or a malformed
        environment fallback, raises :class:`ConfigurationError` first.
        """
        from .shard import (
            SHARD_SERVERS_ENV_VAR,
            SHARD_STEPS_ENV_VAR,
            resolve_shard_size,
        )

        jobs = list(jobs)
        if not jobs:
            raise ConfigurationError("batch must contain at least one job")
        for job in jobs:
            if not isinstance(job, SimulationJob):
                raise ConfigurationError(
                    f"jobs must be SimulationJob instances, got "
                    f"{type(job).__name__}")
        # Every environment fallback is read here, once, so a malformed
        # knob fails the run with nothing touched.  The worker count is
        # capped by the number of work units once the jobs are resolved.
        knobs = dict(
            workers=resolve_workers(self.n_workers, sys.maxsize),
            timeout_s=resolve_job_timeout(self.job_timeout_s),
            shard_servers=resolve_shard_size(self.shard_servers,
                                             SHARD_SERVERS_ENV_VAR),
            shard_steps=resolve_shard_size(self.shard_steps,
                                           SHARD_STEPS_ENV_VAR))
        batch_telemetry = obs.Telemetry() if self.telemetry else None
        if self._live_server is not None:
            # Point the scrape endpoint at this run's live session so a
            # mid-run GET /metrics sees counters as they accumulate.
            self._live_server.bind(batch_telemetry, self._health)
        context = (obs.session(batch_telemetry)
                   if batch_telemetry is not None else nullcontext())
        try:
            with context:
                with obs.span("engine.batch"):
                    batch = self._run_validated(jobs, batch_telemetry,
                                                **knobs)
        except BaseException:
            self._health.finish("failed")
            raise
        self._health.finish()
        batch.telemetry = batch_telemetry
        return batch

    def _resolve(self, jobs: list[SimulationJob],
                 plans: list) -> list[_Answer]:
        """Decide, once and before dispatch, how each job is answered.

        In order: a job whose content key an earlier job already has is
        a duplicate and is never looked up anywhere; a job on a plain
        trace is looked up in the result cache; a whole job that misses
        is looked up in its checkpoint store, and a saved result resumes
        it; anything else is computed, and :meth:`_land` stores its
        result.  Only a job that is neither a duplicate nor a cache hit
        opens a checkpoint store.  Workers never see the cache.
        """
        answers: list[_Answer] = []
        first: dict = {}
        for job, specs in zip(jobs, plans):
            answer = _Answer(job, self._content_key(job, specs), specs)
            answers.append(answer)
            rep = first.setdefault(answer.key, answer)
            if rep is not answer:
                answer.source, answer.rep = "duplicate", rep
                continue
            if self._cacheable(job):
                answer.result = self.result_cache.load(answer.key)
                if answer.result is not None:
                    answer.source = "cached"
                    continue
            if self.checkpoint is not None:
                answer.store = self._job_store(job, specs)
                if specs is None:
                    answer.result = answer.store.load_result()
                    if answer.result is not None:
                        answer.source = "resumed"
        return answers

    def _run_validated(self, jobs: list[SimulationJob],
                       batch_telemetry: "obs.Telemetry | None", *,
                       workers: int, timeout_s: float | None,
                       shard_servers: int | None,
                       shard_steps: int | None) -> BatchResult:
        """Execute a validated job list (under the batch session).

        The keyword arguments are the run's knobs, resolved by
        :meth:`run`.  Every job is first resolved to one
        :class:`_Answer` (see :meth:`_resolve`).  The whole jobs left to
        compute run as units of the in-process loop or the pool loop,
        with the worker count capped at the total unit count (whole
        jobs + shards); each sharded job then fans its tiles out as
        units on the same persistent executor and merges them back into
        a single result.
        """
        reaped = reap_orphaned_segments()
        if reaped:
            obs.add("engine.shm.reaped", len(reaped))
            obs.emit("shm.reap", segments=len(reaped))

        # Every plan is validated before a cache entry is read or a
        # checkpoint store opens.
        plans = [self._shard_plan(job, shard_servers, shard_steps)
                 for job in jobs]
        answers = self._resolve(jobs, plans)

        def having(*sources: str) -> list[_Answer]:
            return [answer for answer in answers if answer.source in sources]

        whole = [answer for answer in having("computed")
                 if answer.specs is None]
        sharded = [answer for answer in having("computed")
                   if answer.specs is not None]
        duplicates = having("duplicate")
        n_resumed = len(having("resumed"))
        if duplicates:
            obs.add("engine.jobs.deduped", len(duplicates))
        total_shards = sum(len(answer.specs) for answer in sharded)
        n_units = len(whole) + total_shards
        self._health.begin(jobs_total=len(jobs), shards_total=total_shards)
        for _ in having("resumed", "cached"):
            self._health.job_done()
        workers = resolve_workers(workers, n_units)
        obs.emit("batch.start", n_jobs=len(jobs), workers=workers,
                 prefer=self.prefer, shards=total_shards, resumed=n_resumed,
                 deduped=len(duplicates), cache_hits=len(having("cached")))
        started = time.perf_counter()
        # The executor is chosen once, before anything runs, and only
        # if some work would use it: whole jobs, and kernel tiles that
        # a checkpoint does not hold already (fault windows never do).
        pooled = whole + [
            answer for answer in sharded if not answer.job.faults and (
                answer.store is None
                or len(answer.store.completed()) < len(answer.specs))]
        executor = "serial"
        if (workers > 1 and self.prefer != "serial" and n_units > 1
                and pooled):
            executor = self._start_pool(pooled, workers)
        units = [self._job_unit(answer, executor, timeout_s)
                 for answer in whole]
        self._run_units(units, executor, workers)
        _run_local(_Unit(local=partial(self._run_sharded_job, answer.job,
                                       answer.specs, executor, workers,
                                       store=answer.store),
                         land=partial(self._land, answer),
                         retry=partial(self._fail, answer))
                   for answer in sharded)
        for answer in duplicates:
            # A duplicate shares its representative's result object (or
            # its failure record) — the content key proved them the
            # same run.
            answer.result = answer.rep.result
            answer.failure = answer.rep.failure
            self._health.job_done(failed=answer.result is None)
        wall = time.perf_counter() - started
        if executor == "serial":
            workers = 1

        # Only work done here is labelled and summed: resumed and cached
        # answers keep the metrics (and telemetry) of the run that
        # computed them, and a duplicate shares its representative's.
        ran = [answer.result for answer in having("computed")
               if answer.result is not None]
        ran_metrics = [result.metrics for result in ran
                       if result.metrics is not None]
        for metrics in ran_metrics:
            metrics.executor = executor
            metrics.n_workers = workers
        total_steps = sum(metrics.n_steps for metrics in ran_metrics)
        n_looked_up = sum(self._cacheable(answer.job)
                          for answer in answers if answer.rep is None)
        n_cached = len(having("cached"))
        results = [answer.result for answer in answers
                   if answer.result is not None]
        failures = [answer.failure for answer in answers
                    if answer.failure is not None]
        # A whole job's retried attempts, landed or not, and a landed
        # sharded job's retried tiles (its metrics count them).
        retries = sum(unit.retries for unit in units) + sum(
            answer.result.metrics.retries for answer in sharded
            if answer.result is not None)
        timeouts = sum(answer.failure is not None and answer.failure.timed_out
                       for answer in whole)
        batch = BatchResult(
            results=results,
            failures=failures,
            metrics=BatchMetrics(
                wall_time_s=wall,
                n_jobs=len(jobs),
                n_workers=workers,
                executor=executor,
                total_steps=total_steps,
                steps_per_s=total_steps / wall if wall > 0 else 0.0,
                cache_hits=sum(m.cache_hits for m in ran_metrics),
                cache_misses=sum(m.cache_misses for m in ran_metrics),
                retries=retries,
                timeouts=timeouts,
                n_failed=len(failures),
                shards=total_shards,
                shards_resumed=sum(m.shards_resumed for m in ran_metrics),
                jobs_resumed=n_resumed,
                result_cache_hits=n_cached,
                result_cache_misses=n_looked_up - n_cached,
                jobs_deduped=len(duplicates),
            ),
        )
        if batch_telemetry is not None:
            for result in ran:
                if result.telemetry is not None:
                    batch_telemetry.merge_snapshot(result.telemetry)
            registry = batch_telemetry.registry
            registry.counter("engine.jobs.submitted").inc(len(jobs))
            registry.counter("engine.jobs.completed").inc(len(results))
            registry.counter("engine.jobs.failed").inc(len(failures))
            registry.counter("engine.jobs.retries").inc(retries)
            registry.counter("engine.jobs.timeouts").inc(timeouts)
            if n_resumed:
                registry.counter("engine.jobs.resumed").inc(n_resumed)
            obs.emit("batch.end", **batch.metrics.summary())
        return batch


def run_batch(jobs: Iterable[SimulationJob],
              n_workers: int | None = None, **options) -> BatchResult:
    """One-call convenience wrapper around :class:`BatchSimulationEngine`.

    ``options`` are the engine's keyword parameters, with its names and
    defaults (see :class:`BatchSimulationEngine`); an unknown one raises
    :class:`TypeError`.  The engine (and with it the persistent executor
    and any shared-memory trace segments) is torn down before returning;
    hold a :class:`BatchSimulationEngine` yourself to amortise pool
    start-up across several batches.  With ``telemetry`` on, the merged
    session survives on ``BatchResult.telemetry``.
    """
    engine = BatchSimulationEngine(n_workers, **options)
    try:
        return engine.run(jobs)
    finally:
        engine.close()


def compare_batch(traces: Sequence[WorkloadTrace],
                  configs: Sequence[SimulationConfig],
                  n_workers: int | None = None, *,
                  cpu_model: CpuThermalModel | None = None,
                  teg_module: TegModule | None = None,
                  prefer: str = "process",
                  cache=None,
                  metrics_port: int | None = None) -> BatchResult:
    """Run the full cross product of ``traces`` x ``configs`` as one batch."""
    jobs = [SimulationJob(trace=trace, config=config, cpu_model=cpu_model,
                          teg_module=teg_module)
            for trace in traces for config in configs]
    return run_batch(jobs, n_workers, prefer=prefer, cache=cache,
                     metrics_port=metrics_port)


__all__ = [
    "WORKERS_ENV_VAR",
    "JOB_TIMEOUT_ENV_VAR",
    "RETRY_BACKOFF_S",
    "SEGMENT_PREFIX",
    "EXECUTION_MODES",
    "EngineMetrics",
    "KernelTimings",
    "BatchMetrics",
    "SimulationJob",
    "FailedJob",
    "BatchResult",
    "BatchSimulationEngine",
    "ResultCache",
    "SharedTraceRef",
    "simulate",
    "run_batch",
    "compare_batch",
    "resolve_mode",
    "resolve_workers",
    "resolve_job_timeout",
    "reap_orphaned_segments",
]
