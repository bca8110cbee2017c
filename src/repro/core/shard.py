"""Fleet-scale sharded simulation: split, run, and merge bit-identically.

The paper's Google trace is 12.5k servers for a month (~8,900 control
intervals); one kernel invocation over that plane is a double-digit-GB
working set and a single-core job.  Cooling decisions are per
circulation and the facility split is per-``(step, circulation)`` cell,
so the plane factors cleanly into **rectangular tiles**: blocks of whole
circulations times bounded time windows.  This module

* plans the tiling (:func:`plan_shards` — server boundaries always land
  on circulation boundaries, time windows may be ragged at the end),
* runs kernel phases 1–3 on one tile (:func:`run_shard`, returning a
  :class:`ShardOutcome` of per-circulation columns), and
* stitches the tiles back into whole-cluster columns as they land and
  replays the phase-4 fold once over them (:class:`StreamingMerge`,
  whose :meth:`~StreamingMerge.result` runs
  :func:`audit_merged_result` before it returns), and
* runs a whole plan — checkpoint resume, priming, the fault-window
  loop, the streaming merge and the run metrics — in one private
  function, :func:`_drive_shards`, which :func:`simulate_sharded` runs
  in-process and the batch engine runs over its pool.

Bit-identity
------------
The merge is **bit-identical** to the unsharded kernel because nothing
numeric is ever combined *across* shards:

* every ``(step, circulation)`` cell is computed exactly once, by
  exactly the arithmetic the unsharded kernel would use (the scheduled
  plane, decisions, model batches and per-circulation reductions of a
  tile depend only on that tile's cells);
* the cluster fold (:func:`repro.core.kernel.fold_columns`) runs once,
  on the stitched full-length columns, in circulation order — the same
  sequential float adds as unsharded (summing per-shard subtotals would
  not be, since float addition is not associative);
* violations and errors are emitted in the global frame by the shard
  itself (``step_offset`` / ``server_offset``) and the globally earliest
  error is selected by the serial evaluation order ``(step, phase,
  circulation)``.

One subtlety breaks naive tiling: a memoising policy
(:class:`~repro.control.cooling_policy.LookupSpacePolicy`) derives a
quantised bucket's decision from the **exact** binding utilisation that
first lands in the bucket, so decisions are path-dependent on priming
order — and a shard's tile-local first occurrences need not match the
global serial ones.  :func:`prime_decisions` therefore replays kernel
phase 1 over the *full* plane on the coordinator, filling the policy's
``{bucket: PolicyDecision}`` memo in global first-occurrence order;
every shard's policy starts from a copy of that memo, so every
shard-side lookup hits and no decision is computed out of order.  The
memo is bounded by the policy's quantisation (a few hundred entries),
keeping worker payloads independent of trace length.

Fault-carrying runs shard by **time only**: fault masks are drawn once
over the whole cluster and sensor-noise RNG streams are keyed on global
step indices, so a time window replays exactly its slice of the
unsharded fault run, and merging is plain record concatenation.
Decisions in a fault run key on noisy sensor readings that no pre-pass
can enumerate, so fault windows execute **sequentially in time order**,
each handing its policy (and so the policy's memo) to the next —
reproducing the serial priming sequence exactly.

``tests/core/test_shard_parity.py`` enforces all of this against the
serial simulator, golden fixtures and hypothesis property tests
included, for :func:`simulate_sharded` and the engine alike.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from .. import _env, obs
from ..errors import (
    ConfigurationError,
    CoolingFailureError,
    PhysicalRangeError,
    ResultIntegrityError,
    ShardExecutionError,
)
from ..faults import FaultSchedule
from ..teg.module import TegModule
from ..thermal.cpu_model import CpuThermalModel
from ..workloads.trace import WorkloadTrace
from .config import SimulationConfig
from .cache import ResultCache, resolve_result_cache, result_key, warm_keys
from .engine import (
    EngineMetrics,
    SharedTraceRef,
    SimulationJob,
    _CachedVectorisedSimulator,
    _run_local,
    _trace_from_ref,
    _Unit,
)
from .kernel import (
    COLUMN_PLANES,
    KernelColumns,
    KernelError,
    KernelTimings,
    _column_planes,
    _columnar_result,
    _decide_phase,
    _decision_memo,
    _is_column_block,
    run_kernel_columns,
)
from .results import SimulationResult

__all__ = [
    "AUTO_SHARD_MIN_CELLS",
    "COLUMN_PLANES",
    "DEFAULT_SHARD_SERVERS",
    "DEFAULT_SHARD_STEPS",
    "SHARD_SERVERS_ENV_VAR",
    "SHARD_STEPS_ENV_VAR",
    "ShardColumnRef",
    "ShardOutcome",
    "ShardSpec",
    "StreamingMerge",
    "audit_merged_result",
    "clone_cache",
    "plan_shards",
    "prime_decisions",
    "primed_or_warm",
    "resolve_shard_size",
    "run_shard",
    "simulate_sharded",
]

#: Environment variables overriding the shard tile size (servers wide,
#: steps long).  Explicit engine arguments win over the environment.
SHARD_SERVERS_ENV_VAR = "REPRO_SHARD_SERVERS"
SHARD_STEPS_ENV_VAR = "REPRO_SHARD_STEPS"

#: A kernel job auto-shards once its plane reaches this many cells
#: (steps x servers) — about the point where splitting pays for the
#: merge.  12.5k x 8,900 is ~111M cells, 55 default tiles.
AUTO_SHARD_MIN_CELLS = 2_000_000

#: Default tile dimensions when auto-sharding (clamped to the trace).
DEFAULT_SHARD_SERVERS = 2500
DEFAULT_SHARD_STEPS = 2500


@dataclass(frozen=True)
class ShardSpec:
    """One rectangular tile of a ``(steps x servers)`` trace plane.

    ``server_start:server_stop`` always covers whole circulations
    ``circ_start:circ_stop`` of the *global* partitioning (the planner
    guarantees it), so a shard's circulation columns slot directly into
    the stitched whole-cluster arrays.
    """

    index: int
    step_start: int
    step_stop: int
    server_start: int
    server_stop: int
    circ_start: int
    circ_stop: int

    @property
    def n_steps(self) -> int:
        """Time-window length of the tile."""
        return self.step_stop - self.step_start

    @property
    def n_servers(self) -> int:
        """Server width of the tile."""
        return self.server_stop - self.server_start

    @property
    def n_circs(self) -> int:
        """Whole circulations covered by the tile."""
        return self.circ_stop - self.circ_start

    @property
    def n_cells(self) -> int:
        """Trace cells (steps x servers) the tile covers."""
        return self.n_steps * self.n_servers


@dataclass
class ShardOutcome:
    """What one executed shard ships back to the merge.

    Kernel shards carry ``columns`` (pre-fold per-circulation planes,
    violations already in the global frame); fault shards carry the
    serial loop's ``records`` list instead.  ``error`` is set when the
    shard's slice of the run would have raised — the merge decides
    whether it is the globally earliest one.
    """

    spec: ShardSpec
    columns: KernelColumns | None = None
    records: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    error: KernelError | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    n_cells: int = 0
    telemetry: "obs.TelemetrySnapshot | None" = None
    #: Kernel phase timings of this shard's run; the streaming merge
    #: sums them into the sharded job's :class:`KernelTimings`.
    timings: KernelTimings | None = None
    #: Set (with ``columns`` cleared) when the worker published its
    #: plane tiles straight into the coordinator's shared column block
    #: (:func:`_publish_columns`): the non-plane data the fold still
    #: needs — per-circulation sizes and per-step violation counts.
    sizes: np.ndarray | None = None
    violation_counts: np.ndarray | None = None
    #: The policy instance a fault shard decided with — the sequential
    #: fault orchestration carries it into the next time window so a
    #: memoising policy replays the serial priming sequence.  Kernel
    #: shards leave it ``None`` (they start from a primed memo).
    policy: object = field(default=None, repr=False, compare=False)


def resolve_shard_size(explicit: int | None, env_var: str) -> int | None:
    """One shard dimension: explicit > environment > ``None`` (unset).

    ``env_var`` is :data:`SHARD_SERVERS_ENV_VAR` or
    :data:`SHARD_STEPS_ENV_VAR`; an explicit value is named after the
    matching argument (``shard_servers`` / ``shard_steps``).

    Raises
    ------
    ConfigurationError
        When the explicit value or the environment variable is
        non-positive or not an integer.
    """
    return _env.number(explicit, env_var,
                       env_var.removeprefix("REPRO_").lower())


def plan_shards(n_steps: int, n_servers: int, circulation_size: int,
                shard_servers: int | None = None,
                shard_steps: int | None = None) -> list[ShardSpec]:
    """Tile a ``(n_steps x n_servers)`` plane along both dimensions.

    ``shard_servers`` / ``shard_steps`` are *targets*: the server target
    is rounded **down** to whole circulations (never below one), both
    are clamped to the trace, and ``None`` leaves that dimension
    unsplit.  The last tile of either dimension may be ragged.  Tiles
    are ordered server-block-major, time-window-minor, and cover every
    cell exactly once.

    Raises
    ------
    ConfigurationError
        On non-positive dimensions or targets.
    """
    if n_steps <= 0 or n_servers <= 0:
        raise ConfigurationError(
            f"trace plane must be non-empty, got "
            f"{n_steps} x {n_servers}")
    if circulation_size <= 0:
        raise ConfigurationError(
            f"circulation_size must be > 0, got {circulation_size}")
    for label, value in (("shard_servers", shard_servers),
                         ("shard_steps", shard_steps)):
        if value is not None and value <= 0:
            raise ConfigurationError(
                f"{label} must be > 0, got {value}")

    # Global circulation partitioning (trailing ragged group kept),
    # mirroring DatacenterSimulator._partition_servers.
    n_circs = -(-n_servers // circulation_size)
    if shard_servers is None:
        circs_per_shard = n_circs
    else:
        circs_per_shard = max(
            1, min(shard_servers, n_servers) // circulation_size)
    step_width = (n_steps if shard_steps is None
                  else min(shard_steps, n_steps))

    specs: list[ShardSpec] = []
    for circ_start in range(0, n_circs, circs_per_shard):
        circ_stop = min(circ_start + circs_per_shard, n_circs)
        server_start = circ_start * circulation_size
        server_stop = min(circ_stop * circulation_size, n_servers)
        for step_start in range(0, n_steps, step_width):
            specs.append(ShardSpec(
                index=len(specs),
                step_start=step_start,
                step_stop=min(step_start + step_width, n_steps),
                server_start=server_start,
                server_stop=server_stop,
                circ_start=circ_start,
                circ_stop=circ_stop,
            ))
    return specs


def prime_decisions(trace: WorkloadTrace, config: SimulationConfig,
                    cpu_model: CpuThermalModel | None = None,
                    teg_module: TegModule | None = None
                    ) -> dict | None:
    """Every cooling decision of ``trace``, primed in serial order.

    A memoising policy (``LookupSpacePolicy`` exposes
    ``cache_resolution``) derives a quantised bucket's decision from the
    *exact* binding utilisation that first lands in the bucket — so its
    decisions are path-dependent on priming order, and a shard's
    tile-local first occurrences need not match the global serial ones.
    This pre-pass replays kernel phase 1 (schedule + decide) over the
    full plane — a balanced plane from its circulation means, as the
    kernel does — and returns the policy's memo ``{bucket:
    PolicyDecision}``, filled in global first-occurrence order.  A shard
    whose policy starts from this memo answers every decision from it.

    Returns ``None`` for pure policies (analytic, static — no memo):
    their decisions are pure functions of the exact binding, so
    shard-local computation is already bit-identical.  The memo is
    bounded by the policy's quantisation (a few hundred entries),
    independent of trace length.
    """
    return primed_or_warm(trace, config, cpu_model, teg_module)


def primed_or_warm(trace: WorkloadTrace, config: SimulationConfig,
                   cpu_model: CpuThermalModel | None = None,
                   teg_module: TegModule | None = None, *,
                   result_cache: ResultCache | None = None,
                   trace_hash: str | None = None
                   ) -> dict | None:
    """:func:`prime_decisions` with a cross-run warm start.

    With a ``result_cache``, the decision pre-pass first looks up the
    snapshot an earlier run over the same trace and scheduling saved
    under the binding key W2 (see :func:`~repro.core.cache.warm_keys`
    and ``docs/cache.md``).  When the decision key W1 matches too, the
    saved ``(bucket, decision)`` entries are installed verbatim;
    otherwise each saved bucket's representative binding is replayed
    through the current policy.  Either way the memo equals the one
    :func:`prime_decisions` builds, at a fraction of the full-plane
    cost.  Without a ``result_cache`` this is exactly
    :func:`prime_decisions`.
    """
    sim = _CachedVectorisedSimulator(trace, config, cpu_model, teg_module,
                                     mode="kernel")
    policy = sim._policy
    memo = _decision_memo(policy)
    if memo is None:
        return None
    warm = None
    if result_cache is not None:
        w1, w2 = warm_keys(trace, config, cpu_model, teg_module,
                           aggregation=getattr(policy, "aggregation", "max"),
                           policy_resolution=policy.cache_resolution,
                           trace_hash=trace_hash)
        warm = result_cache.load_warm(w2)
    direct = warm is not None and warm.get("w1") == w1
    if warm is None:
        # Recording off: the tiles count these cells and the job counts
        # the memo's growth as its misses (see _drive_shards).
        with obs.session(None):
            _decide_phase(sim)
    else:
        for bucket, decision in warm["entries"]:
            if direct:
                memo[bucket] = decision
            else:
                # A single-element vector aggregates (max or mean) to
                # exactly the bucket's saved binding, so the policy
                # stores the decision a cold run computes for the
                # bucket, under the same bucket.
                policy.decide([decision.binding_utilisation])
    if result_cache is not None and not direct:
        # Cold primes publish their snapshot; replays refresh it under
        # the current decision key so the next same-config run restores
        # directly.  First-occurrence order is kept, so a replay fills
        # the memo in the order a cold run does.
        result_cache.store_warm(w1, w2, list(memo.items()))
    return memo


def clone_cache(primed: dict | None) -> dict | None:
    """A private copy of a primed policy memo (``None`` passes through).

    A tile's policy fills its memo from the copy; the memo is tiny (see
    :func:`prime_decisions`) and never grows on a tile — every lookup
    hits — so a shallow dict copy suffices.
    """
    return None if primed is None else dict(primed)


def run_shard(tile: WorkloadTrace, spec: ShardSpec,
              config: SimulationConfig,
              cpu_model: CpuThermalModel | None = None,
              teg_module: TegModule | None = None, *,
              faults: FaultSchedule | None = None,
              cache: dict | None = None,
              policy: object = None,
              telemetry: bool = False) -> ShardOutcome:
    """Execute one tile and return its mergeable :class:`ShardOutcome`.

    ``tile`` is the windowed trace (``trace.window(...)`` on the
    coordinator, or a sliced shared-memory view in a worker); ``spec``
    places it in the global plane.  Kernel tiles run phases 1–3 of
    :mod:`repro.core.kernel` with the simulator's global offsets set, so
    violations and errors come back already in cluster coordinates.
    Fault tiles must span the full server width (masks are drawn over
    the whole cluster) and step the fault-aware serial loop; an empty
    ``faults`` schedule is no schedule, so its tile runs the kernel.

    ``cache`` is the :func:`prime_decisions` memo a kernel tile's policy
    starts from (required for bit-identity under memoising policies);
    ``None`` starts from an empty memo (bit-exact only for pure policies
    or single-tile plans).  ``policy`` injects the policy instance a
    sequential fault run hands from window to window; the instance
    actually used rides back on the outcome.  The outcome's decision
    hit/miss counts are this tile's own.

    With ``telemetry`` on, the shard records into a private
    :mod:`repro.obs` session whose snapshot rides back on the outcome —
    the same contract worker jobs already follow.
    """
    if (tile.n_steps, tile.n_servers) != (spec.n_steps, spec.n_servers):
        raise ConfigurationError(
            f"tile is {tile.n_steps} x {tile.n_servers} but shard "
            f"{spec.index} expects {spec.n_steps} x {spec.n_servers}")
    faults = faults or None
    if faults is not None and spec.server_start != 0:
        raise ConfigurationError(
            "fault-carrying runs shard by time only: fault masks are "
            "drawn over the whole cluster, so a shard starting at "
            f"server {spec.server_start} cannot replay them")

    shard_config = config
    if spec.n_servers < config.circulation_size:
        # A tile holding only the global trailing ragged circulation:
        # partition it as the single underpopulated group it is.
        shard_config = replace(config, circulation_size=spec.n_servers)

    local = obs.Telemetry() if telemetry else None
    outcome = ShardOutcome(spec=spec, n_cells=spec.n_cells)
    with obs.session(local) if local is not None else nullcontext():
        with obs.span("engine.shard"):
            obs.add("shard.cells", spec.n_cells,
                    labels={"scheme": config.name, "trace": tile.name,
                            "shard": str(spec.index)})
            try:
                if faults is not None:
                    _run_fault_shard(tile, spec, shard_config, cpu_model,
                                     teg_module, faults, policy, outcome)
                else:
                    _run_kernel_shard(tile, spec, shard_config, cpu_model,
                                      teg_module, cache, outcome)
            except (ConfigurationError, ShardExecutionError):
                raise
            except Exception as exc:
                # Never let a shard failure surface as a bare exception:
                # the coordinator (and its telemetry) must always see
                # which tile failed and in which worker.  Simulation
                # errors (cooling failure, capacity breach) are already
                # captured as ``outcome.error`` by the helpers above —
                # anything landing here is unexpected.
                raise ShardExecutionError(
                    f"shard {spec.index} (steps [{spec.step_start}, "
                    f"{spec.step_stop}), servers [{spec.server_start}, "
                    f"{spec.server_stop})) failed in worker pid "
                    f"{os.getpid()}: [{type(exc).__name__}] {exc}",
                    shard_index=spec.index,
                    step_start=spec.step_start,
                    step_stop=spec.step_stop,
                    server_start=spec.server_start,
                    server_stop=spec.server_stop,
                    worker_pid=os.getpid()) from exc
    if local is not None:
        outcome.telemetry = local.snapshot()
    return outcome


def _run_kernel_shard(tile, spec, config, cpu_model, teg_module, memo,
                      outcome) -> None:
    """Kernel phases 1–3 over one tile, offsets in the global frame."""
    sim = _CachedVectorisedSimulator(
        tile, config, cpu_model, teg_module, mode="kernel",
        step_offset=spec.step_start, server_offset=spec.server_start)
    if memo is not None:
        _decision_memo(sim._policy).update(memo)
    columns = run_kernel_columns(sim)
    outcome.cache_hits, outcome.cache_misses = sim.decisions
    outcome.columns = columns
    outcome.violations = columns.violations
    outcome.timings = sim.kernel_timings
    if columns.error is not None:
        outcome.error = replace(columns.error,
                                step=spec.step_start + columns.error.step,
                                circ=spec.circ_start + columns.error.circ)


def _run_fault_shard(tile, spec, config, cpu_model, teg_module, faults,
                     policy, outcome) -> None:
    """The fault-aware serial loop over one full-width time window."""
    sim = _CachedVectorisedSimulator(
        tile, config, cpu_model, teg_module, mode="loop",
        faults=faults, step_offset=spec.step_start)
    if policy is not None:
        # Sequential fault windows share one policy so a memoising
        # policy's buckets are primed in the serial call order.
        sim._policy = policy
    outcome.policy = sim._policy
    try:
        result = sim.run()
    except CoolingFailureError as exc:
        # step_index is already global (the simulator applied its
        # offset); windows are disjoint in time, so this key orders
        # correctly against every other shard's error.
        outcome.error = KernelError(exception=exc, phase=1,
                                    step=exc.step_index, circ=0)
    except PhysicalRangeError as exc:
        # Capacity breaches carry no step; the window start preserves
        # the across-window order (one error per disjoint window).
        outcome.error = KernelError(exception=exc, phase=0,
                                    step=spec.step_start, circ=0)
    else:
        outcome.records = list(result.records)
        outcome.violations = list(result.violations)
        outcome.cache_hits, outcome.cache_misses = sim.decisions


# ----------------------------------------------------------------------
# Shared column blocks (zero-copy shard results)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardColumnRef:
    """Handle to a shared ``(len(COLUMN_PLANES), n_steps, n_circs)`` block.

    The coordinator preallocates one whole-cluster column block per
    sharded job in ``multiprocessing.shared_memory`` and ships this
    handle with every shard payload; workers write their tile's planes
    straight into the block instead of pickling them back, so a shard's
    return value shrinks from the full tile (megabytes at fleet scale)
    to the spec plus two small vectors.  The block is laid out by
    :func:`~repro.core.kernel._column_planes`, circulation-major (the
    :attr:`shape` is its index shape), so a tile of whole circulations
    writes one contiguous slab of each plane and a worker maps only
    those pages.  The segment is owned (and unlinked after the merge)
    by the engine that created it.
    """

    shm_name: str
    n_steps: int
    n_circs: int

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape of the block's stacked planes."""
        return (len(COLUMN_PLANES), self.n_steps, self.n_circs)


#: Per-worker cache of the attached column block, keyed by segment name.
#: Sharded jobs run one at a time on the coordinator, so on attaching a
#: new job's block every previous one is unmapped — bounding worker
#: memory at one block however many sharded jobs a batch dispatches.
_WORKER_COLUMN_BLOCKS: dict[str, tuple[shared_memory.SharedMemory,
                                       np.ndarray]] = {}


def _column_block(ref: ShardColumnRef) -> np.ndarray:
    """Attach (or reuse) the shared column block named by ``ref``."""
    entry = _WORKER_COLUMN_BLOCKS.get(ref.shm_name)
    if entry is None:
        for name in [n for n in _WORKER_COLUMN_BLOCKS if n != ref.shm_name]:
            stale, _ = _WORKER_COLUMN_BLOCKS.pop(name)
            try:
                stale.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass
        block = shared_memory.SharedMemory(name=ref.shm_name)
        planes = _column_planes(ref.n_steps, ref.n_circs, block.buf)
        entry = _WORKER_COLUMN_BLOCKS[ref.shm_name] = (block, planes)
    return entry[1]


def _publish_columns(ref: ShardColumnRef, outcome: ShardOutcome) -> None:
    """Write an outcome's plane tiles into the shared block, then slim it.

    Idempotent per tile (a retried or speculated shard rewrites the
    same cells with the same bytes — shards are deterministic), and
    disjoint across tiles, so concurrent workers never race on a cell.
    """
    spec, columns = outcome.spec, outcome.columns
    planes = _column_block(ref)
    rows = slice(spec.step_start, spec.step_stop)
    cols = slice(spec.circ_start, spec.circ_stop)
    for i, name in enumerate(COLUMN_PLANES):
        planes[i, rows, cols] = getattr(columns, name)
    outcome.sizes = columns.sizes
    outcome.violation_counts = columns.violation_counts
    outcome.columns = None


def audit_merged_result(trace: WorkloadTrace, config: SimulationConfig,
                        result: SimulationResult) -> None:
    """Invariant audit of a merged result; raises on any finding.

    A stitching bug (a tile written to the wrong rows, a lost window, a
    double-counted circulation) would corrupt results silently — the
    merge is pure array surgery with no arithmetic to fail.  This
    auditor re-derives the invariants every correctly merged run must
    satisfy and refuses to return a result that breaks one:

    * **step count** — exactly one record per trace step;
    * **time base** — ``t_k == k * interval_s`` bit-exactly, strictly
      increasing (a shuffled or duplicated window cannot pass);
    * **energy-balance closure** — generation within ``[0, CPU power]``
      (PRE in ``[0, 1]``), facility powers finite and non-negative,
      every series finite (from
      :func:`repro.validation.audit_simulation_result`);
    * **violation consistency** — the per-step violation counts sum to
      the number of recorded :class:`SafetyViolation` objects, and no
      over-limit temperature goes unrecorded.

    Raises
    ------
    ResultIntegrityError
        Carrying every finding on ``issues``.
    """
    from ..validation import audit_simulation_result

    issues: list[str] = []
    n_steps = trace.n_steps
    if len(result.records) != n_steps:
        issues.append(f"merged result has {len(result.records)} records "
                      f"for a {n_steps}-step trace")
    else:
        expected = np.arange(n_steps) * trace.interval_s
        if not np.array_equal(result.times_s, expected):
            issues.append("time base is not exactly "
                          "k * interval_s per step")
        for name in ("chiller_power_w", "tower_power_w",
                     "pump_power_w"):
            series = result._series(name)
            if not np.all(np.isfinite(series)):
                issues.append(f"non-finite {name} series")
            elif np.any(series < 0):
                issues.append(f"negative {name}")
        recorded = len(result.violations)
        counted = result.total_safety_violations
        if recorded != counted:
            issues.append(f"{counted} violations counted per step but "
                          f"{recorded} violation records attached")
        issues.extend(audit_simulation_result(result).issues)
    if issues:
        raise ResultIntegrityError(
            f"merged result for {config.name!r} on {trace.name!r} "
            f"failed {len(issues)} integrity check(s): "
            + "; ".join(issues), issues=tuple(issues))


class StreamingMerge:
    """Fold shard outcomes into whole-cluster columns as they land.

    The barrier-free half of the streaming pipeline: the coordinator
    constructs one merge from the trace/config dimensions *before*
    dispatching anything, calls :meth:`add` on each
    :class:`ShardOutcome` the moment it completes, and calls
    :meth:`result` once every tile has landed.  The result is
    bit-identical to the old stitch-everything-then-fold merge whatever
    order outcomes arrive in, because nothing numeric is combined
    across shards: plane tiles are disjoint array writes, violation
    counts are exact integer adds, violation records are globally
    sorted at the end, and the phase-4 float fold
    (:func:`~repro.core.kernel.fold_columns`) runs exactly once, over
    the finished full-length columns.

    The integrity auditing is incremental: a tile that overlaps
    already-folded cells raises :class:`ResultIntegrityError` at
    :meth:`add` time (naming the offending shard, which a post-hoc
    audit could not), an uncovered cell raises at :meth:`result`, and
    the full :func:`audit_merged_result` still runs on the merged
    result before it escapes.

    ``plane_block`` optionally supplies the backing array for the
    stacked planes — the engine passes a shared-memory block here so
    workers can write their tiles into it directly
    (:func:`_publish_columns`) and :meth:`add` folds only the small
    non-plane remainder.  Either way the block has
    :func:`~repro.core.kernel._column_planes`' circulation-major layout,
    which the fold reads without copying.  Outcomes that do carry
    ``columns`` (serial runs, thread pools, resumed checkpoints, process
    tiles saved to a checkpoint) are stitched coordinator-side exactly
    as before; the two kinds mix freely within one merge.
    """

    def __init__(self, trace: WorkloadTrace, config: SimulationConfig, *,
                 kind: str = "kernel",
                 plane_block: np.ndarray | None = None,
                 telemetry_sink: "obs.Telemetry | None" = None) -> None:
        if kind not in ("kernel", "fault"):
            raise ConfigurationError(
                f"merge kind must be 'kernel' or 'fault', got {kind!r}")
        self.trace = trace
        self.config = config
        self.kind = kind
        #: Outcomes folded so far / decision hit-miss tallies across them.
        self.n_added = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Aggregated kernel phase timings: decide/evaluate/reduce are
        #: summed across shards, fold is the merge's own fold time.
        self.timings: KernelTimings | None = None
        self._fold_s = 0.0
        self._errors: list[KernelError] = []
        #: Shard telemetry destination.  Private by default (snapshotted
        #: into ``result.telemetry`` at the end); a caller-supplied
        #: ``telemetry_sink`` — the live-scrape path — receives every
        #: outcome's snapshot at fold time instead, so ``GET /metrics``
        #: sees ``repro_shard_*`` series grow while shards are still in
        #: flight.  With an external sink :meth:`telemetry_snapshot`
        #: returns ``None``: the sink already owns the data and the
        #: batch layer must not merge it a second time.
        self._telemetry: obs.Telemetry | None = telemetry_sink
        self._external_sink = telemetry_sink is not None
        n_steps, n_servers = trace.n_steps, trace.n_servers
        if kind == "kernel":
            n_circs = -(-n_servers // config.circulation_size)
            self._n_circs = n_circs
            shape = (len(COLUMN_PLANES), n_steps, n_circs)
            if plane_block is None:
                plane_block = _column_planes(n_steps, n_circs)
            elif (plane_block.shape != shape
                  or not _is_column_block(plane_block)):
                raise ConfigurationError(
                    f"plane block has shape {plane_block.shape} and "
                    f"strides {plane_block.strides}, expected a "
                    f"circulation-major block of shape {shape}")
            self._planes = plane_block
            self._sizes = np.empty(n_circs, dtype=np.int64)
            self._violation_counts = np.zeros(n_steps, dtype=np.int64)
            self._violations: list = []
            self._covered = np.zeros((n_steps, n_circs), dtype=bool)
        else:
            self._windows: dict[int, ShardOutcome] = {}
            self._covered_steps = np.zeros(n_steps, dtype=bool)

    def add(self, outcome: ShardOutcome) -> None:
        """Fold one completed shard into the merged state.

        Raises
        ------
        ResultIntegrityError
            When the outcome's tile overlaps cells another outcome
            already covered — a double dispatch or a corrupted resume.
        """
        clock = time.perf_counter()
        with obs.span("shard.fold"):
            if self.kind == "kernel":
                self._fold_kernel(outcome)
            else:
                self._fold_fault(outcome)
        self._fold_s += time.perf_counter() - clock
        obs.add("engine.shards.folded", 1,
                labels={"scheme": self.config.name,
                        "trace": self.trace.name})
        self.n_added += 1
        self.cache_hits += outcome.cache_hits
        self.cache_misses += outcome.cache_misses
        if outcome.error is not None:
            self._errors.append(outcome.error)
        if outcome.telemetry is not None:
            if self._telemetry is None:
                self._telemetry = obs.Telemetry()
            self._telemetry.merge_snapshot(outcome.telemetry)
        timings = outcome.timings
        if timings is not None:
            if self.timings is None:
                self.timings = KernelTimings()
            self.timings.decide_s += timings.decide_s
            self.timings.evaluate_s += timings.evaluate_s
            self.timings.reduce_s += timings.reduce_s

    def _fold_kernel(self, outcome: ShardOutcome) -> None:
        spec = outcome.spec
        rows = slice(spec.step_start, spec.step_stop)
        cols = slice(spec.circ_start, spec.circ_stop)
        region = self._covered[rows, cols]
        if region.any():
            issue = (f"shard {spec.index} (steps [{spec.step_start}, "
                     f"{spec.step_stop}), circulations [{spec.circ_start}, "
                     f"{spec.circ_stop})) overlaps {int(region.sum())} "
                     f"already-folded cell(s)")
            raise ResultIntegrityError(issue, issues=(issue,))
        columns = outcome.columns
        if columns is not None:
            for i, name in enumerate(COLUMN_PLANES):
                self._planes[i, rows, cols] = getattr(columns, name)
            sizes, counts = columns.sizes, columns.violation_counts
        else:
            # Zero-copy dispatch: the worker already wrote this tile's
            # planes into the shared block backing ``self._planes``.
            sizes, counts = outcome.sizes, outcome.violation_counts
            if sizes is None or counts is None:
                raise ConfigurationError(
                    f"kernel shard {spec.index} carries neither columns "
                    f"nor published plane summaries")
        self._sizes[cols] = sizes
        # Integer counts: addition is exact and order-free.
        self._violation_counts[rows] += counts
        self._violations.extend(outcome.violations)
        self._covered[rows, cols] = True

    def _fold_fault(self, outcome: ShardOutcome) -> None:
        spec = outcome.spec
        rows = slice(spec.step_start, spec.step_stop)
        if self._covered_steps[rows].any():
            issue = (f"fault window {spec.index} (steps "
                     f"[{spec.step_start}, {spec.step_stop})) overlaps an "
                     f"already-folded window")
            raise ResultIntegrityError(issue, issues=(issue,))
        self._windows[spec.step_start] = outcome
        self._covered_steps[rows] = True

    def release_planes(self) -> None:
        """Drop every reference into the external plane block.

        Called by the engine before closing a shared-memory backed
        block — a still-exported buffer would make the unmap fail.  The
        merge is unusable afterwards; call only after :meth:`result`.
        """
        self._planes = None

    def telemetry_snapshot(self):
        """Merged telemetry of every added outcome (``None`` if none).

        Also ``None`` when the merge folds into an external
        ``telemetry_sink`` — the sink holds the live aggregate and a
        snapshot here would double count it downstream.
        """
        if self._external_sink or self._telemetry is None:
            return None
        return self._telemetry.snapshot()

    def result(self) -> SimulationResult:
        """The merged whole-cluster result; every tile must have landed.

        Raises the globally earliest shard error (serial raise order:
        the least ``(step, phase, circ)``) when any added shard
        reported one, and
        :class:`ResultIntegrityError` when coverage is incomplete or
        the final :func:`audit_merged_result` finds an inconsistency.
        """
        if self.n_added == 0:
            raise ConfigurationError("cannot merge zero shard outcomes")
        if self._errors:
            raise min(self._errors,
                      key=lambda e: (e.step, e.phase, e.circ)).exception
        trace, config = self.trace, self.config
        n_steps = trace.n_steps

        if self.kind == "fault":
            if not self._covered_steps.all():
                uncovered = int((~self._covered_steps).sum())
                issue = (f"{uncovered} of {n_steps} steps were never "
                         f"covered by a fault window")
                raise ResultIntegrityError(issue, issues=(issue,))
            # Full-width time windows; concatenation in window order
            # replays the serial append order exactly.
            records: list = []
            violations: list = []
            for start in sorted(self._windows):
                outcome = self._windows[start]
                records.extend(outcome.records)
                violations.extend(outcome.violations)
            result = SimulationResult(
                scheme=config.name, trace_name=trace.name,
                n_servers=trace.n_servers, interval_s=trace.interval_s,
                records=records)
            result.violations = violations
            audit_merged_result(trace, config, result)
            return result

        if not self._covered.all():
            uncovered = int((~self._covered).sum())
            issue = (f"{uncovered} of {n_steps * self._n_circs} plane "
                     f"cells were never covered by a shard")
            raise ResultIntegrityError(issue, issues=(issue,))
        clock = time.perf_counter()
        with obs.span("shard.fold"):
            # The unsharded kernel emits violations in row-major
            # (step, server) order; shard violations are already
            # globally identified, so a sort restores exactly that
            # order.
            self._violations.sort(key=lambda v: (v.step_index,
                                                 v.server_id))
            result = _columnar_result(trace, config.name, KernelColumns(
                generation_c=self._planes[0], heat_c=self._planes[1],
                chiller_power_c=self._planes[2],
                tower_power_c=self._planes[3],
                pump_power_c=self._planes[4], max_temp_c=self._planes[5],
                inlet_cell=self._planes[6], flow_cell=self._planes[7],
                sizes=self._sizes,
                violation_counts=self._violation_counts,
                violations=self._violations,
            ))
        self._fold_s += time.perf_counter() - clock
        if self.timings is not None:
            self.timings.fold_s = self._fold_s
        audit_merged_result(trace, config, result)
        return result


def _drive_shards(job: SimulationJob, specs: Sequence[ShardSpec], *,
                  telemetry: bool,
                  health: "obs.RunHealth", store=None,
                  telemetry_sink: "obs.Telemetry | None" = None,
                  result_cache: ResultCache | None = None,
                  trace_hash: str | None = None,
                  max_retries: int = 0, retry_backoff_s: float = 0.0,
                  dispatch=None,
                  plane_block: np.ndarray | None = None
                  ) -> SimulationResult:
    """Run one job's shard plan and merge it into one audited result.

    The orchestration :func:`simulate_sharded` and the batch engine
    share; what differs between them arrives as arguments.

    * Shards already saved in the checkpoint ``store`` are folded from
      disk and never run again.
    * A fault plan runs its time windows in order, through the
      engine's in-process loop, each window handing its policy instance
      to the next (see the module note).  Each saved window carries
      that policy, so a resume replays the identical sequence from the
      first missing window onward.
    * A kernel plan primes one policy memo with :func:`primed_or_warm`
      (warm-started from ``result_cache``, keyed by ``trace_hash``) and
      makes each missing tile a unit of work
      (:class:`~repro.core.engine._Unit`: its local run, landing and
      retry).  ``dispatch(pending, primed, tile)`` runs them, calling
      ``tile(spec)`` for each tile's unit; it lands every tile or
      raises.  Without a dispatcher the in-process loop runs them.
      The pre-pass is deterministic, so recomputing it on resume hands
      the remaining tiles the memo an uninterrupted run would have.
      Its policy starts empty, so each memo entry counts as one of the
      job's misses, once: the pre-pass records no telemetry, and the
      tiles look each entry up as a hit.  Every saved tile records that
      count, so a job resumed whole, which primes nothing, reports the
      uninterrupted run's decision counts.
    * A shard that raises is retried up to ``max_retries`` times, with
      the engine's backoff; one that may not be retried again fails the
      job with its error.
    * Every completed shard is saved to ``store``, folded into a
      :class:`StreamingMerge` (over ``plane_block`` when given, with
      shard telemetry going to ``telemetry_sink`` when given) and
      counted on ``health``.

    The result carries :class:`~repro.core.engine.EngineMetrics` and,
    without a sink, the merged shard telemetry.
    """
    started = time.perf_counter()
    trace, config = job.trace, job.config
    merge = StreamingMerge(trace, config,
                           kind="kernel" if job.faults is None else "fault",
                           plane_block=plane_block,
                           telemetry_sink=telemetry_sink)
    primed_misses = 0

    def resume(spec: ShardSpec) -> dict | None:
        nonlocal primed_misses
        saved = store.load_shard(spec.index) if store is not None else None
        if saved is not None:
            merge.add(saved["outcome"])
            primed_misses = saved.get("primed_misses", primed_misses)
            health.shard_done()
        return saved

    def land(unit: _Unit, outcome: ShardOutcome) -> None:
        if store is not None:
            store.save_shard(outcome.spec.index, outcome,
                             primed_misses=primed_misses)
        merge.add(outcome)
        health.shard_done()

    def retry(spec: ShardSpec, unit: _Unit, exc: BaseException) -> bool:
        """Record a failed attempt at a tile; rerun it or raise ``exc``.

        The emitted ``shard.retry`` / ``shard.failed`` event always
        carries the shard's coordinates, attempt number and (when the
        worker wrapped it as a :class:`~repro.errors.ShardExecutionError`)
        the worker pid.  A retry first sleeps
        ``retry_backoff_s * 2**(attempt - 1)`` seconds, the engine's
        job-level schedule.
        """
        if isinstance(exc, ShardExecutionError):
            exc.attempt = unit.attempts
            context = dict(exc.context())
        else:
            context = {"shard_index": spec.index,
                       "step_start": spec.step_start,
                       "step_stop": spec.step_stop,
                       "server_start": spec.server_start,
                       "server_stop": spec.server_stop,
                       "attempt": unit.attempts, "worker_pid": None}
        retrying = unit.attempts <= max_retries
        obs.emit("shard.retry" if retrying else "shard.failed",
                 scheme=config.name, trace=trace.name,
                 error_type=type(exc).__name__, error=str(exc), **context)
        if not retrying:
            raise exc
        obs.add("engine.shards.retried", 1)
        if retry_backoff_s > 0:
            time.sleep(retry_backoff_s * 2 ** (unit.attempts - 1))
        return True

    try:
        if job.faults is not None:
            policy = None

            def run_window(spec: ShardSpec) -> ShardOutcome:
                tile = trace.window(spec.step_start, spec.step_stop,
                                    spec.server_start, spec.server_stop)
                return run_shard(tile, spec, config, job.cpu_model,
                                 job.teg_module, faults=job.faults,
                                 policy=policy, telemetry=telemetry)

            def land_window(unit: _Unit, outcome: ShardOutcome) -> None:
                nonlocal policy
                policy = outcome.policy
                land(unit, outcome)

            for spec in specs:
                saved = resume(spec)
                if saved is not None:
                    policy = saved["outcome"].policy
                    continue
                _run_local([_Unit(local=partial(run_window, spec),
                                  land=land_window,
                                  retry=partial(retry, spec))])
        else:
            pending = [spec for spec in specs if resume(spec) is None]
            if pending:
                primed = primed_or_warm(trace, config, job.cpu_model,
                                        job.teg_module,
                                        result_cache=result_cache,
                                        trace_hash=trace_hash)
                primed_misses = len(primed or {})

                def run_local(spec: ShardSpec) -> ShardOutcome:
                    tile = trace.window(spec.step_start, spec.step_stop,
                                        spec.server_start, spec.server_stop)
                    return run_shard(tile, spec, config, job.cpu_model,
                                     job.teg_module,
                                     cache=clone_cache(primed),
                                     telemetry=telemetry)

                def tile(spec: ShardSpec) -> _Unit:
                    return _Unit(local=partial(run_local, spec), land=land,
                                 retry=partial(retry, spec))

                if dispatch is None:
                    _run_local([tile(spec) for spec in pending])
                else:
                    dispatch(pending, primed, tile)
        result = merge.result()
    finally:
        # Drop every view of the caller's plane block, so the caller can
        # unmap it even if a shard failed and a traceback holds this
        # frame.
        merge.release_planes()
        plane_block = None
    wall = time.perf_counter() - started
    hits = merge.cache_hits - primed_misses
    misses = merge.cache_misses + primed_misses
    result.metrics = EngineMetrics(
        wall_time_s=wall,
        step_time_s=wall,
        n_steps=trace.n_steps,
        steps_per_s=trace.n_steps / wall if wall > 0 else 0.0,
        cache_hits=hits,
        cache_misses=misses,
        cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        mode="kernel" if job.faults is None else "loop",
        kernel=merge.timings,
        n_shards=merge.n_added,
        shards_resumed=len(store.loaded) if store is not None else 0,
    )
    result.telemetry = merge.telemetry_snapshot()
    return result


def simulate_sharded(trace: WorkloadTrace, config: SimulationConfig,
                     cpu_model: CpuThermalModel | None = None,
                     teg_module: TegModule | None = None, *,
                     shard_servers: int | None = None,
                     shard_steps: int | None = None,
                     faults: FaultSchedule | None = None,
                     telemetry: bool | None = None,
                     metrics_port: int | None = None,
                     checkpoint: "str | os.PathLike | None" = None,
                     resume: bool = True,
                     result_cache=None) -> SimulationResult:
    """Split → run → merge one trace, every shard in-process.

    Bit-identical to ``simulate(trace, config, ...)`` and to the serial
    simulator, the oracle the parity suite tests this function and the
    batch engine against.  It runs the same :func:`_drive_shards` as
    the engine, with no pool, so it is also a convenient way to bound
    peak memory on a single core.

    ``checkpoint`` names a directory in which every completed shard is
    persisted as it finishes (atomic write-then-rename, content-keyed
    manifest — see :mod:`repro.core.checkpoint`).  A rerun against the
    same directory with ``resume=True`` (the default) skips completed
    shards and produces results bit-identical to an uninterrupted run,
    fault windows included: each saved window carries the policy
    instance the next window needs.
    ``resume=False`` discards any prior state and starts over.

    ``result_cache`` (see :mod:`repro.core.cache`) memoises the merged
    result at whole-run granularity, keyed on the exact shard plan: a
    hit skips planning, priming and every shard; a miss composes with
    ``checkpoint`` — per-shard resume still applies — and stores the
    merged result for next time.  Warm-start snapshots accelerate the
    decision pre-pass either way.

    ``metrics_port`` (explicit, else ``REPRO_METRICS_PORT``) attaches a
    live scrape endpoint for the duration of the run: ``GET /metrics``
    serves the labelled series of every shard folded so far and
    ``GET /healthz`` reports shard progress.  Setting a port implies
    telemetry on; the endpoint is strictly observational (records are
    bit-identical with it attached or not) and is shut down before the
    function returns.
    """
    live_port = obs.resolve_metrics_port(metrics_port)
    if live_port is not None and telemetry is None:
        telemetry = True
    if trace.n_servers < config.circulation_size:
        # Same failure the unsharded simulator raises at construction;
        # sharding must not silently "fix" an invalid cluster.
        raise ConfigurationError(
            f"trace has {trace.n_servers} servers but a single "
            f"circulation needs {config.circulation_size}")
    shard_servers = resolve_shard_size(shard_servers, SHARD_SERVERS_ENV_VAR)
    shard_steps = resolve_shard_size(shard_steps, SHARD_STEPS_ENV_VAR)
    faults = faults or None
    if faults is not None:
        shard_servers = None  # masks span the cluster: time-only shards
    record = obs.telemetry_enabled(telemetry)
    specs = plan_shards(trace.n_steps, trace.n_servers,
                        config.circulation_size,
                        shard_servers=shard_servers,
                        shard_steps=shard_steps)
    results_store = resolve_result_cache(result_cache)
    trace_hash = None
    if results_store is not None or checkpoint is not None:
        from .checkpoint import trace_digest

        # One digest keys the result, the checkpoint and the warm start.
        trace_hash = trace_digest(trace)
    cache_key = None
    if results_store is not None and type(trace) is WorkloadTrace:
        cache_key = result_key(trace, config, cpu_model, teg_module,
                               faults=faults, specs=specs,
                               trace_hash=trace_hash)
        cached = results_store.load(cache_key)
        if cached is not None:
            return cached
    store = None
    if checkpoint is not None:
        from .checkpoint import CheckpointStore, run_key

        store = CheckpointStore(
            checkpoint,
            run_key(trace, config, cpu_model, teg_module,
                    faults=faults, specs=specs, trace_hash=trace_hash),
            n_shards=len(specs), resume=resume)

    health = obs.RunHealth()
    health.begin(jobs_total=1, shards_total=len(specs))
    live_server = None
    live_sink = None
    if live_port is not None:
        live_server = obs.LiveTelemetryServer(port=live_port)
        if record:
            # Shard outcomes fold straight into this session, so a
            # mid-run scrape sees every completed shard's series.
            live_sink = obs.Telemetry()
        live_server.bind(live_sink, health)
    try:
        result = _drive_shards(
            SimulationJob(trace, config, cpu_model, teg_module, faults),
            specs, telemetry=record, health=health, store=store,
            telemetry_sink=live_sink, result_cache=results_store,
            trace_hash=trace_hash)
        if live_sink is not None:
            # The sink is private to this call, so its snapshot is
            # exactly the per-run telemetry the non-live path attaches.
            result.telemetry = live_sink.snapshot()
        if cache_key is not None:
            results_store.store(cache_key, result)
        health.finish()
    finally:
        if live_server is not None:
            live_server.close()
    return result


@dataclass(frozen=True)
class _ShardPayload:
    """What a process-pool shard pickles: the spec plus a windowed ref.

    The trace plane rides as a :class:`~repro.core.engine.SharedTraceRef`
    whose window bounds select this shard's tile out of the one shared
    segment — payload size is independent of both the trace length and
    the shard count (the zero-copy property the fleet-scale benchmark
    and the dispatch tests pin down).  ``decisions`` is the
    :func:`prime_decisions` memo (pickling gives each worker a private
    copy); it is bounded by the policy's quantisation, so the size
    independence survives.
    """

    trace_ref: SharedTraceRef
    spec: ShardSpec
    config: SimulationConfig
    cpu_model: CpuThermalModel | None
    teg_module: TegModule | None
    faults: FaultSchedule | None
    decisions: dict | None = None
    telemetry: bool = False
    #: With a column ref, the worker publishes its plane tiles into the
    #: shared block and ships back a slimmed outcome (``columns=None``)
    #: — the streaming-pipeline zero-copy return path.
    column_ref: ShardColumnRef | None = None


def _execute_shard_payload(payload: _ShardPayload) -> ShardOutcome:
    """Process-worker entry point for shared-memory dispatched shards."""
    tile = _trace_from_ref(payload.trace_ref)
    outcome = run_shard(tile, payload.spec, payload.config,
                        payload.cpu_model, payload.teg_module,
                        faults=payload.faults,
                        cache=payload.decisions,
                        telemetry=payload.telemetry)
    if payload.column_ref is not None and outcome.columns is not None:
        _publish_columns(payload.column_ref, outcome)
    return outcome
