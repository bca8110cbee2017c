"""Whole-trace simulation kernel: the time dimension as NumPy planes.

The serial simulator steps through a trace one control interval at a
time; this module removes that Python loop entirely.  For a fault-free
run the simulation is a pure function of the trace, so the kernel:

1. **decides** — builds the scheduled ``(steps x servers)`` utilisation
   plane (the trace itself under ``NoScheduler``; under
   ``IdealBalancer`` one mean per ``(step, circulation)`` cell, which
   every server of the circulation runs at), computes every cell's
   binding utilisation, dedupes cells through the policy memo's own
   quantisation, and asks the policy once per unique key, in
   first-occurrence order, so a memoising policy's memo is filled
   exactly as the serial loop fills it;
2. **evaluates** — one pass over cache-sized row blocks, after the
   models' range checks have run once for the whole run: the models'
   unchecked laws compute CPU power once, the outlet temperature and
   the TEG output into reused block buffers, from each cell's setting
   terms (once per circulation cell on a balanced plane); each block is
   reduced at once to per-circulation sums, the hottest CPU (the
   temperature law applied to each circulation's peak power) and
   over-limit cells, so no ``(steps x servers)`` result plane is built;
3. **reduces** — the facility split (chiller fraction, tower, pump) as
   per-cell array arithmetic with the serial expression order, the
   earliest capacity / strict-safety error and the violation log;
4. **folds** — adds each step's circulation columns into per-step
   cluster totals in circulation order (sequential adds, like the serial
   ``_aggregate_step``) and emits a columnar result.

Phases 1–3 are exposed separately as :func:`run_kernel_columns` (their
output, a :class:`KernelColumns`, is per-``(step, circulation)``) and
phase 4 as :func:`fold_columns`, because the fleet-scale sharding layer
(:mod:`repro.core.shard`) runs 1–3 on rectangular trace tiles, stitches
the tiles' columns back into whole-cluster planes, and replays the fold
once over the full-length columns — the only order that keeps the merge
bit-identical (float addition is not associative, so summing per-shard
subtotals would not be).  The column planes are stored
circulation-major (:func:`_column_planes`).

Bit-identity
------------
Every array expression mirrors the serial arithmetic exactly: the model
laws keep the scalar operation order; a sum or mean over the last axis
of a ``(rows, circulations, size)`` view is bit-identical to the serial
1-D reduction (same pairwise blocking), so a balanced circulation's
sum repeats its cell's value ``size`` times and takes that same sum,
never ``size * value``; a maximum is exact and order-free, so a
circulation's maximum is one ``np.maximum.reduceat`` segment and a row
block's peaks are taken slot by slot; with ``R_th >= 0`` the CPU
temperature is non-decreasing in the power under round-to-nearest, so
the law applied to the peak power is the hottest CPU's temperature (a
setting with ``R_th < 0`` takes the per-cell maximum); the cluster fold
is ``np.add.reduce`` along the circulation axis of a circulation-major
plane, which NumPy adds one whole column after another (it sums
pairwise only along the contiguous axis, so a one-step plane, whose
circulations are that axis, takes ``np.add.accumulate``); and capacity
/ strict-safety errors are replayed at the earliest offending cell in
serial evaluation order.  ``tests/core/test_kernel.py`` and the golden
fixtures enforce this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..control.scheduling import IdealBalancer, NoScheduler
from ..errors import CoolingFailureError, PhysicalRangeError
from ..teg.module import _check_coupling, flow_coupling
from ..thermal.cpu_model import SettingTerms, _check_utilisation
from ..thermal.hydraulics import loop_pump_power_w
from .checkpoint import _fan_out, _row_bands
from .results import ColumnarSteps, SafetyViolation, SimulationResult

__all__ = [
    "KernelColumns",
    "KernelError",
    "KernelTimings",
    "fold_columns",
    "run_kernel_columns",
    "run_whole_trace",
]

#: Cells per row block of the evaluate pass and of the decide phase's
#: bucket labels and balanced means (``max(1, ROW_BLOCK_CELLS //
#: n_servers)`` rows, ``// n_circs`` for the labels): the block's float64
#: temporaries stay resident in a few-MB L2 cache.
ROW_BLOCK_CELLS = 32_768

#: Circulations per chunk when the fold scales the inlet and flow planes
#: by circulation size: one chunk-sized buffer, never a plane-sized one.
FOLD_CHUNK_CIRCS = 64

#: The plane attributes of :class:`KernelColumns`, in field order, which
#: is the order they are stacked in a column block
#: (:func:`_column_planes`).  Sizes and violation counts are not planes.
COLUMN_PLANES = ("generation_c", "heat_c", "chiller_power_c",
                 "tower_power_c", "pump_power_c", "max_temp_c",
                 "inlet_cell", "flow_cell")


@dataclass
class KernelTimings:
    """Wall time spent in each kernel phase (attached to EngineMetrics).

    ``evaluate_s`` includes reducing each row block to circulation
    columns; ``reduce_s`` is the column-sized facility and error work.
    """

    decide_s: float = 0.0
    evaluate_s: float = 0.0
    reduce_s: float = 0.0
    fold_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Total kernel time across all four phases."""
        return self.decide_s + self.evaluate_s + self.reduce_s + self.fold_s

    def summary(self) -> dict:
        """Phase timings as a plain dictionary (for tables/JSON)."""
        return {
            "decide_s": round(self.decide_s, 4),
            "evaluate_s": round(self.evaluate_s, 4),
            "reduce_s": round(self.reduce_s, 4),
            "fold_s": round(self.fold_s, 4),
            "total_s": round(self.total_s, 4),
        }


@dataclass(frozen=True)
class KernelError:
    """The earliest error of a kernel run, in serial evaluation order.

    ``step`` / ``circ`` index the kernel's own trace; a shard tile
    reports a copy shifted into the global frame (a fault window builds
    one there directly), so the sharding merge raises the least
    ``(step, phase, circ)`` across shards.  ``phase`` encodes the serial
    intra-step ordering: every circulation's *evaluation* (capacity
    checks, phase 0) runs before the step's *aggregation* (strict-safety
    check, phase 1), so on equal steps the lower phase raised first.
    The carried ``exception`` already has its message and attributes in
    the simulator's global frame (via ``step_offset``/``server_offset``).
    """

    exception: Exception
    phase: int
    step: int
    circ: int


@dataclass
class KernelColumns:
    """Pre-fold kernel output: per-``(step, circulation)`` planes.

    Everything phase 4 needs to fold into per-step cluster aggregates —
    and everything the sharding merge needs to stitch tiles from
    different shards back into whole-cluster planes before that fold.
    All plane arrays have shape ``(n_steps, n_circs)`` and, from
    :func:`run_kernel_columns`, are circulation-major views of one
    :func:`_column_planes` block; ``sizes`` has one entry per
    circulation; ``violations`` carry cluster-global server/step
    identities.
    """

    generation_c: np.ndarray
    heat_c: np.ndarray
    chiller_power_c: np.ndarray
    tower_power_c: np.ndarray
    pump_power_c: np.ndarray
    max_temp_c: np.ndarray
    inlet_cell: np.ndarray
    flow_cell: np.ndarray
    sizes: np.ndarray
    violation_counts: np.ndarray
    violations: list = field(default_factory=list)
    error: KernelError | None = None


def _runs(sim, n_servers: int):
    """Yield ``(circs, first_server, size)`` per run of same-size circulations.

    The equal-size circulations, then any ragged tail.
    """
    size = int(sim._groups[0].size)
    full = n_servers // size
    yield slice(0, full), 0, size
    if full * size < n_servers:
        yield slice(full, full + 1), full * size, n_servers - full * size


def _circulations(sim, rows: np.ndarray):
    """Yield ``(circs, first_server, view)`` per run of same-size circulations.

    ``view`` is ``rows``' columns as ``(rows, circulations, size)``,
    never a copy.
    """
    n_rows, n_servers = rows.shape
    for circs, first_server, size in _runs(sim, n_servers):
        columns = rows[:, first_server:first_server
                       + (circs.stop - circs.start) * size]
        yield circs, first_server, columns.reshape(n_rows, -1, size)


def _copies(values: np.ndarray, size: int, buffer: np.ndarray) -> np.ndarray:
    """``values`` ``(rows, circs, 1)`` repeated ``size`` times in ``buffer``.

    The ``(rows, circs, size)`` cells of balanced circulations, laid out
    as a per-server plane's: a last-axis sum or mean over them is the
    plane's, bit for bit (``size * value`` would round differently).
    """
    copies = buffer[:values.size * size].reshape(values.shape[:2] + (size,))
    copies[...] = values
    return copies


def _rowwise(reduce, plane: np.ndarray, *outs: np.ndarray,
             fan_out: bool = False) -> None:
    """``reduce(plane, *outs)``; with ``fan_out``, per band of whole rows.

    ``reduce`` reduces each row of its first argument into the matching
    rows of the others.  ``fan_out`` runs one band per usable CPU on
    its own thread (:func:`~repro.core.checkpoint._fan_out`); only the
    coordinator asks for it.  Each row is reduced whole, so the bits do
    not depend on the bands, as long as each row is contiguous: NumPy
    sums the rows of another layout column by column, and a one-row
    band pairwise, so such a plane runs as one band.
    """
    if fan_out and plane.strides[1] == plane.itemsize:
        _fan_out(lambda band: reduce(plane[band],
                                     *(out[band] for out in outs)),
                 _row_bands(len(plane)))
    else:
        reduce(plane, *outs)


def _per_circulation(sim, plane: np.ndarray, reduce,
                     fan_out: bool = False) -> np.ndarray:
    """``reduce(..., axis=2)`` of every circulation's columns of ``plane``.

    ``fan_out`` is as for :func:`_rowwise`.
    """
    def rows(band, out):
        for circs, _, view in _circulations(sim, band):
            reduce(view, axis=2, out=out[:, circs])

    out = np.empty((plane.shape[0], len(sim._groups)))
    _rowwise(rows, plane, out, fan_out=fan_out)
    return out


def _slot_max(view: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``view.max(axis=2)`` written into ``out``, one server slot at a time.

    A maximum is exact, so the slot order changes no value (NaN
    propagates either way), and ``size`` elementwise passes are cheaper
    than a reduction whose inner loop is one short circulation.
    """
    np.copyto(out, view[:, :, 0])
    for slot in range(1, view.shape[2]):
        np.maximum(out, view[:, :, slot], out=out)
    return out


def _circulation_max(sim, plane: np.ndarray,
                     fan_out: bool = False) -> np.ndarray:
    """Every circulation's maximum of ``plane``.

    One ``np.maximum.reduceat`` whose segments are the circulations
    (the equal-size ones, then any ragged tail); ``fan_out`` is as for
    :func:`_rowwise`.
    """
    starts = np.arange(0, plane.shape[1], int(sim._groups[0].size))
    out = np.empty((plane.shape[0], len(starts)))
    _rowwise(lambda rows, peaks: np.maximum.reduceat(
        rows, starts, axis=1, out=peaks), plane, out, fan_out=fan_out)
    return out


def _column_planes(n_steps: int, n_circs: int,
                   buffer=None) -> np.ndarray:
    """A ``(len(COLUMN_PLANES), n_steps, n_circs)`` block, circulation-major.

    Indexed like a stack of ``(steps x circulations)`` planes but stored
    one circulation after another, so the fold adds whole columns and a
    tile of whole circulations is one contiguous slab.  ``buffer`` (a
    shared-memory segment) backs the block when given.
    """
    shape = (len(COLUMN_PLANES), n_circs, n_steps)
    block = (np.empty(shape) if buffer is None
             else np.ndarray(shape, dtype=np.float64, buffer=buffer))
    return block.transpose(0, 2, 1)


def _is_column_block(planes: np.ndarray) -> bool:
    """Whether ``planes`` has :func:`_column_planes`' layout."""
    return planes.transpose(0, 2, 1).flags.c_contiguous


def _scheduled_plane(sim, raw: np.ndarray) -> np.ndarray:
    """The whole-trace scheduled utilisation plane ``U[step, server]``.

    ``NoScheduler`` returns ``raw`` itself (no copy) and
    ``IdealBalancer`` is an array expression (the paper's two schemes);
    any other scheduler falls back to a per-cell call so data-dependent
    balancers stay bit-faithful.  Callers never write to the plane.
    :func:`_decide_phase` keeps a balanced plane as its per-circulation
    means instead (see :func:`_evaluate_balanced`); the ``IdealBalancer``
    branch here is the per-server reference for that route.
    """
    scheduler = sim._scheduler
    if type(scheduler) is NoScheduler:
        return raw
    if type(scheduler) is IdealBalancer:
        sizes = [group.size for group in sim._groups]
        return np.repeat(_per_circulation(sim, raw, np.mean), sizes, axis=1)
    plane = np.empty_like(raw)
    for step in range(raw.shape[0]):  # the serial call order
        for group in sim._groups:
            plane[step, group] = scheduler.schedule(raw[step, group])
    return plane


def _batched_decisions(sim, plane: np.ndarray, bindings: np.ndarray,
                       cells: np.ndarray) -> list | None:
    """The decisions of ``cells`` through ``policy.decide_batch``, or ``None``.

    ``cells`` are the unique cells' flat indices in priming
    (first-occurrence) order.  Falls back — returning ``None`` so the
    caller runs the scalar loop — when:

    * the policy does not implement ``decide_batch`` (third-party
      policies keep working through ``decide``);
    * the plane contains values outside ``[0, 1]`` (or NaN) — the serial
      path raises on the first offending *vector*, inside the policy,
      so the scalar loop must run to reproduce that exact error.

    Only a scheduled or balanced plane is scanned for that range: the
    trace's own plane (``NoScheduler``'s) was proved finite and within
    ``[0, 1]`` when the trace was built, or, for a ``from_shared``
    window, when the plane it views was, and it is read-only since.

    The representative binding for each unique cell is read back from
    the precomputed ``bindings``: a last-axis reduction of a circulation
    view is bit-equal to reducing the cell's 1-D vector, so the policy
    sees the binding its ``decide`` would have computed.
    """
    policy = sim._policy
    if not callable(getattr(policy, "decide_batch", None)):
        return None
    if plane.size == 0:
        return None
    if plane is not sim.trace.utilisation:
        lo = plane.min()
        # The circulations partition the servers, so the largest maximum
        # binding is the plane's maximum, NaN and inf included.
        hi = (plane.max() if getattr(policy, "aggregation", "max") == "avg"
              else bindings.max())
        if not (lo >= 0.0 and hi <= 1.0):  # NaN compares false: falls back
            return None
    with obs.span("kernel.decide_batch"):
        decisions = policy.decide_batch(bindings.ravel()[cells])
    obs.add("engine.kernel.batched_decisions", len(decisions))
    return decisions


def _buckets(bindings: np.ndarray, resolution: float) -> np.ndarray:
    """``bindings`` quantised as the policy memo does.

    ``np.rint`` and ``round()`` both round half to even.
    """
    keys = bindings / resolution
    return np.rint(keys, out=keys)


def _decision_memo(policy) -> dict | None:
    """A memoising policy's ``{bucket: PolicyDecision}`` memo, else ``None``.

    :class:`~repro.control.cooling_policy.LookupSpacePolicy` (it exposes
    ``cache_resolution``) keeps one; analytic and static decisions are
    pure functions of the exact binding, so those policies keep none.
    """
    if getattr(policy, "cache_resolution", None):
        return policy._cache
    return None


def _decision_counts(memo: dict | None, before: int, lookups: int,
                     requests: int) -> tuple[int, int]:
    """``(hits, misses)`` of ``lookups`` decisions, ``requests`` asked of
    the policy.

    A miss is a decision the policy computed: its memo's growth since it
    held ``before`` entries, or, without a memo, every request.
    """
    misses = requests if memo is None else len(memo) - before
    return lookups - misses, misses


def _decide_plane(sim, plane: np.ndarray, fan_out: bool = False):
    """Cooling decisions for every ``(step, circulation)`` cell.

    Returns ``(setting_id, applied_settings, in_range)``: a ``(steps x
    circs)`` array of indices into the deduplicated list of clamped
    settings, that list, and ``True`` when the batch path ran, which it
    does only on a plane in ``[0, 1]`` without NaN, so evaluate need
    not check the utilisations again.  ``fan_out`` takes the bindings
    as :func:`_rowwise` does.
    """
    avg = getattr(sim._policy, "aggregation", "max") == "avg"
    groups = sim._groups
    # The bindings are passed, not held here, so decide can free them.
    return _decide_bindings(
        sim, (_per_circulation(sim, plane, np.mean, fan_out) if avg
              else _circulation_max(sim, plane, fan_out)),
        plane, lambda step, circ: plane[step, groups[circ]])


def _balanced_mean(sim, means: np.ndarray) -> np.ndarray:
    """Each cell's mean over its ``size`` servers of a balanced plane.

    The mean :func:`_per_circulation` takes over the plane's columns,
    taken over :func:`_copies` of ``means`` in cache-sized row blocks.
    """
    n_steps = means.shape[0]
    n_servers = sum(len(group) for group in sim._groups)
    out = np.empty_like(means)
    rows = max(1, ROW_BLOCK_CELLS // n_servers)
    buffer = np.empty(min(rows, n_steps) * n_servers)
    for first in range(0, n_steps, rows):
        block = slice(first, first + rows)
        for circs, _, size in _runs(sim, n_servers):
            out[block, circs] = _copies(means[block, circs, None], size,
                                        buffer).mean(axis=2)
    return out


def _decide_balanced(sim, means: np.ndarray):
    """:func:`_decide_plane` of a balanced plane, from its means.

    ``means[step, circ]`` is every server's load in that circulation
    (the ``IdealBalancer`` plane).  A maximum of equal copies is the
    copy; a mean is taken over the copies as over the plane's columns.
    The scalar fallback gets the circulation's full ``size``-long
    vector, because the policy takes the vector's own mean.
    """
    avg = getattr(sim._policy, "aggregation", "max") == "avg"
    groups = sim._groups
    return _decide_bindings(
        sim, _balanced_mean(sim, means) if avg else means, means,
        lambda step, circ: np.full(len(groups[circ]), means[step, circ]))


def _decide_bindings(sim, bindings: np.ndarray, plane: np.ndarray, vector):
    """The decide phase from every cell's binding utilisation.

    ``plane`` is the scheduled plane, or a balanced plane's means (the
    same minimum and maximum), for the batch path's range check;
    ``vector(step, circ)`` is a cell's scheduled utilisation vector, for
    the scalar loop.  Unique keys — the policy memo's buckets, or exact
    bindings for a policy without a memo — are decided once, in
    first-occurrence order, so the memo is filled with exactly the
    bindings (and in exactly the order) the serial loop would have
    used.  Stores the run's ``(hits, misses)`` on ``sim.decisions``.
    """
    n_steps, n_circs = bindings.shape
    cells = n_steps * n_circs
    policy = sim._policy
    resolution = getattr(policy, "cache_resolution", None)
    # Label every cell with its key and find each label's first cell
    # (priming must follow the serial cell order); a label no cell
    # carries keeps ``cells`` and is dropped.  Labels ascend with the
    # key, so the labels present, in ascending order, number the unique
    # keys (the uids) as a sorted unique would.
    top = np.nan
    if resolution and bindings.size:
        top = np.rint(bindings.max() / resolution)
    if top < 2**20 and np.rint(bindings.min() / resolution) >= 0.0:
        # Quantised buckets are small non-negative integers (bucketing
        # is monotone, so the extreme bindings' buckets bound them): the
        # bucket is the label and indexes a table directly, so nothing
        # is sorted.  Row blocks keep every temporary block-sized.  NaN,
        # inf and overflowing buckets compare false and take the unique
        # below.
        n_labels = int(top) + 1
        first = np.full(n_labels, cells, dtype=np.int64)
        labels = np.empty((n_steps, n_circs), dtype=np.intp)
        rows = max(1, ROW_BLOCK_CELLS // n_circs)
        for start in range(0, n_steps, rows):
            block = labels[start:start + rows]
            block[...] = _buckets(bindings[start:start + rows], resolution)
            np.minimum.at(first, block.ravel(),
                          np.arange(start * n_circs,
                                    start * n_circs + block.size))
    else:
        keys = _buckets(bindings, resolution) if resolution else bindings
        uniq, labels = np.unique(keys, return_inverse=True)
        n_labels = len(uniq)
        first = np.full(n_labels, cells, dtype=np.int64)
        np.minimum.at(first, labels.ravel(), np.arange(cells))
    labels = labels.ravel()
    present = np.flatnonzero(first < cells)
    first_cell = first[present]
    n_uniq = len(first_cell)

    memo = _decision_memo(policy)
    before = len(memo) if memo is not None else 0
    decisions = [None] * n_uniq
    order = np.argsort(first_cell, kind="stable")
    batched = _batched_decisions(sim, plane, bindings, first_cell[order])
    if batched is not None:
        for uid, decision in zip(order, batched):
            decisions[int(uid)] = decision
    else:
        for uid in order:
            decisions[uid] = policy.decide(
                vector(*divmod(int(first_cell[uid]), n_circs)))
    # Free the bindings before the plane-sized gather below, so the
    # heap never holds three plane-sized arrays at once.
    del bindings
    sim.decisions = _decision_counts(memo, before, cells, n_uniq)
    obs.add("engine.kernel.decide_cells", cells)
    obs.add("engine.kernel.unique_decisions", n_uniq)

    # Clamped settings are frozen (hashable) dataclasses: clamp each
    # distinct decided setting once and number the applied ones in
    # first-seen order.
    setting_index: dict = {}
    sid_of: dict = {}
    cdu = sim._circulations[0].cdu
    sids = []
    for decision in decisions:
        sid = sid_of.get(decision.setting)
        if sid is None:
            sid = sid_of[decision.setting] = setting_index.setdefault(
                cdu.clamp(decision.setting), len(setting_index))
        sids.append(sid)
    label_to_sid = np.empty(n_labels, dtype=np.intp)
    label_to_sid[present] = sids
    setting_id = label_to_sid[labels].reshape(n_steps, n_circs)
    return setting_id, list(setting_index), batched is not None


def _setting_laws(sim, applied_settings: list):
    """Each applied setting's model terms and TEG coupling factor.

    The terms come as a ``(5, settings)`` array; the couplings are
    range-checked once, here, for the whole run.
    """
    terms_by_sid = np.array([sim.cpu_model.setting_terms(applied)
                             for applied in applied_settings]).T
    coupling_by_sid = np.array([flow_coupling(applied.flow_l_per_h)
                                for applied in applied_settings])
    _check_coupling(coupling_by_sid)
    return terms_by_sid, coupling_by_sid


def _serial_order(over: list):
    """The over-limit cells, as ``(steps, servers, temps)`` in serial order."""
    steps, servers, temps = map(np.concatenate, zip(*over))
    order = np.lexsort((servers, steps))
    return steps[order], servers[order], temps[order]


def _evaluate_blocks(sim, plane: np.ndarray, setting_id: np.ndarray,
                     applied_settings: list, in_range: bool):
    """Phase 2: the models over row blocks, each reduced at once.

    Returns the per-circulation CPU power sums, generation sums and
    hottest CPU, the per-step violation counts and the over-limit cells
    as ``(steps, servers, temps)`` arrays in serial (row-major) order.

    The models' range checks run once per run, not per block: the
    utilisation check only when decide has not proved the plane
    (``in_range``), the TEG check on each setting's coupling factor.
    The laws write into three reused block buffers.  A block whose
    settings all have ``R_th >= 0`` takes its hottest CPUs from each
    circulation's peak power (exact, see
    :meth:`CpuThermalModel.response`); per-cell temperatures are built
    only in a block with a setting of ``R_th < 0`` or a CPU over the
    limit.
    """
    n_steps, n_servers = plane.shape
    cpu_model = sim.cpu_model
    teg_module = sim.teg_module
    limit = cpu_model.max_operating_temp_c
    cold = sim.config.cold_source_temp_c
    if not in_range:
        _check_utilisation(plane)
    terms_by_sid, coupling_by_sid = _setting_laws(sim, applied_settings)
    heat_c, generation_c, max_temp_c = (
        np.empty(setting_id.shape) for _ in range(3))
    counts = np.zeros(n_steps, dtype=np.int64)
    over = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    rows = max(1, ROW_BLOCK_CELLS // n_servers)
    buffers = np.empty((3, min(rows, n_steps) * n_servers))
    for first in range(0, n_steps, rows):
        block = slice(first, first + rows)
        for circs, first_server, utils in _circulations(sim, plane[block]):
            power, outlet, cells = (buffer[:utils.size].reshape(utils.shape)
                                    for buffer in buffers)
            sid = setting_id[block, circs, None]
            terms = SettingTerms(*terms_by_sid[:, sid])
            cpu_model._power_outlet(utils, terms, power, outlet)
            heat_c[block, circs] = power.sum(axis=2)
            hottest = max_temp_c[block, circs]
            monotone = (terms.r_th >= 0.0).all()
            if monotone:
                peak = _slot_max(power, hottest)[:, :, None]
                cpu_model._cpu_temp(peak, terms.k_inlet, terms.r_th, out=peak)
            if not monotone or (hottest > limit).any():
                temp = cpu_model._cpu_temp(power, terms.k_inlet, terms.r_th,
                                           out=cells)
                if (_slot_max(temp, hottest) > limit).any():
                    hot = temp > limit
                    counts[block] += hot.sum(axis=(1, 2))
                    step, circ, slot = np.nonzero(hot)
                    over.append((first + step,
                                 first_server + circ * utils.shape[2] + slot,
                                 temp[step, circ, slot]))
            generation_c[block, circs] = teg_module._coupled_generation(
                outlet, cold, coupling_by_sid[sid], cells, power).sum(axis=2)
    return heat_c, generation_c, max_temp_c, counts, _serial_order(over)


def _evaluate_balanced(sim, means: np.ndarray, setting_id: np.ndarray,
                       applied_settings: list, in_range: bool):
    """:func:`_evaluate_blocks` of a balanced plane, from its means.

    Every server of a circulation runs at ``means[step, circ]``, so
    each law runs once per circulation cell, on ``(rows, circs, 1)``
    views.  Only the sums see the servers: a cell's CPU power and
    generation are repeated to its ``size`` servers by :func:`_copies`
    and summed as the plane's are.  Every copy is equal, so the hottest
    CPU is the temperature law at the cell's power whatever the sign of
    ``R_th``, and an over-limit cell is each of its servers at that
    temperature.
    """
    n_steps, n_circs = means.shape
    n_servers = sum(len(group) for group in sim._groups)
    cpu_model = sim.cpu_model
    teg_module = sim.teg_module
    limit = cpu_model.max_operating_temp_c
    cold = sim.config.cold_source_temp_c
    if not in_range:
        _check_utilisation(means)
    terms_by_sid, coupling_by_sid = _setting_laws(sim, applied_settings)
    heat_c, generation_c, max_temp_c = (
        np.empty(setting_id.shape) for _ in range(3))
    counts = np.zeros(n_steps, dtype=np.int64)
    over = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    rows = max(1, ROW_BLOCK_CELLS // n_servers)
    copies = np.empty(min(rows, n_steps) * n_servers)
    buffers = np.empty((3, min(rows, n_steps) * n_circs))
    for first in range(0, n_steps, rows):
        block = slice(first, first + rows)
        for circs, first_server, size in _runs(sim, n_servers):
            utils = means[block, circs, None]
            power, outlet, generation = (
                buffer[:utils.size].reshape(utils.shape)
                for buffer in buffers)
            sid = setting_id[block, circs, None]
            terms = SettingTerms(*terms_by_sid[:, sid])
            cpu_model._power_outlet(utils, terms, power, outlet)
            heat_c[block, circs] = _copies(power, size, copies).sum(axis=2)
            hottest = max_temp_c[block, circs]
            cpu_model._cpu_temp(power, terms.k_inlet, terms.r_th,
                                out=hottest[:, :, None])
            hot = hottest > limit
            if hot.any():
                counts[block] += hot.sum(axis=1) * size
                step, circ = np.nonzero(hot)
                slot = np.tile(np.arange(size), step.size)
                over.append((np.repeat(first + step, size),
                             np.repeat(first_server + circ * size, size)
                             + slot,
                             np.repeat(hottest[step, circ], size)))
            teg_module._coupled_generation(outlet, cold, coupling_by_sid[sid],
                                           generation, power)
            generation_c[block, circs] = _copies(generation, size,
                                                 copies).sum(axis=2)
    return heat_c, generation_c, max_temp_c, counts, _serial_order(over)


def _earliest_error(sim, chiller_heat, tower_heat, over,
                    interval_s: float) -> KernelError | None:
    """The first error the serial loop would have raised, or ``None``.

    Serial ordering inside one step: every circulation's *evaluation*
    (chiller capacity check, then tower capacity check, per circulation
    in order) runs before the step's aggregation (strict-safety check,
    per circulation in order).  Across steps, the earliest step wins.
    ``over`` holds the over-limit cells in serial order, so its first
    cell is the strict-safety offender.  The error is *captured*, not
    raised, so a shard can report it to the merge, which decides whether
    this shard's error is the globally earliest one.
    """
    n_circs = len(sim._groups)
    circulations = sim._circulations
    chiller_cap, tower_cap = np.array([
        (c.chiller.capacity_kw, c.tower.max_heat_kw)
        for c in circulations]).T * 1000.0
    capacity_cells = np.flatnonzero((chiller_heat > chiller_cap)
                                    | (tower_heat > tower_cap))
    steps, servers, temps = over
    violation_step = (int(steps[0]) if sim.config.strict_safety
                      and steps.size else np.inf)

    if capacity_cells.size and capacity_cells[0] // n_circs <= violation_step:
        step, circ = divmod(int(capacity_cells[0]), n_circs)
        circulation = circulations[circ]
        try:  # the serial evaluation's two capacity checks, in order
            circulation.chiller.electricity_w_for_heat(
                float(chiller_heat[step, circ]))
            circulation.tower.electricity_w_for_heat(
                float(tower_heat[step, circ]))
        except PhysicalRangeError as exc:
            return KernelError(exception=exc, phase=0, step=step, circ=circ)
        raise AssertionError(
            "capacity cell did not raise")  # pragma: no cover
    if violation_step < np.inf:
        step, server = violation_step, int(servers[0])
        circ = server // int(sim._groups[0].size)
        time_s = (sim.step_offset + step) * interval_s
        exc = CoolingFailureError(
            f"CPU over temperature at t={time_s:.0f}s in "
            f"circulation starting at server "
            f"{int(sim._groups[circ][0]) + sim.server_offset}",
            server_id=server + sim.server_offset,
            temperature_c=float(temps[0]),
            step_index=sim.step_offset + step,
        )
        return KernelError(exception=exc, phase=1, step=step, circ=circ)
    return None


def _decide_phase(sim, fan_out: bool = False):
    """Phase 1 for ``sim``'s whole trace: ``(plane, evaluate, decided)``.

    ``plane`` is the scheduled plane, or under ``IdealBalancer`` its
    per-circulation means: every server of a circulation runs at its
    mean, so a balanced plane stays one column per circulation.
    ``evaluate`` is the phase-2 function for that plane and ``decided``
    the decide output it takes (see :func:`_decide_plane`).
    ``fan_out`` takes the per-circulation maxima or means of the trace
    on every usable CPU (see :func:`_rowwise`).
    """
    if type(sim._scheduler) is IdealBalancer:
        plane = _per_circulation(sim, sim.trace.utilisation, np.mean,
                                 fan_out)
        return plane, _evaluate_balanced, _decide_balanced(sim, plane)
    plane = _scheduled_plane(sim, sim.trace.utilisation)
    return plane, _evaluate_blocks, _decide_plane(sim, plane, fan_out)


def run_kernel_columns(sim) -> KernelColumns:
    """Phases 1–3 for ``sim``'s whole trace: per-circulation columns.

    ``sim`` is a :class:`DatacenterSimulator`; its scheduler, policy,
    partitioning and circulations are reused so the columns —
    including the captured exception of a chiller / tower capacity
    breach or a strict-safety violation — are bit-identical to what
    ``sim.run()``'s serial loop computes.  Phase
    timings are stored on a fresh ``sim.kernel_timings`` (the caller
    adds ``fold_s`` after :func:`fold_columns`).

    Violation records and error attributes are emitted in the
    simulator's global frame (``step_offset`` / ``server_offset``), so
    a shard's columns can be merged without rewriting them.
    """
    sim.kernel_timings = timings = KernelTimings()
    trace = sim.trace
    circulations = sim._circulations
    interval_s = trace.interval_s

    # Phase 1 — schedule + decide (deduplicated per policy key).
    clock = time.perf_counter()
    with obs.span("kernel.decide"):
        plane, evaluate, (setting_id, applied_settings,
                          in_range) = _decide_phase(sim)
    timings.decide_s = time.perf_counter() - clock

    # Phase 2 — evaluate the models and reduce each row block at once.
    clock = time.perf_counter()
    with obs.span("kernel.evaluate"):
        heat_rows, generation_rows, max_temp_rows, counts, over = evaluate(
            sim, plane, setting_id, applied_settings, in_range)
    timings.evaluate_s = time.perf_counter() - clock

    # Phase 3 — facility accounting, earliest error, violation log.
    clock = time.perf_counter()
    with obs.span("kernel.reduce"):
        tower = circulations[0].tower
        fraction_by_sid = np.array([
            tower.chiller_fraction(applied.inlet_temp_c,
                                   circulations[0].wet_bulb_c)
            for applied in applied_settings])
        inlet_by_sid, flow_by_sid = np.array([
            (applied.inlet_temp_c, applied.flow_l_per_h)
            for applied in applied_settings]).T
        pump_by_sid = np.array([
            loop_pump_power_w(circulations[0].pipe_segments,
                              applied.flow_l_per_h, applied.inlet_temp_c)
            for applied in applied_settings])

        # The column block, named by its memory's ``(circulations x
        # steps)`` planes, in which every cell expression below runs
        # contiguously.
        planes = _column_planes(*setting_id.shape)
        (generation_t, heat_t, chiller_t, tower_t, pump_t, max_temp_t,
         inlet_t, flow_t) = planes.transpose(0, 2, 1)
        # Evaluate writes row blocks; its planes are transposed once,
        # then freed.
        np.copyto(generation_t, generation_rows.T)
        np.copyto(heat_t, heat_rows.T)
        np.copyto(max_temp_t, max_temp_rows.T)
        del generation_rows, heat_rows, max_temp_rows
        sid = np.ascontiguousarray(setting_id.T)

        # The chiller and tower heats, in their power planes until the
        # earliest error has read them.
        np.multiply(heat_t, np.take(fraction_by_sid, sid, out=chiller_t),
                    out=chiller_t)
        np.subtract(heat_t, chiller_t, out=tower_t)
        error = _earliest_error(sim, chiller_t.T, tower_t.T, over,
                                interval_s)
        # Power splits are safe arithmetic even past a capacity breach,
        # so compute them unconditionally; the merge discards them when
        # an error wins.
        np.divide(chiller_t, circulations[0].chiller.cop, out=chiller_t)
        np.divide(tower_t, 1000.0, out=tower_t)
        np.multiply(tower_t, tower.fan_power_w_per_kw, out=tower_t)
        sizes = np.array([group.size for group in sim._groups])
        np.multiply(sizes[:, None], np.take(pump_by_sid, sid, out=pump_t),
                    out=pump_t)
        np.take(inlet_by_sid, sid, out=inlet_t)
        np.take(flow_by_sid, sid, out=flow_t)
        violations: list[SafetyViolation] = []
        violation_counts = np.zeros(trace.n_steps, dtype=np.int64)
        if error is None:
            violation_counts = counts
            violations = [
                SafetyViolation(
                    server_id=int(server) + sim.server_offset,
                    step_index=int(step) + sim.step_offset,
                    time_s=float((step + sim.step_offset) * interval_s),
                    temperature_c=float(temp),
                )
                for step, server, temp in zip(*over)]
    timings.reduce_s = time.perf_counter() - clock

    return KernelColumns(*planes, sizes=sizes,
                         violation_counts=violation_counts,
                         violations=violations, error=error)


def _step_totals(cells: np.ndarray, sizes: np.ndarray | None = None
                 ) -> np.ndarray:
    """Each step's circulations of ``cells`` added one after another.

    On a circulation-major plane ``np.add.reduce`` along the circulations
    adds whole columns in order; NumPy sums pairwise only along the
    contiguous axis, so another layout is copied first and a one-step
    plane takes ``np.add.accumulate``.  ``sizes`` scales each column, in
    :data:`FOLD_CHUNK_CIRCS` chunks behind the running total, so no
    plane-sized product is built.  ``+ 0.0`` makes an all ``-0.0`` step
    the ``+0.0`` a fold from zero gives.
    """
    n_steps, n_circs = cells.shape
    if n_steps == 1:
        if sizes is not None:
            cells = cells * sizes
        return np.add.accumulate(cells, axis=1)[:, -1] + 0.0
    if cells.strides[0] > cells.strides[1]:
        cells = np.asfortranarray(cells)
    if sizes is None:
        total = np.add.reduce(cells, axis=1)
        return np.add(total, 0.0, out=total)
    total = np.zeros(n_steps)
    chunk = min(FOLD_CHUNK_CIRCS, n_circs)
    buffer = np.empty((chunk + 1, n_steps)).T
    for first in range(0, n_circs, chunk):
        last = min(first + chunk, n_circs)
        block = buffer[:, :1 + last - first]
        block[:, 0] = total
        np.multiply(cells[:, first:last], sizes[first:last],
                    out=block[:, 1:])
        np.add.reduce(block, axis=1, out=total)
    return total


def fold_columns(columns: KernelColumns, n_servers: int) -> dict:
    """Phase 4: fold circulation columns into per-step cluster columns.

    Sequential adds in circulation order over *full-length* columns —
    exactly the serial ``_aggregate_step`` accumulation (see
    :func:`_step_totals`).  The sharding merge calls this once on
    stitched whole-cluster columns rather than summing per-shard
    subtotals, because float addition is not associative and only this
    order reproduces the unsharded fold bit for bit.
    """
    sums = {name: _step_totals(getattr(columns, name)) for name in (
        "generation_c", "heat_c", "chiller_power_c", "tower_power_c",
        "pump_power_c")}
    for name in ("inlet_cell", "flow_cell"):
        # One term per server, so the total / n_servers is a mean.
        sums[name] = _step_totals(getattr(columns, name), columns.sizes)
    max_cpu_temp = columns.max_temp_c.max(axis=1, initial=-np.inf)
    return {
        "generation_per_cpu_w": sums["generation_c"] / n_servers,
        "cpu_power_per_cpu_w": sums["heat_c"] / n_servers,
        "mean_inlet_temp_c": sums["inlet_cell"] / n_servers,
        "mean_flow_l_per_h": sums["flow_cell"] / n_servers,
        "max_cpu_temp_c": max_cpu_temp,
        "chiller_power_w": sums["chiller_power_c"],
        "tower_power_w": sums["tower_power_c"],
        "pump_power_w": sums["pump_power_c"],
    }


def _columnar_result(trace, scheme: str, columns: KernelColumns,
                     step_offset: int = 0,
                     fan_out: bool = False) -> SimulationResult:
    """Phase 4: fold ``columns`` into ``trace``'s columnar result.

    The unsharded kernel and the sharding merge both finish here: the
    time base, the utilisation mean and max (on every usable CPU with
    ``fan_out``, see :func:`_rowwise`), :func:`fold_columns` and the
    three fault columns, which are zero on a fault-free run.  The
    result takes ``columns.violations``.
    """
    raw = trace.utilisation
    n_steps, n_servers = raw.shape
    mean, peak = np.empty(n_steps), np.empty(n_steps)
    _rowwise(lambda rows, means, peaks: (np.mean(rows, axis=1, out=means),
                                         np.max(rows, axis=1, out=peaks)),
             raw, mean, peak, fan_out=fan_out)
    records = ColumnarSteps({
        "time_s": (step_offset + np.arange(n_steps)) * trace.interval_s,
        "mean_utilisation": mean,
        "max_utilisation": peak,
        **fold_columns(columns, n_servers),
        "safety_violations": columns.violation_counts,
        "degraded_circulations": np.zeros(n_steps, dtype=np.int64),
        "lost_harvest_w": np.zeros(n_steps),
        "active_faults": np.zeros(n_steps, dtype=np.int64),
    })
    result = SimulationResult(scheme=scheme, trace_name=trace.name,
                              n_servers=n_servers,
                              interval_s=trace.interval_s, records=records)
    result.violations = columns.violations
    return result


def run_whole_trace(sim) -> SimulationResult:
    """Replay the full trace of a fault-free simulator as NumPy kernels.

    ``sim`` is a :class:`DatacenterSimulator`; its scheduler, policy,
    partitioning and circulations are reused so the output — including
    the exception raised on a chiller / tower capacity breach or a
    strict-safety violation — is bit-identical to ``sim.run()``'s serial
    loop.  Like ``sim.run()``, it first checks the trace still matches
    the partitioning and folds the finished run into the current
    telemetry session.  Phase timings are stored on
    ``sim.kernel_timings`` and the decisions' ``(hits, misses)`` on
    ``sim.decisions``.
    """
    sim._check_trace_width()
    columns = run_kernel_columns(sim)
    if columns.error is not None:
        raise columns.error.exception

    # Phase 4 — fold circulations into per-step cluster aggregates, in
    # circulation order with sequential adds (the serial accumulation).
    clock = time.perf_counter()
    with obs.span("kernel.fold"):
        sim._violation_log = columns.violations
        result = _columnar_result(sim.trace, sim.config.name, columns,
                                  sim.step_offset)
    sim.kernel_timings.fold_s = time.perf_counter() - clock
    sim._record_telemetry(result)
    return result
