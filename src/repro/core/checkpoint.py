"""Crash-safe checkpoint/resume for sharded and whole simulation runs.

A month-class fleet run (12,500 servers x 8,900 steps through
:mod:`repro.core.shard`) is hours of work that a coordinator crash, OOM
kill or CI timeout would otherwise throw away.  This module persists
per-shard :class:`~repro.core.shard.ShardOutcome` objects *as they
complete*, so an interrupted run restarted against the same checkpoint
directory skips every finished shard and still produces results
**bit-identical** to an uninterrupted run.

Durability contract
-------------------
Shared with :mod:`repro.core.cache`; both stores write and read their
files through :mod:`repro._durable`.

* **Atomic write-then-rename.**  Every artefact (shard outcome, run
  manifest, whole-job result) is written to a temporary file in the
  same directory, flushed and fsync'd, then :func:`os.replace`-d into
  place, followed by a directory fsync.  A file either exists complete
  or not at all; a crash mid-write leaves at most a stale ``.tmp-*``
  file, which the next open sweeps away once its writer's pid is dead.
* **Content-keyed manifests.**  A checkpoint directory is owned by one
  run identity: the :class:`RunKey` digests of the trace plane, the
  full configuration (config + hardware models + fault schedule) and
  the shard plan.  Opening a directory whose
  manifest carries a different key refuses to resume
  (:class:`~repro.errors.CheckpointError`) — stale state can never
  silently leak into a different run — unless ``resume=False``
  explicitly wipes it.
* **Versioned format.**  ``checkpoint.json`` and every shard and result
  file record :data:`CHECKPOINT_SCHEMA` /
  :data:`CHECKPOINT_FORMAT_VERSION`; a directory of an older format is
  recomputed as with ``resume=False``, and a manifest of a newer (or
  unknown) one is refused loudly instead of misread.
* **Corruption is not fatal.**  Each shard and result file carries its
  run key and its payload's SHA-256.  A file that fails to parse or its
  checksum is unlinked, counted (``engine.checkpoint.corrupt``) and its
  work recomputed, and a file of another run is recomputed too; only a
  manifest that *structurally* cannot be trusted raises.

Bit-identity across interruption
--------------------------------
Kernel shards are pure functions of (tile, primed policy memo), and
the pre-pass that primes the memo is deterministic, so loading a saved
outcome is indistinguishable from recomputing it.  Fault windows are
path-dependent — each hands its policy instance, memo included, to the
next — so the saved outcome carries that policy, and resuming restores
it before the first missing window runs.  The per-outcome decision
hit/miss counts ride inside the saved outcomes, and each saved kernel
tile also records how many decisions the job's prime pass computed, so
the merged counts match the uninterrupted run even when every tile is
resumed and nothing is primed.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from .. import obs
from .._durable import (
    CorruptEntry,
    NewerEntry,
    fsync_directory,
    read_entry,
    read_manifest,
    sweep_temp_files,
    write_entry,
    write_manifest,
)
from ..errors import CheckpointError
from ..workloads.trace import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .results import SimulationResult
    from .shard import ShardOutcome, ShardSpec

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "RunKey",
    "fingerprint",
    "run_key",
    "trace_digest",
]

#: Identifies the on-disk layout; bump on incompatible changes.
CHECKPOINT_SCHEMA = "repro.core/checkpoint/v1"
CHECKPOINT_FORMAT_VERSION = 2

#: Manifest file name inside a checkpoint directory.
MANIFEST_NAME = "checkpoint.json"

#: Subdirectory holding one entry per completed shard.
SHARDS_DIR = "shards"

#: Whole-job result file (non-sharded jobs checkpoint at job granularity).
RESULT_NAME = "result.pkl"


# ----------------------------------------------------------------------
# Content digests
# ----------------------------------------------------------------------

#: Row blocks of about this many bytes are the leaves of
#: :func:`trace_digest`'s two-level hash.
DIGEST_LEAF_BYTES = 8 << 20


def _hasher() -> "hashlib._Hash":
    # OpenSSL's SHA-256 runs on the CPU's SHA extensions: about 1.05
    # GB/s per core against blake2b's 0.35-0.55 GB/s on a 2-vCPU Xeon.
    return hashlib.sha256()


def _hexdigest(h: "hashlib._Hash") -> str:
    # Keys keep the 32-hex-character width manifests have always had.
    return h.hexdigest()[:32]


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _fan_out(work, items: list) -> list:
    """``[work(item) for item in items]``, on one thread per usable CPU.

    For work that releases the GIL: hashing a large buffer, or a NumPy
    reduction over a large band of rows.  The pool is joined before
    returning, so no thread is alive when the engine forks its process
    pool, and one item, or one usable CPU, starts no thread.  Only the
    coordinator fans out; a pool worker shares the cores with its
    siblings.
    """
    threads = min(_usable_cpus(), len(items))
    if threads <= 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(work, items))


def _row_bands(n_rows: int) -> list[slice]:
    """``range(n_rows)`` cut into one band of whole rows per usable CPU.

    One band per CPU, never more: NumPy releases the GIL in a row-wise
    ``reduceat`` only over a large enough band (625 rows of the
    12,500-server fleet plane did, 313 did not, on a 2-vCPU host).
    """
    bands = max(1, min(_usable_cpus(), n_rows))
    return [slice(n_rows * band // bands, n_rows * (band + 1) // bands)
            for band in range(bands)]


def _leaf_digest(leaf: np.ndarray) -> bytes:
    # A window tile's rows are strided: copy this leaf, never the plane.
    h = _hasher()
    h.update(np.ascontiguousarray(leaf))
    return h.digest()


def trace_digest(trace: WorkloadTrace) -> str:
    """Content hash of a trace: shape, dtype, interval and plane bytes.

    The trace *name* is deliberately excluded — it names the run in the
    manifest key separately; two identically-named traces with
    different planes must never collide.

    The hash has two levels so a fleet-scale plane hashes on every
    usable CPU: each leaf (rows of about :data:`DIGEST_LEAF_BYTES`) is
    hashed on its own, then the root hashes the header and the leaf
    digests in row order.  The value depends on the content alone,
    never on the thread count, and a one-leaf plane starts no thread.
    """
    matrix = trace.utilisation
    rows = max(1, DIGEST_LEAF_BYTES // (matrix.shape[1] * matrix.itemsize))
    leaves = [matrix[start:start + rows]
              for start in range(0, matrix.shape[0], rows)]
    # hashlib releases the GIL while it hashes a large buffer.
    digests = _fan_out(_leaf_digest, leaves)
    h = _hasher()
    h.update(repr((matrix.shape, str(matrix.dtype),
                   trace.interval_s)).encode())
    for digest in digests:
        h.update(digest)
    return _hexdigest(h)


def _canonical(value: Any) -> Any:
    """A JSON-stable view of configs, models and schedules for hashing.

    Dataclasses unfold field-by-field (with their type name, so two
    classes with equal fields do not collide), NumPy arrays hash to
    their bytes, floats keep full ``repr`` precision, containers
    recurse.  Anything else falls back to ``repr`` — stable for the
    value types configuration objects actually hold.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__,
                **{f.name: _canonical(getattr(value, f.name))
                   for f in fields(value)}}
    if isinstance(value, np.ndarray):
        digest = _hasher()
        digest.update(np.ascontiguousarray(value))
        return {"__ndarray__": [list(value.shape), str(value.dtype),
                                _hexdigest(digest)]}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                         key=repr)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return {"__repr__": f"{type(value).__name__}:{value!r}"}


def fingerprint(*values: Any) -> str:
    """One hex digest over any mix of configs, models, plans, scalars."""
    h = _hasher()
    h.update(json.dumps([_canonical(v) for v in values],
                        sort_keys=True).encode())
    return _hexdigest(h)


@dataclass(frozen=True)
class RunKey:
    """The identity a checkpoint directory is keyed on.

    ``trace`` hashes the workload plane (shape, dtype, interval,
    bytes); ``run`` hashes everything else that shapes the numbers —
    config, hardware models, fault schedule and the shard plan.  Two
    runs share a checkpoint directory iff both digests (and the
    human-readable labels) match.
    """

    scheme: str
    trace_name: str
    trace: str
    run: str

    @property
    def short(self) -> str:
        """A filesystem-friendly 12-hex tag of the combined identity."""
        return fingerprint(self.trace, self.run)[:12]

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "trace_name": self.trace_name,
                "trace": self.trace, "run": self.run}

    @classmethod
    def from_dict(cls, data: dict) -> "RunKey":
        try:
            return cls(scheme=data["scheme"],
                       trace_name=data["trace_name"],
                       trace=data["trace"], run=data["run"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"checkpoint manifest key is malformed: {data!r}"
                ) from exc


def run_key(trace: WorkloadTrace, config, cpu_model=None,
            teg_module=None, *, faults=None,
            specs: "Iterable[ShardSpec] | None" = None,
            extra: tuple = (),
            trace_hash: str | None = None) -> RunKey:
    """Build the :class:`RunKey` for one (trace, config, plan) run.

    ``specs`` is the shard plan (``None`` for whole-job runs); it is
    part of the identity because shard outcomes are only reusable under
    the exact tiling that produced them.  ``trace_hash`` lets a caller
    that hashed the (potentially GB-scale) plane already pass the
    digest in instead of re-hashing it per job.
    """
    plan = (None if specs is None else
            [(s.index, s.step_start, s.step_stop, s.server_start,
              s.server_stop, s.circ_start, s.circ_stop) for s in specs])
    return RunKey(
        scheme=config.name,
        trace_name=trace.name,
        trace=trace_digest(trace) if trace_hash is None else trace_hash,
        run=fingerprint(config, cpu_model, teg_module, faults, plan,
                        list(extra)),
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class CheckpointStore:
    """One checkpoint directory: a manifest plus completed work units.

    Layout::

        DIR/checkpoint.json          # schema, version, RunKey, plan size
        DIR/shards/shard-00042.pkl   # one entry per completed shard
        DIR/result.pkl               # whole-job runs (n_shards == 0)

    Opening semantics (``resume`` flag):

    * no manifest, or one of an older format — the directory is
      (created, wiped and) claimed for this run: a fresh manifest is
      written either way;
    * manifest matches ``key`` — ``resume=True`` keeps completed
      shards, ``resume=False`` discards them and starts over;
    * manifest mismatches ``key`` — ``resume=True`` raises
      :class:`~repro.errors.CheckpointError` (never silently mix two
      runs' state), ``resume=False`` wipes the directory and claims it.

    Every save is atomic (see module docstring); every load tolerates a
    corrupt file by discarding it.
    """

    def __init__(self, directory: str | os.PathLike, key: RunKey, *,
                 n_shards: int, resume: bool = True) -> None:
        self.directory = Path(directory)
        self.key = key
        self.n_shards = int(n_shards)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._shards_dir = self.directory / SHARDS_DIR
        manifest = read_manifest(self.manifest_path, CHECKPOINT_SCHEMA,
                                 CHECKPOINT_FORMAT_VERSION, CheckpointError)
        current = (manifest is not None
                   and manifest["version"] == CHECKPOINT_FORMAT_VERSION)
        if current and resume:
            stored = RunKey.from_dict(manifest.get("key", {}))
            if stored != key:
                raise CheckpointError(
                    f"checkpoint directory {self.directory} belongs "
                    f"to a different run (stored "
                    f"{stored.scheme!r}/{stored.trace_name!r}, "
                    f"requested {key.scheme!r}/{key.trace_name!r} "
                    f"with different content digests); pass "
                    f"resume=False to overwrite it or use a fresh "
                    f"directory")
        else:
            # A directory of an older format is recomputed, as with
            # resume=False.
            if manifest is not None:
                self._wipe()
            write_manifest(self.manifest_path,
                           {"schema": CHECKPOINT_SCHEMA,
                            "version": CHECKPOINT_FORMAT_VERSION,
                            "key": key.to_dict(),
                            "n_shards": self.n_shards})
        self._shards_dir.mkdir(exist_ok=True)
        sweep_temp_files(self.directory)
        sweep_temp_files(self._shards_dir)
        #: Shard indices loaded from disk by this process (telemetry
        #: and tests read it; the engine reports it as shards_resumed).
        self.loaded: set[int] = set()
        #: Shard indices saved by this process.
        self.saved: set[int] = set()

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _wipe(self) -> None:
        """Discard every artefact; the manifest goes last."""
        if self._shards_dir.is_dir():
            for shard_file in self._shards_dir.glob("shard-*.pkl"):
                shard_file.unlink(missing_ok=True)
        (self.directory / RESULT_NAME).unlink(missing_ok=True)
        self.manifest_path.unlink(missing_ok=True)
        fsync_directory(self.directory)

    # -- entries -------------------------------------------------------

    def _save(self, path: Path, payload, shard: int) -> None:
        write_entry(path, CHECKPOINT_SCHEMA, CHECKPOINT_FORMAT_VERSION,
                    self.key.to_dict(), payload)
        obs.add("engine.checkpoint.saved", 1)
        obs.emit("checkpoint.save", scheme=self.key.scheme,
                 trace=self.key.trace_name, shard=shard)

    def _load(self, path: Path, shard: int):
        """The payload at ``path``, or ``None`` (missing, another run's
        or unreadable).

        An unreadable file is counted and its work recomputed: a
        half-written, stale or bit-flipped entry must never poison a
        resume.
        """
        try:
            payload = read_entry(path, CHECKPOINT_SCHEMA,
                                 CHECKPOINT_FORMAT_VERSION,
                                 self.key.to_dict())
        except (CorruptEntry, NewerEntry):
            obs.add("engine.checkpoint.corrupt", 1)
            obs.emit("checkpoint.corrupt", scheme=self.key.scheme,
                     trace=self.key.trace_name, shard=shard)
            return None
        if payload is not None:
            obs.add("engine.checkpoint.loaded", 1)
        return payload

    # -- shard outcomes ------------------------------------------------

    def _shard_path(self, index: int) -> Path:
        return self._shards_dir / f"shard-{index:05d}.pkl"

    def completed(self) -> list[int]:
        """Sorted indices of shards with a (parseable-looking) file."""
        done = []
        for shard_file in self._shards_dir.glob("shard-*.pkl"):
            try:
                index = int(shard_file.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if 0 <= index < self.n_shards:
                done.append(index)
        return sorted(done)

    def save_shard(self, index: int, outcome: "ShardOutcome", *,
                   primed_misses: int = 0) -> None:
        """Persist one completed shard (atomically).

        ``primed_misses``, when not 0, is saved next to the outcome: the
        decisions the job's prime pass computed, which a fully resumed
        job reads back instead of priming.
        """
        payload = {"outcome": outcome}
        if primed_misses:
            payload["primed_misses"] = primed_misses
        self._save(self._shard_path(index), payload, index)
        self.saved.add(index)

    def load_shard(self, index: int) -> dict | None:
        """One saved shard payload ``{"outcome": ...}`` (and
        ``"primed_misses"`` when saved), or ``None``."""
        payload = self._load(self._shard_path(index), index)
        if payload is not None:
            self.loaded.add(index)
        return payload

    # -- whole-job results ---------------------------------------------

    def save_result(self, result: "SimulationResult") -> None:
        """Persist one whole (non-sharded) job's result atomically."""
        self._save(self.directory / RESULT_NAME, result, -1)

    def load_result(self) -> "SimulationResult | None":
        """The saved whole-job result, or ``None``."""
        return self._load(self.directory / RESULT_NAME, -1)
