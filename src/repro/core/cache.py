"""Content-addressed result cache with cross-run warm starts.

The ROADMAP's ``h2p serve`` north-star needs "results keyed on (config
hash, trace hash, scheme) so identical requests are free".  This module
provides that memoisation layer on top of the :class:`~repro.core.
checkpoint.RunKey` content identity from the checkpoint subsystem: a
:class:`ResultCache` directory maps a run's exact identity — trace
plane, full configuration, hardware models, fault schedule, execution
mode and shard plan — to its persisted :class:`~repro.core.results.
SimulationResult`, so repeating a sweep, regenerating a figure or
re-running ``h2p batch`` serves finished jobs from disk instead of
recomputing them.

Durability contract (shared with :mod:`repro.core.checkpoint`)
--------------------------------------------------------------
Both stores write and read their files through :mod:`repro._durable`:

* **Atomic write-then-rename.**  Every entry is written to a temp file
  in the same directory, fsync'd, then :func:`os.replace`-d into place
  followed by a directory fsync; a crash mid-write leaves at most a
  stale ``.tmp-*`` file, which the next open sweeps away once its
  writer's pid is dead.
* **One entry codec.**  Each entry pickles its payload inside a header
  naming :data:`CACHE_SCHEMA`, :data:`CACHE_FORMAT_VERSION`, the
  content key and the payload's SHA-256.  An entry of an older format
  reads as a miss and is overwritten; a newer format, in an entry or
  in the directory manifest (``cache.json``), raises
  :class:`~repro.errors.CacheError` instead of being misread.
* **Corruption is not fatal.**  An entry that fails to parse, fails
  its checksum or was truncated is unlinked, counted
  (``engine.cache.corrupt``) and the result recomputed, so a flipped
  bit is never served.
* **Size-capped LRU.**  When ``REPRO_CACHE_MAX_BYTES`` (or the
  ``max_bytes`` argument) is set, the oldest-used entries are evicted
  after each store until the directory fits; hits refresh an entry's
  timestamp.

Bit-identity contract
---------------------
A cache hit returns records **byte-equal** to recomputing the run.
An entry's payload is the whole :class:`~repro.core.results.
SimulationResult`, so columnar NumPy steps, list records, violations,
engine metrics and telemetry snapshots all round-trip exactly.  The
key is conservative: anything that *could* shape the numbers (mode,
shard plan, fault schedule) is part of the identity, so a hit can
never alias two runs that would diverge.

Warm starts
-----------
Beyond exact hits, the sharded decision pre-pass
(:func:`repro.core.shard.primed_or_warm`) persists its primed policy
memo, as ``(bucket, decision)`` entries in first-occurrence order, under
its own two-level content key, so a *near-miss* sharded job skips the
full-plane decide pass.  Nothing else writes or reads these snapshots:

* **W1 (decision key)** covers everything that shapes the decisions
  themselves — trace plane, config minus its display name, hardware
  models.  A W1 match restores the saved decisions directly.
* **W2 (binding key)** covers only what shapes the *sequence of
  binding utilisations* — trace plane, scheduler, circulation size and
  the policy's memoisation bucketing.  A W2 match with a W1 mismatch
  (same trace and scheduling, different TEG module or temperatures)
  replays the saved binding per bucket through the *current* policy:
  each bucket's representative binding is fed through
  ``policy.decide([binding])``, which both primes the policy memo and
  yields the decision a cold run would have produced for the bucket —
  single-element aggregation (max or mean) is exact in floating point,
  so the replayed decisions are bit-identical to a cold run's.

The warm path is an accelerator, never an oracle: it only ever installs
decisions the current policy itself produced (or, under a full W1
match, decisions proven identical by the content key), so warmed runs
keep the hard bit-identity guarantee.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .. import _env, obs
from .._durable import (
    CorruptEntry,
    NewerEntry,
    read_entry,
    read_manifest,
    sweep_temp_files,
    write_entry,
    write_manifest,
)
from ..errors import CacheError
from ..teg.module import default_server_module
from ..thermal.cpu_model import CpuThermalModel
from ..workloads.trace import WorkloadTrace
from .checkpoint import RunKey, fingerprint, run_key, trace_digest
from .results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .shard import ShardSpec

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_ENV_VAR",
    "CACHE_FORMAT_VERSION",
    "CACHE_MAX_BYTES_ENV_VAR",
    "CACHE_SCHEMA",
    "ResultCache",
    "ResultCacheStats",
    "cache_enabled",
    "default_cache_dir",
    "resolve_cache_dir",
    "resolve_cache_max_bytes",
    "resolve_result_cache",
    "result_key",
    "warm_keys",
]

#: Identifies the on-disk layout; bump on incompatible changes.
CACHE_SCHEMA = "repro.core/cache/v1"
CACHE_FORMAT_VERSION = 3

#: Environment variable enabling the result cache by default.
CACHE_ENV_VAR = "REPRO_CACHE"

#: Environment variable naming the default cache directory.  Setting it
#: relocates the cache but does *not* enable it.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Environment variable capping the cache size in bytes (LRU eviction).
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

#: Manifest file name inside a cache directory.
MANIFEST_NAME = "cache.json"

#: Subdirectory holding one ``.pkl`` per cached result.
RESULTS_DIR = "results"

#: Subdirectory holding warm-start decision snapshots.
WARM_DIR = "warm"


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------

def cache_enabled(explicit: bool | None = None) -> bool:
    """Whether the result cache is on: explicit > ``REPRO_CACHE`` > off.

    Raises
    ------
    ConfigurationError
        When ``REPRO_CACHE`` is set to something that is not a boolean
        word (``1/0``, ``true/false``, ``yes/no``, ``on/off``).
    """
    return _env.flag(explicit, CACHE_ENV_VAR)


def default_cache_dir() -> Path:
    """The per-user cache location (``$XDG_CACHE_HOME`` aware)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base and base.strip() else Path.home() / ".cache"
    return root / "repro-h2p"


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """Cache directory: explicit > ``REPRO_CACHE_DIR`` > per-user default.

    Raises
    ------
    ConfigurationError
        When ``REPRO_CACHE_DIR`` is blank, or either source names an
        existing path that is not a directory.
    """
    path = _env.directory(explicit, CACHE_DIR_ENV_VAR, "cache directory")
    return default_cache_dir() if path is None else path


def resolve_cache_max_bytes(explicit: int | None = None) -> int | None:
    """Size cap: explicit > ``REPRO_CACHE_MAX_BYTES`` > unbounded."""
    return _env.number(explicit, CACHE_MAX_BYTES_ENV_VAR, "cache max_bytes")


def resolve_result_cache(cache=None, *,
                         max_bytes: int | None = None
                         ) -> "ResultCache | None":
    """Normalise the ``result_cache=`` argument every entry point takes.

    * :class:`ResultCache` — used as-is;
    * ``False`` — caching off, environment ignored;
    * ``None`` — on iff ``REPRO_CACHE`` enables it, at
      ``REPRO_CACHE_DIR`` (or the per-user default);
    * ``True`` — on, at ``REPRO_CACHE_DIR`` (or the default);
    * a path — on, at that directory.
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is False:
        return None
    if cache is None or cache is True:
        if not cache_enabled(True if cache is True else None):
            return None
        directory = resolve_cache_dir()
    else:
        directory = resolve_cache_dir(cache)
    return ResultCache(directory,
                       max_bytes=resolve_cache_max_bytes(max_bytes))


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------

def result_key(trace: WorkloadTrace, config, cpu_model=None,
               teg_module=None, *, faults=None,
               mode: str = "kernel",
               specs: "Iterable[ShardSpec] | None" = None,
               trace_hash: str | None = None) -> RunKey:
    """The cache identity of one run: :func:`~repro.core.checkpoint.
    run_key` extended with the execution mode (and shard plan via
    ``specs``) so a hit can never alias runs that could diverge.

    The key names the run as it executes: a run with a fault schedule
    steps through the serial loop whatever ``mode`` asks, so it keys as
    ``"loop"``, and a model equal to the default the simulator builds
    for an omitted one keys as omitted.
    """
    if faults is not None:
        mode = "loop"
    return run_key(trace, config,
                   _unless_default(cpu_model, CpuThermalModel),
                   _unless_default(teg_module, default_server_module),
                   faults=faults, specs=specs, extra=(("mode", mode),),
                   trace_hash=trace_hash)


def _unless_default(model, default):
    """``None`` when ``model`` fingerprints like ``default()``, the model
    the simulator builds when a run omits it; else ``model`` itself.

    Only a run that names its model pays for the comparison, so a plain
    batch job keys at no extra cost.
    """
    if model is not None and fingerprint(model) == fingerprint(default()):
        return None
    return model


def warm_keys(trace: WorkloadTrace, config, cpu_model=None,
              teg_module=None, *, aggregation: str = "max",
              policy_resolution: float | None = None,
              trace_hash: str | None = None) -> tuple[str, str]:
    """The two-level warm-start identity ``(w1, w2)`` of one run.

    ``w1`` pins everything that shapes the cooling *decisions* (config
    minus its display name, hardware models, trace plane): equal ``w1``
    means the saved decisions can be restored verbatim.  ``w2`` pins
    only what shapes the *binding-utilisation sequence* and its
    memoisation bucketing (trace plane, scheduler and its cap, control
    cadence, circulation size, policy kind, aggregation, bucket
    resolution): equal ``w2`` with different ``w1`` means the saved
    bindings can be replayed through the current policy.
    """
    digest = trace_hash if trace_hash is not None else trace_digest(trace)
    config_fields = {f.name: getattr(config, f.name)
                     for f in dataclass_fields(config)
                     if f.name != "name"}
    # The "memo" tags name the (bucket, decision) entry format: a
    # snapshot of an older format sits under other keys, never read.
    w1 = fingerprint("h2p-warm/memo-decisions", digest, config_fields,
                     cpu_model, teg_module)
    w2 = fingerprint("h2p-warm/memo-bindings", digest,
                     config_fields.get("scheduler"),
                     config_fields.get("threshold_cap"),
                     config_fields.get("control_interval_s"),
                     config_fields.get("circulation_size"),
                     config_fields.get("policy"),
                     aggregation, policy_resolution)
    return w1, w2


def _fs_slug(name: str, limit: int = 48) -> str:
    """A filesystem-safe rendering of a scheme/trace label."""
    cleaned = "".join(c if c.isalnum() or c in "._-" else "-"
                      for c in name).strip("-")
    return (cleaned or "run")[:limit]


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass
class ResultCacheStats:
    """Lifetime counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0


class ResultCache:
    """A content-addressed, crash-safe store of simulation results.

    Layout::

        <directory>/
            cache.json            # schema + format version
            results/<scheme>--<trace>--<short12>.pkl
            warm/<w2-digest>.pkl  # warm-start decision snapshots

    Safe to share between processes: entries are written atomically and
    are immutable once named (the name embeds the content key), so
    concurrent readers/writers can at worst duplicate work, never
    corrupt each other.
    """

    def __init__(self, directory: str | os.PathLike, *,
                 max_bytes: int | None = None) -> None:
        self.directory = Path(os.fspath(directory))
        self.max_bytes = _env.number(max_bytes, None, "cache max_bytes")
        self.stats = ResultCacheStats()
        self._results_dir = self.directory / RESULTS_DIR
        self._warm_dir = self.directory / WARM_DIR
        self._results_dir.mkdir(parents=True, exist_ok=True)
        self._warm_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / MANIFEST_NAME
        manifest = read_manifest(manifest_path, CACHE_SCHEMA,
                                 CACHE_FORMAT_VERSION, CacheError)
        if manifest is None or manifest["version"] < CACHE_FORMAT_VERSION:
            # Older entries read as misses and are overwritten in turn.
            write_manifest(manifest_path,
                           {"schema": CACHE_SCHEMA,
                            "version": CACHE_FORMAT_VERSION})
        for folder in (self.directory, self._results_dir,
                       self._warm_dir):
            sweep_temp_files(folder)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ResultCache({str(self.directory)!r}, "
                f"max_bytes={self.max_bytes})")

    def _read(self, path: Path, key, **labels):
        """The payload at ``path`` (see :func:`~repro._durable.
        read_entry`), its LRU timestamp refreshed, or ``None``; a
        corrupt entry is counted."""
        try:
            payload = read_entry(path, CACHE_SCHEMA, CACHE_FORMAT_VERSION,
                                 key)
        except CorruptEntry:
            self.stats.corrupt += 1
            obs.add("engine.cache.corrupt", 1, labels=labels)
            obs.emit("engine.cache.corrupt", path=path.name, **labels)
            return None
        if payload is not None:
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - entry evicted under us
                pass
        return payload

    # -- result entries ------------------------------------------------

    def path_for(self, key: RunKey) -> Path:
        name = "--".join((_fs_slug(key.scheme),
                          _fs_slug(key.trace_name), key.short))
        return self._results_dir / f"{name}.pkl"

    def load(self, key: RunKey) -> SimulationResult | None:
        """The cached result under ``key``, or ``None``.

        A hit refreshes the entry's LRU timestamp and flags the
        returned metrics with ``result_cache_hit`` so batch layers can
        account for served jobs.  Corrupt entries are unlinked and
        reported as misses; an entry of an older format, or of another
        run whose key hashed to the same name, reads as a miss and is
        kept.
        """
        labels = {"scheme": key.scheme, "trace": key.trace_name}
        try:
            result = self._read(self.path_for(key), key.to_dict(), **labels)
        except NewerEntry as exc:
            raise CacheError(f"cache entry {exc}") from exc
        if result is None:
            self.stats.misses += 1
            obs.add("engine.cache.miss", 1, labels=labels)
            obs.emit("engine.cache.miss", key=key.short, **labels)
            return None
        self.stats.hits += 1
        obs.add("engine.cache.hit", 1, labels=labels)
        obs.emit("engine.cache.hit", key=key.short, **labels)
        if result.metrics is not None:
            result.metrics.result_cache_hit = True
        return result

    def store(self, key: RunKey, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (atomic), then evict LRU."""
        size = write_entry(self.path_for(key), CACHE_SCHEMA,
                           CACHE_FORMAT_VERSION, key.to_dict(), result)
        self.stats.stores += 1
        labels = {"scheme": key.scheme, "trace": key.trace_name}
        obs.add("engine.cache.store", 1, labels=labels)
        obs.emit("engine.cache.store", key=key.short, bytes=size, **labels)
        self._evict()

    # -- warm-start snapshots ------------------------------------------

    def warm_path(self, w2: str) -> Path:
        return self._warm_dir / f"{w2}.pkl"

    def load_warm(self, w2: str) -> dict | None:
        """The warm snapshot under binding key ``w2``, or ``None``.

        Returns the payload dict (``w1``, ``entries``); corrupt files
        are unlinked, files of another format are left alone and simply
        not used.
        """
        try:
            payload = self._read(self.warm_path(w2), w2, entry_kind="warm")
        except NewerEntry:
            return None
        if payload is not None:
            obs.add("engine.cache.warm_hit", 1)
        return payload

    def store_warm(self, w1: str, w2: str, entries: list) -> None:
        """Persist one warm snapshot: the ``(bucket, decision)`` entries
        of a primed policy memo, first-occurrence order preserved."""
        write_entry(self.warm_path(w2), CACHE_SCHEMA, CACHE_FORMAT_VERSION,
                    w2, {"w1": w1, "entries": list(entries)})
        obs.add("engine.cache.warm_store", 1)
        self._evict()

    # -- eviction ------------------------------------------------------

    def _evict(self) -> None:
        """Unlink least-recently-used entries until under the cap."""
        if self.max_bytes is None:
            return
        entries = []
        for folder in (self._results_dir, self._warm_dir):
            for path in folder.iterdir():
                if ".tmp-" in path.name:  # another writer, mid-flight
                    continue
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - raced unlink
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        entries.sort()
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced unlink
                continue
            total -= size
            self.stats.evictions += 1
            obs.add("engine.cache.evict", 1)
            obs.emit("engine.cache.evict", path=path.name, bytes=size)
