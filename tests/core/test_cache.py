"""Unit tests for the content-addressed result cache (repro.core.cache).

Covers the store in isolation (round-trip bit-identity, corruption
tolerance, LRU eviction, format versioning, key sensitivity), the
environment knobs, the batch-engine integration (dedup, counters,
telemetry) and the warm-start contract.  The hypothesis property suite
lives in ``test_cache_properties.py``; benchmark-scale behaviour in
``benchmarks/test_bench_cache.py``.
"""

import dataclasses
import json
import pickle

import numpy as np
import pytest

import repro.core.cache as cache_module
import repro.core.checkpoint as checkpoint_module
import repro.core.shard as shard_module
from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    CACHE_SCHEMA,
    ResultCache,
    cache_enabled,
    default_cache_dir,
    resolve_cache_dir,
    resolve_cache_max_bytes,
    resolve_result_cache,
    result_key,
    warm_keys,
)
from repro.core.config import teg_loadbalance, teg_original
from repro.core.engine import (
    BatchSimulationEngine,
    SimulationJob,
    run_batch,
    simulate,
)
from repro.core.results import (
    ColumnarSteps,
    SafetyViolation,
    SimulationResult,
    StepRecord,
    STEP_COLUMNS,
    STEP_FLOAT_COLUMNS,
    STEP_INT_COLUMNS,
)
from repro.core.shard import plan_shards, simulate_sharded
from repro.errors import CacheError, ConfigurationError
from repro.teg.module import default_server_module
from repro.workloads.synthetic import common_trace, drastic_trace
from repro.workloads.trace import WorkloadTrace


def make_trace(seed=0, steps=24, servers=40, name="trace"):
    rng = np.random.default_rng(seed)
    return WorkloadTrace(rng.random((steps, servers)), 300.0, name=name)


def synthetic_result(n_steps=6, seed=3, columnar=True, violations=1,
                     scheme="TEG_Original", trace_name="trace"):
    rng = np.random.default_rng(seed)
    columns = {name: rng.random(n_steps) for name in STEP_FLOAT_COLUMNS}
    columns.update({name: rng.integers(0, 5, n_steps).astype(np.int64)
                    for name in STEP_INT_COLUMNS})
    if columnar:
        records = ColumnarSteps(columns)
    else:
        records = [StepRecord(
            **{name: float(columns[name][i])
               for name in STEP_FLOAT_COLUMNS},
            **{name: int(columns[name][i])
               for name in STEP_INT_COLUMNS})
            for i in range(n_steps)]
    viols = [SafetyViolation(server_id=i, step_index=2 * i,
                             time_s=600.0 * i, temperature_c=61.25 + i)
             for i in range(violations)]
    return SimulationResult(scheme=scheme, trace_name=trace_name,
                            n_servers=40, interval_s=300.0,
                            records=records, violations=viols)


def assert_identical(a, b):
    assert a.records == b.records
    assert a.violations == b.violations
    assert a.scheme == b.scheme
    assert a.trace_name == b.trace_name
    assert a.n_servers == b.n_servers
    assert a.interval_s == b.interval_s


class TestRoundTrip:
    def store(self, tmp_path, **kwargs):
        return ResultCache(tmp_path / "cache", **kwargs)

    def test_columnar_bit_identity(self, tmp_path):
        store = self.store(tmp_path)
        result = synthetic_result(columnar=True)
        key = result_key(make_trace(), teg_original())
        store.load(key) is None
        store.store(key, result)
        loaded = store.load(key)
        assert_identical(loaded, result)
        for name in STEP_COLUMNS:
            original = result.records.column(name)
            col = loaded.records.column(name)
            assert col.dtype == original.dtype
            assert col.tobytes() == original.tobytes()

    def test_list_records_round_trip(self, tmp_path):
        store = self.store(tmp_path)
        result = synthetic_result(columnar=False, violations=3)
        key = result_key(make_trace(), teg_original())
        store.store(key, result)
        loaded = store.load(key)
        assert isinstance(loaded.records, list)
        assert_identical(loaded, result)

    def test_simulated_result_with_metrics_round_trips(self, tmp_path):
        store = self.store(tmp_path)
        trace = make_trace()
        result = simulate(trace, teg_original())
        key = result_key(trace, teg_original())
        store.store(key, result)
        loaded = store.load(key)
        assert_identical(loaded, result)
        assert loaded.metrics is not None
        assert loaded.metrics.result_cache_hit
        assert loaded.metrics.n_steps == result.metrics.n_steps

    def test_miss_then_hit_counters(self, tmp_path):
        store = self.store(tmp_path)
        key = result_key(make_trace(), teg_original())
        assert store.load(key) is None
        store.store(key, synthetic_result())
        assert store.load(key) is not None
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.stores == 1


class TestKeySensitivity:
    def test_key_varies_with_identity(self):
        trace = make_trace()
        base = result_key(trace, teg_original())
        assert result_key(trace, teg_loadbalance()) != base
        assert result_key(make_trace(seed=9), teg_original()) != base
        assert result_key(trace, teg_original(), mode="loop") != base
        specs = plan_shards(24, 40, 20, shard_steps=12)
        assert result_key(trace, teg_original(), specs=specs) != base
        other = plan_shards(24, 40, 20, shard_steps=8)
        assert result_key(trace, teg_original(), specs=specs) \
            != result_key(trace, teg_original(), specs=other)

    def test_warm_keys_two_level_structure(self):
        trace = make_trace()
        w1, w2 = warm_keys(trace, teg_original(),
                           policy_resolution=0.005)
        # Display name is excluded from both levels.
        renamed = dataclasses.replace(teg_original(), name="Other")
        assert warm_keys(trace, renamed,
                         policy_resolution=0.005) == (w1, w2)
        # A different TEG module flips w1 but keeps w2 (replayable).
        module = dataclasses.replace(default_server_module(),
                                     group_count=3)
        w1b, w2b = warm_keys(trace, teg_original(), None, module,
                             policy_resolution=0.005)
        assert w1b != w1 and w2b == w2
        # A different scheduler flips both.
        w1c, w2c = warm_keys(trace, teg_loadbalance(),
                             policy_resolution=0.005)
        assert w1c != w1 and w2c != w2


class TestCorruption:
    def test_truncated_entry_recovers(self, tmp_path):
        store = ResultCache(tmp_path)
        key = result_key(make_trace(), teg_original())
        result = synthetic_result()
        store.store(key, result)
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:40])
        assert store.load(key) is None
        assert store.stats.corrupt == 1
        assert not path.exists()
        # Recompute-and-store works after the discard.
        store.store(key, result)
        assert_identical(store.load(key), result)

    def test_garbage_entry_recovers(self, tmp_path):
        store = ResultCache(tmp_path)
        key = result_key(make_trace(), teg_original())
        store.path_for(key).write_bytes(b"not an npz at all")
        assert store.load(key) is None
        assert store.stats.corrupt == 1

    def test_newer_entry_version_raises(self, tmp_path):
        store = ResultCache(tmp_path)
        key = result_key(make_trace(), teg_original())
        store.store(key, synthetic_result())
        entry = pickle.loads(store.path_for(key).read_bytes())
        entry["version"] = CACHE_FORMAT_VERSION + 1
        store.path_for(key).write_bytes(pickle.dumps(entry))
        with pytest.raises(CacheError, match="newer"):
            store.load(key)

    def test_corrupt_warm_snapshot_recovers(self, tmp_path):
        store = ResultCache(tmp_path)
        store.store_warm("w1", "w2digest", [("max", 3, 5, "decision")])
        assert store.load_warm("w2digest")["w1"] == "w1"
        store.warm_path("w2digest").write_bytes(b"\x80broken")
        assert store.load_warm("w2digest") is None
        assert not store.warm_path("w2digest").exists()

    def test_newer_warm_version_unused_but_kept(self, tmp_path):
        store = ResultCache(tmp_path)
        payload = {"schema": CACHE_SCHEMA,
                   "version": CACHE_FORMAT_VERSION + 1,
                   "kind": "warm", "w1": "x", "entries": []}
        store.warm_path("w2").write_bytes(pickle.dumps(payload))
        assert store.load_warm("w2") is None
        assert store.warm_path("w2").exists()


class TestManifest:
    def test_manifest_created(self, tmp_path):
        ResultCache(tmp_path / "c")
        manifest = json.loads((tmp_path / "c" / "cache.json").read_text())
        assert manifest == {"schema": CACHE_SCHEMA,
                            "version": CACHE_FORMAT_VERSION}

    def test_newer_directory_refused(self, tmp_path):
        (tmp_path / "cache.json").write_text(json.dumps(
            {"schema": CACHE_SCHEMA,
             "version": CACHE_FORMAT_VERSION + 1}))
        with pytest.raises(CacheError, match="newer"):
            ResultCache(tmp_path)

    def test_foreign_manifest_refused(self, tmp_path):
        (tmp_path / "cache.json").write_text('{"schema": "other/v9"}')
        with pytest.raises(CacheError):
            ResultCache(tmp_path)

    def test_invalid_json_manifest_refused(self, tmp_path):
        (tmp_path / "cache.json").write_text("{nope")
        with pytest.raises(CacheError, match="JSON"):
            ResultCache(tmp_path)

    def test_temp_files_swept_on_open(self, tmp_path):
        store = ResultCache(tmp_path)
        leftover = store._results_dir / ".tmp-crashed"
        leftover.write_bytes(b"partial")
        ResultCache(tmp_path)
        assert not leftover.exists()


class TestEviction:
    def test_lru_evicts_oldest_first(self, tmp_path):
        store = ResultCache(tmp_path)
        keys = [result_key(make_trace(seed=i), teg_original())
                for i in range(3)]
        for i, key in enumerate(keys):
            store.store(key, synthetic_result(seed=i))
        sizes = [store.path_for(k).stat().st_size for k in keys]
        # Age the entries deterministically, newest last.
        import os
        for i, key in enumerate(keys):
            os.utime(store.path_for(key), (1000.0 + i, 1000.0 + i))
        store.max_bytes = sizes[1] + sizes[2]
        store._evict()
        assert not store.path_for(keys[0]).exists()
        assert store.path_for(keys[1]).exists()
        assert store.path_for(keys[2]).exists()
        assert store.stats.evictions == 1

    def test_hit_refreshes_lru_rank(self, tmp_path):
        store = ResultCache(tmp_path)
        keys = [result_key(make_trace(seed=i), teg_original())
                for i in range(2)]
        for i, key in enumerate(keys):
            store.store(key, synthetic_result(seed=i))
        import os
        for i, key in enumerate(keys):
            os.utime(store.path_for(key), (1000.0 + i, 1000.0 + i))
        assert store.load(keys[0]) is not None  # refresh entry 0
        store.max_bytes = store.path_for(keys[0]).stat().st_size
        store._evict()
        assert store.path_for(keys[0]).exists()
        assert not store.path_for(keys[1]).exists()

    def test_cap_applies_at_store_time(self, tmp_path):
        store = ResultCache(tmp_path, max_bytes=1)
        key = result_key(make_trace(), teg_original())
        store.store(key, synthetic_result())
        # The just-stored entry itself is evicted: cap wins.
        assert store.load(key) is None
        assert store.stats.evictions >= 1

    def test_invalid_max_bytes(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path, max_bytes=0)


class TestEnvKnobs:
    def test_cache_enabled_words(self, monkeypatch):
        for word, expected in (("1", True), ("true", True),
                               ("ON", True), ("0", False),
                               ("off", False), ("", False)):
            monkeypatch.setenv("REPRO_CACHE", word)
            assert cache_enabled() is expected
        monkeypatch.delenv("REPRO_CACHE")
        assert cache_enabled() is False
        assert cache_enabled(True) is True

    def test_cache_enabled_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        with pytest.raises(ConfigurationError, match="REPRO_CACHE"):
            cache_enabled()

    def test_dir_resolution_order(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir() == default_cache_dir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir() == tmp_path / "env"
        assert resolve_cache_dir(tmp_path / "arg") == tmp_path / "arg"

    def test_dir_rejects_blank_and_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "   ")
        with pytest.raises(ConfigurationError, match="REPRO_CACHE_DIR"):
            resolve_cache_dir()
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ConfigurationError, match="not a directory"):
            resolve_cache_dir(blocker)

    def test_max_bytes_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        assert resolve_cache_max_bytes() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1048576")
        assert resolve_cache_max_bytes() == 1048576
        assert resolve_cache_max_bytes(2048) == 2048
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
        with pytest.raises(ConfigurationError,
                           match="REPRO_CACHE_MAX_BYTES"):
            resolve_cache_max_bytes()
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-3")
        with pytest.raises(ConfigurationError, match="positive"):
            resolve_cache_max_bytes()

    def test_resolve_result_cache_contract(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_result_cache(None) is None
        assert resolve_result_cache(False) is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        store = resolve_result_cache(None)
        assert store is not None
        assert store.directory == tmp_path / "env"
        # False still wins over the environment (worker sentinel).
        assert resolve_result_cache(False) is None
        explicit = resolve_result_cache(tmp_path / "arg")
        assert explicit.directory == tmp_path / "arg"
        assert resolve_result_cache(explicit) is explicit


class TestSimulateIntegration:
    def test_hit_is_bit_identical(self, tmp_path):
        trace = common_trace(n_servers=40, duration_s=30 * 300.0,
                             seed=5)
        cold = simulate(trace, teg_original(), result_cache=tmp_path)
        hit = simulate(trace, teg_original(), result_cache=tmp_path)
        assert not cold.metrics.result_cache_hit
        assert hit.metrics.result_cache_hit
        assert_identical(hit, cold)

    def test_trace_subclasses_never_cached(self, tmp_path):
        class OddTrace(WorkloadTrace):
            pass

        matrix = np.random.default_rng(2).random((20, 40))
        trace = OddTrace(matrix, 300.0, name="odd")
        simulate(trace, teg_original(), result_cache=tmp_path)
        again = simulate(trace, teg_original(), result_cache=tmp_path)
        assert not again.metrics.result_cache_hit

    def test_whole_runs_write_no_warm_snapshot(self, tmp_path):
        trace = common_trace(n_servers=40, duration_s=30 * 300.0,
                             seed=6)
        simulate(trace, teg_original(), result_cache=tmp_path)
        assert len(list((tmp_path / "results").glob("*.pkl"))) == 1
        assert not list((tmp_path / "warm").iterdir())


class TestShardedIntegration:
    SHARD_KW = dict(shard_servers=40, shard_steps=16)

    def test_sharded_round_trip(self, tmp_path):
        trace = make_trace(steps=32, servers=80)
        cold = simulate_sharded(trace, teg_original(),
                                result_cache=tmp_path / "cache",
                                **self.SHARD_KW)
        hit = simulate_sharded(trace, teg_original(),
                               result_cache=tmp_path / "cache",
                               **self.SHARD_KW)
        assert hit.metrics.result_cache_hit
        assert_identical(hit, cold)

    def test_shard_plan_is_part_of_identity(self, tmp_path):
        trace = make_trace(steps=32, servers=80)
        simulate_sharded(trace, teg_original(),
                         result_cache=tmp_path, **self.SHARD_KW)
        other = simulate_sharded(trace, teg_original(),
                                 result_cache=tmp_path,
                                 shard_servers=40, shard_steps=8)
        assert not other.metrics.result_cache_hit

    @pytest.mark.parametrize("change", ["renamed", "teg_module"])
    def test_prime_pass_warm_starts(self, change, tmp_path, monkeypatch):
        """W1 restores (renamed scheme) and W2 replays (another TEG
        module) skip the full-plane decide pass, bit-identically."""
        trace = make_trace(steps=32, servers=80, name="warm")
        config, module = teg_original(), None
        if change == "renamed":
            config = dataclasses.replace(config, name="Renamed")
        else:
            module = dataclasses.replace(default_server_module(),
                                         group_count=3)
        decided = []
        decide = shard_module._decide_phase

        def spy(*args, **kwargs):
            decided.append(args)
            return decide(*args, **kwargs)

        monkeypatch.setattr(shard_module, "_decide_phase", spy)
        simulate_sharded(trace, teg_original(), result_cache=tmp_path,
                         **self.SHARD_KW)
        assert len(decided) == 1
        warmed = simulate_sharded(trace, config, teg_module=module,
                                  result_cache=tmp_path, **self.SHARD_KW)
        assert not warmed.metrics.result_cache_hit
        assert len(decided) == 1
        cold = simulate_sharded(trace, config, teg_module=module,
                                result_cache=False, **self.SHARD_KW)
        assert warmed.records == cold.records
        assert warmed.violations == cold.violations

    def test_cache_composes_with_checkpoint_resume(self, tmp_path):
        """Partial checkpoint + cache miss -> resume, store, then hit."""
        trace = make_trace(steps=32, servers=80, name="compose")
        config = teg_original()
        golden = simulate_sharded(trace, config, **self.SHARD_KW)
        ckpt = tmp_path / "ckpt"
        cache = tmp_path / "cache"
        # Build a complete checkpoint, then delete one shard file to
        # model an interrupted run.
        simulate_sharded(trace, config, checkpoint=ckpt,
                         **self.SHARD_KW)
        shard_files = sorted(ckpt.rglob("shard-*.pkl"))
        assert shard_files
        shard_files[0].unlink()
        resumed = simulate_sharded(trace, config, checkpoint=ckpt,
                                   result_cache=cache, **self.SHARD_KW)
        assert not resumed.metrics.result_cache_hit
        assert resumed.metrics.shards_resumed == len(shard_files) - 1
        assert_identical(resumed, golden)
        # The resumed merge was stored: next run hits without touching
        # the checkpoint at all.
        hit = simulate_sharded(trace, config, checkpoint=ckpt,
                               result_cache=cache, **self.SHARD_KW)
        assert hit.metrics.result_cache_hit
        assert_identical(hit, golden)


class TestOneDigestPerCall:
    """A cache miss hashes its trace once, however many keys it derives."""

    @pytest.fixture
    def digests(self, monkeypatch):
        calls = []
        original = checkpoint_module.trace_digest

        def counted(trace):
            calls.append(trace.name)
            return original(trace)

        for module in (checkpoint_module, cache_module):
            monkeypatch.setattr(module, "trace_digest", counted)
        return calls

    def test_simulate_miss(self, tmp_path, digests):
        trace = common_trace(n_servers=40, duration_s=30 * 300.0,
                             seed=9)
        result = simulate(trace, teg_original(), result_cache=tmp_path)
        assert not result.metrics.result_cache_hit
        assert len(digests) == 1

    def test_batch_whole_jobs(self, tmp_path, digests):
        """Workers neither hash the trace nor open the cache."""
        trace = common_trace(n_servers=40, duration_s=30 * 300.0,
                             seed=9)
        jobs = [SimulationJob(trace, teg_original()),
                SimulationJob(trace, teg_loadbalance())]
        with BatchSimulationEngine(n_workers=2, prefer="thread",
                                   cache=tmp_path) as engine:
            cold = engine.run(jobs)
        assert cold.metrics.result_cache_misses == 2
        assert len(digests) == 1
        with BatchSimulationEngine(n_workers=2, prefer="thread",
                                   cache=tmp_path) as engine:
            hot = engine.run(jobs)
            assert engine.executor_launches == 0
        assert hot.metrics.result_cache_hits == 2

    def test_sharded_miss_with_checkpoint(self, tmp_path, digests):
        result = simulate_sharded(make_trace(steps=32, servers=80),
                                  teg_original(),
                                  result_cache=tmp_path / "cache",
                                  checkpoint=tmp_path / "ckpt",
                                  shard_servers=40, shard_steps=16)
        assert not result.metrics.result_cache_hit
        assert len(digests) == 1


class TestBatchIntegration:
    def jobs(self, seed=8):
        trace = common_trace(n_servers=40, duration_s=30 * 300.0,
                             seed=seed)
        return [SimulationJob(trace, teg_original()),
                SimulationJob(trace, teg_loadbalance())]

    def test_batch_cold_then_hot(self, tmp_path):
        cold = run_batch(self.jobs(), 2, prefer="thread",
                         cache=tmp_path)
        assert cold.metrics.result_cache_hits == 0
        assert cold.metrics.result_cache_misses == 2
        hot = run_batch(self.jobs(), 2, prefer="thread",
                        cache=tmp_path)
        assert hot.metrics.result_cache_hits == 2
        assert hot.metrics.result_cache_misses == 0
        for job in self.jobs():
            assert_identical(hot.get(job.config.name, job.trace.name),
                             cold.get(job.config.name, job.trace.name))

    def test_batch_dedup_identical_jobs(self, tmp_path):
        jobs = self.jobs() + [self.jobs()[0]]
        trace = jobs[0].trace
        jobs.append(SimulationJob(trace, teg_original()))
        batch = run_batch(jobs, 2, prefer="thread")
        assert batch.ok
        assert batch.metrics.jobs_deduped == 2
        assert len(batch.results) == len(jobs)
        reference = batch.results[0]
        assert batch.results[2] is reference
        assert batch.results[3] is reference

    def test_dedup_spares_trace_subclasses(self):
        class OddTrace(WorkloadTrace):
            pass

        matrix = np.random.default_rng(4).random((20, 40))
        a = OddTrace(matrix, 300.0, name="odd")
        b = OddTrace(matrix.copy(), 300.0, name="odd")
        batch = run_batch([SimulationJob(a, teg_original()),
                           SimulationJob(b, teg_original())], 1)
        # Same content, but distinct subclass instances must both run.
        assert batch.metrics.jobs_deduped == 0

    def test_batch_telemetry_counters_and_summary(self, tmp_path):
        run_batch(self.jobs(), 1, cache=tmp_path)
        hot = run_batch(self.jobs(), 1, cache=tmp_path,
                        telemetry=True)
        counters = hot.telemetry.registry.snapshot().counters
        assert counters["engine.cache.hit"] == 2
        assert counters.get("engine.cache.miss", 0) == 0
        summary = hot.metrics.summary()
        assert summary["result_cache_hits"] == 2
        assert summary["result_cache_misses"] == 0

    def test_prometheus_export_names(self, tmp_path):
        from repro.obs import prometheus_text

        run_batch(self.jobs(), 1, cache=tmp_path)
        hot = run_batch(self.jobs(), 1, cache=tmp_path,
                        telemetry=True)
        text = prometheus_text(hot.telemetry.registry.snapshot())
        # Cache counters carry (scheme, trace) labels; both hits here
        # come from the same two-scheme job pair.
        assert 'repro_engine_cache_hit_total{scheme="' in text
        assert "# TYPE repro_engine_cache_hit_total counter" in text
        hit_lines = [line for line in text.splitlines()
                     if line.startswith("repro_engine_cache_hit_total{")]
        assert sum(float(line.rsplit(" ", 1)[1])
                   for line in hit_lines) == 2

    def test_batch_telemetry_counts_misses(self, tmp_path):
        cold = run_batch(self.jobs(), 1, cache=tmp_path,
                         telemetry=True)
        counters = cold.telemetry.registry.snapshot().counters
        assert counters["engine.cache.miss"] == 2
        assert counters.get("engine.cache.hit", 0) == 0

    def test_engine_reuse_across_runs(self, tmp_path):
        engine = BatchSimulationEngine(n_workers=1, cache=tmp_path)
        engine.run(self.jobs())
        hot = engine.run(self.jobs())
        assert hot.metrics.result_cache_hits == 2

    def test_sharded_batch_pre_check(self, tmp_path):
        trace = drastic_trace(n_servers=80, duration_s=40 * 300.0,
                              seed=9)
        jobs = [SimulationJob(trace, teg_original())]
        kwargs = dict(n_workers=2, prefer="thread", shard=True,
                      shard_servers=40, shard_steps=20,
                      cache=tmp_path)
        cold = run_batch(jobs, **kwargs)
        assert cold.metrics.shards > 0
        assert cold.metrics.result_cache_misses == 1
        hot = run_batch(jobs, **kwargs)
        assert hot.metrics.result_cache_hits == 1
        assert hot.metrics.shards == 0
        assert_identical(hot.results[0], cold.results[0])


class TestConcurrentEngines:
    """Two engines sharing one cache directory (ISSUE 9 satellite).

    The dead-pid temp sweep and the LRU hit-refresh were only ever
    exercised through a single engine; here two
    ``BatchSimulationEngine``s interleave over one directory while
    eviction runs between (and under) them.
    """

    def jobs(self, seed=8):
        trace = common_trace(n_servers=40, duration_s=30 * 300.0,
                             seed=seed)
        return [SimulationJob(trace, teg_original()),
                SimulationJob(trace, teg_loadbalance())]

    def two_engines(self, tmp_path):
        return (BatchSimulationEngine(n_workers=1,
                                      cache=ResultCache(tmp_path)),
                BatchSimulationEngine(n_workers=1,
                                      cache=ResultCache(tmp_path)))

    def test_second_engine_hits_first_engines_entries(self, tmp_path):
        a, b = self.two_engines(tmp_path)
        cold = a.run(self.jobs())
        hot = b.run(self.jobs())
        assert cold.metrics.result_cache_misses == 2
        assert hot.metrics.result_cache_hits == 2
        for job in self.jobs():
            assert_identical(hot.get(job.config.name, job.trace.name),
                             cold.get(job.config.name, job.trace.name))

    def test_peer_eviction_under_a_live_engine(self, tmp_path):
        a, b = self.two_engines(tmp_path)
        cold = a.run(self.jobs())
        # B evicts everything A just stored, out from under A's
        # still-open store.
        b.result_cache.max_bytes = 1
        b.result_cache._evict()
        # Both result entries go (warm-start snapshots count too, so
        # the tally can exceed two).
        assert b.result_cache.stats.evictions >= 2
        assert not list(b.result_cache._results_dir.glob("*.pkl"))
        b.result_cache.max_bytes = None
        again = a.run(self.jobs())
        assert again.metrics.result_cache_hits == 0
        assert again.metrics.result_cache_misses == 2
        for job in self.jobs():
            assert_identical(again.get(job.config.name, job.trace.name),
                             cold.get(job.config.name, job.trace.name))

    def test_peer_hit_refreshes_lru_rank_across_engines(self, tmp_path):
        import os

        a, b = self.two_engines(tmp_path)
        a.run(self.jobs())
        store_a, store_b = a.result_cache, b.result_cache
        entries = sorted(store_a._results_dir.glob("*.pkl"))
        assert len(entries) == 2
        for i, path in enumerate(entries):
            os.utime(path, (1000.0 + i, 1000.0 + i))
        # B reruns only the first job: a pure hit, which must bump
        # that entry's LRU rank for *every* engine on the directory.
        hot = b.run(self.jobs()[:1])
        assert hot.metrics.result_cache_hits == 1
        refreshed = {p for p in entries
                     if p.stat().st_mtime > 2000.0}
        assert len(refreshed) == 1
        (stale,) = set(entries) - refreshed
        # Shrink the cap by exactly the stale entry's size: the LRU
        # sweep (which also covers warm snapshots) must pick the entry
        # B did *not* just read, even though A never touched either.
        tracked = [p for folder in (store_a._results_dir,
                                    store_a._warm_dir)
                   for p in folder.iterdir()]
        store_a.max_bytes = (sum(p.stat().st_size for p in tracked)
                             - stale.stat().st_size)
        store_a._evict()
        assert store_a.stats.evictions == 1
        assert not stale.exists()
        assert refreshed.pop().exists()

    def test_dead_writer_temp_swept_by_next_engine(self, tmp_path):
        import os
        import subprocess

        a, _ = self.two_engines(tmp_path)
        cold = a.run(self.jobs())
        results_dir = a.result_cache._results_dir
        probe = subprocess.Popen(["sleep", "0"])
        probe.wait()
        dead = results_dir / f"entry.npz.tmp-{probe.pid}-140001-0"
        dead.write_bytes(b"partial write of a crashed engine")
        ours = results_dir / f"entry.npz.tmp-{os.getpid()}-140002-0"
        ours.write_bytes(b"another of our threads, mid-write")
        init = results_dir / "entry.npz.tmp-1-140003-0"
        init.write_bytes(b"a live foreign writer")
        # A fresh engine opening the directory sweeps only the dead
        # writer's leftover; live writers (us, pid 1) keep theirs.
        c = BatchSimulationEngine(n_workers=1,
                                  cache=ResultCache(tmp_path))
        assert not dead.exists()
        assert ours.exists()
        assert init.exists()
        ours.unlink()
        init.unlink()
        hot = c.run(self.jobs())
        assert hot.metrics.result_cache_hits == 2
        for job in self.jobs():
            assert_identical(hot.get(job.config.name, job.trace.name),
                             cold.get(job.config.name, job.trace.name))

    def test_interleaved_engines_with_tiny_cap_stay_correct(self, tmp_path):
        # Both stores evict aggressively (the cap fits at most one
        # entry); every run must still return bit-identical results —
        # a peer's eviction can cost a hit, never correctness.
        reference = {}
        for job in self.jobs():
            result = simulate(job.trace, job.config)
            reference[job.config.name] = result
        probe = ResultCache(tmp_path / "probe")
        key = result_key(job.trace, job.config)
        probe.store(key, result)
        # One stored entry fits under the cap, two do not.
        cap = probe.path_for(key).stat().st_size * 3 // 2
        a = BatchSimulationEngine(
            n_workers=1, cache=ResultCache(tmp_path, max_bytes=cap))
        b = BatchSimulationEngine(
            n_workers=1, cache=ResultCache(tmp_path, max_bytes=cap))
        for engine in (a, b, a, b):
            batch = engine.run(self.jobs())
            assert batch.ok
            for job in self.jobs():
                assert_identical(
                    batch.get(job.config.name, job.trace.name),
                    reference[job.config.name])
        assert a.result_cache.stats.evictions \
            + b.result_cache.stats.evictions > 0
