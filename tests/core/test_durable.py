"""The entry codec and temp sweeper the stores share (repro._durable).

The result cache and the checkpoint store keep every file in one
format: a pickled payload inside a header naming schema, format version
and content key, next to the payload's SHA-256.  Covered here: the
codec in isolation, a flipped payload bit in each of the five entry
kinds (result entry, warm snapshot, kernel shard, fault window,
whole-job ``result.pkl``), files in the formats that preceded the codec,
a checkpoint file of another run, and the pid-aware temp sweep in both
kinds of directory.
"""

import json
import os
import pickle
import subprocess

import pytest

from repro import obs
from repro._durable import CorruptEntry, NewerEntry, read_entry, write_entry
from repro.core.cache import (
    CACHE_FORMAT_VERSION,
    CACHE_SCHEMA,
    ResultCache,
    result_key,
    warm_keys,
)
from repro.core.checkpoint import CheckpointStore, run_key
from repro.core.config import teg_loadbalance, teg_original, teg_static
from repro.core.engine import SimulationJob, run_batch, simulate
from repro.core.shard import simulate_sharded
from repro.faults import FaultSchedule
from repro.workloads.synthetic import common_trace

SCHEMA = "tests/entry/v1"

FAULTS = {"seed": 5, "faults": [
    {"kind": "sensor_noise", "magnitude": 0.15, "start_s": 0},
    {"kind": "pump_stall", "circulation": 1, "start_s": 3600,
     "duration_s": 1800}]}


def trace(seed=12, steps=48):
    return common_trace(n_servers=40, duration_s=steps * 300.0,
                        interval_s=300.0, seed=seed)


def flip_payload_byte(path):
    """Flip the low bit of the payload's middle byte, header untouched."""
    raw = bytearray(path.read_bytes())
    body = pickle.loads(bytes(raw))["payload"]
    at = bytes(raw).index(body) + len(body) // 2
    raw[at] ^= 0x01
    path.write_bytes(bytes(raw))


def payload_bytes(path):
    """The pickled payload of an entry: the raw format before the codec."""
    return pickle.loads(path.read_bytes())["payload"]


def counter(telemetry, name):
    return telemetry.registry.snapshot().counters.get(name, 0)


def assert_same_run(a, b):
    assert a.records == b.records
    assert a.violations == b.violations


class TestEntryCodec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "entry.pkl"
        size = write_entry(path, SCHEMA, 2, {"k": 1}, {"payload": [1, 2.5]})
        assert size == path.stat().st_size
        assert read_entry(path, SCHEMA, 2, {"k": 1}) == {"payload": [1, 2.5]}

    def test_missing_older_and_foreign_key_are_misses_and_kept(self,
                                                               tmp_path):
        path = tmp_path / "entry.pkl"
        assert read_entry(path, SCHEMA, 2, "key") is None
        write_entry(path, SCHEMA, 1, "key", "old")
        assert read_entry(path, SCHEMA, 2, "key") is None
        write_entry(path, SCHEMA, 2, "other", "theirs")
        assert read_entry(path, SCHEMA, 2, "key") is None
        assert path.exists()

    def test_newer_format_raises_and_is_kept(self, tmp_path):
        path = tmp_path / "entry.pkl"
        write_entry(path, SCHEMA, 3, "key", "new")
        with pytest.raises(NewerEntry, match="newer"):
            read_entry(path, SCHEMA, 2, "key")
        assert path.exists()

    @pytest.mark.parametrize("damage", ["flip", "truncate", "schema",
                                        "raw"])
    def test_corrupt_entry_raises_and_is_unlinked(self, tmp_path, damage):
        path = tmp_path / "entry.pkl"
        write_entry(path, SCHEMA, 2, "key", list(range(100)))
        if damage == "flip":
            flip_payload_byte(path)
        elif damage == "truncate":
            path.write_bytes(path.read_bytes()[:40])
        elif damage == "schema":
            write_entry(path, "someone/else", 2, "key", "x")
        else:
            path.write_bytes(pickle.dumps({"outcome": "raw"}))
        with pytest.raises(CorruptEntry):
            read_entry(path, SCHEMA, 2, "key")
        assert not path.exists()


class TestSharedSweeper:
    """One pid-aware rule for cache and checkpoint directories."""

    @pytest.fixture
    def pids(self):
        live = subprocess.Popen(["sleep", "60"])
        dead = subprocess.Popen(["sleep", "0"])
        dead.wait()
        yield live.pid, dead.pid
        live.kill()
        live.wait()

    def plant(self, folder, pids):
        live, dead = pids
        kept = folder / f"entry.pkl.tmp-{live}-140001-0"
        swept = folder / f"entry.pkl.tmp-{dead}-140002-0"
        for path in (kept, swept):
            path.write_bytes(b"partial write")
        return kept, swept

    def test_cache_directory(self, tmp_path, pids):
        ResultCache(tmp_path)
        kept, swept = self.plant(tmp_path / "results", pids)
        ResultCache(tmp_path)
        assert kept.exists() and not swept.exists()

    def test_checkpoint_directory(self, tmp_path, pids):
        key = run_key(trace(), teg_original())
        CheckpointStore(tmp_path, key, n_shards=2)
        kept, swept = self.plant(tmp_path / "shards", pids)
        CheckpointStore(tmp_path, key, n_shards=2)
        assert kept.exists() and not swept.exists()


class TestFlippedBitIsRecomputed:
    """One flipped payload byte in each entry kind: never served."""

    def test_result_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = simulate(trace(), teg_original(), result_cache=cache)
        key = result_key(trace(), teg_original())
        flip_payload_byte(cache.path_for(key))
        again = simulate(trace(), teg_original(), result_cache=cache)
        assert not again.metrics.result_cache_hit
        assert_same_run(again, cold)
        assert cache.stats.corrupt == 1
        assert cache.load(key) is not None  # recomputed and stored again

    def test_warm_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path)

        def run():
            return simulate_sharded(trace(), teg_original(),
                                    shard_servers=20, shard_steps=12,
                                    result_cache=cache)

        cold = run()
        (warm_file,) = (tmp_path / "warm").iterdir()
        for entry in (tmp_path / "results").iterdir():
            entry.unlink()
        flip_payload_byte(warm_file)
        telemetry = obs.Telemetry()
        with obs.session(telemetry):
            again = run()
        assert_same_run(again, cold)
        assert cache.stats.corrupt == 1
        assert counter(telemetry, "engine.cache.warm_hit") == 0
        assert (again.metrics.cache_hits, again.metrics.cache_misses) \
            == (cold.metrics.cache_hits, cold.metrics.cache_misses)

    def sharded_with_one_flip(self, tmp_path, config, faults=None):
        def run():
            return simulate_sharded(trace(), config, faults=faults,
                                    shard_servers=20, shard_steps=12,
                                    checkpoint=tmp_path)

        whole = run()
        shards = sorted((tmp_path / "shards").iterdir())
        flip_payload_byte(shards[len(shards) // 2])
        telemetry = obs.Telemetry()
        with obs.session(telemetry):
            resumed = run()
        assert_same_run(resumed, whole)
        assert resumed.metrics.shards_resumed == len(shards) - 1
        assert counter(telemetry, "engine.checkpoint.corrupt") == 1
        return whole, resumed

    def test_kernel_shard(self, tmp_path):
        self.sharded_with_one_flip(tmp_path, teg_original())

    def test_fault_window(self, tmp_path):
        whole, resumed = self.sharded_with_one_flip(
            tmp_path, teg_static(), FaultSchedule.from_dict(FAULTS))
        assert (resumed.metrics.cache_hits, resumed.metrics.cache_misses) \
            == (whole.metrics.cache_hits, whole.metrics.cache_misses)

    def test_whole_job_result(self, tmp_path):
        jobs = [SimulationJob(trace(), teg_original())]

        def run():
            return run_batch(jobs, prefer="serial", shard=False,
                             checkpoint=tmp_path, telemetry=True)

        cold = run()
        (result_file,) = tmp_path.rglob("result.pkl")
        flip_payload_byte(result_file)
        again = run()
        assert again.metrics.jobs_resumed == 0
        assert_same_run(again.results[0], cold.results[0])
        counters = again.telemetry.registry.snapshot().counters
        assert counters["engine.checkpoint.corrupt"] == 1


class TestEarlierFormats:
    """Files written before the codec are recomputed, never misread."""

    def test_format_2_result_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = result_key(trace(), teg_original())
        # An older entry under this key holding another run's result.
        stale = simulate(trace(), teg_loadbalance())
        cache.path_for(key).write_bytes(pickle.dumps(
            {"schema": CACHE_SCHEMA, "version": 2, "key": key.to_dict(),
             "result": stale}))
        assert cache.load(key) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        computed = simulate(trace(), teg_original(), result_cache=cache)
        assert_same_run(computed, simulate(trace(), teg_original()))
        assert_same_run(cache.load(key), computed)  # overwritten

    def test_format_2_warm_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = teg_original()
        _, w2 = warm_keys(trace(), config, policy_resolution=0.005)
        cache.warm_path(w2).write_bytes(pickle.dumps(
            {"schema": CACHE_SCHEMA, "version": 2, "kind": "warm",
             "w1": "stale", "entries": [(0, "not a decision")]}))
        assert cache.load_warm(w2) is None
        assert cache.warm_path(w2).exists()
        sharded = simulate_sharded(trace(), config, shard_servers=20,
                                   shard_steps=12, result_cache=cache)
        assert_same_run(sharded, simulate(trace(), config))
        assert cache.load_warm(w2)["entries"]  # overwritten

    def test_older_directory_manifest_is_upgraded(self, tmp_path):
        (tmp_path / "cache.json").write_text(json.dumps(
            {"schema": CACHE_SCHEMA, "version": CACHE_FORMAT_VERSION - 1}))
        ResultCache(tmp_path)
        manifest = json.loads((tmp_path / "cache.json").read_text())
        assert manifest["version"] == CACHE_FORMAT_VERSION

    @pytest.mark.parametrize("older_manifest", [True, False])
    def test_raw_pickle_shard_files(self, tmp_path, older_manifest):
        def run():
            return simulate_sharded(trace(), teg_original(),
                                    shard_servers=20, shard_steps=12,
                                    checkpoint=tmp_path)

        whole = run()
        for path in (tmp_path / "shards").iterdir():
            path.write_bytes(payload_bytes(path))  # {"outcome": ...}
        if older_manifest:
            manifest_path = tmp_path / "checkpoint.json"
            manifest = json.loads(manifest_path.read_text())
            manifest.update(version=1, kind="kernel")
            manifest_path.write_text(json.dumps(manifest))
        resumed = run()
        assert resumed.metrics.shards_resumed == 0
        assert_same_run(resumed, whole)

    def test_raw_result_pickle(self, tmp_path):
        jobs = [SimulationJob(trace(), teg_original())]

        def run():
            return run_batch(jobs, prefer="serial", shard=False,
                             checkpoint=tmp_path)

        cold = run()
        (result_file,) = tmp_path.rglob("result.pkl")
        # The raw format pickled the result alone; plant another run's.
        result_file.write_bytes(pickle.dumps(
            simulate(trace(), teg_loadbalance())))
        again = run()
        assert again.metrics.jobs_resumed == 0
        assert_same_run(again.results[0], cold.results[0])

    def test_checkpoint_file_of_another_run(self, tmp_path):
        def run(seed):
            return simulate_sharded(trace(seed=seed), teg_original(),
                                    shard_servers=20, shard_steps=12,
                                    checkpoint=tmp_path / str(seed))

        run(1)
        mine = run(2)
        foreign = tmp_path / "1" / "shards" / "shard-00000.pkl"
        os.replace(foreign, tmp_path / "2" / "shards" / "shard-00000.pkl")
        resumed = run(2)
        assert resumed.metrics.shards_resumed == 7
        assert_same_run(resumed, mine)
