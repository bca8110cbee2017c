"""Unit tests for the durable checkpoint store (repro.core.checkpoint).

Covers the durability contract in isolation: atomic write-then-rename,
content-keyed manifests, format versioning, corruption tolerance and
the wipe/refuse semantics of the ``resume`` flag.  End-to-end
kill-and-resume behaviour lives in ``test_checkpoint_resume.py``.
"""

import hashlib
import json
import pickle
import subprocess
import threading

import numpy as np
import pytest

from repro.core import checkpoint
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    RunKey,
    fingerprint,
    run_key,
    trace_digest,
)
from repro.core.config import SimulationConfig, teg_original, teg_static
from repro.core.shard import plan_shards, simulate_sharded
from repro.errors import CheckpointError
from repro.faults import FaultSchedule
from repro.workloads.synthetic import common_trace
from repro.workloads.trace import WorkloadTrace


def make_trace(seed=0, steps=24, servers=40, name="trace"):
    rng = np.random.default_rng(seed)
    return WorkloadTrace(rng.random((steps, servers)), 300.0, name=name)


def make_key(trace=None, config=None, specs=None):
    trace = trace if trace is not None else make_trace()
    config = config if config is not None else teg_original()
    return run_key(trace, config, specs=specs)


def reference_digest(trace):
    """The two-level trace digest as a plain serial loop over leaves."""
    matrix = np.ascontiguousarray(trace.utilisation)
    rows = max(1, checkpoint.DIGEST_LEAF_BYTES
               // (matrix.shape[1] * matrix.itemsize))
    root = hashlib.sha256(repr((matrix.shape, str(matrix.dtype),
                                trace.interval_s)).encode())
    for start in range(0, matrix.shape[0], rows):
        leaf = matrix[start:start + rows].tobytes()
        root.update(hashlib.sha256(leaf).digest())
    return root.hexdigest()[:32]


@pytest.fixture
def small_leaves(monkeypatch):
    """Leaves of three 40-server rows, so small planes span many."""
    monkeypatch.setattr(checkpoint, "DIGEST_LEAF_BYTES", 3 * 40 * 8)


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(checkpoint, "_usable_cpus", lambda: n)


class TestDigests:
    def test_trace_digest_is_content_not_name(self):
        a = make_trace(seed=1, name="one")
        b = make_trace(seed=1, name="two")
        c = make_trace(seed=2, name="one")
        assert trace_digest(a) == trace_digest(b)
        assert trace_digest(a) != trace_digest(c)

    def test_trace_digest_sees_interval(self):
        matrix = np.random.default_rng(3).random((10, 8))
        a = WorkloadTrace(matrix, 300.0, name="t")
        b = WorkloadTrace(matrix.copy(), 600.0, name="t")
        assert trace_digest(a) != trace_digest(b)

    def test_trace_digest_matches_serial_reference(self, small_leaves):
        trace = make_trace(steps=25)  # nine leaves, the last one ragged
        assert trace_digest(trace) == reference_digest(trace)

    def test_trace_digest_independent_of_thread_count(self, small_leaves,
                                                       monkeypatch):
        trace = make_trace(steps=25)
        usable_cpus(monkeypatch, 1)
        serial = trace_digest(trace)
        usable_cpus(monkeypatch, 2)
        assert trace_digest(trace) == serial == reference_digest(trace)

    def test_window_tile_digests_like_its_copy(self, small_leaves,
                                               monkeypatch):
        usable_cpus(monkeypatch, 2)
        tile = make_trace(steps=25).window(2, 23, 0, 30)
        assert not tile.utilisation.flags.c_contiguous
        copy = WorkloadTrace(np.array(tile.utilisation), 300.0)
        assert trace_digest(tile) == trace_digest(copy)

    def test_last_leaf_change_changes_digest(self, small_leaves):
        matrix = np.random.default_rng(4).random((25, 40))
        edited = matrix.copy()
        edited[-1, -1] = 0.5 * edited[-1, -1]
        assert (trace_digest(WorkloadTrace(matrix, 300.0))
                != trace_digest(WorkloadTrace(edited, 300.0)))

    def test_no_digest_thread_outlives_the_call(self, small_leaves,
                                                monkeypatch):
        usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        trace_digest(make_trace(steps=25))
        assert threading.active_count() == before

    def test_one_leaf_plane_starts_no_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-leaf plane started a pool")

        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(checkpoint, "ThreadPoolExecutor", no_pool)
        trace = make_trace()
        assert trace_digest(trace) == reference_digest(trace)

    def test_fingerprint_stable_and_discriminating(self):
        config = teg_original()
        assert fingerprint(config) == fingerprint(teg_original())
        other = SimulationConfig(name="TEG_Original",
                                 safe_temp_c=59.5)
        assert fingerprint(config) != fingerprint(other)

    def test_run_key_depends_on_shard_plan(self):
        trace = make_trace()
        key_a = make_key(trace=trace,
                         specs=plan_shards(24, 40, 20, shard_steps=12))
        key_b = make_key(trace=trace,
                         specs=plan_shards(24, 40, 20, shard_steps=8))
        assert key_a != key_b
        assert key_a.short != key_b.short

    def test_run_key_accepts_precomputed_trace_hash(self):
        trace = make_trace()
        config = teg_original()
        direct = run_key(trace, config)
        cached = run_key(trace, config,
                         trace_hash=trace_digest(trace))
        assert direct == cached

    def test_malformed_key_dict_raises(self):
        with pytest.raises(CheckpointError):
            RunKey.from_dict({"scheme": "x"})


class TestStoreLifecycle:
    def test_fresh_directory_writes_manifest(self, tmp_path):
        key = make_key()
        store = CheckpointStore(tmp_path / "ckpt", key, n_shards=4)
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["schema"] == CHECKPOINT_SCHEMA
        assert manifest["version"] == CHECKPOINT_FORMAT_VERSION
        assert manifest["key"] == key.to_dict()
        assert store.completed() == []

    def test_key_mismatch_refuses_resume(self, tmp_path):
        directory = tmp_path / "ckpt"
        CheckpointStore(directory, make_key(trace=make_trace(seed=1)),
                        n_shards=4)
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointStore(directory,
                            make_key(trace=make_trace(seed=2)),
                            n_shards=4)

    def test_key_mismatch_with_resume_false_wipes(self, tmp_path):
        directory = tmp_path / "ckpt"
        old = CheckpointStore(directory,
                              make_key(trace=make_trace(seed=1)),
                              n_shards=4)
        old.save_shard(0, {"fake": "outcome"})
        new_key = make_key(trace=make_trace(seed=2))
        store = CheckpointStore(directory, new_key, n_shards=4,
                                resume=False)
        assert store.completed() == []
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["key"] == new_key.to_dict()

    def test_matching_key_resume_false_starts_over(self, tmp_path):
        directory = tmp_path / "ckpt"
        key = make_key()
        CheckpointStore(directory, key, n_shards=4).save_shard(2, "x")
        store = CheckpointStore(directory, key, n_shards=4,
                                resume=False)
        assert store.completed() == []

    def test_newer_format_version_refused(self, tmp_path):
        directory = tmp_path / "ckpt"
        key = make_key()
        store = CheckpointStore(directory, key, n_shards=1)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["version"] = CHECKPOINT_FORMAT_VERSION + 1
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="newer"):
            CheckpointStore(directory, key, n_shards=1)

    def test_alien_schema_refused(self, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / "checkpoint.json").write_text(
            json.dumps({"schema": "someone/else", "version": 1}))
        with pytest.raises(CheckpointError, match="schema"):
            CheckpointStore(directory, make_key(), n_shards=1)

    def test_garbage_manifest_refused(self, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / "checkpoint.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="JSON"):
            CheckpointStore(directory, make_key(), n_shards=1)

    def test_stale_temp_files_swept(self, tmp_path):
        directory = tmp_path / "ckpt"
        key = make_key()
        CheckpointStore(directory, key, n_shards=2)
        probe = subprocess.Popen(["sleep", "0"])
        probe.wait()
        leftover = (directory / "shards"
                    / f"shard-00001.pkl.tmp-{probe.pid}-140001-0")
        leftover.write_bytes(b"half-written")
        store = CheckpointStore(directory, key, n_shards=2)
        assert not leftover.exists()
        assert store.completed() == []


class TestShardRoundTrip:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", make_key(),
                                n_shards=4)
        payload = {"anything": ["picklable", 1, 2.5]}
        store.save_shard(1, payload)
        assert store.completed() == [1]
        saved = store.load_shard(1)
        assert saved == {"outcome": payload}
        assert store.loaded == {1}
        assert store.saved == {1}

    def test_missing_shard_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", make_key(),
                                n_shards=4)
        assert store.load_shard(3) is None
        assert store.loaded == set()

    def test_corrupt_shard_discarded_and_recomputable(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", make_key(),
                                n_shards=4)
        store.save_shard(0, "good")
        path = store._shard_path(0)
        path.write_bytes(path.read_bytes()[:10])  # torn write
        assert store.load_shard(0) is None
        assert not path.exists()

    def test_wrong_payload_shape_discarded(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", make_key(),
                                n_shards=4)
        store._shard_path(2).write_bytes(
            pickle.dumps(["not", "a", "dict"]))
        assert store.load_shard(2) is None

    def test_out_of_range_files_ignored_by_completed(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", make_key(),
                                n_shards=2)
        store.save_shard(0, "ok")
        (store._shards_dir / "shard-00099.pkl").write_bytes(b"x")
        (store._shards_dir / "shard-junk.pkl").write_bytes(b"x")
        assert store.completed() == [0]


class TestWholeJobResults:
    def test_result_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", make_key(),
                                n_shards=0)
        assert store.load_result() is None
        store.save_result({"pretend": "result"})
        assert store.load_result() == {"pretend": "result"}

    def test_corrupt_result_discarded(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", make_key(),
                                n_shards=0)
        store.save_result({"pretend": "result"})
        (store.directory / "result.pkl").write_bytes(b"\x80garbage")
        assert store.load_result() is None
        assert not (store.directory / "result.pkl").exists()


class TestFaultWindowHandoff:
    """A saved fault window carries its records and the policy alone."""

    FAULTS = {"seed": 5, "faults": [
        {"kind": "sensor_noise", "magnitude": 0.15, "start_s": 0},
        {"kind": "pump_stall", "circulation": 1, "start_s": 21600,
         "duration_s": 7200}]}

    def run(self, trace, ckpt):
        return simulate_sharded(
            trace, teg_static(),
            faults=FaultSchedule.from_dict(self.FAULTS),
            shard_steps=12, checkpoint=ckpt)

    def test_static_window_files_do_not_grow_and_resume(self, tmp_path):
        # Noisy readings give a policy without a memo a new exact
        # binding at nearly every cell; nothing of them may pile up
        # from one window file to the next.
        trace = common_trace(n_servers=40, duration_s=144 * 300.0,
                             interval_s=300.0, seed=12)
        ckpt = tmp_path / "ckpt"
        whole = self.run(trace, ckpt)
        windows = sorted(ckpt.rglob("shard-*.pkl"))
        assert len(windows) == 12
        sizes = [path.stat().st_size for path in windows]
        assert max(sizes) - min(sizes) < 0.2 * min(sizes), sizes
        for path in windows[6:]:
            path.unlink()
        resumed = self.run(trace, ckpt)
        assert resumed.metrics.shards_resumed == 6
        assert resumed.records == whole.records
        assert resumed.violations == whole.violations
        assert (resumed.metrics.cache_hits, resumed.metrics.cache_misses) \
            == (whole.metrics.cache_hits, whole.metrics.cache_misses)
