"""Self-healing shard execution: retries, janitor, audit.

Covers the failure-containment half of the robustness work:

* shard failures surface as :class:`ShardExecutionError` carrying the
  tile's coordinates, attempt number and worker pid (never a bare
  exception), and survive pickling across process boundaries;
* transient shard failures are retried with backoff and recorded as
  ``shard.retry`` telemetry events and counted in the job's and the
  batch's retry totals; exhausted shards fail the job with the
  structured error;
* the shared-memory janitor reaps segments orphaned by dead processes
  and releases live segments on SIGTERM;
* the post-merge auditor refuses structurally corrupt merged results.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.core.shard as shard_mod
from repro.core.config import teg_original
from repro.core.engine import (
    SEGMENT_PREFIX,
    SimulationJob,
    reap_orphaned_segments,
    run_batch,
    simulate,
)
from repro.core.shard import (
    audit_merged_result,
    plan_shards,
    run_shard,
    simulate_sharded,
)
from repro.core.simulator import DatacenterSimulator
from repro.errors import (
    ConfigurationError,
    ResultIntegrityError,
    ShardExecutionError,
)
from repro.workloads.trace import WorkloadTrace

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def make_trace(steps=48, servers=40, seed=7, name="fleet"):
    rng = np.random.default_rng(seed)
    return WorkloadTrace(rng.random((steps, servers)), 300.0, name=name)


def assert_identical(a, b):
    assert a.records == b.records
    assert a.violations == b.violations
    assert a.average_generation_w == b.average_generation_w


class TestShardErrorWrapping:
    """run_shard never lets a failure surface as a bare exception."""

    def failing_call(self):
        trace = make_trace(steps=12)
        spec = plan_shards(12, 40, 20, shard_servers=20,
                           shard_steps=12)[1]
        tile = trace.window(spec.step_start, spec.step_stop,
                            spec.server_start, spec.server_stop)
        # A teg_module with no TEG interface at all: the kernel blows
        # up with an AttributeError deep inside phase 1.
        return tile, spec, object()

    def test_wraps_with_coordinates_and_pid(self):
        tile, spec, broken = self.failing_call()
        with pytest.raises(ShardExecutionError) as excinfo:
            run_shard(tile, spec, teg_original(), teg_module=broken)
        err = excinfo.value
        assert err.shard_index == spec.index
        assert err.step_start == spec.step_start
        assert err.step_stop == spec.step_stop
        assert err.server_start == spec.server_start
        assert err.server_stop == spec.server_stop
        assert err.worker_pid == os.getpid()
        assert err.__cause__ is not None
        assert type(err.__cause__).__name__ in str(err)

    def test_survives_pickling(self):
        tile, spec, broken = self.failing_call()
        with pytest.raises(ShardExecutionError) as excinfo:
            run_shard(tile, spec, teg_original(), teg_module=broken)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(clone, ShardExecutionError)
        assert clone.context() == excinfo.value.context()
        assert str(clone) == str(excinfo.value)

    def test_context_is_flat_and_complete(self):
        err = ShardExecutionError(
            "boom", shard_index=3, step_start=0, step_stop=8,
            server_start=20, server_stop=40, attempt=2, worker_pid=123)
        assert err.context() == {
            "shard_index": 3, "step_start": 0, "step_stop": 8,
            "server_start": 20, "server_stop": 40, "attempt": 2,
            "worker_pid": 123}

    def test_configuration_errors_pass_through_unwrapped(self):
        trace = make_trace(steps=12)
        spec = plan_shards(12, 40, 20, shard_steps=6)[0]
        wrong_tile = trace.window(0, 3, 0, 40)  # too few steps
        with pytest.raises(ConfigurationError):
            run_shard(wrong_tile, spec, teg_original())


class FlakyRunShard:
    """Delegate to the real run_shard, failing the first N calls."""

    def __init__(self, failures, error=ValueError("transient")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return run_shard(*args, **kwargs)


@pytest.mark.usefixtures("no_backoff")
class TestShardRetries:
    SHARD_KW = dict(shard=True, shard_steps=12, shard_servers=20)

    def test_transient_failure_retried_and_bit_identical(
            self, monkeypatch):
        trace = make_trace()
        golden = run_batch([SimulationJob(trace, teg_original())],
                           n_workers=2, prefer="thread", **self.SHARD_KW)
        flaky = FlakyRunShard(failures=1)
        monkeypatch.setattr(shard_mod, "run_shard", flaky)
        batch = run_batch([SimulationJob(trace, teg_original())],
                          n_workers=2, prefer="thread", max_retries=2,
                          telemetry=True, **self.SHARD_KW)
        assert batch.ok
        assert flaky.calls > 8  # one failed attempt was re-run
        assert_identical(batch.results[0], golden.results[0])
        kinds = {e.kind for e in batch.telemetry.events}
        assert "shard.retry" in kinds

    def test_exhausted_retries_fail_with_structured_error(
            self, monkeypatch):
        trace = make_trace()
        always = FlakyRunShard(failures=10 ** 9,
                               error=RuntimeError("permanent"))
        monkeypatch.setattr(shard_mod, "run_shard", always)
        batch = run_batch([SimulationJob(trace, teg_original())],
                          n_workers=2, prefer="thread", max_retries=1,
                          telemetry=True, **self.SHARD_KW)
        assert not batch.ok
        assert batch.failures[0].error_type in ("RuntimeError",
                                                "ShardExecutionError")
        kinds = {e.kind for e in batch.telemetry.events}
        assert "shard.failed" in kinds

    @pytest.mark.parametrize("prefer", ["serial", "thread"])
    def test_tile_retry_counts_in_the_retry_totals(self, monkeypatch,
                                                   prefer):
        trace = make_trace()
        monkeypatch.setattr(shard_mod, "run_shard", FlakyRunShard(1))
        batch = run_batch([SimulationJob(trace, teg_original())],
                          n_workers=2, prefer=prefer, max_retries=2,
                          telemetry=True, **self.SHARD_KW)
        assert batch.ok
        assert batch.metrics.executor == prefer
        counters = batch.telemetry.registry.snapshot().counters
        assert counters["engine.shards.retried"] == 1
        assert batch.results[0].metrics.retries == 1
        assert batch.metrics.retries == 1
        assert counters["engine.jobs.retries"] == 1


class WorkerKillingRunShard:
    """Delegate to run_shard, killing any worker process it runs in.

    Every call appends its pid to a log file, so a test can tell where
    each tile ran.  The coordinator is never killed, only logged.  With
    ``once`` only the first worker call dies; with ``trace`` only tiles
    of that trace do.
    """

    def __init__(self, directory, once=False, trace=None):
        self.log = directory / "pids"
        self.marker = directory / "crashed"
        self.coordinator = os.getpid()
        self.once = once
        self.trace = trace

    def __call__(self, tile, spec, *args, **kwargs):
        with open(self.log, "a") as log:
            log.write(f"{os.getpid()}\n")
        if (os.getpid() != self.coordinator
                and self.trace in (None, tile.name)):
            try:
                if self.once:
                    os.close(os.open(self.marker,
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os._exit(17)
        return run_shard(tile, spec, *args, **kwargs)

    def pids(self):
        return [int(line) for line in self.log.read_text().split()]


@pytest.mark.slow
class TestDeadWorkerTiles:
    """A dead worker isolates a job's unfinished tiles, never in-process."""

    SHARD_KW = dict(n_workers=2, prefer="process", shard=True,
                    shard_steps=12, shard_servers=20)

    def test_crash_once_reruns_tiles_isolated(self, monkeypatch,
                                              tmp_path):
        trace = make_trace()
        reference = simulate(trace, teg_original(), result_cache=False)
        killer = WorkerKillingRunShard(tmp_path, once=True)
        monkeypatch.setattr(shard_mod, "run_shard", killer)
        batch = run_batch([SimulationJob(trace, teg_original())],
                          max_retries=0, **self.SHARD_KW)
        # The shared pool's crash is charged to no one: with no retries
        # allowed the job still completes, bit for bit.
        assert batch.ok
        assert batch.metrics.executor == "process"
        assert_identical(batch.results[0], reference)
        assert os.getpid() not in killer.pids()
        assert len(killer.pids()) > 8  # the killed attempt, plus 8 tiles

    @pytest.mark.usefixtures("no_backoff")
    def test_tile_that_kills_every_worker_fails_only_its_job(
            self, monkeypatch, tmp_path):
        doomed = make_trace(name="doomed")
        healthy = make_trace(seed=8, name="healthy")
        reference = simulate(healthy, teg_original(), result_cache=False)
        killer = WorkerKillingRunShard(tmp_path, trace="doomed")
        monkeypatch.setattr(shard_mod, "run_shard", killer)
        batch = run_batch([SimulationJob(doomed, teg_original()),
                           SimulationJob(healthy, teg_original())],
                          max_retries=1, telemetry=True,
                          **self.SHARD_KW)
        assert [f.trace_name for f in batch.failures] == ["doomed"]
        assert batch.failures[0].error_type == "BrokenProcessPool"
        assert_identical(batch.get("TEG_Original", "healthy"), reference)
        assert os.getpid() not in killer.pids()
        # 1 + max_retries isolated attempts at the doomed tile.
        attempts = [(event.kind, event.data["attempt"])
                    for event in batch.telemetry.events
                    if event.kind in ("shard.retry", "shard.failed")]
        assert attempts == [("shard.retry", 1), ("shard.failed", 2)]


class TestSegmentReaper:
    def test_reaps_only_dead_owner_segments(self, tmp_path):
        dead = subprocess.Popen(["/bin/true"])
        dead.wait()
        orphan = tmp_path / f"{SEGMENT_PREFIX}{dead.pid}-deadbeef"
        orphan.write_bytes(b"x")
        mine = tmp_path / f"{SEGMENT_PREFIX}{os.getpid()}-cafef00d"
        mine.write_bytes(b"x")
        odd = tmp_path / f"{SEGMENT_PREFIX}not-a-pid"
        odd.write_bytes(b"x")
        unrelated = tmp_path / "some-other-file"
        unrelated.write_bytes(b"x")

        reaped = reap_orphaned_segments(tmp_path)
        assert reaped == [orphan.name]
        assert not orphan.exists()
        assert mine.exists()
        assert odd.exists()
        assert unrelated.exists()

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert reap_orphaned_segments(tmp_path / "nope") == []


@pytest.mark.skipif(not Path("/dev/shm").is_dir(),
                    reason="no POSIX shared memory mount")
class TestSigtermJanitor:
    DRIVER = textwrap.dedent("""\
        import sys, time
        import numpy as np
        from repro.core.engine import BatchSimulationEngine
        from repro.workloads.trace import WorkloadTrace

        engine = BatchSimulationEngine(n_workers=1)
        trace = WorkloadTrace(
            np.random.default_rng(0).random((10, 40)), 300.0, name="t")
        ref = engine._shared_traces.ref_for(trace)
        print(ref.shm_name, flush=True)
        time.sleep(60)
    """)

    def test_sigterm_unlinks_live_segments(self, tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(self.DRIVER)
        env = {"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"}
        proc = subprocess.Popen([sys.executable, str(driver)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        try:
            name = proc.stdout.readline().decode().strip()
            assert name, proc.stderr.read().decode(errors="replace")
            segment = Path("/dev/shm") / name
            assert segment.exists()
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            assert not segment.exists()
        finally:
            if proc.poll() is None:  # pragma: no cover
                proc.kill()
                proc.wait()


class TestMergeAudit:
    """audit_merged_result refuses structurally corrupt results."""

    def loop_result(self):
        trace = make_trace(steps=12, servers=40)
        config = teg_original()
        result = DatacenterSimulator(trace, config).run()
        return trace, config, result

    def test_clean_result_passes(self):
        trace, config, result = self.loop_result()
        audit_merged_result(trace, config, result)  # must not raise

    def test_lost_window_detected(self):
        trace, config, result = self.loop_result()
        result.records.pop()
        with pytest.raises(ResultIntegrityError) as excinfo:
            audit_merged_result(trace, config, result)
        assert excinfo.value.issues
        assert any("records" in issue for issue in excinfo.value.issues)

    def test_shuffled_windows_detected(self):
        trace, config, result = self.loop_result()
        result.records[0], result.records[-1] = (result.records[-1],
                                                 result.records[0])
        with pytest.raises(ResultIntegrityError):
            audit_merged_result(trace, config, result)

    def test_merge_runs_audit_by_default(self):
        """simulate_sharded output has been through the auditor."""
        trace = make_trace(steps=24)
        result = simulate_sharded(trace, teg_original(), shard_steps=12,
                                  shard_servers=20)
        audit_merged_result(trace, teg_original(), result)
