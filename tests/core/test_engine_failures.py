"""Engine failure handling: retries, timeouts, crashes, partial results.

The crash/hang traces are defined at module level so process-pool
workers can unpickle them; ``CrashingTrace`` kills its worker with
``os._exit`` (no exception, no cleanup — exactly what a segfault looks
like to the pool) and ``HangingTrace`` sleeps past any test timeout.
"""

import errno
import itertools
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.core.shard as shard_mod
from repro.core.cache import ResultCache
from repro.core.checkpoint import CheckpointStore
from repro.core.config import teg_loadbalance, teg_original
from repro.core.engine import (
    BatchSimulationEngine,
    FailedJob,
    JOB_TIMEOUT_ENV_VAR,
    SimulationJob,
    WORKERS_ENV_VAR,
    resolve_job_timeout,
    resolve_workers,
    run_batch,
    simulate,
)
from repro.errors import ConfigurationError, JobExecutionError
from repro.workloads.trace import WorkloadTrace

pytestmark = pytest.mark.faults


def flat_trace(name="flat", steps=6, n_servers=40, util=0.4):
    return WorkloadTrace(name=name, interval_s=300.0,
                         utilisation=np.full((steps, n_servers), util))


class CrashingTrace(WorkloadTrace):
    """Kills the worker process outright on the first step."""

    def step(self, index):
        os._exit(17)


class HangingTrace(WorkloadTrace):
    """Blocks far past any per-job budget used in these tests."""

    def step(self, index):
        time.sleep(60.0)
        return super().step(index)


class FlakyTrace(WorkloadTrace):
    """Raises on the first ``fail_times`` step calls, then recovers.

    Class-level counter: meaningful in thread/serial mode only (process
    workers each unpickle a fresh copy).
    """

    counter = itertools.count()
    fail_times = 2

    def step(self, index):
        if index == 0 and next(FlakyTrace.counter) < self.fail_times:
            raise RuntimeError("transient glitch")
        return super().step(index)


class AlwaysRaises(WorkloadTrace):
    def step(self, index):
        raise ValueError("broken trace")


def subclass_trace(cls, name):
    base = flat_trace(name=name)
    return cls(name=base.name, interval_s=base.interval_s,
               utilisation=base.utilisation)


def random_trace(name="fleet", steps=48, seed=7):
    rng = np.random.default_rng(seed)
    return WorkloadTrace(rng.random((steps, 40)), 300.0, name=name)


#: An eight-tile plan for a 48 x 40 trace.
SHARD_KW = dict(shard=True, shard_servers=20, shard_steps=12)


def full_disk(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestResolveWorkers:
    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ConfigurationError, match=WORKERS_ENV_VAR):
            resolve_workers(None, 4)

    def test_env_must_be_non_negative(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "-3")
        with pytest.raises(ConfigurationError, match=WORKERS_ENV_VAR):
            resolve_workers(None, 4)

    def test_env_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        assert resolve_workers(None, 4) == 1


class TestResolveJobTimeout:
    def test_unset_means_no_timeout(self, monkeypatch):
        monkeypatch.delenv(JOB_TIMEOUT_ENV_VAR, raising=False)
        assert resolve_job_timeout() is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOB_TIMEOUT_ENV_VAR, "99")
        assert resolve_job_timeout(5.0) == 5.0

    def test_env_parsed_as_seconds(self, monkeypatch):
        monkeypatch.setenv(JOB_TIMEOUT_ENV_VAR, "2.5")
        assert resolve_job_timeout() == 2.5

    @pytest.mark.parametrize("value", ["soon", "0", "-4"])
    def test_bad_env_values_rejected(self, monkeypatch, value):
        monkeypatch.setenv(JOB_TIMEOUT_ENV_VAR, value)
        with pytest.raises(ConfigurationError, match=JOB_TIMEOUT_ENV_VAR):
            resolve_job_timeout()

    def test_explicit_non_positive_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_job_timeout(0.0)


class TestEngineValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(max_retries=-1),
        dict(retry_backoff_s=-0.5),
        dict(job_timeout_s=0.0),
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchSimulationEngine(**kwargs)


class TestSerialFailureHandling:
    def test_failing_job_yields_partial_results(self):
        jobs = [SimulationJob(trace=flat_trace("ok-1"),
                              config=teg_original()),
                SimulationJob(trace=subclass_trace(AlwaysRaises, "bad"),
                              config=teg_original()),
                SimulationJob(trace=flat_trace("ok-2"),
                              config=teg_loadbalance())]
        batch = run_batch(jobs, n_workers=1, retry_backoff_s=0.0)
        assert not batch.ok
        assert [r.trace_name for r in batch.results] == ["ok-1", "ok-2"]
        assert [f.trace_name for f in batch.failures] == ["bad"]
        failed = batch.failures[0]
        assert failed.error_type == "ValueError"
        assert failed.attempts == 1
        assert batch.metrics.n_failed == 1

    def test_get_on_failed_job_raises_job_execution_error(self):
        jobs = [SimulationJob(trace=subclass_trace(AlwaysRaises, "bad"),
                              config=teg_original())]
        batch = run_batch(jobs, n_workers=1, retry_backoff_s=0.0)
        with pytest.raises(JobExecutionError) as excinfo:
            batch.get("TEG_Original", "bad")
        assert excinfo.value.attempts == 1
        assert not excinfo.value.timed_out

    def test_retry_exhaustion_counts_attempts(self):
        jobs = [SimulationJob(trace=subclass_trace(AlwaysRaises, "bad"),
                              config=teg_original())]
        batch = run_batch(jobs, n_workers=1, max_retries=2,
                          retry_backoff_s=0.0)
        assert batch.failures[0].attempts == 3
        assert batch.metrics.retries == 2

    def test_transient_failure_recovers_with_retry(self):
        FlakyTrace.counter = itertools.count()
        jobs = [SimulationJob(trace=subclass_trace(FlakyTrace, "flaky"),
                              config=teg_original())]
        batch = run_batch(jobs, n_workers=1, max_retries=3,
                          retry_backoff_s=0.0)
        assert batch.ok
        result = batch.results[0]
        assert result.metrics.retries == 2
        assert batch.metrics.retries == 2
        # The recovered run matches an untroubled one exactly.
        clean = run_batch([SimulationJob(trace=flat_trace("flaky"),
                                         config=teg_original())],
                          n_workers=1)
        assert result.records == clean.results[0].records

    def test_no_retries_by_default(self):
        FlakyTrace.counter = itertools.count()
        jobs = [SimulationJob(trace=subclass_trace(FlakyTrace, "flaky"),
                              config=teg_original())]
        batch = run_batch(jobs, n_workers=1)
        assert not batch.ok
        assert batch.failures[0].attempts == 1


class TestThreadPoolFailureHandling:
    def test_failures_attributed_exactly(self):
        jobs = [SimulationJob(trace=flat_trace("ok-1"),
                              config=teg_original()),
                SimulationJob(trace=subclass_trace(AlwaysRaises, "bad"),
                              config=teg_original()),
                SimulationJob(trace=flat_trace("ok-2"),
                              config=teg_loadbalance())]
        batch = run_batch(jobs, n_workers=3, prefer="thread",
                          retry_backoff_s=0.0)
        assert batch.metrics.executor == "thread"
        assert [r.trace_name for r in batch.results] == ["ok-1", "ok-2"]
        assert [f.trace_name for f in batch.failures] == ["bad"]

    def test_retry_in_thread_pool(self):
        FlakyTrace.counter = itertools.count()
        jobs = [SimulationJob(trace=subclass_trace(FlakyTrace, "flaky"),
                              config=teg_original()),
                SimulationJob(trace=flat_trace("ok"),
                              config=teg_original())]
        batch = run_batch(jobs, n_workers=2, prefer="thread",
                          max_retries=3, retry_backoff_s=0.0)
        assert batch.ok
        assert batch.get("TEG_Original", "flaky").metrics.retries == 2


@pytest.mark.slow
class TestProcessPoolFailureHandling:
    """The acceptance scenario: crash + hang + healthy jobs, one batch."""

    def test_crash_and_timeout_fail_exactly_the_affected_jobs(
            self, monkeypatch):
        monkeypatch.setenv(JOB_TIMEOUT_ENV_VAR, "2.0")
        jobs = [
            SimulationJob(trace=flat_trace("ok-1"),
                          config=teg_original()),
            SimulationJob(trace=subclass_trace(CrashingTrace, "crash"),
                          config=teg_original()),
            SimulationJob(trace=subclass_trace(HangingTrace, "hang"),
                          config=teg_original()),
            SimulationJob(trace=flat_trace("ok-2"),
                          config=teg_loadbalance()),
        ]
        batch = run_batch(jobs, n_workers=4, prefer="process")
        assert batch.metrics.executor == "process"
        assert not batch.ok
        assert sorted(r.trace_name for r in batch.results) == \
            ["ok-1", "ok-2"]
        assert {f.trace_name for f in batch.failures} == \
            {"crash", "hang"}
        by_name = {f.trace_name: f for f in batch.failures}
        assert not by_name["crash"].timed_out
        assert by_name["hang"].timed_out
        assert by_name["hang"].error_type == "TimeoutError"
        assert batch.metrics.timeouts == 1
        assert batch.metrics.n_failed == 2
        # Healthy partial results are the real thing, not placeholders.
        clean = run_batch([jobs[0]], n_workers=1)
        assert batch.get("TEG_Original", "ok-1").records == \
            clean.results[0].records

    def test_worker_crash_is_retried_before_failing(self):
        jobs = [SimulationJob(trace=subclass_trace(CrashingTrace,
                                                   "crash"),
                              config=teg_original()),
                SimulationJob(trace=flat_trace("ok"),
                              config=teg_original())]
        batch = run_batch(jobs, n_workers=2, prefer="process",
                          max_retries=1, retry_backoff_s=0.0)
        assert [f.trace_name for f in batch.failures] == ["crash"]
        assert batch.failures[0].attempts == 2
        assert batch.metrics.retries == 1
        assert [r.trace_name for r in batch.results] == ["ok"]


class TestLandingErrors:
    """An error while landing a result fails its job; the pool stays up."""

    @pytest.mark.parametrize("prefer", ["serial", "thread", "process"])
    def test_cache_store_error_fails_each_whole_job_once(
            self, monkeypatch, tmp_path, prefer):
        stores = []

        def store(self, key, result):
            stores.append(key)
            full_disk()

        monkeypatch.setattr(ResultCache, "store", store)
        jobs = [SimulationJob(trace=flat_trace("a"), config=teg_original()),
                SimulationJob(trace=flat_trace("b"),
                              config=teg_loadbalance())]
        with BatchSimulationEngine(n_workers=2, prefer=prefer,
                                   cache=tmp_path, max_retries=1,
                                   retry_backoff_s=0.0) as engine:
            batch = engine.run(jobs)
            assert engine.executor_launches == (prefer != "serial")
        assert batch.metrics.executor == prefer
        assert not batch.results
        assert [(f.trace_name, f.error_type, f.attempts)
                for f in batch.failures] == [("a", "OSError", 1),
                                             ("b", "OSError", 1)]
        assert len(stores) == 2  # each job computed and landed once
        assert batch.metrics.retries == 0

    @pytest.mark.parametrize("prefer", ["thread", "process"])
    def test_checkpoint_save_error_fails_the_sharded_job(
            self, monkeypatch, tmp_path, prefer):
        trace = random_trace()
        job = SimulationJob(trace, teg_original())
        reference = simulate(trace, teg_original(), result_cache=False)
        with BatchSimulationEngine(n_workers=2, prefer=prefer, cache=False,
                                   checkpoint=tmp_path,
                                   **SHARD_KW) as engine:
            with monkeypatch.context() as patch:
                patch.setattr(CheckpointStore, "save_shard", full_disk)
                failed = engine.run([job])
            healed = engine.run([job])
            assert engine.executor_launches == 1
        assert failed.metrics.executor == prefer
        assert [(f.error_type, f.attempts)
                for f in failed.failures] == [("OSError", 1)]
        assert healed.ok
        assert healed.metrics.executor == prefer
        assert healed.results[0].records == reference.records


class TestPoolStartup:
    """The executor is chosen once, before anything runs, and reported.

    A process pool that cannot start — its constructor, its first
    round trip or its payload pickling fails — leaves the whole run on
    threads, whole jobs and kernel tiles alike.
    """

    def jobs(self, sharded):
        if sharded:
            return [SimulationJob(random_trace(), teg_original())]
        trace = random_trace(steps=12)
        return [SimulationJob(trace, config)
                for config in (teg_original(), teg_loadbalance())]

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["whole", "sharded"])
    @pytest.mark.parametrize("failure", ["start", "fork"])
    def test_process_pool_that_cannot_start_runs_on_threads(
            self, monkeypatch, sharded, failure):
        jobs = self.jobs(sharded)
        references = [simulate(job.trace, job.config, result_cache=False)
                      for job in jobs]
        if failure == "start":
            ensure = BatchSimulationEngine._ensure_executor

            def no_processes(self, kind, workers):
                if kind == "process":
                    raise OSError("no process pools in this sandbox")
                return ensure(self, kind, workers)

            monkeypatch.setattr(BatchSimulationEngine, "_ensure_executor",
                                no_processes)
        else:
            def fork_refused(self, *args, **kwargs):
                raise PermissionError("fork refused")

            monkeypatch.setattr(ProcessPoolExecutor, "submit", fork_refused)
        on_main = []
        run_shard = shard_mod.run_shard

        def logged(*args, **kwargs):
            on_main.append(threading.current_thread()
                           is threading.main_thread())
            return run_shard(*args, **kwargs)

        monkeypatch.setattr(shard_mod, "run_shard", logged)
        batch = run_batch(jobs, n_workers=2, prefer="process",
                          cache=False, **(SHARD_KW if sharded else {}))
        assert batch.ok
        assert batch.metrics.executor == "thread"
        assert batch.metrics.n_workers == 2
        assert len(on_main) == (8 if sharded else 0)
        assert not any(on_main)  # every tile ran on a pool thread
        for result, reference in zip(batch.results, references):
            assert result.records == reference.records

    def test_fully_resumed_sharded_job_starts_no_pool(self, tmp_path):
        job = SimulationJob(random_trace(), teg_original())
        kwargs = dict(n_workers=2, prefer="process", cache=False,
                      checkpoint=tmp_path, **SHARD_KW)
        with BatchSimulationEngine(**kwargs) as engine:
            first = engine.run([job])
        with BatchSimulationEngine(**kwargs) as engine:
            resumed = engine.run([job])
            assert engine.executor_launches == 0
        assert resumed.metrics.shards_resumed == 8
        assert resumed.metrics.executor == "serial"
        assert resumed.results[0].records == first.results[0].records


class TestFailedJobRecord:
    def test_key_and_error_round_trip(self):
        failed = FailedJob(scheme="S", trace_name="T",
                           error_type="ValueError", message="boom",
                           attempts=3, elapsed_s=1.5, timed_out=False)
        assert failed.key == ("S", "T")
        error = failed.to_error()
        assert isinstance(error, JobExecutionError)
        assert error.scheme == "S"
        assert error.attempts == 3
        assert "boom" in str(error)
