"""Batch engine tests: bit-identity, goldens, determinism, fallbacks.

The engine's contract is that its vectorised, cached, parallel path
returns **bit-identical** records to the serial
:class:`~repro.core.simulator.DatacenterSimulator`.  These tests enforce
that contract against the serial path directly, against the committed
golden fixtures in ``tests/golden/``, and across worker counts and
executor fallbacks.
"""

import gc
import inspect
import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.control.cooling_policy import (
    AnalyticPolicy,
    LookupSpacePolicy,
    StaticPolicy,
)
from repro.core.cache import ResultCache
from repro.core.config import (
    SimulationConfig,
    teg_loadbalance,
    teg_original,
)
from repro.core.engine import (
    BatchSimulationEngine,
    SimulationJob,
    compare_batch,
    resolve_workers,
    run_batch,
    simulate,
)
from repro.core.simulator import DatacenterSimulator
from repro.errors import ConfigurationError
from repro.workloads.synthetic import common_trace
from repro.workloads.trace import WorkloadTrace

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

#: Must match tests/golden/regenerate_engine_goldens.py.
GOLDEN_TRACE_KWARGS = dict(n_servers=40, duration_s=4 * 3600.0,
                           interval_s=300.0, seed=12)

util_vectors = arrays(float, st.integers(min_value=2, max_value=16),
                      elements=st.floats(min_value=0.0, max_value=1.0))


def golden_trace():
    return common_trace(**GOLDEN_TRACE_KWARGS)


def load_golden(scheme: str) -> dict:
    path = GOLDEN_DIR / f"engine_{scheme}_common40.json"
    return json.loads(path.read_text())


class TestBitIdentity:
    """Engine output == serial output, exactly, for every policy kind."""

    @pytest.mark.parametrize("config", [
        teg_original(),
        teg_loadbalance(),
        SimulationConfig(name="analytic", policy="analytic"),
        SimulationConfig(name="static", policy="static"),
        SimulationConfig(name="threshold", scheduler="threshold",
                         threshold_cap=0.5),
    ], ids=lambda c: c.name)
    def test_engine_matches_serial_exactly(self, config):
        trace = golden_trace()
        serial = DatacenterSimulator(trace, config).run()
        fast = simulate(trace, config)
        assert fast.records == serial.records
        assert fast == serial  # metrics excluded from equality

    def test_unvectorised_path_also_matches(self):
        trace = golden_trace()
        serial = DatacenterSimulator(trace, teg_original()).run()
        fast = simulate(trace, teg_original(), mode="loop")
        assert fast.records == serial.records

    def test_metrics_attached(self):
        result = simulate(golden_trace(), teg_original())
        metrics = result.metrics
        assert metrics is not None
        assert metrics.n_steps == len(result.records)
        assert metrics.steps_per_s > 0
        assert metrics.wall_time_s >= metrics.step_time_s
        assert metrics.cache_hits + metrics.cache_misses > 0
        assert metrics.cache_hit_rate > 0  # repeated loads must hit

    def test_serial_result_has_no_metrics(self):
        result = DatacenterSimulator(golden_trace(), teg_original()).run()
        assert result.metrics is None


class TestGoldens:
    """Both paths must reproduce the committed per-step aggregates."""

    FIELDS = ("time_s", "generation_per_cpu_w", "cpu_power_per_cpu_w",
              "max_cpu_temp_c", "chiller_power_w", "tower_power_w",
              "pump_power_w")

    @pytest.mark.parametrize("scheme_factory",
                             [teg_original, teg_loadbalance],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("runner",
                             ["serial", "kernel", "loop"])
    def test_matches_golden(self, scheme_factory, runner):
        config = scheme_factory()
        golden = load_golden(config.name)
        trace = golden_trace()
        if runner == "serial":
            result = DatacenterSimulator(trace, config).run()
        else:
            result = simulate(trace, config, mode=runner)
        assert len(result.records) == golden["n_steps"]
        for name in self.FIELDS:
            actual = np.array([getattr(record, name)
                               for record in result.records])
            expected = np.array(golden["records"][name])
            np.testing.assert_allclose(actual, expected, rtol=0,
                                       atol=1e-9, err_msg=name)

    def test_golden_fixtures_exist_for_both_schemes(self):
        for config in (teg_original(), teg_loadbalance()):
            golden = load_golden(config.name)
            assert golden["scheme"] == config.name
            assert golden["trace"] == dict(GOLDEN_TRACE_KWARGS,
                                           name="common")


class TestBatch:
    """The batch layer: ordering, lookup, aggregate metrics."""

    def jobs(self):
        trace = golden_trace()
        return [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance())]

    def test_results_in_submission_order(self):
        batch = run_batch(self.jobs(), n_workers=1)
        assert [r.scheme for r in batch.results] == \
            ["TEG_Original", "TEG_LoadBalance"]

    def test_get_by_key(self):
        batch = run_batch(self.jobs(), n_workers=1)
        result = batch.get("TEG_LoadBalance", "common")
        assert result.scheme == "TEG_LoadBalance"
        with pytest.raises(ConfigurationError):
            batch.get("TEG_LoadBalance", "no-such-trace")

    def test_aggregate_metrics(self):
        batch = run_batch(self.jobs(), n_workers=1)
        metrics = batch.metrics
        assert metrics.n_jobs == 2
        assert metrics.total_steps == 2 * 48
        assert metrics.steps_per_s > 0
        assert 0 < metrics.cache_hit_rate < 1
        summary = metrics.summary()
        assert summary["jobs"] == 2
        assert batch.summaries()[0]["engine"]["steps_per_s"] > 0

    def test_compare_batch_cross_product(self):
        trace = golden_trace()
        batch = compare_batch([trace], [teg_original(), teg_loadbalance()],
                              n_workers=1)
        assert batch.metrics.n_jobs == 2
        assert batch.get("TEG_Original", "common").records

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch([])

    def test_non_job_rejected(self):
        with pytest.raises(ConfigurationError):
            run_batch(["not a job"])

    def test_bad_prefer_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchSimulationEngine(prefer="fibers")


class TestDeterminism:
    """Same inputs, any worker count or executor: same bits out."""

    def jobs(self):
        trace = golden_trace()
        return [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance(),
                               SimulationConfig(name="analytic",
                                                policy="analytic"),
                               SimulationConfig(name="static",
                                                policy="static"))]

    @pytest.mark.slow
    def test_process_pool_matches_serial_worker(self):
        jobs = self.jobs()
        one = run_batch(jobs, n_workers=1)
        four = run_batch(jobs, n_workers=4, prefer="process")
        for a, b in zip(one.results, four.results):
            assert a.records == b.records
        assert one.metrics.executor == "serial"

    def test_thread_pool_matches_serial_worker(self):
        jobs = self.jobs()[:2]
        one = run_batch(jobs, n_workers=1)
        two = run_batch(jobs, n_workers=2, prefer="thread")
        assert two.metrics.executor == "thread"
        for a, b in zip(one.results, two.results):
            assert a.records == b.records

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        jobs = self.jobs()[:2]
        reference = run_batch(jobs, n_workers=1)
        ensure = inspect.signature(BatchSimulationEngine._ensure_executor)
        tried = []

        def broken_pool(*args, **kwargs):
            tried.append(ensure.bind(*args, **kwargs).arguments["kind"])
            raise OSError("no pools in this sandbox")

        monkeypatch.setattr(BatchSimulationEngine, "_ensure_executor",
                            broken_pool)
        batch = run_batch(jobs, n_workers=4, prefer="process")
        assert tried == ["process", "thread"]
        assert batch.metrics.executor == "serial"
        assert batch.metrics.n_workers == 1
        for a, b in zip(reference.results, batch.results):
            assert a.records == b.records


class TestWorkerResolution:
    """Explicit argument > REPRO_WORKERS > CPU-count default."""

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(2, n_jobs=8) == 2

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None, n_jobs=8) == 3

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            resolve_workers(None, n_jobs=8)

    def test_default_capped_by_jobs_and_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        import os
        expected = min(3, os.cpu_count() or 1)
        assert resolve_workers(None, n_jobs=3) == expected

    def test_never_below_one_or_above_jobs(self):
        assert resolve_workers(0, n_jobs=5) == 1
        assert resolve_workers(-2, n_jobs=5) == 1
        assert resolve_workers(64, n_jobs=5) == 5


class TestCoolingDecisionCache:
    """The policy's memo is the only decision cache: it must be
    observationally invisible except for speed, and the engine's hit and
    miss counts describe it."""

    def test_hit_and_miss_counters(self):
        # A lookup is a decision the serial loop makes, one per
        # circulation and step; a miss is one the policy computed: a
        # memo bucket met for the first time, or, for a policy without a
        # memo, every request (one per distinct binding in the kernel).
        trace = golden_trace()
        sim = DatacenterSimulator(trace, teg_original())
        bindings = [float(trace.step(step)[group].max())
                    for step in range(trace.n_steps)
                    for group in sim._groups]
        lookups = len(bindings)
        buckets = {round(b / sim._policy.cache_resolution)
                   for b in bindings}
        static = SimulationConfig(name="static", policy="static")
        for mode in ("kernel", "loop"):
            metrics = simulate(trace, teg_original(), mode=mode).metrics
            assert metrics.cache_misses == len(buckets) < lookups
            assert metrics.cache_hits + metrics.cache_misses == lookups
            metrics = simulate(trace, static, mode=mode).metrics
            assert metrics.cache_hits + metrics.cache_misses == lookups
            assert metrics.cache_misses == (
                len(set(bindings)) if mode == "kernel" else lookups)

    def test_context_separates_simulations(self, lookup_space):
        # Each simulator builds its own policy, so one run's memo never
        # answers another run's decisions.
        hot = LookupSpacePolicy(space=lookup_space,
                                cold_source_temp_c=25.0)
        cold = LookupSpacePolicy(space=lookup_space,
                                 cold_source_temp_c=15.0)
        utils = np.array([0.4, 0.4])
        a = hot.decide(utils)
        b = cold.decide(utils)
        assert len(hot._cache) == len(cold._cache) == 1
        assert a.predicted_generation_w != b.predicted_generation_w
        trace = golden_trace()
        first, second = (
            simulate(trace, teg_original(cold_source_temp_c=temp)).metrics
            for temp in (25.0, 15.0))
        assert second.cache_misses == first.cache_misses > 0

    @given(util_vectors)
    @settings(max_examples=30, deadline=None)
    def test_lookup_hit_equals_uncached_decision(self, lookup_space,
                                                 utils):
        # A memo hit must return exactly what a fresh policy would:
        # prime with one vector, query again, compare against an
        # unprimed policy sharing the same space.
        cached_policy = LookupSpacePolicy(space=lookup_space)
        cached_policy.decide(utils)
        hit = cached_policy.decide(utils)
        fresh = LookupSpacePolicy(space=lookup_space)
        assert hit == fresh.decide(utils)

    @given(util_vectors)
    @settings(max_examples=30, deadline=None)
    def test_analytic_hit_equals_uncached_decision(self, utils):
        # The kernel answers every cell of one exact binding with a
        # single decide_batch row: it must equal deciding the vector.
        binding = float(utils.max())
        assert AnalyticPolicy().decide_batch([binding])[0] == \
            AnalyticPolicy().decide(utils)

    @given(util_vectors)
    @settings(max_examples=30, deadline=None)
    def test_static_avg_hit_equals_uncached_decision(self, utils):
        policy = StaticPolicy(aggregation="avg")
        binding = float(utils.mean())
        assert policy.decide_batch([binding])[0] == \
            StaticPolicy(aggregation="avg").decide(utils)


class TestZeroCopyDispatch:
    """Process-pool jobs ship a trace *handle*, not the trace plane."""

    def test_payload_size_independent_of_trace_length(self):
        import pickle

        short = common_trace(n_servers=40, duration_s=2 * 3600.0,
                             interval_s=300.0, seed=12)
        long = common_trace(n_servers=40, duration_s=48 * 3600.0,
                            interval_s=300.0, seed=12)
        with BatchSimulationEngine() as engine:
            small = len(pickle.dumps(engine._payload(
                SimulationJob(trace=short, config=teg_original()))))
            large = len(pickle.dumps(engine._payload(
                SimulationJob(trace=long, config=teg_original()))))
            job_size = len(pickle.dumps(
                SimulationJob(trace=long, config=teg_original())))
        # The payload must not scale with the trace and must be far
        # smaller than pickling the job (which embeds the matrix).
        assert abs(large - small) < 128
        assert large * 10 < job_size

    def test_one_segment_per_distinct_trace(self):
        trace = golden_trace()
        jobs = [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance())]
        with BatchSimulationEngine() as engine:
            for job in jobs:
                engine._payload(job)
            assert len(engine._shared_traces) == 1
        assert len(engine._shared_traces) == 0  # close() unlinked it

    @pytest.mark.slow
    def test_executor_reused_across_runs(self):
        trace = golden_trace()
        jobs = [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance())]
        with BatchSimulationEngine(n_workers=2,
                                   prefer="process") as engine:
            first = engine.run(jobs)
            second = engine.run(jobs)
            assert engine.executor_launches == 1
        assert first.metrics.executor == "process"
        for a, b in zip(first.results, second.results):
            assert a.records == b.records

    def test_close_releases_every_trace(self):
        trace = golden_trace()
        ref = weakref.ref(trace)
        with BatchSimulationEngine(n_workers=2,
                                   prefer="process") as engine:
            batch = engine.run([SimulationJob(trace=trace,
                                              config=teg_original())])
        assert not batch.failures
        del trace
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["whole", "sharded"])
    @pytest.mark.parametrize("prefer", ["serial", "thread", "process"])
    def test_batch_frees_its_trace_without_the_cycle_collector(
            self, prefer, sharded):
        # A reference cycle through the batch's bookkeeping would keep
        # the trace alive until the collector ran; refcounting alone
        # must free it.
        trace = golden_trace()
        ref = weakref.ref(trace)
        shard = (dict(shard=True, shard_servers=20, shard_steps=12)
                 if sharded else dict(shard=False))
        jobs = [SimulationJob(trace=trace, config=config)
                for config in (teg_original(), teg_loadbalance())]
        gc.collect()
        gc.disable()
        try:
            engine = BatchSimulationEngine(n_workers=2, prefer=prefer,
                                           cache=False, **shard)
            batch = engine.run(jobs)
            assert batch.ok
            assert batch.metrics.shards == (2 * 8 if sharded else 0)
            engine.close()
            del trace, jobs, engine, batch
            assert ref() is None
        finally:
            gc.enable()

    def test_worker_side_trace_reconstruction_is_exact(self):
        from repro.core.engine import _execute_payload

        trace = golden_trace()
        serial = DatacenterSimulator(trace, teg_original()).run()
        with BatchSimulationEngine() as engine:
            payload = engine._payload(
                SimulationJob(trace=trace, config=teg_original()))
            # Execute the payload in-process: same code path the worker
            # runs, minus the fork.
            result = _execute_payload(payload)
            assert result.records == serial.records


class TestTraceOwnsItsPlane:
    """Writing to the caller's array after construction changes nothing.

    Engines key their digest memo and shared-memory segments on the
    trace object, so a plane that could still change under them would
    let a second run reuse stale state.
    """

    ENGINES = {
        "serial": dict(n_workers=1, prefer="serial"),
        "process-whole": dict(n_workers=2, prefer="process", shard=False),
        "process-sharded": dict(n_workers=2, prefer="process", shard=True,
                                shard_servers=20, shard_steps=12),
        "result-cached": dict(n_workers=1, prefer="serial"),
    }

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_base_array_edit_leaves_trace_and_runs_unchanged(
            self, name, tmp_path):
        rng = np.random.default_rng(7)
        base = rng.random((48, 40))
        trace = WorkloadTrace(base[:], 300.0, name="fleet")
        plane = trace.utilisation.copy()
        jobs = [SimulationJob(trace, config)
                for config in (teg_original(), teg_loadbalance())]
        cache = tmp_path if name == "result-cached" else False
        with BatchSimulationEngine(cache=cache,
                                   **self.ENGINES[name]) as engine:
            first = engine.run(jobs)
            base[:] = rng.random(base.shape)
            assert np.array_equal(trace.utilisation, plane)
            second = engine.run(jobs)
        assert first.ok and second.ok
        for a, b in zip(first.results, second.results):
            assert a.records == b.records


class TestOneAnswerPerJob:
    """A duplicated job is answered once, whatever answers its twin.

    Jobs are ``[A, A2, B]`` with ``A2`` a same-content copy of ``A``.
    Whether the result cache, a checkpoint or a fresh computation
    answers ``A``, ``A2`` is a duplicate: it is never looked up, and
    hits and resumes count ``A`` and ``B`` only.
    """

    LAYOUTS = {
        "whole": dict(shard=False),
        "sharded": dict(shard=True, shard_servers=20, shard_steps=12),
    }
    #: 40 servers x 48 steps cut into 20 x 12 tiles.
    SHARDS_PER_JOB = 8

    @pytest.mark.parametrize("state", ["cold", "hot", "resumed"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_duplicate_is_answered_once(self, layout, state, tmp_path,
                                        monkeypatch):
        trace = golden_trace()
        twin = WorkloadTrace(trace.utilisation, trace.interval_s,
                             name=trace.name)
        a = SimulationJob(trace, teg_original())
        b = SimulationJob(trace, teg_loadbalance())
        kwargs = dict(n_workers=2, prefer="thread", **self.LAYOUTS[layout])
        if state == "resumed":
            kwargs["checkpoint"] = tmp_path / "ckpt"
        else:
            kwargs["cache"] = tmp_path / "cache"
        if state != "cold":
            assert run_batch([a, b], **kwargs).ok

        loaded = []
        load = ResultCache.load

        def spy(self, key):
            loaded.append(key)
            return load(self, key)

        monkeypatch.setattr(ResultCache, "load", spy)
        batch = run_batch([a, SimulationJob(twin, teg_original()), b],
                          telemetry=True, **kwargs)
        metrics = batch.metrics
        assert batch.ok
        assert metrics.jobs_deduped == 1
        assert metrics.result_cache_hits == (2 if state == "hot" else 0)
        resumed = state == "resumed"
        assert metrics.jobs_resumed == (
            2 if resumed and layout == "whole" else 0)
        assert metrics.shards_resumed == (
            2 * self.SHARDS_PER_JOB if resumed and layout == "sharded"
            else 0)
        assert max(Counter(loaded).values(), default=0) <= 1
        counters = batch.telemetry.registry.snapshot().counters
        assert sum(counters.family("engine.cache.hit").values()) \
            == metrics.result_cache_hits
        assert batch.results[1] is batch.results[0]
        serial = DatacenterSimulator(trace, teg_original()).run()
        assert batch.results[0].records == serial.records

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_cache_hit_leaves_checkpoint_alone(self, layout, tmp_path):
        jobs = [SimulationJob(golden_trace(), teg_original())]
        kwargs = dict(n_workers=1, cache=tmp_path / "cache",
                      **self.LAYOUTS[layout])
        checkpoint = tmp_path / "ckpt"

        def files(root):
            return {path.relative_to(root): path.read_bytes()
                    for path in root.rglob("*") if path.is_file()}

        cold = run_batch(jobs, checkpoint=checkpoint, **kwargs)
        saved = files(checkpoint)
        assert cold.metrics.result_cache_misses == 1
        if layout == "whole":
            assert len(list(checkpoint.rglob("result.pkl"))) == 1
        else:
            assert len(list(checkpoint.rglob("shard-*.pkl"))) \
                == cold.metrics.shards == self.SHARDS_PER_JOB
        # Without resume a store that opened would wipe its saved work.
        hot = run_batch(jobs, checkpoint=checkpoint, resume=False,
                        **kwargs)
        assert hot.metrics.result_cache_hits == 1
        assert files(checkpoint) == saved
        fresh = tmp_path / "fresh"
        again = run_batch(jobs, checkpoint=fresh, **kwargs)
        assert again.metrics.result_cache_hits == 1
        assert not fresh.exists()


class TestKnobsResolveFirst:
    """A malformed knob fails the run before it touches anything."""

    SHARDED = dict(shard=True, shard_servers=20, shard_steps=12)

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_JOB_TIMEOUT", "soon"),
        ("REPRO_WORKERS", "abc"),
    ])
    def test_bad_env_leaves_checkpoint_alone(self, variable, value,
                                             tmp_path, monkeypatch):
        for name in ("REPRO_JOB_TIMEOUT", "REPRO_WORKERS"):
            monkeypatch.delenv(name, raising=False)
        jobs = [SimulationJob(common_trace(n_servers=40), teg_original())]
        kwargs = dict(prefer="thread", shard=True,
                      shard_servers=20, shard_steps=13,
                      checkpoint=tmp_path / "ckpt")
        assert run_batch(jobs, n_workers=2, **kwargs).ok
        saved = sorted(tmp_path.rglob("shard-*.pkl"))
        assert len(saved) == 46
        monkeypatch.setenv(variable, value)
        n_workers = None if variable == "REPRO_WORKERS" else 2
        with pytest.raises(ConfigurationError, match=variable):
            run_batch(jobs, n_workers=n_workers, resume=False, **kwargs)
        assert sorted(tmp_path.rglob("shard-*.pkl")) == saved

    @pytest.mark.parametrize("layout", ["whole", "sharded"])
    @pytest.mark.parametrize("prefer", ["serial", "thread"])
    def test_bad_straggler_fails_the_run(self, prefer, layout,
                                         monkeypatch):
        # A malformed fallback fails the run before anything runs, even
        # where nothing would read it: the serial executor, whose jobs
        # no timeout can pre-empt, and a sharded job, which has none.
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "-1")
        kwargs = self.SHARDED if layout == "sharded" else dict(shard=False)
        jobs = [SimulationJob(golden_trace(), teg_original())]
        with pytest.raises(ConfigurationError, match="REPRO_JOB_TIMEOUT"):
            run_batch(jobs, n_workers=2, prefer=prefer, **kwargs)
