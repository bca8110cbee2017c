"""Engine telemetry: executor-independent aggregates and bit-identity.

The ISSUE 5 acceptance property: serial, thread and process execution
of the *same* batch must produce **identical** aggregated counter
totals, and those totals must match the numbers ``BatchResult`` /
``EngineMetrics`` already report through the non-telemetry path.
Telemetry is strictly observational, so records stay bit-identical
with it on or off.
"""

import pickle

import pytest

from repro.core.config import teg_loadbalance, teg_original
from repro.core.engine import run_batch, simulate, SimulationJob
from repro.errors import ConfigurationError
from repro.obs import TelemetrySnapshot
from repro.workloads.synthetic import common_trace, drastic_trace

TRACE_KWARGS = dict(n_servers=40, duration_s=2 * 3600.0,
                    interval_s=300.0)


def _jobs():
    traces = [common_trace(seed=12, **TRACE_KWARGS),
              drastic_trace(seed=10, **TRACE_KWARGS)]
    configs = [teg_original(), teg_loadbalance()]
    return [SimulationJob(trace=trace, config=config)
            for trace in traces for config in configs]


def _run(prefer: str, cache=None):
    return run_batch(_jobs(), 2, prefer=prefer, telemetry=True,
                     cache=cache)


class TestExecutorIndependence:
    @pytest.fixture(scope="class")
    def batches(self, tmp_path_factory):
        """One batch per (cache on, executor); each cached batch gets a
        fresh directory."""
        def cache(cached, prefer):
            return tmp_path_factory.mktemp(f"cache-{prefer}") if cached \
                else None

        return {(cached, prefer): _run(prefer, cache(cached, prefer))
                for cached in (False, True)
                for prefer in ("serial", "thread", "process")}

    def test_counter_totals_identical_across_executors(self, batches):
        counters = {
            key: batch.telemetry.registry.snapshot().counters
            for key, batch in batches.items()
        }
        for cached in (False, True):
            assert counters[cached, "serial"] == counters[cached, "thread"]
            assert counters[cached, "serial"] \
                == counters[cached, "process"]

    def test_totals_match_batch_metrics(self, batches):
        for batch in batches.values():
            counters = batch.telemetry.registry.snapshot().counters
            metrics = batch.metrics
            assert counters["sim.runs"] == metrics.n_jobs
            assert counters["sim.steps"] == metrics.total_steps
            # Every decision a computed job makes is a kernel cell; a
            # miss is a decision its policy computed, at most one per
            # unique cell.
            assert counters["engine.kernel.decide_cells"] \
                == metrics.cache_hits + metrics.cache_misses
            assert 0 < metrics.cache_misses \
                <= counters["engine.kernel.unique_decisions"]
            assert sum(counters.family("engine.cache.miss").values()) \
                == metrics.result_cache_misses
            assert counters["engine.jobs.submitted"] == metrics.n_jobs
            assert counters["engine.jobs.completed"] == metrics.n_jobs
            assert counters["engine.jobs.retries"] == metrics.retries
            assert counters["engine.jobs.failed"] == 0

    def test_per_job_totals_match_results(self, batches):
        for batch in batches.values():
            counters = batch.telemetry.registry.snapshot().counters
            assert counters["sim.steps"] \
                == sum(len(result.records) for result in batch.results)
            assert counters["sim.safety_violations"] \
                == sum(result.total_safety_violations
                       for result in batch.results)
            assert counters["sim.degraded_steps"] \
                == sum(result.degraded_steps for result in batch.results)

    def test_span_tree_covers_every_job(self, batches):
        for batch in batches.values():
            spans = batch.telemetry.tracer.snapshot()
            assert spans["engine.batch"]["count"] == 1
            assert spans["engine.simulate"]["count"] == len(_jobs())
            kernel = spans["engine.simulate"]["children"]
            for phase in ("kernel.decide", "kernel.evaluate",
                          "kernel.reduce", "kernel.fold"):
                assert kernel[phase]["count"] == len(_jobs())

    def test_batch_events_present(self, batches):
        for batch in batches.values():
            kinds = [event.kind for event in batch.telemetry.events]
            assert kinds.count("batch.start") == 1
            assert kinds.count("batch.end") == 1


class TestObservationalPurity:
    def test_records_bit_identical_with_telemetry(self):
        jobs = _jobs()[:2]
        plain = run_batch(jobs, 1, prefer="serial")
        observed = run_batch(jobs, 1, prefer="serial", telemetry=True)
        for a, b in zip(plain.results, observed.results):
            assert a.records == b.records
        assert plain.telemetry is None
        assert observed.telemetry is not None

    def test_simulate_attaches_picklable_snapshot(self):
        trace = common_trace(seed=12, **TRACE_KWARGS)
        result = simulate(trace, teg_original(), mode="kernel",
                          telemetry=True)
        assert isinstance(result.telemetry, TelemetrySnapshot)
        restored = pickle.loads(pickle.dumps(result.telemetry))
        assert restored.metrics.counters["sim.steps"] \
            == len(result.records)

    def test_simulate_without_telemetry_attaches_nothing(self):
        trace = common_trace(seed=12, **TRACE_KWARGS)
        result = simulate(trace, teg_original(), mode="kernel")
        assert result.telemetry is None


class TestFaultTelemetry:
    def test_fault_activations_counted_and_evented(self):
        from repro.faults import FaultSchedule, FaultSpec

        schedule = FaultSchedule(
            specs=[FaultSpec(kind="pump_derate", start_s=600.0,
                             duration_s=1800.0, magnitude=0.5)],
            seed=3)
        job = SimulationJob(trace=common_trace(seed=12, **TRACE_KWARGS),
                            config=teg_original(), faults=schedule)
        batch = run_batch([job], 1, prefer="serial", telemetry=True)
        counters = batch.telemetry.registry.snapshot().counters
        assert counters["faults.activations"] == 1
        events = batch.telemetry.events.of_kind("fault.activation")
        assert len(events) == 1
        payload = events[0].data
        assert payload["fault"] == "pump_derate"
        assert payload["start_s"] == 600.0
        assert payload["end_s"] == 2400.0


class TestEnvironmentFlag:
    def test_env_enables_batch_telemetry(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        batch = run_batch(_jobs()[:1], 1, prefer="serial")
        assert batch.telemetry is not None
        assert batch.telemetry.registry.snapshot().counters["sim.runs"] \
            == 1

    def test_malformed_env_fails_before_any_job(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "sometimes")
        with pytest.raises(ConfigurationError, match="REPRO_TELEMETRY"):
            run_batch(_jobs()[:1], 1, prefer="serial")

    def test_explicit_false_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        batch = run_batch(_jobs()[:1], 1, prefer="serial", telemetry=False)
        assert batch.telemetry is None
