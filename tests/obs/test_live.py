"""Live scrape endpoint: /metrics, /healthz, engine attachment.

The server is strictly observational — the tests here pin the scrape
contract (Prometheus text with labelled series, JSON health document),
the mid-run behaviour (counters only ever grow), and that attaching the
endpoint changes nothing about the simulation records.
"""

import json
import threading
import urllib.request

import pytest

from repro import obs
from repro.errors import ConfigurationError


def _get(url: str) -> tuple[int, dict, str]:
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return (response.status, dict(response.headers),
                response.read().decode("utf-8"))


class TestResolveMetricsPort:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(obs.METRICS_PORT_ENV_VAR, raising=False)
        assert obs.resolve_metrics_port() is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(obs.METRICS_PORT_ENV_VAR, "9000")
        assert obs.resolve_metrics_port(1234) == 1234

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(obs.METRICS_PORT_ENV_VAR, "9464")
        assert obs.resolve_metrics_port() == 9464

    def test_blank_env_raises(self, monkeypatch):
        monkeypatch.setenv(obs.METRICS_PORT_ENV_VAR, "  ")
        with pytest.raises(ConfigurationError,
                           match=obs.METRICS_PORT_ENV_VAR):
            obs.resolve_metrics_port()

    @pytest.mark.parametrize("bad", ["nope", "-1", "65536"])
    def test_invalid_values_raise(self, monkeypatch, bad):
        monkeypatch.setenv(obs.METRICS_PORT_ENV_VAR, bad)
        with pytest.raises(ConfigurationError,
                           match=obs.METRICS_PORT_ENV_VAR):
            obs.resolve_metrics_port()

    def test_invalid_explicit_names_parameter(self):
        with pytest.raises(ConfigurationError, match="metrics_port"):
            obs.resolve_metrics_port(70000)


class TestRunHealth:
    def test_lifecycle(self):
        health = obs.RunHealth()
        assert health.to_dict()["phase"] == "idle"
        health.begin(jobs_total=3, shards_total=4)
        health.job_done()
        health.job_done(failed=True)
        health.shard_done(2)
        state = health.to_dict()
        assert state["phase"] == "running"
        assert state["jobs"] == {"completed": 1, "failed": 1, "total": 3}
        assert state["shards"] == {"completed": 2, "total": 4}
        health.finish()
        assert health.to_dict()["phase"] == "done"

    def test_begin_resets_but_counts_runs(self):
        health = obs.RunHealth()
        health.begin(jobs_total=1)
        health.job_done()
        health.begin(jobs_total=2)
        state = health.to_dict()
        assert state["jobs"]["completed"] == 0
        assert state["runs"] == 2


class TestLiveTelemetryServer:
    def test_unbound_routes(self):
        with obs.LiveTelemetryServer(port=0) as server:
            status, headers, body = _get(f"{server.url}/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            assert body == ""
            status, _, body = _get(f"{server.url}/healthz")
            assert json.loads(body) == {"phase": "idle"}

    def test_unknown_route_404(self):
        with obs.LiveTelemetryServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/nope")
            assert err.value.code == 404

    def test_scrape_sees_labelled_series(self):
        telemetry = obs.Telemetry()
        telemetry.registry.counter(
            "engine.jobs.completed", {"scheme": "a"}).inc(2)
        with obs.LiveTelemetryServer(port=0) as server:
            server.bind(telemetry, None)
            _, _, body = _get(f"{server.url}/metrics")
        assert ('repro_engine_jobs_completed_total{scheme="a"} 2'
                in body)

    def test_scrape_is_live_not_cached(self):
        telemetry = obs.Telemetry()
        counter = telemetry.registry.counter("ticks")
        with obs.LiveTelemetryServer(port=0) as server:
            server.bind(telemetry, None)
            _, _, before = _get(f"{server.url}/metrics")
            counter.inc(5)
            _, _, after = _get(f"{server.url}/metrics")
        assert "repro_ticks_total 0" in before
        assert "repro_ticks_total 5" in after

    def test_ephemeral_port_resolved_and_close_idempotent(self):
        server = obs.LiveTelemetryServer(port=0)
        assert 0 < server.port <= 65535
        assert server.url == f"http://127.0.0.1:{server.port}"
        server.close()
        server.close()

    def test_bind_conflict_raises_configuration_error(self):
        with obs.LiveTelemetryServer(port=0) as server:
            with pytest.raises(ConfigurationError, match="cannot bind"):
                obs.LiveTelemetryServer(port=server.port)


class TestEngineAttachment:
    @staticmethod
    def _jobs(n_servers=24):
        from repro.core.config import teg_original
        from repro.core.engine import SimulationJob
        from repro.workloads.synthetic import common_trace

        return [SimulationJob(trace=common_trace(n_servers=n_servers),
                              config=teg_original())]

    def test_metrics_port_implies_telemetry(self):
        from repro.core.engine import BatchSimulationEngine

        with BatchSimulationEngine(n_workers=1, prefer="serial",
                                   metrics_port=0) as engine:
            assert engine.telemetry is True
            assert engine.metrics_address is not None

    def test_no_port_no_server(self, monkeypatch):
        from repro.core.engine import BatchSimulationEngine

        monkeypatch.delenv(obs.METRICS_PORT_ENV_VAR, raising=False)
        with BatchSimulationEngine(n_workers=1, prefer="serial") as engine:
            assert engine.metrics_address is None

    def test_env_var_attaches_server(self, monkeypatch):
        from repro.core.engine import BatchSimulationEngine

        monkeypatch.setenv(obs.METRICS_PORT_ENV_VAR, "0")
        with BatchSimulationEngine(n_workers=1, prefer="serial") as engine:
            assert engine.metrics_address is not None

    def test_scrape_after_run_and_health_progress(self):
        from repro.core.engine import BatchSimulationEngine

        with BatchSimulationEngine(n_workers=1, prefer="serial",
                                   metrics_port=0) as engine:
            engine.run(self._jobs())
            _, _, body = _get(f"{engine.metrics_address}/metrics")
            _, _, health_body = _get(f"{engine.metrics_address}/healthz")
        assert "repro_engine_jobs_completed_total 1" in body
        assert 'repro_sim_runs_total{scheme="' in body
        health = json.loads(health_body)
        assert health["phase"] == "done"
        assert health["jobs"] == {"completed": 1, "failed": 0, "total": 1}

    def test_sharded_run_health_counts_shards(self):
        from repro.core.engine import BatchSimulationEngine

        with BatchSimulationEngine(n_workers=2, prefer="thread",
                                   shard=True, shard_servers=20,
                                   shard_steps=48,
                                   metrics_port=0) as engine:
            batch = engine.run(self._jobs(n_servers=40))
            _, _, body = _get(f"{engine.metrics_address}/metrics")
            health = json.loads(
                _get(f"{engine.metrics_address}/healthz")[2])
        assert batch.metrics.shards > 1
        assert health["shards"]["total"] == batch.metrics.shards
        assert health["shards"]["completed"] == batch.metrics.shards
        assert 'repro_shard_cells_total{scheme="' in body
        assert 'repro_engine_shards_completed_total{scheme="' in body

    def test_midrun_scrapes_are_monotone(self):
        """Counters sampled while the batch runs only ever grow.

        ``shard.cells`` accumulates into the batch session the moment
        each shard folds (the live-sink path), so its family total is
        the run's progress bar: strictly monotone across scrapes and
        equal to the trace's full cell count at the end.
        """
        from repro.core.engine import BatchSimulationEngine

        jobs = self._jobs(n_servers=60)

        def cells_total(body: str) -> float:
            return sum(float(line.rsplit(" ", 1)[1])
                       for line in body.splitlines()
                       if line.startswith("repro_shard_cells_total{"))

        with BatchSimulationEngine(n_workers=1, prefer="serial",
                                   shard=True, shard_servers=20,
                                   shard_steps=24,
                                   metrics_port=0) as engine:
            url = f"{engine.metrics_address}/metrics"
            samples: list[float] = []
            stop = threading.Event()

            def scrape_loop():
                while not stop.is_set():
                    samples.append(cells_total(_get(url)[2]))

            scraper = threading.Thread(target=scrape_loop, daemon=True)
            scraper.start()
            try:
                batch = engine.run(jobs)
            finally:
                stop.set()
                scraper.join(timeout=5.0)
            samples.append(cells_total(_get(url)[2]))
        assert batch.metrics.shards > 1
        assert samples == sorted(samples)
        trace = jobs[0].trace
        assert samples[-1] == trace.n_steps * trace.n_servers

    def test_records_identical_with_and_without_endpoint(self):
        from repro.core.engine import BatchSimulationEngine

        jobs = self._jobs()
        with BatchSimulationEngine(n_workers=1, prefer="serial",
                                   telemetry=True) as engine:
            plain = engine.run(self._jobs())
        with BatchSimulationEngine(n_workers=1, prefer="serial",
                                   metrics_port=0) as engine:
            _get(f"{engine.metrics_address}/healthz")
            live = engine.run(jobs)
        assert plain.results[0].records == live.results[0].records
