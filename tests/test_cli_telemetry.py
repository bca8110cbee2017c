"""CLI observability: --quiet, --json, --telemetry, --trace-spans."""

import json

import pytest

from repro.cli import main
from repro.obs import EventLog, Reporter

BATCH_ARGS = ["batch", "--traces", "common", "--schemes", "original",
              "loadbalance", "--servers", "40", "--workers", "1",
              "--mode", "kernel"]


class TestReporter:
    def test_default_prints_info_and_error(self, capsys):
        reporter = Reporter()
        reporter.info("hello")
        reporter.error("FAILED x")
        out = capsys.readouterr().out
        assert out == "hello\nFAILED x\n"

    def test_quiet_keeps_only_errors(self, capsys):
        reporter = Reporter(quiet=True)
        reporter.info("hidden")
        reporter.error("FAILED x")
        assert capsys.readouterr().out == "FAILED x\n"

    def test_json_mode_prints_one_document_on_flush(self, capsys):
        reporter = Reporter(json_mode=True)
        reporter.info("hidden")
        reporter.result("answer", {"n": 42})
        assert capsys.readouterr().out == ""
        reporter.flush()
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"answer": {"n": 42}}

    def test_everything_recorded_as_events(self):
        reporter = Reporter(quiet=True)
        reporter.info("a")
        reporter.error("b")
        reporter.result("c", 1)
        kinds = [event.kind for event in reporter.events]
        assert kinds == ["cli.info", "cli.error", "cli.result"]


class TestQuietAndJson:
    def test_quiet_batch_prints_nothing(self, capsys):
        code = main(["--quiet"] + BATCH_ARGS)
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_json_batch_is_machine_readable(self, capsys):
        code = main(["--json"] + BATCH_ARGS)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["batch"]["jobs"] == 2
        assert len(payload["jobs"]) == 2
        assert payload["failures"] == []

    def test_json_works_on_simple_commands(self, capsys):
        code = main(["--json", "tco"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tco"]["tco_h2p_usd"] > 0

    def test_default_output_unchanged(self, capsys):
        code = main(BATCH_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("scheme")
        assert "batch: 2 jobs" in out


class TestTelemetryFlag:
    def test_writes_all_three_artifacts(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(BATCH_ARGS + ["--telemetry", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"telemetry written to {run_dir}" in out
        for name in ("manifest.json", "events.jsonl", "metrics.prom"):
            assert (run_dir / name).exists()

    def test_manifest_totals_match_batch_section(self, tmp_path, capsys):
        from repro.obs import counter_totals

        run_dir = tmp_path / "run"
        assert main(BATCH_ARGS + ["--telemetry", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        # The JSON counters dict keys labelled series (name{k="v"});
        # counter_totals folds them back to per-family totals.
        totals = counter_totals(manifest["metrics"]["counters"])
        assert totals["sim.runs"] == manifest["batch"]["jobs"] == 2
        assert totals["engine.jobs.completed"] == 2
        assert totals["sim.steps"] \
            == sum(job["steps"] for job in manifest["jobs"])
        assert manifest["command"][0] == "h2p"
        assert "--telemetry" in manifest["command"]

    def test_events_include_cli_transcript(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(BATCH_ARGS + ["--telemetry", str(run_dir)]) == 0
        events = EventLog.from_jsonl((run_dir / "events.jsonl").read_text())
        kinds = {event.kind for event in events}
        assert {"batch.start", "batch.end", "cli.info"} <= kinds

    def test_prometheus_snapshot_has_totals(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(BATCH_ARGS + ["--telemetry", str(run_dir)]) == 0
        text = (run_dir / "metrics.prom").read_text()
        assert "repro_sim_steps_total" in text
        assert "repro_engine_kernel_decide_cells_total" in text
        assert "# TYPE repro_teg_power_w histogram" in text

    def test_env_dir_fallback(self, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "from-env"
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(run_dir))
        assert main(BATCH_ARGS) == 0
        assert (run_dir / "manifest.json").exists()

    def test_malformed_env_flag_raises_naming_variable(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("REPRO_TELEMETRY", "perhaps")
        with pytest.raises(ConfigurationError, match="REPRO_TELEMETRY"):
            main(BATCH_ARGS)

    def test_profile_flag_removed(self):
        with pytest.raises(SystemExit):
            main(BATCH_ARGS + ["--profile", "p.json"])


class TestMetricsPortFlag:
    def test_prints_live_metrics_url(self, capsys):
        code = main(BATCH_ARGS + ["--metrics-port", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "live metrics: http://127.0.0.1:" in out
        assert "/healthz" in out

    def test_json_mode_records_metrics_url(self, capsys):
        code = main(["--json"] + BATCH_ARGS + ["--metrics-port", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics_url"].startswith("http://127.0.0.1:")


class TestAuditManifest:
    @pytest.fixture(scope="class")
    def run_dirs(self, tmp_path_factory):
        paths = []
        for name in ("a", "b"):
            run_dir = tmp_path_factory.mktemp("audit") / name
            assert main(["--quiet"] + BATCH_ARGS
                        + ["--telemetry", str(run_dir)]) == 0
            paths.append(run_dir / "manifest.json")
        return paths

    def test_self_diff_exits_zero(self, run_dirs, capsys):
        path = str(run_dirs[0])
        assert main(["audit", "--manifest", path, path]) == 0
        assert "agree" in capsys.readouterr().out

    def test_two_honest_runs_diff_clean(self, run_dirs, capsys):
        code = main(["audit", "--manifest",
                     str(run_dirs[0]), str(run_dirs[1])])
        assert code == 0

    def test_drift_exits_nonzero(self, run_dirs, tmp_path, capsys):
        manifest = json.loads(run_dirs[0].read_text())
        key = next(iter(manifest["metrics"]["counters"]))
        manifest["metrics"]["counters"][key] += 1.0
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(manifest), encoding="utf-8")
        code = main(["audit", "--manifest",
                     str(run_dirs[0]), str(drifted)])
        out = capsys.readouterr().out
        assert code == 1
        assert "drift" in out
        assert key.split("{")[0] in out

    def test_json_output_parses(self, run_dirs, capsys):
        path = str(run_dirs[0])
        assert main(["--json", "audit", "--manifest", path, path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"]["ok"] is True
        assert payload["audit"]["drifts"] == []

    def test_negative_tolerance_rejected(self, run_dirs, capsys):
        path = str(run_dirs[0])
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="tolerance"):
            main(["audit", "--manifest", path, path,
                  "--tolerance", "-1"])

    def test_unreadable_manifest_raises(self, tmp_path):
        from repro.errors import ConfigurationError

        absent = str(tmp_path / "absent.json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            main(["audit", "--manifest", absent, absent])


class TestTraceSpans:
    def test_prints_span_tree(self, capsys):
        code = main(BATCH_ARGS + ["--trace-spans"])
        out = capsys.readouterr().out
        assert code == 0
        assert "engine.batch" in out
        assert "kernel.evaluate" in out
        assert "parent%" in out

    def test_without_flag_no_span_tree(self, capsys):
        code = main(BATCH_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "engine.batch" not in out
