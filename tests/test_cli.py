"""CLI tests (the ``h2p`` console script)."""

import pytest

from repro.cli import main


class TestParser:
    def test_no_command_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code != 0

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "h2p" in capsys.readouterr().out

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_trace_choice_errors(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--trace", "bursty"])

    def test_batch_has_no_mode_flag(self):
        # Batches always ask for the kernel, so no flag picks a mode,
        # and no flag sets a deadline for a second copy of a tile.
        for flag in (["--mode", "kernel"], ["--shard-straggler", "1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["batch", *flag])
            assert excinfo.value.code == 2


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code = main(["simulate", "--trace", "common", "--servers", "40",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "TEG_Original" in out
        assert "TEG_LoadBalance" in out
        assert "improvement" in out

    def test_circulation_size_forwarded(self, capsys):
        code = main(["simulate", "--trace", "common", "--servers", "40",
                     "--circulation-size", "10", "--seed", "3"])
        assert code == 0


class TestDesign:
    def test_reports_optimum(self, capsys):
        code = main(["design", "--servers", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal circulation size" in out
        assert "<- optimum" in out


class TestTco:
    def test_paper_numbers(self, capsys):
        code = main(["tco", "--generation", "4.177",
                     "--cpus", "100000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.57%" in out
        assert "10,024.8 kWh" in out

    def test_zero_generation(self, capsys):
        code = main(["tco", "--generation", "0.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "inf" in out.lower()


class TestTrace:
    def test_stats_only(self, capsys):
        code = main(["trace", "--name", "irregular", "--servers", "10",
                     "--hours", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean=" in out

    def test_export_round_trips(self, tmp_path, capsys):
        from repro.workloads.loader import load_trace_csv

        path = tmp_path / "t.csv"
        code = main(["trace", "--name", "common", "--servers", "10",
                     "--hours", "2", "--seed", "4", "--out", str(path)])
        assert code == 0
        trace = load_trace_csv(path)
        assert trace.n_servers == 10
        assert trace.name == "common"


class TestHotspot:
    def test_reports_three_strategies(self, capsys):
        code = main(["hotspot"])
        out = capsys.readouterr().out
        assert code == 0
        for strategy in ("none", "chiller", "tec"):
            assert strategy in out
        assert "VIOLATION" in out
        assert "safe" in out

    def test_cold_inlet_all_safe(self, capsys):
        code = main(["hotspot", "--inlet", "38"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VIOLATION" not in out


class TestBatchCheckpoint:
    ARGS = ["batch", "--traces", "common", "--schemes", "original",
            "--servers", "40", "--workers", "1", "--shard",
            "--shard-steps", "12"]

    def test_resume_requires_checkpoint(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError,
                           match="requires --checkpoint"):
            main(["batch", "--traces", "common", "--servers", "40",
                  "--resume"])

    def test_checkpoint_then_resume_reports_skipped_work(
            self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(self.ARGS + ["--checkpoint", ckpt]) == 0
        assert "resumed from checkpoint" not in capsys.readouterr().out
        assert main(self.ARGS + ["--checkpoint", ckpt, "--resume"]) == 0
        assert "resumed from checkpoint" in capsys.readouterr().out


class TestBatchCheck:
    """``batch --check`` recomputes every completed job serially."""

    ARGS = ["batch", "--traces", "common", "--schemes", "original",
            "loadbalance", "--servers", "40", "--workers", "1",
            "--check"]

    def test_every_job_checked_and_mismatch_named(self, capsys,
                                                  monkeypatch):
        from repro.core import engine

        run = engine.BatchSimulationEngine.run

        def swapped(self, jobs):
            # The second job comes back with the first one's records.
            batch = run(self, jobs)
            batch.results[1].records = batch.results[0].records
            return batch

        monkeypatch.setattr(engine.BatchSimulationEngine, "run", swapped)
        assert main(self.ARGS) == 1
        out = capsys.readouterr().out
        assert "serial check: MISMATCH in TEG_LoadBalance on common" in out
        assert "TEG_Original on common" not in out.split("MISMATCH")[-1]

    def test_failed_first_job_pairs_results_with_their_jobs(
            self, capsys, monkeypatch):
        from repro.core import engine

        whole_trace = engine.run_whole_trace

        def fail_original(sim):
            if sim.config.name == "TEG_Original":
                raise RuntimeError("injected failure")
            return whole_trace(sim)

        monkeypatch.setattr(engine, "run_whole_trace", fail_original)
        assert main(self.ARGS) == 1  # the batch is not ok
        out = capsys.readouterr().out
        assert "FAILED TEG_Original on common" in out
        assert "serial check: bit-identical" in out
        assert "MISMATCH" not in out
