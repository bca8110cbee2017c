"""Experiment-registry tests."""

import pytest

from repro.errors import ConfigurationError, JobExecutionError
from repro.experiments import (
    ExperimentOutcome,
    list_experiments,
    run_experiment,
)


class TestRegistry:
    def test_lists_all_paper_experiments(self):
        ids = [experiment_id for experiment_id, _ in list_experiments()]
        for required in ("E-F3", "E-F7", "E-F8", "E-F9", "E-F10",
                         "E-F11", "E-F13", "E-F14", "E-F15", "E-T1",
                         "E-VA"):
            assert required in ids

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("E-F99")

    def test_case_insensitive(self):
        outcome = run_experiment("e-t1")
        assert outcome.experiment_id == "E-T1"


class TestOutcomes:
    def test_table1_metrics(self):
        outcome = run_experiment("E-T1")
        assert outcome.metrics["break_even_days"] == pytest.approx(
            920.8, abs=0.5)
        assert outcome.metrics["reduction_loadbalance"] == pytest.approx(
            0.0057, abs=3e-4)

    def test_fig8_metrics(self):
        outcome = run_experiment("E-F8")
        assert outcome.metrics["pmax_12_at_dt25_w"] > 1.8
        assert "power_w" in outcome.series

    def test_fig13_ordering(self):
        outcome = run_experiment("E-F13")
        assert outcome.metrics["a_avg_mean_inlet_c"] > \
            outcome.metrics["a_max_mean_inlet_c"]

    def test_circulation_design_interior_optimum(self):
        outcome = run_experiment("E-VA")
        assert 1 < outcome.metrics["best_n"] < 1000
        assert outcome.metrics["best_cost_usd"] < \
            outcome.metrics["cost_n1_usd"]

    def test_describe_renders(self):
        outcome = run_experiment("E-F9")
        text = outcome.describe()
        assert "E-F9" in text
        assert "delta_max_c" in text

    def test_fault_sweep_raises_on_a_failed_job(self, monkeypatch):
        # Results leave a failed job out: the healthy point and every
        # intensity after it would be paired with the wrong run.
        from repro.core import engine

        run_batch = engine.run_batch

        def first_job_fails(jobs, n_workers=None, **options):
            batch = run_batch(jobs, n_workers, **options)
            lost = batch.results.pop(0)
            batch.failures.append(engine.FailedJob(
                scheme=lost.scheme, trace_name=lost.trace_name,
                error_type="RuntimeError", message="injected failure"))
            return batch

        monkeypatch.setattr(engine, "run_batch", first_job_fails)
        with pytest.raises(JobExecutionError, match="injected failure"):
            run_experiment("E-FAULTS")

    def test_outcome_is_frozen(self):
        outcome = ExperimentOutcome(experiment_id="X", title="t",
                                    metrics={})
        with pytest.raises(AttributeError):
            outcome.title = "other"


class TestCliIntegration:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "E-F14" in out

    def test_run_one(self, capsys):
        from repro.cli import main

        assert main(["experiment", "E-T1"]) == 0
        out = capsys.readouterr().out
        assert "break_even_days" in out
