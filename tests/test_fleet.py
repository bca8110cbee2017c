"""Heterogeneous fleet tests."""

import pytest

from repro.core.config import teg_loadbalance
from repro.errors import (
    ConfigurationError,
    JobExecutionError,
    PhysicalRangeError,
)
from repro.fleet import (
    CPU_SPECS,
    CpuSpec,
    EPYC_CLASS,
    FleetMix,
    XEON_D_CLASS,
    XEON_E5_2650_V3,
    XEON_E5_2699_V4,
)
from repro.thermal.cpu_model import CoolingSetting
from repro.workloads.synthetic import common_trace


@pytest.fixture(scope="module")
def trace():
    return common_trace(n_servers=90, duration_s=6 * 3600.0, seed=13)


class TestCpuSpec:
    def test_registry_contains_prototype(self):
        assert "Xeon E5-2650 v3" in CPU_SPECS
        assert CPU_SPECS["Xeon E5-2650 v3"].power_scale == 1.0

    def test_validation(self):
        with pytest.raises(PhysicalRangeError):
            CpuSpec(name="bad", power_scale=0.0)
        with pytest.raises(PhysicalRangeError):
            CpuSpec(name="bad", max_operating_temp_c=200.0)
        with pytest.raises(PhysicalRangeError):
            CpuSpec(name="bad", safe_fraction=0.3)

    def test_safe_temp_matches_paper_fraction(self):
        # ~80 % of 78.9 C is the paper's T_safe neighbourhood (62 C).
        assert XEON_E5_2650_V3.safe_temp_c == pytest.approx(62.3, abs=0.1)

    def test_thermal_model_carries_power_scale(self):
        model = EPYC_CLASS.thermal_model()
        assert model.cpu_power_w(0.5) == pytest.approx(
            1.9 * XEON_E5_2650_V3.thermal_model().cpu_power_w(0.5))

    def test_hot_part_runs_hotter(self):
        setting = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=45.0)
        base = XEON_E5_2650_V3.thermal_model().cpu_temp_c(0.8, setting)
        hot = EPYC_CLASS.thermal_model().cpu_temp_c(0.8, setting)
        assert hot > base

    def test_low_power_part_runs_cooler(self):
        setting = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=45.0)
        base = XEON_E5_2650_V3.thermal_model().cpu_temp_c(0.8, setting)
        small = XEON_D_CLASS.thermal_model().cpu_temp_c(0.8, setting)
        assert small < base


class TestFleetMix:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            FleetMix(shares={XEON_E5_2650_V3: 0.5})
        with pytest.raises(ConfigurationError):
            FleetMix(shares={})
        with pytest.raises(ConfigurationError):
            FleetMix(shares={XEON_E5_2650_V3: 1.5,
                             EPYC_CLASS: -0.5})

    def test_run_partitions_all_servers(self, trace):
        outcomes = FleetMix().run(trace)
        assert sum(outcome.n_servers for outcome in outcomes) == \
            trace.n_servers

    def test_each_slice_uses_its_safe_temp(self, trace):
        outcomes = FleetMix().run(trace)
        for outcome in outcomes:
            # No slice exceeds its own limit.
            assert outcome.result.total_safety_violations == 0

    def test_all_specs_generate(self, trace):
        # The Sec. VII claim: every CPU type harvests.
        outcomes = FleetMix().run(trace)
        for outcome in outcomes:
            assert outcome.generation_w > 2.0, outcome.spec.name

    def test_aggregate_weighting(self, trace):
        outcomes = FleetMix().run(trace)
        summary = FleetMix.aggregate(outcomes)
        generations = [outcome.generation_w for outcome in outcomes]
        assert min(generations) <= summary["fleet_generation_w"] \
            <= max(generations)
        assert 0.0 < summary["fleet_pre"] < 0.25
        assert len(summary["per_spec"]) == len(outcomes)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetMix.aggregate([])

    def test_single_spec_mix(self, trace):
        mix = FleetMix(shares={XEON_E5_2650_V3: 1.0},
                       config=teg_loadbalance())
        outcomes = mix.run(trace)
        assert len(outcomes) == 1
        assert outcomes[0].n_servers == trace.n_servers

    def test_failed_slice_raises_instead_of_shifting_results(
            self, trace, monkeypatch):
        # Results leave a failed job out: zipping them with the slices
        # would hand the first slice the second slice's result.
        import repro.fleet as fleet_module
        from repro.core.engine import FailedJob

        run_batch = fleet_module.run_batch

        def first_job_fails(jobs, n_workers=None, **options):
            batch = run_batch(jobs, n_workers, **options)
            lost = batch.results.pop(0)
            batch.failures.append(FailedJob(
                scheme=lost.scheme, trace_name=lost.trace_name,
                error_type="RuntimeError", message="injected failure"))
            return batch

        monkeypatch.setattr(fleet_module, "run_batch", first_job_fails)
        with pytest.raises(JobExecutionError, match="injected failure"):
            FleetMix().run(trace)

    def test_too_narrow_trace_rejected(self):
        tiny = common_trace(n_servers=2, duration_s=3600.0, seed=2)
        mix = FleetMix(shares={XEON_E5_2650_V3: 0.4,
                               XEON_E5_2699_V4: 0.3,
                               EPYC_CLASS: 0.3})
        # 2 servers cannot be split three ways.
        with pytest.raises(ConfigurationError):
            mix.run(tiny)
