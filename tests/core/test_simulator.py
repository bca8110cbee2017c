"""Datacenter simulator tests."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig, teg_loadbalance, teg_original
from repro.core.simulator import DatacenterSimulator, compare_schemes
from repro.errors import ConfigurationError, CoolingFailureError
from repro.workloads.trace import WorkloadTrace


def flat_trace(util=0.3, steps=4, servers=40, name="flat"):
    return WorkloadTrace(np.full((steps, servers), util), 300.0, name)


class TestConstruction:
    def test_too_few_servers_rejected(self):
        trace = flat_trace(servers=5)
        with pytest.raises(ConfigurationError):
            DatacenterSimulator(trace, SimulationConfig(
                circulation_size=20))

    def test_partitioning(self):
        trace = flat_trace(servers=50)
        sim = DatacenterSimulator(trace, SimulationConfig(
            circulation_size=20))
        # 20 + 20 + 10 (trailing partial circulation).
        assert sim.n_circulations == 3

    def test_exact_partitioning(self):
        sim = DatacenterSimulator(flat_trace(servers=40),
                                  SimulationConfig(circulation_size=20))
        assert sim.n_circulations == 2

    def test_none_models_build_the_defaults(self):
        trace = WorkloadTrace(np.random.default_rng(3).random((6, 47)),
                              300.0)
        config = teg_loadbalance()
        omitted = DatacenterSimulator(trace, config).run()
        passed_none = DatacenterSimulator(trace, config, None, None).run()
        assert passed_none.records == omitted.records
        assert passed_none.violations == omitted.violations

    def test_one_circulation_model_per_size(self):
        # 20 + 20 + 7: the two full circulations share one model object
        # and the ragged tail has its own.
        sim = DatacenterSimulator(flat_trace(servers=47),
                                  SimulationConfig(circulation_size=20))
        models = sim._circulations
        assert len(models) == sim.n_circulations == 3
        assert len({id(model) for model in models}) == 2
        assert models[0] is models[1]
        assert [model.n_servers for model in models] == [20, 20, 7]


class TestTraceWidthGuard:
    def test_narrower_trace_raises_configuration_error(self):
        # Swapping in a trace with fewer servers than the simulator was
        # partitioned for must fail loudly, not with a bare IndexError.
        sim = DatacenterSimulator(flat_trace(servers=40),
                                  SimulationConfig(circulation_size=20))
        sim.trace = flat_trace(servers=30)
        with pytest.raises(ConfigurationError, match="partitioned for 40"):
            sim.run()

    def test_wider_trace_also_rejected(self):
        sim = DatacenterSimulator(flat_trace(servers=40),
                                  SimulationConfig(circulation_size=20))
        sim.trace = flat_trace(servers=60)
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_matching_trace_still_runs(self):
        sim = DatacenterSimulator(flat_trace(servers=40),
                                  SimulationConfig(circulation_size=20))
        sim.trace = flat_trace(util=0.5, servers=40)
        assert len(sim.run().records) == 4


class TestRun:
    def test_records_per_step(self):
        sim = DatacenterSimulator(flat_trace(steps=6),
                                  SimulationConfig(circulation_size=20))
        result = sim.run()
        assert len(result.records) == 6
        assert result.n_servers == 40

    def test_constant_trace_constant_output(self):
        result = DatacenterSimulator(
            flat_trace(steps=5), SimulationConfig(circulation_size=20)
        ).run()
        gens = result.generation_series_w
        assert np.allclose(gens, gens[0])

    def test_generation_in_paper_ballpark(self):
        result = DatacenterSimulator(
            flat_trace(util=0.25, steps=3),
            SimulationConfig(circulation_size=20)).run()
        assert 3.0 < result.average_generation_w < 5.5

    def test_safety_respected_under_lookup_policy(self):
        result = DatacenterSimulator(
            flat_trace(util=0.9, steps=3),
            SimulationConfig(circulation_size=20)).run()
        assert result.total_safety_violations == 0

    def test_strict_safety_raises_on_static_overheat(self):
        from repro.thermal.cpu_model import CoolingSetting

        config = SimulationConfig(
            policy="static", strict_safety=True,
            static_setting=CoolingSetting(flow_l_per_h=20.0,
                                          inlet_temp_c=58.0))
        sim = DatacenterSimulator(flat_trace(util=1.0, steps=2), config)
        with pytest.raises(CoolingFailureError) as excinfo:
            sim.run()
        assert excinfo.value.temperature_c > 78.9

    def test_mean_inlet_recorded(self):
        result = DatacenterSimulator(
            flat_trace(steps=2), SimulationConfig(circulation_size=20)
        ).run()
        record = result.records[0]
        assert 20.0 <= record.mean_inlet_temp_c <= 60.0
        assert record.mean_flow_l_per_h > 0.0


class TestSchemeBehaviour:
    def test_loadbalance_beats_original_on_skewed_load(self):
        # Alternating busy/idle servers inside every circulation:
        # balancing must help (scheduling happens per circulation).
        matrix = np.zeros((3, 40))
        matrix[:, ::2] = 0.55
        matrix[:, 1::2] = 0.05
        trace = WorkloadTrace(matrix, 300.0, "skewed")
        comparison = compare_schemes(trace, teg_original(),
                                     teg_loadbalance())
        assert comparison.generation_improvement > 0.02

    def test_balanced_trace_sees_no_benefit(self):
        # Already-uniform load leaves nothing for the balancer to do.
        trace = flat_trace(util=0.4, steps=3)
        comparison = compare_schemes(trace, teg_original(),
                                     teg_loadbalance())
        assert abs(comparison.generation_improvement) < 0.02

    def test_analytic_policy_runs(self):
        result = DatacenterSimulator(
            flat_trace(steps=2),
            SimulationConfig(policy="analytic", circulation_size=20)).run()
        assert result.average_generation_w > 0.0

    def test_threshold_scheduler_between_extremes(self):
        matrix = np.zeros((3, 40))
        matrix[:, :8] = 0.8
        matrix[:, 8:] = 0.1
        trace = WorkloadTrace(matrix, 300.0, "spiky")
        none = DatacenterSimulator(trace, teg_original()).run()
        ideal = DatacenterSimulator(trace, teg_loadbalance()).run()
        threshold = DatacenterSimulator(trace, SimulationConfig(
            name="threshold", scheduler="threshold", threshold_cap=0.5,
        )).run()
        assert none.average_generation_w - 0.05 \
            <= threshold.average_generation_w \
            <= ideal.average_generation_w + 0.05
