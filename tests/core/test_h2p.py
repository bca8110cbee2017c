"""H2P facade tests."""

import pytest

from repro.core.config import SimulationConfig, teg_loadbalance, teg_original
from repro.core.h2p import H2PSystem
from repro.core.simulator import DatacenterSimulator
from repro.thermal.cpu_model import CoolingSetting
from repro.workloads.synthetic import drastic_trace


@pytest.fixture(scope="module")
def system():
    return H2PSystem()


class TestPointEvaluations:
    def test_server_generation(self, system):
        setting = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=50.0)
        power = system.server_generation_w(0.2, setting)
        assert 2.5 < power < 5.0

    def test_generation_rises_with_inlet(self, system):
        cool = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=40.0)
        warm = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=52.0)
        assert system.server_generation_w(0.2, warm) > \
            system.server_generation_w(0.2, cool)

    def test_server_pre_in_band(self, system):
        setting = CoolingSetting(flow_l_per_h=150.0, inlet_temp_c=53.0)
        pre = system.server_pre(0.22, setting)
        assert 0.10 < pre < 0.20

    def test_safety_check(self, system):
        safe = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=45.0)
        unsafe = CoolingSetting(flow_l_per_h=20.0, inlet_temp_c=58.0)
        assert system.is_safe(1.0, safe)
        assert not system.is_safe(1.0, unsafe)


class TestTraceWorkflows:
    def test_evaluate_defaults_to_original(self, system, tiny_traces):
        result = system.evaluate(tiny_traces["common"])
        assert result.scheme == "TEG_Original"
        assert result.average_generation_w > 0.0

    @pytest.mark.parametrize("config", [
        teg_original(), teg_loadbalance(),
        SimulationConfig(name="static", policy="static")],
        ids=lambda config: config.name)
    def test_evaluate_runs_the_kernel_bit_for_bit(self, system, config):
        # 47 servers: circulations of 20, 20 and a ragged 7.
        trace = drastic_trace(n_servers=47, duration_s=4 * 3600.0,
                              interval_s=300.0, seed=7)
        result = system.evaluate(trace, config)
        serial = DatacenterSimulator(trace, config, system.cpu_model,
                                     system.teg_module).run()
        assert result.records == serial.records
        assert result.violations == serial.violations
        assert result.metrics.mode == "kernel"

    def test_compare_defaults(self, system, tiny_traces):
        comparison = system.compare(tiny_traces["common"])
        assert comparison.baseline.scheme == "TEG_Original"
        assert comparison.optimised.scheme == "TEG_LoadBalance"


class TestEconomicsBridge:
    def test_tco_breakdown(self, system):
        breakdown = system.tco(4.177)
        assert breakdown.reduction_fraction == pytest.approx(0.0057,
                                                             abs=0.0004)
