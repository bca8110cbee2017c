"""Fault injection through the full simulator: degradation and accounting."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig, teg_original
from repro.core.engine import simulate
from repro.core.simulator import DatacenterSimulator
from repro.errors import CoolingFailureError
from repro.faults import FaultSchedule, FaultSpec
from repro.workloads.synthetic import common_trace

pytestmark = pytest.mark.faults

TRACE_KWARGS = dict(n_servers=40, duration_s=4 * 3600.0,
                    interval_s=300.0, seed=12)


def trace():
    return common_trace(**TRACE_KWARGS)


def run(schedule, config=None, **config_overrides):
    config = config or teg_original(**config_overrides)
    return DatacenterSimulator(trace(), config, faults=schedule).run()


class TestNominalEquivalence:
    def test_none_schedule_matches_no_schedule(self):
        assert run(None) == DatacenterSimulator(trace(),
                                                teg_original()).run()

    def test_empty_schedule_is_bit_identical_to_nominal(self):
        nominal = run(None)
        empty = run(FaultSchedule())
        assert empty == nominal
        assert empty.degraded_steps == 0
        assert empty.total_lost_harvest_kwh == 0.0

    def test_engine_fast_path_unchanged_with_faults_disabled(self):
        nominal = DatacenterSimulator(trace(), teg_original()).run()
        engine = simulate(trace(), teg_original(), faults=None)
        assert engine == nominal
        assert engine.metrics.mode == "kernel"


class TestDegradedMode:
    def test_pump_stall_degrades_only_its_window(self):
        stall = FaultSchedule(specs=(
            FaultSpec(kind="pump_stall", start_s=3600.0,
                      duration_s=3600.0),), seed=3)
        result = run(stall)
        flags = np.array([record.degraded_circulations
                          for record in result.records])
        times = result.times_s
        inside = (times >= 3600.0) & (times < 7200.0)
        assert np.all(flags[inside] > 0)
        assert np.all(flags[~inside] == 0)

    def test_implausible_sensor_triggers_conservative_fallback(self):
        # A stuck-at value far outside [0, 1] is implausible, so every
        # step degrades instead of feeding garbage to the policy.
        stuck = FaultSchedule(specs=(
            FaultSpec(kind="sensor_stuck", magnitude=9.0),), seed=3)
        result = run(stuck)
        assert result.degraded_steps == len(result.records)

    def test_small_noise_is_clipped_not_degraded(self):
        noisy = FaultSchedule(specs=(
            FaultSpec(kind="sensor_noise", magnitude=0.01),), seed=3)
        result = run(noisy)
        assert result.degraded_steps == 0

    def test_lost_harvest_is_positive_under_open_circuit(self):
        broken = FaultSchedule(specs=(
            FaultSpec(kind="teg_open_circuit", magnitude=0.5),), seed=3)
        nominal = run(None)
        result = run(broken)
        assert result.total_lost_harvest_kwh > 0.0
        assert result.average_generation_w < nominal.average_generation_w

    def test_active_fault_count_recorded(self):
        schedule = FaultSchedule(specs=(
            FaultSpec(kind="sensor_bias", magnitude=0.02),
            FaultSpec(kind="chiller_excursion", magnitude=4.0,
                      start_s=7200.0),), seed=3)
        result = run(schedule)
        assert result.records[0].active_faults == 1
        assert result.records[-1].active_faults == 2

    def test_summary_includes_degraded_keys_only_when_faulted(self):
        assert "degraded_steps" not in run(None).summary()
        stall = FaultSchedule(specs=(FaultSpec(kind="pump_stall"),),
                              seed=3)
        summary = run(stall).summary()
        assert summary["degraded_steps"] > 0
        assert summary["lost_harvest_kwh"] >= 0.0


class TestFaultedDeterminism:
    def schedule(self, seed):
        return FaultSchedule(specs=(
            FaultSpec(kind="sensor_noise", magnitude=0.15),
            FaultSpec(kind="teg_open_circuit", magnitude=0.3),
            FaultSpec(kind="pump_derate", magnitude=0.4,
                      start_s=3600.0),), seed=seed)

    def test_same_seed_is_bit_identical(self):
        assert run(self.schedule(7)) == run(self.schedule(7))

    def test_different_seed_differs(self):
        assert run(self.schedule(7)) != run(self.schedule(8))

    def test_engine_faulted_path_matches_serial(self):
        schedule = self.schedule(7)
        serial = run(schedule)
        engine = simulate(trace(), teg_original(), faults=schedule)
        assert engine == serial
        assert engine.metrics.mode == "loop"  # fault path is serial


class TestSafetyViolationRecords:
    def unsafe_config(self, **overrides):
        from repro.thermal.cpu_model import CoolingSetting

        # An aggressive static setting at full load trips the CPU limit.
        return SimulationConfig(
            name="unsafe", policy="static",
            static_setting=CoolingSetting(flow_l_per_h=20.0,
                                          inlet_temp_c=58.0),
            **overrides)

    def hot_trace(self):
        utils = np.full((6, 40), 1.0)
        base = trace()
        return type(base)(name="hot", interval_s=300.0,
                          utilisation=utils)

    def test_non_strict_records_every_violation(self):
        result = DatacenterSimulator(self.hot_trace(),
                                     self.unsafe_config()).run()
        assert result.total_safety_violations > 0
        assert len(result.violations) == result.total_safety_violations
        first = result.violations[0]
        assert 0 <= first.server_id < 40
        assert first.step_index == 0
        assert first.time_s == 0.0
        assert first.temperature_c > 0.0

    def test_strict_raises_with_step_index(self):
        config = self.unsafe_config(strict_safety=True)
        with pytest.raises(CoolingFailureError) as excinfo:
            DatacenterSimulator(self.hot_trace(), config).run()
        error = excinfo.value
        assert error.step_index == 0
        assert error.server_id is not None
        assert error.temperature_c is not None

    def test_safe_run_has_no_violation_records(self):
        result = DatacenterSimulator(trace(), teg_original()).run()
        assert result.violations == []
