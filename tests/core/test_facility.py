"""Facility-level PUE/ERE accounting tests."""

import pytest

from repro.core.facility import FacilityModel, FacilityReport
from repro.core.results import SimulationResult, StepRecord
from repro.errors import PhysicalRangeError


def make_result(gen=4.0, cpu=30.0, chiller=0.0, tower=50.0, pump=100.0,
                steps=4, servers=100):
    result = SimulationResult(scheme="s", trace_name="t",
                              n_servers=servers, interval_s=900.0)
    for i in range(steps):
        result.append(StepRecord(
            time_s=i * 900.0, mean_utilisation=0.25, max_utilisation=0.5,
            generation_per_cpu_w=gen, cpu_power_per_cpu_w=cpu,
            mean_inlet_temp_c=52.0, mean_flow_l_per_h=100.0,
            max_cpu_temp_c=60.0, chiller_power_w=chiller,
            tower_power_w=tower, pump_power_w=pump, safety_violations=0))
    return result


class TestValidation:
    def test_bad_overhead_rejected(self):
        with pytest.raises(PhysicalRangeError):
            FacilityModel(server_overhead_factor=0.5)

    def test_bad_loss_rejected(self):
        with pytest.raises(PhysicalRangeError):
            FacilityModel(power_delivery_loss=1.0)

    def test_bad_lighting_rejected(self):
        with pytest.raises(PhysicalRangeError):
            FacilityModel(lighting_fraction=-0.1)


class TestAssessment:
    def test_it_energy(self):
        report = FacilityModel(server_overhead_factor=1.6).assess(
            make_result())
        # 100 servers * 30 W * 1.6 = 4.8 kW for 4 * 0.25 h = 4.8 kWh.
        assert report.it_kwh == pytest.approx(4.8)

    def test_reuse_energy(self):
        report = FacilityModel().assess(make_result())
        # 100 * 4 W over 1 h = 0.4 kWh.
        assert report.reuse_kwh == pytest.approx(0.4)

    def test_pue_above_one(self):
        report = FacilityModel().assess(make_result())
        assert report.pue > 1.0

    def test_ere_below_pue(self):
        report = FacilityModel().assess(make_result())
        assert report.ere < report.pue
        assert report.ere_gain == pytest.approx(report.pue - report.ere)

    def test_no_generation_means_ere_equals_pue(self):
        report = FacilityModel().assess(make_result(gen=0.0))
        assert report.ere == pytest.approx(report.pue)

    def test_chiller_raises_pue(self):
        free = FacilityModel().assess(make_result(chiller=0.0))
        chilled = FacilityModel().assess(make_result(chiller=3000.0))
        assert chilled.pue > free.pue

    def test_end_to_end_warm_water_pue(self, tiny_traces):
        # A warm-water H2P run should land in a plausible PUE regime and
        # show a measurable ERE gain.
        import repro

        result = repro.H2PSystem().evaluate(
            tiny_traces["common"], repro.teg_loadbalance())
        report = FacilityModel().assess(result)
        assert 1.0 < report.pue < 1.6
        assert report.ere_gain > 0.03


class TestColumnarAssessment:
    def test_kernel_result_assesses_like_serial_without_records(
            self, tiny_traces):
        from repro.core.config import teg_original
        from repro.core.engine import simulate
        from repro.core.results import ColumnarSteps
        from repro.core.simulator import DatacenterSimulator

        trace = tiny_traces["drastic"]
        serial = DatacenterSimulator(trace, teg_original()).run()
        kernel = simulate(trace, teg_original(), mode="kernel")
        assert isinstance(kernel.records, ColumnarSteps)
        model = FacilityModel()
        assert model.assess(kernel) == model.assess(serial)
        assert kernel.records._cache == {}

    def test_empty_result_assesses_to_zero(self):
        report = FacilityModel().assess(make_result(steps=0))
        assert report == FacilityReport(0.0, 0.0, 0.0, 0.0, 0.0)


class TestReportArithmetic:
    def test_report_is_frozen(self):
        report = FacilityReport(it_kwh=10.0, cooling_kwh=1.0,
                                power_delivery_kwh=0.5, lighting_kwh=0.1,
                                reuse_kwh=0.4)
        with pytest.raises(AttributeError):
            report.it_kwh = 5.0

    def test_hand_computed_metrics(self):
        report = FacilityReport(it_kwh=100.0, cooling_kwh=10.0,
                                power_delivery_kwh=5.0, lighting_kwh=1.0,
                                reuse_kwh=16.0)
        assert report.pue == pytest.approx(1.16)
        assert report.ere == pytest.approx(1.00)
