"""Seasonal study tests."""

from dataclasses import replace

import pytest

from repro.core.seasonal import (
    MONTH_NAMES,
    SeasonalStudy,
    annual_summary,
)
from repro.core.simulator import DatacenterSimulator
from repro.environment import ColdSourceProfile, WetBulbProfile
from repro.errors import PhysicalRangeError
from repro.workloads.synthetic import common_trace


@pytest.fixture(scope="module")
def outcomes():
    trace = common_trace(n_servers=40, duration_s=6 * 3600.0, seed=6)
    return SeasonalStudy(trace=trace).run()


class TestConditions:
    def test_month_index_validated(self):
        study = SeasonalStudy(trace=common_trace(
            n_servers=20, duration_s=3600.0, seed=1))
        with pytest.raises(PhysicalRangeError):
            study.month_conditions(12)

    def test_summer_conditions_warmer(self):
        study = SeasonalStudy(trace=common_trace(
            n_servers=20, duration_s=3600.0, seed=1))
        jan_cold, jan_wb = study.month_conditions(0)
        jul_cold, jul_wb = study.month_conditions(6)
        assert jul_cold > jan_cold
        assert jul_wb > jan_wb


class TestRun:
    def test_each_month_is_its_serial_run(self):
        # 47 servers: circulations of 20, 20 and a ragged 7.
        study = SeasonalStudy(trace=common_trace(
            n_servers=47, duration_s=2 * 3600.0, seed=6))
        for index, outcome in enumerate(study.run()):
            cold, wet_bulb = study.month_conditions(index)
            serial = DatacenterSimulator(study.trace, replace(
                study.config, cold_source_temp_c=cold,
                wet_bulb_c=wet_bulb)).run()
            assert outcome.result.records == serial.records, outcome.month
            assert outcome.result.violations == serial.violations
            assert outcome.result.metrics.mode == "kernel"

    def test_twelve_months(self, outcomes):
        assert [outcome.month for outcome in outcomes] == list(MONTH_NAMES)

    def test_cold_source_in_lake_band(self, outcomes):
        low, high = ColdSourceProfile().range_c()
        for outcome in outcomes:
            assert low - 1e-9 <= outcome.cold_source_c <= high + 1e-9

    def test_winter_generates_more(self, outcomes):
        by_month = {outcome.month: outcome.generation_w
                    for outcome in outcomes}
        assert by_month["Jan"] > by_month["Aug"]

    def test_generation_tracks_cold_source(self, outcomes):
        import numpy as np

        cold = np.array([outcome.cold_source_c for outcome in outcomes])
        gen = np.array([outcome.generation_w for outcome in outcomes])
        assert np.corrcoef(cold, gen)[0, 1] < -0.9

    def test_facility_reports_attached(self, outcomes):
        for outcome in outcomes:
            assert outcome.facility.pue > 1.0


class TestAnnualSummary:
    def test_wrong_length_rejected(self, outcomes):
        with pytest.raises(PhysicalRangeError):
            annual_summary(outcomes[:5])

    def test_summary_consistent(self, outcomes):
        summary = annual_summary(outcomes)
        assert summary["generation_min_w"] \
            <= summary["generation_mean_w"] \
            <= summary["generation_max_w"]
        assert 0.0 < summary["seasonal_swing"] < 1.0
        assert summary["worst_month"] in ("Jul", "Aug", "Sep")
        assert summary["best_month"] in ("Dec", "Jan", "Feb", "Mar")
