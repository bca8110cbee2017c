"""Seasonal (annual) evaluation of an H2P deployment.

The paper's evaluation spans 12-24 hours at a fixed 20 °C cold source.
Over a year, the natural-water cold side and the ambient wet-bulb both
drift (Sec. III-C's lake is "15-20 °C perennially"), moving the TEG
output and the facility's free-cooling ability with the seasons.

:class:`SeasonalStudy` replays one representative day per month with the
month's cold-source and wet-bulb temperatures taken from the environment
profiles, producing the annual generation/PRE/facility profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..environment import ColdSourceProfile, WetBulbProfile
from ..errors import PhysicalRangeError
from ..workloads.trace import WorkloadTrace
from .config import SimulationConfig, teg_loadbalance
from .engine import simulate
from .facility import FacilityModel, FacilityReport
from .results import SimulationResult

_SECONDS_PER_DAY = 86_400.0
_MONTH_STARTS_DOY = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304,
                     334)
MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
               "Sep", "Oct", "Nov", "Dec")


@dataclass(frozen=True)
class MonthOutcome:
    """One month's representative-day evaluation."""

    month: str
    cold_source_c: float
    wet_bulb_c: float
    result: SimulationResult
    facility: FacilityReport

    @property
    def generation_w(self) -> float:
        """Mean per-CPU generation of the month."""
        return self.result.average_generation_w


@dataclass
class SeasonalStudy:
    """Twelve representative days spanning one year.

    Attributes
    ----------
    trace:
        The workload replayed each month (typically one synthetic day).
    config:
        Scheme configuration; its cold-source/wet-bulb fields are
        overridden month by month.
    cold_source / wet_bulb:
        The environment profiles supplying the monthly temperatures.
    """

    trace: WorkloadTrace
    config: SimulationConfig = field(default_factory=teg_loadbalance)
    cold_source: ColdSourceProfile = field(
        default_factory=ColdSourceProfile)
    wet_bulb: WetBulbProfile = field(default_factory=WetBulbProfile)
    facility: FacilityModel = field(default_factory=FacilityModel)

    def month_conditions(self, month_index: int) -> tuple[float, float]:
        """(cold source, wet bulb) at the middle of a month."""
        if not 0 <= month_index < 12:
            raise PhysicalRangeError(
                f"month index must be in [0, 12), got {month_index}")
        mid_day = _MONTH_STARTS_DOY[month_index] + 15.0
        t_seconds = mid_day * _SECONDS_PER_DAY
        return (self.cold_source.at(t_seconds),
                self.wet_bulb.at(t_seconds))

    def run(self) -> list[MonthOutcome]:
        """Evaluate all twelve months.

        Each month is one :func:`~repro.core.engine.simulate` call with
        the month's config: bit-identical to the serial simulator, with
        engine metrics attached, and following ``REPRO_CACHE`` and
        ``REPRO_TELEMETRY`` as ``simulate`` does.

        Returns
        -------
        list of MonthOutcome
            January through December.
        """
        outcomes = []
        for month_index, month_name in enumerate(MONTH_NAMES):
            cold, wet_bulb = self.month_conditions(month_index)
            config = replace(self.config, cold_source_temp_c=cold,
                             wet_bulb_c=wet_bulb)
            result = simulate(self.trace, config)
            outcomes.append(MonthOutcome(
                month=month_name,
                cold_source_c=cold,
                wet_bulb_c=wet_bulb,
                result=result,
                facility=self.facility.assess(result),
            ))
        return outcomes


def annual_summary(outcomes: list[MonthOutcome]) -> dict:
    """Roll twelve monthly outcomes into annual headline numbers."""
    if len(outcomes) != 12:
        raise PhysicalRangeError(
            f"expected 12 monthly outcomes, got {len(outcomes)}")
    generation = np.array([outcome.generation_w for outcome in outcomes])
    pre = np.array([outcome.result.average_pre for outcome in outcomes])
    pue = np.array([outcome.facility.pue for outcome in outcomes])
    return {
        "generation_mean_w": float(generation.mean()),
        "generation_min_w": float(generation.min()),
        "generation_max_w": float(generation.max()),
        "seasonal_swing": float(
            (generation.max() - generation.min()) / generation.mean()),
        "pre_mean": float(pre.mean()),
        "pue_mean": float(pue.mean()),
        "best_month": outcomes[int(np.argmax(generation))].month,
        "worst_month": outcomes[int(np.argmin(generation))].month,
    }
