"""Evaporative cooling tower.

In warm water cooling "the main cooling task can be undertaken by the
cooling tower via evaporation" (Sec. II-B).  A tower can cool the facility
water down to the ambient *wet-bulb* temperature plus an approach; when
that is not cold enough for the requested supply temperature, the chiller
has to trim the remainder — which is exactly the regime split the paper's
economics rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PhysicalRangeError


@dataclass(frozen=True)
class CoolingTower:
    """An evaporative (wet) cooling tower.

    Attributes
    ----------
    approach_c:
        Closest the leaving water can get to the ambient wet-bulb
        temperature (typical 3-6 degC for datacenter towers).
    fan_power_w_per_kw:
        Electrical fan + spray-pump power per kW of heat rejected;
        ~0.01-0.03 kW/kW for efficient towers, vastly cheaper than a
        chiller's 1/COP ~ 0.28 kW/kW.
    max_heat_kw:
        Rated heat-rejection capacity.
    """

    approach_c: float = 4.0
    fan_power_w_per_kw: float = 15.0
    max_heat_kw: float = 2000.0

    def __post_init__(self) -> None:
        if self.approach_c < 0:
            raise PhysicalRangeError(
                f"approach must be >= 0, got {self.approach_c}")
        if self.fan_power_w_per_kw < 0:
            raise PhysicalRangeError("fan power must be >= 0")
        if self.max_heat_kw <= 0:
            raise PhysicalRangeError("capacity must be > 0")

    def coldest_supply_c(self, wet_bulb_c: float) -> float:
        """Lowest water temperature the tower alone can deliver."""
        return wet_bulb_c + self.approach_c

    def can_reach(self, target_supply_c: float, wet_bulb_c: float) -> bool:
        """Whether free cooling alone can hit ``target_supply_c``."""
        return target_supply_c >= self.coldest_supply_c(wet_bulb_c)

    def electricity_w_for_heat(self, heat_w: float) -> float:
        """Fan/spray electricity to reject ``heat_w`` of heat."""
        if heat_w < 0:
            raise PhysicalRangeError(f"heat must be >= 0, got {heat_w}")
        if heat_w > self.max_heat_kw * 1000.0:
            raise PhysicalRangeError(
                f"heat load {heat_w/1000:.1f} kW exceeds tower capacity "
                f"{self.max_heat_kw} kW")
        return heat_w / 1000.0 * self.fan_power_w_per_kw

    def split_with_chiller(self, heat_w: float, target_supply_c: float,
                           wet_bulb_c: float) -> tuple[float, float]:
        """Partition a heat load between the tower and the chiller.

        Returns ``(tower_heat_w, chiller_heat_w)``.  When the target supply
        temperature is reachable by evaporation alone the chiller share is
        zero (the warm-water regime); otherwise the chiller must remove the
        fraction of the load proportional to the temperature shortfall
        relative to the loop temperature ranges — a standard sequencing
        approximation.
        """
        if heat_w < 0:
            raise PhysicalRangeError(f"heat must be >= 0, got {heat_w}")
        fraction = self.chiller_fraction(target_supply_c, wet_bulb_c)
        if fraction == 0.0:
            return heat_w, 0.0
        chiller_heat = heat_w * fraction
        return heat_w - chiller_heat, chiller_heat

    def chiller_fraction(self, target_supply_c: float,
                         wet_bulb_c: float) -> float:
        """The chiller's share of the load at ``target_supply_c``."""
        coldest = self.coldest_supply_c(wet_bulb_c)
        if target_supply_c >= coldest:
            return 0.0
        # The tower pre-cools to its limit; the chiller trims the rest.
        # Share is proportional to the shortfall over a nominal 10 degC
        # loop range, capped at the full load.
        return min(1.0, (coldest - target_supply_c) / 10.0)
