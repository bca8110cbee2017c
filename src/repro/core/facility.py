"""Facility-level energy accounting: PUE and ERE for a simulated run.

Ties the Fig. 1 plant together: IT power (CPUs plus the rest of the
server), cooling power (chiller + tower + pumps from the simulation),
power-delivery losses (UPS/distribution), lighting — and the TEG output
as *reused* energy, yielding the ERE metric Sec. II-C motivates
("maximizing energy reuse enables the ratio less than 1").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..economics.metrics import (
    energy_reuse_effectiveness,
    power_usage_effectiveness,
)
from ..errors import PhysicalRangeError
from .results import SimulationResult


@dataclass(frozen=True)
class FacilityReport:
    """Aggregated facility energy flows over one simulated run (kWh)."""

    it_kwh: float
    cooling_kwh: float
    power_delivery_kwh: float
    lighting_kwh: float
    reuse_kwh: float

    @property
    def pue(self) -> float:
        """Power usage effectiveness (ignores reuse)."""
        return power_usage_effectiveness(
            self.it_kwh, self.cooling_kwh, self.power_delivery_kwh,
            self.lighting_kwh)

    @property
    def ere(self) -> float:
        """Energy reuse effectiveness (credits the TEG output)."""
        return energy_reuse_effectiveness(
            self.it_kwh, self.cooling_kwh, self.power_delivery_kwh,
            self.lighting_kwh, self.reuse_kwh)

    @property
    def ere_gain(self) -> float:
        """How much the TEGs improved the facility metric (PUE − ERE)."""
        return self.pue - self.ere


@dataclass(frozen=True)
class FacilityModel:
    """Overheads that turn a cluster simulation into facility totals.

    Attributes
    ----------
    server_overhead_factor:
        IT power per server divided by CPU power (memory, disks, fans,
        VRs; ~1.6 for the 2-socket class the paper measures).
    power_delivery_loss:
        Fraction of IT+cooling power lost in UPS/distribution (Sec. VI-D
        notes DC distribution can shrink this).
    lighting_fraction:
        Lighting as a fraction of IT power ("representing 1 %",
        Sec. VI-C2).
    """

    server_overhead_factor: float = 1.6
    power_delivery_loss: float = 0.06
    lighting_fraction: float = 0.01

    def __post_init__(self) -> None:
        if self.server_overhead_factor < 1.0:
            raise PhysicalRangeError(
                "server_overhead_factor must be >= 1 (CPU included)")
        if not 0.0 <= self.power_delivery_loss < 1.0:
            raise PhysicalRangeError(
                "power_delivery_loss must be in [0, 1)")
        if self.lighting_fraction < 0.0:
            raise PhysicalRangeError("lighting_fraction must be >= 0")

    def assess(self, result: SimulationResult) -> FacilityReport:
        """Roll a simulation result up into facility energy flows.

        Reads the result's step columns, so a kernel result
        materialises no per-step record; an empty result assesses to
        zero energy throughout.
        """
        if not len(result.records):
            return FacilityReport(0.0, 0.0, 0.0, 0.0, 0.0)
        series = result._series
        hours = result.interval_s / 3600.0
        cpu_kw = (series("cpu_power_per_cpu_w") * result.n_servers
                  / 1000.0)
        it_kw = cpu_kw * self.server_overhead_factor
        cooling_kw = (series("chiller_power_w") + series("tower_power_w")
                      + series("pump_power_w")) / 1000.0
        delivery_kw = (it_kw + cooling_kw) * self.power_delivery_loss
        lighting_kw = it_kw * self.lighting_fraction
        reuse_kw = (series("generation_per_cpu_w") * result.n_servers
                    / 1000.0)
        return FacilityReport(
            it_kwh=float(it_kw.sum() * hours),
            cooling_kwh=float(cooling_kw.sum() * hours),
            power_delivery_kwh=float(delivery_kw.sum() * hours),
            lighting_kwh=float(lighting_kw.sum() * hours),
            reuse_kwh=float(reuse_kw.sum() * hours),
        )
