"""A complete water circulation serving ``n`` servers.

In H2P's evaluation (Sec. V-A) servers are grouped into circulations, each
with its own CDU, chiller share and centralised pump; every server in a
circulation sees the same inlet temperature and flow rate.  This module
glues the substrates together: given per-server utilisations and a cooling
setting, it evaluates CPU temperatures, outlet temperatures, TEG
generation, the chiller's share of the heat, and pump power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..constants import NATURAL_WATER_TEMP_C
from ..errors import ConfigurationError, PhysicalRangeError
from ..teg.module import TegModule, default_server_module
from ..thermal.cpu_model import CoolingSetting, CpuThermalModel, cpu_power_w
from ..thermal.hydraulics import (
    PipeSegment,
    loop_pump_power_w,
    prototype_warm_loop,
)
from .cdu import CoolantDistributionUnit
from .chiller import Chiller
from .cooling_tower import CoolingTower


@dataclass(frozen=True)
class CirculationState:
    """Snapshot of one circulation after an evaluation step.

    All arrays are per-server and aligned with the utilisation input.
    """

    utilisations: np.ndarray
    cpu_temps_c: np.ndarray
    outlet_temps_c: np.ndarray
    cpu_powers_w: np.ndarray
    teg_powers_w: np.ndarray
    setting: CoolingSetting
    chiller_power_w: float
    tower_power_w: float
    pump_power_w: float

    @property
    def total_generation_w(self) -> float:
        """Total TEG output of the circulation."""
        return float(np.sum(self.teg_powers_w))

    @property
    def total_cpu_power_w(self) -> float:
        """Total CPU power consumption of the circulation."""
        return float(np.sum(self.cpu_powers_w))

    @property
    def max_cpu_temp_c(self) -> float:
        """Hottest CPU in the circulation (the safety-binding one)."""
        return float(np.max(self.cpu_temps_c))

    @property
    def mean_generation_w(self) -> float:
        """Average per-CPU TEG output (the paper's headline unit)."""
        return float(np.mean(self.teg_powers_w))


@dataclass
class WaterCirculation:
    """``n`` servers sharing one cooling loop, CDU and TEG cold source.

    Attributes
    ----------
    n_servers:
        Number of servers in the circulation.
    cpu_model:
        Thermal model shared by all (homogeneous) servers.
    teg_module:
        Per-server TEG module at each CPU outlet.
    cdu:
        Actuator for the cooling setting.
    chiller / tower:
        Facility equipment assigned to this circulation.
    cold_source_temp_c:
        Natural-water temperature on the TEG cold side (Sec. III-C).
    wet_bulb_c:
        Ambient wet-bulb temperature seen by the cooling tower.
    pipe_segments:
        Hydraulic elements per server branch, for pump-power accounting.
    """

    n_servers: int = 50
    cpu_model: CpuThermalModel = field(default_factory=CpuThermalModel)
    teg_module: TegModule = field(default_factory=default_server_module)
    cdu: CoolantDistributionUnit = field(
        default_factory=CoolantDistributionUnit)
    chiller: Chiller = field(default_factory=lambda: Chiller(capacity_kw=200))
    tower: CoolingTower = field(default_factory=CoolingTower)
    cold_source_temp_c: float = NATURAL_WATER_TEMP_C
    wet_bulb_c: float = 18.0
    pipe_segments: Sequence[PipeSegment] = field(
        default_factory=prototype_warm_loop)

    def __post_init__(self) -> None:
        if self.n_servers <= 0:
            raise PhysicalRangeError(
                f"n_servers must be > 0, got {self.n_servers}")

    def evaluate(self, utilisations: Sequence[float],
                 setting: CoolingSetting, *,
                 clamp_setting: bool = True,
                 cold_source_temp_c: float | None = None,
                 teg_output_factor: "np.ndarray | float" = 1.0
                 ) -> CirculationState:
        """Steady-state evaluation of the circulation at one instant.

        Parameters
        ----------
        utilisations:
            Per-server CPU utilisations in ``[0, 1]``; length must equal
            ``n_servers``.
        setting:
            The cooling setting to apply (clamped by the CDU).
        clamp_setting:
            Route the setting through the CDU actuator (the default).
            Fault injection passes ``False`` when the plant physically
            delivers something outside the actuator band (e.g. a stalled
            pump trickling below the valve minimum).
        cold_source_temp_c:
            Per-call override of the TEG cold-side temperature
            (chiller-loop excursion faults); ``None`` uses the nominal.
        teg_output_factor:
            Scalar or per-server multiplier on the nominal TEG output
            (open strings, accelerated fade); 1.0 means healthy.

        Returns
        -------
        CirculationState
            Per-server temperatures, generation, and facility powers.
        """
        utils = np.asarray(list(utilisations), dtype=float)
        if utils.shape != (self.n_servers,):
            raise ConfigurationError(
                f"expected {self.n_servers} utilisations, got {utils.shape}")
        if np.any((utils < 0) | (utils > 1)):
            raise PhysicalRangeError(
                "all utilisations must be in [0, 1]")
        applied = self.cdu.apply(setting) if clamp_setting else setting
        cold_side_c = (self.cold_source_temp_c if cold_source_temp_c is None
                       else cold_source_temp_c)

        # All model entry points are vectorised over utilisation.
        cpu_powers, cpu_temps, outlet_temps = self.cpu_model.response(
            utils, self.cpu_model.setting_terms(applied))
        teg_powers = self.teg_module.generation_w(
            outlet_temps, cold_side_c, applied.flow_l_per_h)
        teg_powers = teg_powers * teg_output_factor

        # Facility side: all captured heat returns through the CDU and is
        # rejected by tower and (if the set-point is below the tower's
        # reach) the chiller.
        captured_heat_w = float(np.sum(cpu_powers))
        tower_heat, chiller_heat = self.tower.split_with_chiller(
            captured_heat_w, applied.inlet_temp_c, self.wet_bulb_c)
        chiller_power = self.chiller.electricity_w_for_heat(chiller_heat)
        tower_power = self.tower.electricity_w_for_heat(tower_heat)
        pump_power = self.n_servers * loop_pump_power_w(
            self.pipe_segments, applied.flow_l_per_h, applied.inlet_temp_c)

        return CirculationState(
            utilisations=utils,
            cpu_temps_c=cpu_temps,
            outlet_temps_c=outlet_temps,
            cpu_powers_w=cpu_powers,
            teg_powers_w=teg_powers,
            setting=applied,
            chiller_power_w=chiller_power,
            tower_power_w=tower_power,
            pump_power_w=pump_power,
        )

    def safety_violations(self, state: CirculationState,
                          margin_c: float = 0.0) -> list[int]:
        """Indices of servers above the CPU's maximum operating temperature."""
        limit = self.cpu_model.max_operating_temp_c - margin_c
        return [int(i) for i in
                np.nonzero(state.cpu_temps_c > limit)[0]]
