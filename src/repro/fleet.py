"""Heterogeneous fleets: H2P across different CPU models.

The paper prototypes on one CPU (Xeon E5-2650 V3) but argues that "H2P
suits all types of CPUs" (Sec. VII) — the module clamps onto the outlet
piping, so only the thermal calibration changes per model.  This module
provides:

* :class:`CpuSpec` — a named CPU model: power envelope (scaling Eq. 20),
  maximum operating temperature and cold-plate thermal resistance scale;
* a small registry of representative specs;
* :class:`FleetMix` — a datacenter whose racks hold different CPU
  models.  Racks are homogeneous (as in practice), so each model gets
  its own circulations, policies and safe temperature; the mix result
  aggregates fleet-wide generation, PRE and TCO.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core.config import SimulationConfig, teg_loadbalance
from .core.engine import SimulationJob, run_batch
from .core.results import SimulationResult
from .errors import ConfigurationError, PhysicalRangeError
from .thermal.cpu_model import CpuThermalModel, OutletDeltaModel
from .workloads.trace import WorkloadTrace


@dataclass(frozen=True)
class CpuSpec:
    """One CPU model's thermal/power personality.

    Attributes
    ----------
    name:
        Marketing name.
    power_scale:
        Multiplier on the Eq. 20 power curve (a 145 W-TDP part runs
        ~1.4x the prototype's envelope).
    max_operating_temp_c:
        The vendor's temperature limit.
    resistance_scale:
        Multiplier on the junction-to-coolant thermal resistance (bigger
        dies spread heat better: < 1).
    safe_fraction:
        ``T_safe`` is this fraction of the max operating temperature
        (the paper uses ~80 %).
    """

    name: str
    power_scale: float = 1.0
    max_operating_temp_c: float = 78.9
    resistance_scale: float = 1.0
    safe_fraction: float = 0.79

    def __post_init__(self) -> None:
        if self.power_scale <= 0:
            raise PhysicalRangeError("power_scale must be > 0")
        if not 40.0 < self.max_operating_temp_c < 120.0:
            raise PhysicalRangeError(
                "max operating temperature outside the plausible band")
        if self.resistance_scale <= 0:
            raise PhysicalRangeError("resistance_scale must be > 0")
        if not 0.5 <= self.safe_fraction < 1.0:
            raise PhysicalRangeError(
                "safe_fraction must be in [0.5, 1)")

    @property
    def safe_temp_c(self) -> float:
        """The derated control target for this model."""
        return self.safe_fraction * self.max_operating_temp_c

    def thermal_model(self) -> CpuThermalModel:
        """A calibrated thermal model adjusted to this spec."""
        base = CpuThermalModel()
        return CpuThermalModel(
            r_min_k_per_w=base.r_min_k_per_w * self.resistance_scale,
            r_amp_k_per_w=base.r_amp_k_per_w * self.resistance_scale,
            max_operating_temp_c=self.max_operating_temp_c,
            power_scale=self.power_scale,
            outlet_model=OutletDeltaModel(
                load_delta_c=base.outlet_model.load_delta_c
                * self.power_scale),
        )


#: The prototype part (Sec. IV-A).
XEON_E5_2650_V3 = CpuSpec(name="Xeon E5-2650 v3")

#: A higher-TDP 22-core part of the same era.
XEON_E5_2699_V4 = CpuSpec(name="Xeon E5-2699 v4", power_scale=1.40,
                          max_operating_temp_c=81.0,
                          resistance_scale=0.85)

#: A dense many-core part with a hotter limit and a big heat spreader.
EPYC_CLASS = CpuSpec(name="EPYC-class 64c", power_scale=1.9,
                     max_operating_temp_c=90.0, resistance_scale=0.70)

#: A low-power edge part.
XEON_D_CLASS = CpuSpec(name="Xeon D-class", power_scale=0.45,
                       max_operating_temp_c=85.0,
                       resistance_scale=1.3)

CPU_SPECS: dict[str, CpuSpec] = {
    spec.name: spec
    for spec in (XEON_E5_2650_V3, XEON_E5_2699_V4, EPYC_CLASS,
                 XEON_D_CLASS)
}


@dataclass(frozen=True)
class FleetShareResult:
    """One CPU model's slice of the fleet evaluation."""

    spec: CpuSpec
    n_servers: int
    result: SimulationResult

    @property
    def generation_w(self) -> float:
        """Mean per-CPU generation of this slice."""
        return self.result.average_generation_w


@dataclass
class FleetMix:
    """A datacenter whose racks mix several CPU models.

    Attributes
    ----------
    shares:
        ``{spec: fraction}`` — fractions must sum to 1.
    config:
        Base scheme configuration; each slice gets its spec's safe
        temperature.
    """

    shares: dict[CpuSpec, float] = field(default_factory=lambda: {
        XEON_E5_2650_V3: 0.5, XEON_E5_2699_V4: 0.3, EPYC_CLASS: 0.2})
    config: SimulationConfig = field(default_factory=teg_loadbalance)

    def __post_init__(self) -> None:
        if not self.shares:
            raise ConfigurationError("shares must not be empty")
        total = sum(self.shares.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"shares must sum to 1, got {total}")
        if any(share <= 0 for share in self.shares.values()):
            raise ConfigurationError("every share must be > 0")

    def run(self, trace: WorkloadTrace,
            n_workers: int | None = None) -> list[FleetShareResult]:
        """Evaluate every model's slice on its portion of the trace.

        Server columns are dealt out contiguously in share order; each
        slice runs with its spec's thermal model and safe temperature.
        All slices run as one
        :class:`~repro.core.engine.BatchSimulationEngine` batch (one job
        per CPU model, parallel across slices, bit-identical to serial
        per-slice simulation); ``n_workers`` defers to ``REPRO_WORKERS``
        and then the CPU count when omitted.  A slice whose job fails
        raises its :class:`~repro.errors.JobExecutionError`.
        """
        jobs = []
        specs = []
        start = 0
        spec_list = list(self.shares)
        for index, spec in enumerate(spec_list):
            share = self.shares[spec]
            if index == len(spec_list) - 1:
                stop = trace.n_servers
            else:
                stop = start + max(1, int(round(share * trace.n_servers)))
                stop = min(stop, trace.n_servers)
            if stop <= start:
                raise ConfigurationError(
                    f"trace too narrow to give {spec.name} any servers")
            sub_trace = trace.slice_servers(start, stop)
            config = replace(
                self.config,
                name=f"{self.config.name}/{spec.name}",
                safe_temp_c=spec.safe_temp_c,
                circulation_size=min(self.config.circulation_size,
                                     sub_trace.n_servers))
            # Eq. 20 scaling enters through the spec's thermal model and
            # a scaled power accounting below.
            jobs.append(SimulationJob(trace=sub_trace, config=config,
                                      cpu_model=spec.thermal_model()))
            specs.append(spec)
            start = stop
        batch = run_batch(jobs, n_workers)
        if not batch.ok:
            # Results leave failed jobs out, so pairing them with the
            # slices would shift every later one onto the wrong spec.
            raise batch.failures[0].to_error()
        return [FleetShareResult(spec=spec, n_servers=job.trace.n_servers,
                                 result=result)
                for spec, job, result in zip(specs, jobs, batch.results)]

    @staticmethod
    def aggregate(outcomes: list[FleetShareResult]) -> dict:
        """Fleet-weighted headline metrics."""
        if not outcomes:
            raise ConfigurationError("no outcomes to aggregate")
        servers = np.array([outcome.n_servers for outcome in outcomes])
        generation = np.array([outcome.generation_w
                               for outcome in outcomes])
        # average_cpu_power_w already includes the spec's power scale
        # (it flows through the slice's thermal model).
        power = np.array([outcome.result.average_cpu_power_w
                          for outcome in outcomes])
        weights = servers / servers.sum()
        fleet_generation = float(np.sum(weights * generation))
        fleet_power = float(np.sum(weights * power))
        return {
            "fleet_generation_w": fleet_generation,
            "fleet_cpu_power_w": fleet_power,
            "fleet_pre": fleet_generation / fleet_power,
            "per_spec": {
                outcome.spec.name: {
                    "servers": int(outcome.n_servers),
                    "generation_w": round(outcome.generation_w, 3),
                    "safe_temp_c": round(outcome.spec.safe_temp_c, 1),
                    "violations":
                        outcome.result.total_safety_violations,
                }
                for outcome in outcomes
            },
        }
