"""The top-level H2P system facade.

:class:`H2PSystem` is the entry point a downstream user starts from: it
wires the calibrated hardware models together and exposes one-call access
to the paper's main workflows — evaluating a trace under a scheme,
reproducing the Original-vs-LoadBalance comparison, sizing TEG modules
and computing the economics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..constants import NATURAL_WATER_TEMP_C
from ..economics.metrics import power_reusing_efficiency
from ..economics.tco import TcoModel, TcoBreakdown
from ..teg.module import TegModule, default_server_module
from ..thermal.cpu_model import CoolingSetting, CpuThermalModel
from ..workloads.trace import WorkloadTrace
from .config import SimulationConfig, teg_loadbalance, teg_original
from .results import SchemeComparison, SimulationResult
from .simulator import DatacenterSimulator, compare_schemes


@dataclass
class H2PSystem:
    """A warm water-cooled datacenter retrofitted with H2P.

    Attributes
    ----------
    cpu_model:
        Calibrated CPU thermal model (prototype: Xeon E5-2650 V3).
    teg_module:
        Per-server TEG module (prototype: 12x SP 1848-27145).
    cold_source_temp_c:
        Natural-water temperature at the TEG cold side.
    """

    cpu_model: CpuThermalModel = field(default_factory=CpuThermalModel)
    teg_module: TegModule = field(default_factory=default_server_module)
    cold_source_temp_c: float = NATURAL_WATER_TEMP_C

    # ------------------------------------------------------------------
    # Point evaluations
    # ------------------------------------------------------------------

    def server_generation_w(self, utilisation: float,
                            setting: CoolingSetting) -> float:
        """TEG output of one server at a load and cooling setting."""
        outlet = self.cpu_model.outlet_temp_c(utilisation, setting)
        return self.teg_module.generation_w(
            outlet, self.cold_source_temp_c, setting.flow_l_per_h)

    def server_pre(self, utilisation: float,
                   setting: CoolingSetting) -> float:
        """PRE (Eq. 19) of one server at a load and cooling setting."""
        generation = self.server_generation_w(utilisation, setting)
        consumption = self.cpu_model.cpu_power_w(utilisation)
        return power_reusing_efficiency(generation, consumption)

    def is_safe(self, utilisation: float, setting: CoolingSetting) -> bool:
        """Whether the CPU stays below its maximum operating temperature."""
        return self.cpu_model.is_safe(utilisation, setting)

    # ------------------------------------------------------------------
    # Trace-driven evaluation (Sec. V-C)
    # ------------------------------------------------------------------

    def evaluate(self, trace: WorkloadTrace,
                 config: SimulationConfig | None = None) -> SimulationResult:
        """Run one scheme over a trace (defaults to *TEG_Original*)."""
        config = config or teg_original()
        simulator = DatacenterSimulator(trace, config, self.cpu_model,
                                        self.teg_module)
        return simulator.run()

    def compare(self, trace: WorkloadTrace,
                baseline: SimulationConfig | None = None,
                optimised: SimulationConfig | None = None,
                result_cache=None) -> SchemeComparison:
        """The paper's headline comparison on one trace (Fig. 14).

        Runs :func:`~repro.core.simulator.compare_schemes`: each scheme
        is one :func:`~repro.core.engine.simulate` call with this
        system's models, bit-identical to the serial simulator.
        ``result_cache`` stores both runs under the same keys as a
        direct ``simulate`` call or a batch job (see
        :mod:`repro.core.cache`).
        """
        return compare_schemes(
            trace,
            baseline or teg_original(),
            optimised or teg_loadbalance(),
            self.cpu_model,
            self.teg_module,
            result_cache=result_cache,
        )

    # ------------------------------------------------------------------
    # Economics (Sec. V-D)
    # ------------------------------------------------------------------

    def tco(self, average_generation_w: float,
            model: TcoModel | None = None) -> TcoBreakdown:
        """TCO breakdown for a measured average per-CPU generation."""
        model = model or TcoModel()
        return model.breakdown(average_generation_w)
