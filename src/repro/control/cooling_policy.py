"""Cooling-setting policies (Sec. V-B1).

Every control interval (5 minutes in the paper) the CDU of each water
circulation must pick a cooling setting ``{f, T_warm_in}``.  The paper's
policy maximises the TEG output subject to keeping the *binding* CPU at
the safe temperature:

* Step 1 — take the binding utilisation ``U`` of the circulation
  (``U_max`` without scheduling, ``U_avg`` after ideal balancing);
* Step 2 — slice the measurement space for points with
  ``T_CPU`` within ``T_safe ± 1 degC``;
* Step 3 — among those, pick the setting with the largest TEG power
  (Eq. 2 + Eq. 7).

Three policy classes are provided: the verbatim lookup-space search, an
analytic policy that inverts the calibrated model directly (and can charge
pump power against generation), and a static baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from ..constants import CPU_SAFE_TEMP_C, NATURAL_WATER_TEMP_C
from ..errors import ConfigurationError, PhysicalRangeError
from ..teg.module import TegModule, default_server_module, flow_coupling
from ..thermal.cpu_model import CoolingSetting, CpuThermalModel
from ..thermal.hydraulics import PipeSegment, loop_pump_power_w, prototype_warm_loop
from .lookup_space import LookupSpace


@dataclass(frozen=True)
class PolicyDecision:
    """A policy's output for one control interval.

    Attributes
    ----------
    setting:
        The cooling setting to apply.
    binding_utilisation:
        The utilisation the decision was keyed on (``U_max`` or ``U_avg``).
    predicted_cpu_temp_c / predicted_outlet_temp_c:
        Model predictions at the binding utilisation.
    predicted_generation_w:
        Per-server TEG power the policy expects.
    """

    setting: CoolingSetting
    binding_utilisation: float
    predicted_cpu_temp_c: float
    predicted_outlet_temp_c: float
    predicted_generation_w: float


class CoolingPolicy(Protocol):
    """Anything that maps per-server utilisations to a cooling setting."""

    def decide(self, utilisations: Sequence[float]) -> PolicyDecision:
        """Choose the cooling setting for the next control interval."""
        ...


def _check_bindings(bindings: Sequence[float]) -> np.ndarray:
    """Validate a batch of pre-aggregated binding utilisations.

    Mirrors the element validation in :func:`_binding_utilisation` (the
    error class and message match the scalar path) but accepts an empty
    batch — ``decide_batch([])`` is a no-op, not a misconfiguration.
    """
    utils = np.asarray([float(b) for b in bindings], dtype=float)
    if utils.size and np.any((utils < 0) | (utils > 1)):
        raise PhysicalRangeError("all utilisations must be in [0, 1]")
    return utils


def _binding_utilisation(utilisations: Sequence[float],
                         aggregation: str) -> float:
    utils = np.asarray(list(utilisations), dtype=float)
    if utils.size == 0:
        raise ConfigurationError("utilisation list must not be empty")
    if np.any((utils < 0) | (utils > 1)):
        raise PhysicalRangeError("all utilisations must be in [0, 1]")
    if aggregation == "max":
        return float(utils.max())
    if aggregation == "avg":
        return float(utils.mean())
    raise ConfigurationError(
        f"aggregation must be 'max' or 'avg', got {aggregation!r}")


def conservative_setting(policy) -> CoolingSetting:
    """The safest setting a policy's actuator space offers.

    Coldest admissible inlet at the fastest admissible flow — the
    degraded-mode fallback when sensor readings are implausible or a
    plant fault has tripped (harvesting efficiency is sacrificed for
    thermal headroom).  Works for all three policy classes:

    * :class:`LookupSpacePolicy` — last flow / first inlet of its grid;
    * :class:`AnalyticPolicy` — fastest candidate flow at ``inlet_min_c``;
    * anything else (e.g. :class:`StaticPolicy`) — the prototype's full
      actuator range (300 L/h at 20 °C).
    """
    space = getattr(policy, "space", None)
    if space is not None:
        return CoolingSetting(flow_l_per_h=float(space.flow_grid[-1]),
                              inlet_temp_c=float(space.inlet_grid[0]))
    flows = getattr(policy, "flow_candidates", None)
    inlet_min = getattr(policy, "inlet_min_c", None)
    if flows and inlet_min is not None:
        return CoolingSetting(flow_l_per_h=float(max(flows)),
                              inlet_temp_c=float(inlet_min))
    return CoolingSetting(flow_l_per_h=300.0, inlet_temp_c=20.0)


@dataclass
class StaticPolicy:
    """A fixed cooling setting — the unoptimised warm-water baseline."""

    setting: CoolingSetting = field(default_factory=lambda: CoolingSetting(
        flow_l_per_h=50.0, inlet_temp_c=45.0))
    model: CpuThermalModel = field(default_factory=CpuThermalModel)
    teg_module: TegModule = field(default_factory=default_server_module)
    cold_source_temp_c: float = NATURAL_WATER_TEMP_C
    aggregation: str = "max"

    def decide(self, utilisations: Sequence[float]) -> PolicyDecision:
        """Always return the configured setting (with model predictions)."""
        binding = _binding_utilisation(utilisations, self.aggregation)
        cpu_temp = self.model.cpu_temp_c(binding, self.setting)
        outlet = self.model.outlet_temp_c(binding, self.setting)
        generation = self.teg_module.generation_w(
            outlet, self.cold_source_temp_c, self.setting.flow_l_per_h)
        return PolicyDecision(
            setting=self.setting,
            binding_utilisation=binding,
            predicted_cpu_temp_c=cpu_temp,
            predicted_outlet_temp_c=outlet,
            predicted_generation_w=generation,
        )

    def decide_batch(self, bindings: Sequence[float]
                     ) -> list[PolicyDecision]:
        """Decisions for many pre-aggregated binding utilisations.

        Element ``i`` equals ``decide([bindings[i]])``: the model and
        TEG arithmetic is elementwise, so evaluating the whole batch in
        one pass reproduces each scalar prediction bit for bit.
        """
        utils = _check_bindings(bindings)
        if utils.size == 0:
            return []
        cpu_temps = self.model.cpu_temp_c(utils, self.setting)
        outlets = self.model.outlet_temp_c(utils, self.setting)
        generations = self.teg_module.generation_w(
            outlets, self.cold_source_temp_c, self.setting.flow_l_per_h)
        return [
            PolicyDecision(
                setting=self.setting,
                binding_utilisation=float(utils[i]),
                predicted_cpu_temp_c=float(cpu_temps[i]),
                predicted_outlet_temp_c=float(outlets[i]),
                predicted_generation_w=float(generations[i]),
            )
            for i in range(utils.size)
        ]


@dataclass
class LookupSpacePolicy:
    """The paper's Step 1-3 search over the measurement space (Fig. 13).

    Attributes
    ----------
    space:
        The fitted measurement space.
    safe_temp_c / tolerance_c:
        The ``T_safe ± tol`` slice of Step 2.
    aggregation:
        ``"max"`` keys on the hottest server (*TEG_Original*); ``"avg"``
        keys on the mean (*TEG_LoadBalance* after balancing).

    When no grid point is near ``T_safe`` (extreme loads), the search
    falls back to the safe points below the band, or else to the
    coldest, fastest setting available — safety first.
    """

    space: LookupSpace = field(default_factory=LookupSpace)
    teg_module: TegModule = field(default_factory=default_server_module)
    cold_source_temp_c: float = NATURAL_WATER_TEMP_C
    safe_temp_c: float = CPU_SAFE_TEMP_C
    tolerance_c: float = 1.0
    aggregation: str = "max"
    #: Decisions are cached on the binding utilisation quantised to this
    #: resolution; the lookup grid itself is much coarser, so this loses
    #: no fidelity while making cluster-scale simulation cheap.
    cache_resolution: float = 0.005
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def decide(self, utilisations: Sequence[float]) -> PolicyDecision:
        """Pick the near-``T_safe`` setting with the largest TEG output.

        A memo miss runs the batch search on the one binding, so this
        equals :meth:`decide_batch` by construction.
        """
        binding = _binding_utilisation(utilisations, self.aggregation)
        key = round(binding / self.cache_resolution)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        decision = self._decide_uncached_batch([binding])[0]
        self._cache[key] = decision
        return decision

    def decide_batch(self, bindings: Sequence[float]
                     ) -> list[PolicyDecision]:
        """Decisions for many pre-aggregated binding utilisations.

        Element ``i`` equals ``decide([bindings[i]])`` bit for bit, and
        the memo ends up in the same state: bindings that miss the memo
        are evaluated against the interpolated planes in one vectorised
        pass, then inserted in first-occurrence order — exactly the
        order the scalar loop would have primed them in.
        """
        utils = _check_bindings(bindings)
        keys = [round(float(b) / self.cache_resolution) for b in utils]
        novel: dict[int, float] = {}
        for key, binding in zip(keys, utils):
            if key not in self._cache and key not in novel:
                novel[key] = float(binding)
        if novel:
            computed = self._decide_uncached_batch(list(novel.values()))
            for key, decision in zip(novel, computed):
                self._cache[key] = decision
        return [self._cache[key] for key in keys]

    def _decide_uncached_batch(self, bindings: Sequence[float]
                               ) -> list[PolicyDecision]:
        """The Step 1-3 search for each binding, all at once.

        Each row's ``(flow, inlet)`` plane is scanned flow-major for the
        first maximum of the TEG output over the points in the ``T_safe
        ± tol`` band; with none in band, over the points below it (the
        load is too light to reach the band); with none below it either,
        every setting overshoots and the row emergency-cools at the
        coldest inlet and fastest flow.  One ``argmax`` over the
        ``-inf``-masked, flow-major-raveled ``(n, F * I)`` outputs picks
        each row's point, and the planes, the outputs and the picks are
        gathered by index.
        """
        if self.tolerance_c <= 0:
            raise PhysicalRangeError(
                f"tolerance must be > 0, got {self.tolerance_c}")
        space = self.space
        flow_grid = space.flow_grid.astype(float)
        inlet_grid = space.inlet_grid.astype(float)
        cpu, outlet = space.plane_temperatures_batch(bindings)
        coupling = np.array([flow_coupling(flow) for flow in flow_grid])
        power = self.teg_module.coupled_generation_w(
            outlet, self.cold_source_temp_c, coupling[:, None])
        n, n_flows, n_inlets = cpu.shape
        in_band = np.abs(cpu - self.safe_temp_c) <= self.tolerance_c
        mask = np.where(in_band.any(axis=(1, 2))[:, None, None], in_band,
                        cpu <= self.safe_temp_c + self.tolerance_c)
        mask = mask.reshape(n, n_flows * n_inlets)
        flat = np.where(mask.any(axis=1),
                        np.where(mask, power.reshape(mask.shape),
                                 -np.inf).argmax(axis=1),
                        (n_flows - 1) * n_inlets)
        j, k = np.divmod(flat, n_inlets)
        row = np.arange(n)
        settings: dict = {}
        decisions = []
        for binding, flow, inlet, cpu_temp, out_temp, best_power in zip(
                bindings, flow_grid[j].tolist(), inlet_grid[k].tolist(),
                cpu[row, j, k].tolist(), outlet[row, j, k].tolist(),
                power[row, j, k].tolist()):
            setting = settings.get((flow, inlet))
            if setting is None:
                setting = settings[flow, inlet] = CoolingSetting(
                    flow_l_per_h=flow, inlet_temp_c=inlet)
            decisions.append(PolicyDecision(
                setting=setting,
                binding_utilisation=float(binding),
                predicted_cpu_temp_c=cpu_temp,
                predicted_outlet_temp_c=out_temp,
                predicted_generation_w=best_power,
            ))
        return decisions


@dataclass
class AnalyticPolicy:
    """Continuous-optimum policy inverting the calibrated model.

    For each candidate flow the constraint ``T_CPU(U, f, T_in) = T_safe``
    is solved exactly for the inlet temperature; the flow maximising the
    (optionally pump-net) TEG output wins.  This is the idealised version
    of the lookup search and doubles as an upper bound on it.

    Attributes
    ----------
    net_of_pump:
        If True, maximise ``P_TEG - P_pump / n_servers_per_pump`` instead
        of raw generation (the Sec. IV-B flow-rate caveat).
    """

    model: CpuThermalModel = field(default_factory=CpuThermalModel)
    teg_module: TegModule = field(default_factory=default_server_module)
    cold_source_temp_c: float = NATURAL_WATER_TEMP_C
    safe_temp_c: float = CPU_SAFE_TEMP_C
    aggregation: str = "max"
    flow_candidates: Sequence[float] = (
        20.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0)
    inlet_min_c: float = 20.0
    inlet_max_c: float = 60.0
    net_of_pump: bool = False
    pipe_segments: Sequence[PipeSegment] = field(
        default_factory=prototype_warm_loop)

    def decide(self, utilisations: Sequence[float]) -> PolicyDecision:
        """Maximise predicted generation subject to ``T_CPU <= T_safe``."""
        binding = _binding_utilisation(utilisations, self.aggregation)
        best: PolicyDecision | None = None
        best_objective = -np.inf
        for flow in self.flow_candidates:
            inlet = self.model.inlet_for_cpu_temp(binding, flow,
                                                  self.safe_temp_c)
            inlet = min(max(inlet, self.inlet_min_c), self.inlet_max_c)
            setting = CoolingSetting(flow_l_per_h=flow, inlet_temp_c=inlet)
            cpu_temp = self.model.cpu_temp_c(binding, setting)
            if cpu_temp > self.safe_temp_c + 1.0:
                continue  # clamped inlet still too hot at this flow
            outlet = self.model.outlet_temp_c(binding, setting)
            generation = self.teg_module.generation_w(
                outlet, self.cold_source_temp_c, flow)
            objective = generation
            if self.net_of_pump:
                objective -= loop_pump_power_w(self.pipe_segments, flow,
                                               inlet)
            if objective > best_objective:
                best_objective = objective
                best = PolicyDecision(
                    setting=setting,
                    binding_utilisation=binding,
                    predicted_cpu_temp_c=cpu_temp,
                    predicted_outlet_temp_c=outlet,
                    predicted_generation_w=generation,
                )
        if best is None:
            # Even the coldest admissible inlet overheats: emergency cool.
            flow = max(self.flow_candidates)
            setting = CoolingSetting(flow_l_per_h=flow,
                                     inlet_temp_c=self.inlet_min_c)
            outlet = self.model.outlet_temp_c(binding, setting)
            best = PolicyDecision(
                setting=setting,
                binding_utilisation=binding,
                predicted_cpu_temp_c=self.model.cpu_temp_c(binding, setting),
                predicted_outlet_temp_c=outlet,
                predicted_generation_w=self.teg_module.generation_w(
                    outlet, self.cold_source_temp_c, flow),
            )
        return best

    def decide_batch(self, bindings: Sequence[float]
                     ) -> list[PolicyDecision]:
        """Decisions for many pre-aggregated binding utilisations.

        Element ``i`` equals ``decide([bindings[i]])`` bit for bit: the
        flow candidates are scanned in the same order with the same
        first-strict-maximum update, and each flow's predictions come
        from :meth:`CpuThermalModel.response` with per-binding inlet
        terms, whose elements equal the scalar calls.  The inlet clamp
        uses ``np.minimum``/``np.maximum``, which agree with Python
        ``min``/``max`` on every finite input.
        """
        utils = _check_bindings(bindings)
        n = utils.size
        if n == 0:
            return []
        best_objective = np.full(n, -np.inf)
        best_flow = np.empty(n)
        best_inlet = np.empty(n)
        best_cpu = np.empty(n)
        best_outlet = np.empty(n)
        best_generation = np.empty(n)
        found = np.zeros(n, dtype=bool)
        for flow in self.flow_candidates:
            inlet = self.model.inlet_for_cpu_temp(utils, flow,
                                                  self.safe_temp_c)
            inlet = np.minimum(np.maximum(inlet, self.inlet_min_c),
                               self.inlet_max_c)
            _, cpu_temp, outlet = self.model.response(
                utils, self.model.terms_at(flow, inlet))
            generation = self.teg_module.generation_w(
                outlet, self.cold_source_temp_c, flow)
            objective = generation
            if self.net_of_pump:
                objective = objective - np.array([
                    loop_pump_power_w(self.pipe_segments, flow, float(v))
                    for v in inlet])
            admissible = cpu_temp <= self.safe_temp_c + 1.0
            better = admissible & (objective > best_objective)
            best_objective[better] = objective[better]
            best_flow[better] = flow
            best_inlet[better] = inlet[better]
            best_cpu[better] = cpu_temp[better]
            best_outlet[better] = outlet[better]
            best_generation[better] = generation[better]
            found |= better
        decisions: list[PolicyDecision | None] = [None] * n
        for i in np.flatnonzero(found):
            decisions[i] = PolicyDecision(
                setting=CoolingSetting(flow_l_per_h=float(best_flow[i]),
                                       inlet_temp_c=float(best_inlet[i])),
                binding_utilisation=float(utils[i]),
                predicted_cpu_temp_c=float(best_cpu[i]),
                predicted_outlet_temp_c=float(best_outlet[i]),
                predicted_generation_w=float(best_generation[i]),
            )
        missing = np.flatnonzero(~found)
        if missing.size:
            # Even the coldest admissible inlet overheats: emergency cool.
            flow = max(self.flow_candidates)
            setting = CoolingSetting(flow_l_per_h=flow,
                                     inlet_temp_c=self.inlet_min_c)
            _, cpu_temps, outlets = self.model.response(
                utils[missing], self.model.setting_terms(setting))
            generations = self.teg_module.generation_w(
                outlets, self.cold_source_temp_c, flow)
            for pos, i in enumerate(missing):
                decisions[i] = PolicyDecision(
                    setting=setting,
                    binding_utilisation=float(utils[i]),
                    predicted_cpu_temp_c=float(cpu_temps[pos]),
                    predicted_outlet_temp_c=float(outlets[pos]),
                    predicted_generation_w=float(generations[pos]),
                )
        return decisions
