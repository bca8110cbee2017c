"""Trace-driven datacenter simulator (the engine behind Fig. 14/15).

The simulator partitions the cluster into water circulations, then steps
through the trace at the control interval.  Each interval, per
circulation:

1. the workload scheduler rebalances the utilisation vector (Sec. V-B2);
2. the cooling policy picks the setting ``{f, T_warm_in}`` (Sec. V-B1);
3. the circulation model evaluates CPU temperatures, outlet temperatures,
   TEG generation and facility power;
4. cluster-level aggregates are recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..control.cooling_policy import conservative_setting
from ..cooling.loop import CirculationState, WaterCirculation
from ..errors import ConfigurationError, CoolingFailureError
from ..faults import FaultRuntime, FaultSchedule, plausible_readings
from ..teg.module import TegModule, default_server_module
from ..thermal.cpu_model import CpuThermalModel
from ..workloads.trace import WorkloadTrace
from .config import SimulationConfig
from .results import SafetyViolation, SimulationResult, StepRecord


@dataclass
class DatacenterSimulator:
    """Simulate one scheme over one trace.

    Attributes
    ----------
    trace:
        Utilisation trace (time x servers).  Its interval should match the
        config's control interval; coarser traces are used as-is and finer
        ones should be resampled by the caller.
    config:
        The scheme to evaluate.
    cpu_model / teg_module:
        Shared hardware models (defaults: the paper-calibrated ones).

    Circulations of one size share one :class:`WaterCirculation` model
    object (a cluster has at most two sizes: the full one and a ragged
    tail): a circulation's evaluation reads its model and keeps no
    state of its own, apart from the CDU's last applied setting, which
    no step reads back.
    """

    trace: WorkloadTrace
    config: SimulationConfig = field(default_factory=SimulationConfig)
    cpu_model: CpuThermalModel = field(default_factory=CpuThermalModel)
    teg_module: TegModule = field(default_factory=default_server_module)
    #: Optional fault schedule; ``None`` keeps the nominal, bit-exact
    #: code path.  See :mod:`repro.faults` and ``docs/faults.md``.
    faults: FaultSchedule | None = None
    #: Global frame of this simulator when its trace is one shard of a
    #: larger cluster (:mod:`repro.core.shard`): local step ``i`` is
    #: global step ``step_offset + i`` and local server ``j`` is global
    #: server ``server_offset + j``.  The offsets feed timestamps,
    #: violation identities, error messages and the fault runtime's
    #: deterministic RNG keys, so a shard reproduces exactly the slice
    #: of the unsharded run it covers.  Both are 0 for a whole-cluster
    #: simulator, which keeps every existing path bit-identical.
    step_offset: int = 0
    server_offset: int = 0

    def __post_init__(self) -> None:
        if self.trace.n_servers < self.config.circulation_size:
            raise ConfigurationError(
                f"trace has {self.trace.n_servers} servers but a single "
                f"circulation needs {self.config.circulation_size}")
        self._scheduler = self.config.build_scheduler()
        self._policy = self.config.build_policy(self.cpu_model,
                                                self.teg_module)
        self._groups = self._partition_servers()
        models = {size: WaterCirculation(
            n_servers=size,
            cpu_model=self.cpu_model,
            teg_module=self.teg_module,
            cold_source_temp_c=self.config.cold_source_temp_c,
            wet_bulb_c=self.config.wet_bulb_c,
        ) for size in {len(group) for group in self._groups}}
        self._circulations = [models[len(group)] for group in self._groups]
        self._fault_runtime = (
            None if self.faults is None or not len(self.faults)
            else FaultRuntime(self.faults, self.trace.n_servers,
                              len(self._groups)))
        self._violation_log: list[SafetyViolation] = []

    def _partition_servers(self) -> list[np.ndarray]:
        """Split server columns into contiguous circulation groups.

        A trailing group smaller than ``circulation_size`` is kept (it
        simply gets its own, underpopulated circulation).
        """
        size = self.config.circulation_size
        indices = np.arange(self.trace.n_servers)
        return [indices[start:start + size]
                for start in range(0, self.trace.n_servers, size)]

    @property
    def n_circulations(self) -> int:
        """Number of water circulations in the cluster."""
        return len(self._groups)

    def _check_trace_width(self) -> None:
        """Guard against a trace narrower than the partitioned cluster.

        The simulator partitions server columns at construction time; if
        the trace is later replaced (the dataclass is mutable) with one
        that has fewer servers than the groups expect, stepping would
        fail deep inside NumPy with a bare ``IndexError``.  Surface the
        misconfiguration explicitly instead.
        """
        expected = sum(len(group) for group in self._groups)
        if self.trace.n_servers != expected:
            raise ConfigurationError(
                f"trace has {self.trace.n_servers} servers but the "
                f"simulator was partitioned for {expected}; rebuild the "
                f"simulator instead of swapping the trace")

    def run(self) -> SimulationResult:
        """Replay the whole trace and return cluster aggregates.

        Raises
        ------
        ConfigurationError
            When the trace no longer matches the server partitioning the
            simulator was built with (e.g. it was swapped for a narrower
            one after construction).
        CoolingFailureError
            Only when ``config.strict_safety`` is set and a CPU exceeds
            its maximum operating temperature.
        """
        self._check_trace_width()
        self._violation_log = []
        result = SimulationResult(
            scheme=self.config.name,
            trace_name=self.trace.name,
            n_servers=self.trace.n_servers,
            interval_s=self.trace.interval_s,
        )
        with obs.span("sim.run"):
            for step_index in range(self.trace.n_steps):
                result.append(self._run_step(step_index))
        result.violations = self._violation_log
        self._record_telemetry(result)
        return result

    def _record_telemetry(self, result: SimulationResult) -> None:
        """Fold the finished run into the current telemetry session.

        A no-op when no :mod:`repro.obs` session is installed (one
        context-variable read), so the nominal path costs nothing with
        telemetry off.  Purely observational — never touches ``result``
        records, so bit-identity across execution paths is preserved.
        """
        if obs.current() is None:
            return
        obs.record_result(result,
                          circulation_size=self.config.circulation_size)
        if self._fault_runtime is None:
            return
        duration_s = self.trace.n_steps * self.trace.interval_s
        activations = self._fault_runtime.activation_events(duration_s)
        obs.add("faults.activations", len(activations),
                labels={"scheme": self.config.name,
                        "trace": self.trace.name})
        for payload in activations:
            obs.emit("fault.activation", scheme=self.config.name,
                     trace=self.trace.name, **payload)

    def _run_step(self, step_index: int) -> StepRecord:
        if self._fault_runtime is not None:
            return self._run_step_faulted(step_index)
        step_utils = self.trace.step(step_index)
        states = []
        for group, circulation in zip(self._groups, self._circulations):
            raw_utils = step_utils[group]
            scheduled = self._scheduler.schedule(raw_utils)
            decision = self._policy.decide(scheduled)
            states.append(circulation.evaluate(scheduled, decision.setting))
        return self._aggregate_step(step_index, step_utils, states)

    def _run_step_faulted(self, step_index: int) -> StepRecord:
        """One control interval under an active fault schedule.

        Per circulation the controller sees *sensed* (possibly
        corrupted) utilisations; implausible readings or a tripped pump
        stall make it fall back to the conservative safe setting instead
        of crashing.  A healthy shadow evaluation prices the harvest
        lost to the faults — but only on intervals where at least one
        fault is active: with nothing active every runtime hook is the
        identity, the control-path state *is* the healthy state and the
        lost harvest is exactly zero, so the shadow is skipped and
        fault-free spans of a schedule cost one evaluation per
        circulation instead of two.
        """
        runtime = self._fault_runtime
        time_s = (self.step_offset + step_index) * self.trace.interval_s
        step_utils = self.trace.step(step_index)
        active_faults = runtime.active_count(time_s)
        states = []
        degraded = 0
        lost_w = 0.0
        for circ_index, (group, circulation) in enumerate(
                zip(self._groups, self._circulations)):
            scheduled = self._scheduler.schedule(step_utils[group])

            # Healthy shadow: what the plant would harvest fault-free.
            if active_faults:
                nominal_decision = self._policy.decide(scheduled)
                nominal_state = circulation.evaluate(
                    scheduled, nominal_decision.setting)

            # Control path: decide on what the sensors *read*.  Sensor
            # noise is keyed on the *global* step index so a time shard
            # draws the same series the unsharded run would.
            readings = runtime.sense(scheduled,
                                     self.step_offset + step_index,
                                     circ_index, time_s)
            tripped = runtime.pump_stalled(time_s, circ_index)
            if tripped or not plausible_readings(readings):
                setting = conservative_setting(self._policy)
                degraded += 1
            else:
                setting = self._policy.decide(
                    np.clip(readings, 0.0, 1.0)).setting

            # Physical path: the loop delivers what the faults allow.
            applied = circulation.cdu.apply(setting)
            applied = runtime.apply_pump(applied, time_s, circ_index)
            state = circulation.evaluate(
                scheduled, applied, clamp_setting=False,
                cold_source_temp_c=runtime.cold_source_temp_c(
                    circulation.cold_source_temp_c, time_s, circ_index),
                teg_output_factor=runtime.teg_output_factor(
                    time_s, circ_index, group))
            if active_faults:
                lost_w += max(0.0, nominal_state.total_generation_w
                              - state.total_generation_w)
            states.append(state)
        return self._aggregate_step(
            step_index, step_utils, states,
            degraded_circulations=degraded, lost_harvest_w=lost_w,
            active_faults=active_faults)

    def _aggregate_step(self, step_index: int, step_utils: np.ndarray,
                        states: list[CirculationState], *,
                        degraded_circulations: int = 0,
                        lost_harvest_w: float = 0.0,
                        active_faults: int = 0) -> StepRecord:
        """Fold per-circulation states into one cluster-level record.

        Accumulation happens in circulation order with plain float adds —
        the engine's vectorised path funnels through this same method so
        both paths are bit-identical.
        """
        total_generation = 0.0
        total_cpu_power = 0.0
        total_chiller = 0.0
        total_tower = 0.0
        total_pump = 0.0
        violations = 0
        max_cpu_temp = -np.inf
        inlet_sum = 0.0
        flow_sum = 0.0
        time_s = (self.step_offset + step_index) * self.trace.interval_s

        for group, circulation, state in zip(self._groups,
                                             self._circulations, states):
            total_generation += state.total_generation_w
            total_cpu_power += state.total_cpu_power_w
            total_chiller += state.chiller_power_w
            total_tower += state.tower_power_w
            total_pump += state.pump_power_w
            max_cpu_temp = max(max_cpu_temp, state.max_cpu_temp_c)
            inlet_sum += state.setting.inlet_temp_c * len(group)
            flow_sum += state.setting.flow_l_per_h * len(group)
            step_violations = circulation.safety_violations(state)
            violations += len(step_violations)
            if step_violations and self.config.strict_safety:
                raise CoolingFailureError(
                    f"CPU over temperature at t={time_s:.0f}s in "
                    f"circulation starting at server "
                    f"{int(group[0]) + self.server_offset}",
                    server_id=(int(group[step_violations[0]])
                               + self.server_offset),
                    temperature_c=float(state.cpu_temps_c[
                        step_violations[0]]),
                    step_index=self.step_offset + step_index,
                )
            # Non-strict path: log every offending (server, interval)
            # pair, not just the count (post-mortems need identities).
            for offender in step_violations:
                self._violation_log.append(SafetyViolation(
                    server_id=int(group[offender]) + self.server_offset,
                    step_index=self.step_offset + step_index,
                    time_s=time_s,
                    temperature_c=float(state.cpu_temps_c[offender]),
                ))

        n = self.trace.n_servers
        return StepRecord(
            time_s=time_s,
            mean_utilisation=float(step_utils.mean()),
            max_utilisation=float(step_utils.max()),
            generation_per_cpu_w=total_generation / n,
            cpu_power_per_cpu_w=total_cpu_power / n,
            mean_inlet_temp_c=inlet_sum / n,
            mean_flow_l_per_h=flow_sum / n,
            max_cpu_temp_c=float(max_cpu_temp),
            chiller_power_w=total_chiller,
            tower_power_w=total_tower,
            pump_power_w=total_pump,
            safety_violations=violations,
            degraded_circulations=degraded_circulations,
            lost_harvest_w=lost_harvest_w,
            active_faults=active_faults,
        )


def compare_schemes(trace: WorkloadTrace, baseline: SimulationConfig,
                    optimised: SimulationConfig,
                    cpu_model: CpuThermalModel | None = None,
                    teg_module: TegModule | None = None,
                    result_cache=None):
    """Run two schemes on the same trace and return a comparison.

    Convenience wrapper used by the Fig. 14/15 benchmarks: one
    :func:`repro.core.engine.simulate` call per scheme, so each result
    is bit-identical to :class:`DatacenterSimulator` and carries engine
    metrics.  ``result_cache`` (see :mod:`repro.core.cache`) memoises
    each scheme's result on disk under the same key as a direct
    ``simulate`` call or a batch job of that run, so the three serve
    each other.
    """
    from .engine import simulate
    from .results import SchemeComparison

    base_result = simulate(trace, baseline, cpu_model, teg_module,
                           result_cache=result_cache)
    opt_result = simulate(trace, optimised, cpu_model, teg_module,
                          result_cache=result_cache)
    return SchemeComparison(baseline=base_result, optimised=opt_result)
