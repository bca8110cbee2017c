"""The experiment registry: every table/figure reproduction, runnable.

DESIGN.md indexes the paper's tables and figures by experiment id
(``E-F3`` … ``E-T1`` plus the ablations).  This module maps each id to a
self-contained callable that regenerates the experiment at a reduced,
laptop-friendly scale and returns a structured result::

    >>> from repro.experiments import run_experiment
    >>> outcome = run_experiment("E-T1")
    >>> outcome.metrics["break_even_days"]
    920.79...

The benchmark suite remains the authoritative, assertion-carrying
harness; this registry exists so users (and ``h2p experiment``) can
regenerate any experiment programmatically without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class ExperimentOutcome:
    """Result of one registry run."""

    experiment_id: str
    title: str
    metrics: dict
    series: dict = field(default_factory=dict)

    def describe(self) -> str:
        """A compact text rendering of the metrics."""
        lines = [f"{self.experiment_id}: {self.title}"]
        for key, value in self.metrics.items():
            if isinstance(value, float):
                lines.append(f"  {key} = {value:.4g}")
            else:
                lines.append(f"  {key} = {value}")
        return "\n".join(lines)


def _run_fig3() -> ExperimentOutcome:
    from .figures import fig3_data

    data = fig3_data(output_dt_s=10.0)
    return ExperimentOutcome(
        experiment_id="E-F3",
        title="TEG sandwiched under the CPU can hardly conduct heat",
        metrics={
            "cpu0_peak_c": float(data["cpu0_temp_c"].max()),
            "cpu1_peak_c": float(data["cpu1_temp_c"].max()),
            "teg_voltage_peak_v": float(data["teg_voltage_v"].max()),
        },
        series=data,
    )


def _run_fig7() -> ExperimentOutcome:
    from .figures import fig7_data

    data = fig7_data()
    at_20 = {flow: float(series[20])
             for flow, series in data["voltage_v"].items()}
    return ExperimentOutcome(
        experiment_id="E-F7",
        title="Voc of 6 series TEGs vs dT and flow rate",
        metrics={f"voc_at_dt20_{int(flow)}lph": v
                 for flow, v in at_20.items()},
        series=data,
    )


def _run_fig8() -> ExperimentOutcome:
    from .figures import fig8_data

    data = fig8_data()
    return ExperimentOutcome(
        experiment_id="E-F8",
        title="Voltage and power scaling with TEGs in series",
        metrics={
            "voc_12_at_dt25_v": float(data["voltage_v"][12][-1]),
            "pmax_12_at_dt25_w": float(data["power_w"][12][-1]),
        },
        series=data,
    )


def _run_fig9() -> ExperimentOutcome:
    from .figures import fig9_data

    data = fig9_data()
    all_values = np.concatenate(list(data["by_inlet"].values()))
    return ExperimentOutcome(
        experiment_id="E-F9",
        title="Outlet-inlet temperature rise",
        metrics={
            "delta_min_c": float(all_values.min()),
            "delta_max_c": float(all_values.max()),
        },
        series=data,
    )


def _run_fig10() -> ExperimentOutcome:
    from .figures import fig10_data

    data = fig10_data()
    return ExperimentOutcome(
        experiment_id="E-F10",
        title="CPU temperature and frequency vs utilisation",
        metrics={
            "frequency_plateau_ghz": float(data["frequency_ghz"][-1]),
            "temp_45c_full_load_c": float(data["temps_c"][45.0][-1]),
        },
        series=data,
    )


def _run_fig11() -> ExperimentOutcome:
    from .figures import fig11_data

    data = fig11_data()
    return ExperimentOutcome(
        experiment_id="E-F11",
        title="CPU temperature vs coolant temperature per flow",
        metrics={f"slope_{int(flow)}lph": s
                 for flow, s in data["slopes"].items()},
        series=data,
    )


def _run_fig13() -> ExperimentOutcome:
    from .figures import fig13_data

    data = fig13_data()
    return ExperimentOutcome(
        experiment_id="E-F13",
        title="A_max vs A_avg selection regions",
        metrics={
            "a_max_mean_inlet_c": float(
                data["a_max"]["inlet_temp_c"].mean()),
            "a_avg_mean_inlet_c": float(
                data["a_avg"]["inlet_temp_c"].mean()),
        },
        series=data,
    )


def _run_fig14(n_servers: int = 200) -> ExperimentOutcome:
    from .figures import fig14_15_data

    data = fig14_15_data(n_servers=n_servers)
    metrics = {}
    for name, entry in data.items():
        metrics[f"{name}_original_w"] = float(entry["original_w"].mean())
        metrics[f"{name}_loadbalance_w"] = float(
            entry["loadbalance_w"].mean())
    originals = [metrics[f"{n}_original_w"] for n in data]
    balanced = [metrics[f"{n}_loadbalance_w"] for n in data]
    metrics["improvement_pct"] = 100.0 * (
        float(np.mean(balanced)) / float(np.mean(originals)) - 1.0)
    return ExperimentOutcome(
        experiment_id="E-F14",
        title="Generation under three traces x two schemes",
        metrics=metrics,
        series=data,
    )


def _run_fig15(n_servers: int = 200) -> ExperimentOutcome:
    from .figures import fig14_15_data

    data = fig14_15_data(n_servers=n_servers)
    metrics = {}
    for name, entry in data.items():
        metrics[f"{name}_original_pre"] = entry["original_pre"]
        metrics[f"{name}_loadbalance_pre"] = entry["loadbalance_pre"]
    return ExperimentOutcome(
        experiment_id="E-F15",
        title="Power reusing efficiency per trace and scheme",
        metrics=metrics,
        series=data,
    )


def _run_table1() -> ExperimentOutcome:
    from .economics.breakeven import BreakEvenAnalysis
    from .economics.tco import TcoModel

    model = TcoModel()
    original = model.breakdown(3.694)
    balance = model.breakdown(4.177)
    analysis = BreakEvenAnalysis()
    return ExperimentOutcome(
        experiment_id="E-T1",
        title="Table I TCO and Sec. V-D break-even",
        metrics={
            "tco_no_teg_usd": model.tco_no_teg_usd,
            "reduction_original": original.reduction_fraction,
            "reduction_loadbalance": balance.reduction_fraction,
            "daily_revenue_usd": analysis.daily_revenue_usd(4.177),
            "break_even_days": analysis.break_even_days(4.177),
        },
    )


def _run_batch_engine(n_servers: int = 80) -> ExperimentOutcome:
    from .core.config import teg_loadbalance, teg_original
    from .core.engine import compare_batch
    from .core.simulator import DatacenterSimulator
    from .workloads.synthetic import trace_by_name

    traces = [trace_by_name(name, n_servers=n_servers)
              for name in ("drastic", "common")]
    configs = [teg_original(), teg_loadbalance()]
    batch = compare_batch(traces, configs)
    # Self-check: the engine must be bit-identical to the serial
    # simulator on one of the jobs.
    serial = DatacenterSimulator(traces[0], configs[0]).run()
    engine_result = batch.get(configs[0].name, traces[0].name)
    identical = serial.records == engine_result.records
    aggregate = batch.metrics
    return ExperimentOutcome(
        experiment_id="E-BATCH",
        title="Batch engine self-check (throughput + cache + identity)",
        metrics={
            "jobs": aggregate.n_jobs,
            "executor": aggregate.executor,
            "workers": aggregate.n_workers,
            "wall_time_s": aggregate.wall_time_s,
            "steps_per_s": aggregate.steps_per_s,
            "cache_hit_rate": aggregate.cache_hit_rate,
            "bit_identical_to_serial": identical,
        },
        series={"per_job": batch.summaries()},
    )


def _run_faults(n_servers: int = 60) -> ExperimentOutcome:
    """Fault-intensity sweep: recycled power vs injected fault severity.

    One schedule template (sensor noise + TEG open strings + a pump
    stall on circulation 0) is scaled from intensity 0 (healthy) to 1
    (severe) and replayed over the common trace.  The healthy point
    doubles as a regression anchor: it must match the fault-free run
    bit for bit.  A failed job raises its ``JobExecutionError``.
    """
    from .core.config import teg_loadbalance
    from .core.engine import SimulationJob, run_batch
    from .faults import FaultSchedule, FaultSpec
    from .workloads.synthetic import common_trace

    trace = common_trace(n_servers=n_servers, duration_s=8 * 3600.0)
    config = teg_loadbalance()

    def schedule(intensity: float) -> FaultSchedule | None:
        if intensity <= 0:
            return None
        specs = [
            FaultSpec(kind="sensor_noise", magnitude=0.2 * intensity),
            FaultSpec(kind="teg_open_circuit",
                      magnitude=0.3 * intensity),
            FaultSpec(kind="chiller_excursion",
                      magnitude=8.0 * intensity),
        ]
        if intensity >= 0.75:
            specs.append(FaultSpec(kind="pump_stall",
                                   start_s=4 * 3600.0, circulation=0))
        return FaultSchedule(specs=tuple(specs), seed=29)

    intensities = [0.0, 0.25, 0.5, 0.75, 1.0]
    jobs = [SimulationJob(trace=trace, config=config,
                          faults=schedule(intensity))
            for intensity in intensities]
    batch = run_batch(jobs, n_workers=1)
    if not batch.ok:
        # Results leave failed jobs out: pairing them with the
        # intensities would shift every later one.
        raise batch.failures[0].to_error()
    healthy = batch.results[0]
    metrics: dict = {
        "healthy_generation_w": healthy.average_generation_w,
    }
    generation = []
    lost = []
    degraded = []
    for intensity, result in zip(intensities, batch.results):
        generation.append(result.average_generation_w)
        lost.append(result.total_lost_harvest_kwh)
        degraded.append(result.degraded_steps)
        tag = f"{intensity:.2f}"
        metrics[f"generation_w_at_{tag}"] = result.average_generation_w
        metrics[f"lost_kwh_at_{tag}"] = result.total_lost_harvest_kwh
    metrics["worst_case_retention"] = (
        generation[-1] / generation[0] if generation[0] > 0 else 0.0)
    return ExperimentOutcome(
        experiment_id="E-FAULTS",
        title="Recycled power under injected fault intensity",
        metrics=metrics,
        series={
            "intensity": intensities,
            "generation_w": generation,
            "lost_harvest_kwh": lost,
            "degraded_steps": degraded,
        },
    )


def _run_circulation_design() -> ExperimentOutcome:
    from .cooling.circulation_design import CirculationDesignProblem

    problem = CirculationDesignProblem()
    result = problem.optimise(
        candidates=[1, 2, 5, 10, 20, 50, 100, 200, 500, 1000])
    return ExperimentOutcome(
        experiment_id="E-VA",
        title="Economical water-circulation design",
        metrics={
            "best_n": result.best_n,
            "best_cost_usd": result.best_cost_usd,
            "cost_n1_usd": result.cost_for(1),
            "cost_n1000_usd": result.cost_for(1000),
        },
        series={
            "candidate_n": result.candidate_n,
            "total_costs_usd": result.total_costs_usd,
        },
    )


_REGISTRY: dict[str, tuple[str, Callable[[], ExperimentOutcome]]] = {
    "E-F3": ("Fig. 3 placement transient", _run_fig3),
    "E-F7": ("Fig. 7 Voc vs dT and flow", _run_fig7),
    "E-F8": ("Fig. 8 series scaling", _run_fig8),
    "E-F9": ("Fig. 9 outlet delta", _run_fig9),
    "E-F10": ("Fig. 10 CPU temp vs utilisation", _run_fig10),
    "E-F11": ("Fig. 11 CPU temp vs coolant", _run_fig11),
    "E-F13": ("Fig. 13 selection regions", _run_fig13),
    "E-F14": ("Fig. 14 generation headline", _run_fig14),
    "E-F15": ("Fig. 15 PRE", _run_fig15),
    "E-T1": ("Table I + break-even", _run_table1),
    "E-VA": ("Sec. V-A circulation design", _run_circulation_design),
    "E-BATCH": ("Batch engine self-check", _run_batch_engine),
    "E-FAULTS": ("Fault-intensity vs recycled power", _run_faults),
}


def list_experiments() -> list[tuple[str, str]]:
    """All registered (id, short title) pairs, in paper order."""
    return [(key, value[0]) for key, value in _REGISTRY.items()]


def run_experiment(experiment_id: str) -> ExperimentOutcome:
    """Run one experiment by id (see :func:`list_experiments`)."""
    try:
        _, runner = _REGISTRY[experiment_id.upper()]
    except KeyError:
        valid = ", ".join(_REGISTRY)
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; valid ids: {valid}"
        ) from None
    return runner()
