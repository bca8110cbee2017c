"""Command-line interface for the H2P reproduction.

Installed as the ``h2p`` console script::

    h2p simulate --trace common --servers 200      # Fig. 14/15 style run
    h2p batch --servers 100 --workers 4 --check    # engine sweep + identity
    h2p batch --telemetry out/ --trace-spans       # run with observability
    h2p design --servers 1000 --sigma 6            # Sec. V-A loop sizing
    h2p tco --generation 4.177 --cpus 100000       # Table I economics
    h2p trace --name drastic --out drastic.csv     # synthetic trace export
    h2p hotspot --inlet 52 --spike 1.0             # Sec. II-B episode

Every subcommand routes its output through a
:class:`repro.obs.Reporter`, so the global ``--quiet`` and ``--json``
flags behave consistently: the default is the classic plain-text
report, ``--quiet`` keeps only failure lines, and ``--json`` prints one
JSON document of structured results.  Exit code is 0 on success.

``h2p batch --telemetry DIR`` additionally records the run through
:mod:`repro.obs` and writes ``manifest.json``, ``events.jsonl`` and a
Prometheus ``metrics.prom`` snapshot into ``DIR`` (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .obs import Reporter


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2p",
        description="Heat to Power (ISCA 2020) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"h2p {__version__}")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output (failure "
                             "lines still print)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON document of structured "
                             "results instead of text")
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="trace-driven scheme comparison (Fig. 14/15)")
    simulate.add_argument("--trace", default="common",
                          choices=("drastic", "irregular", "common"))
    simulate.add_argument("--servers", type=int, default=200)
    simulate.add_argument("--circulation-size", type=int, default=20)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.set_defaults(handler=_cmd_simulate)

    batch = subparsers.add_parser(
        "batch", help="batched (scheme x trace) sweep through the "
                      "simulation engine")
    batch.add_argument("--traces", nargs="+",
                       default=["drastic", "irregular", "common"],
                       choices=("drastic", "irregular", "common"))
    batch.add_argument("--schemes", nargs="+",
                       default=["original", "loadbalance"],
                       choices=("original", "loadbalance", "static"))
    batch.add_argument("--servers", type=int, default=100)
    batch.add_argument("--workers", type=int, default=None,
                       help="parallel workers (default: REPRO_WORKERS "
                            "or the CPU count)")
    batch.add_argument("--check", action="store_true",
                       help="also run every completed job serially "
                            "and verify bit-identity")
    batch.add_argument("--faults", default=None, metavar="SPEC.JSON",
                       help="attach a fault schedule (JSON file, see "
                            "docs/faults.md) to every job")
    batch.add_argument("--max-retries", type=int, default=0,
                       help="extra attempts per failed job "
                            "(default: 0)")
    batch.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock budget (default: "
                            "REPRO_JOB_TIMEOUT or none)")
    batch.add_argument("--prefer", default="process",
                       choices=("process", "thread", "serial"),
                       help="preferred executor (default: process, "
                            "with automatic degradation)")
    batch.add_argument("--shard", default=None, action="store_true",
                       help="force fleet-scale sharding of every job "
                            "(default: automatic above "
                            "%d trace cells)" % 2_000_000)
    batch.add_argument("--no-shard", dest="shard", action="store_false",
                       help="never shard, even above the automatic "
                            "threshold")
    batch.add_argument("--shard-servers", type=int, default=None,
                       metavar="N",
                       help="target shard width in servers (rounded "
                            "down to whole circulations; default: "
                            "REPRO_SHARD_SERVERS or 2500)")
    batch.add_argument("--shard-steps", type=int, default=None,
                       metavar="N",
                       help="shard time-window length in control "
                            "intervals (default: REPRO_SHARD_STEPS "
                            "or 2500)")
    batch.add_argument("--checkpoint", default=None, metavar="DIR",
                       help="persist completed shards/jobs into DIR "
                            "(crash-safe, content-keyed; see "
                            "docs/checkpoint.md); without --resume any "
                            "matching state in DIR is discarded and "
                            "the run starts fresh")
    batch.add_argument("--resume", action="store_true",
                       help="with --checkpoint: skip work already "
                            "completed in DIR by a previous "
                            "(interrupted) run of the same batch; "
                            "results are bit-identical to an "
                            "uninterrupted run")
    batch.add_argument("--cache", default=None, metavar="DIR",
                       help="serve repeated jobs from a "
                            "content-addressed result cache in DIR "
                            "(bit-identical to recompute; see "
                            "docs/cache.md; default: REPRO_CACHE / "
                            "REPRO_CACHE_DIR or off)")
    batch.add_argument("--no-cache", dest="cache", action="store_const",
                       const=False,
                       help="ignore REPRO_CACHE and run everything "
                            "fresh")
    batch.add_argument("--shard-straggler", type=float, default=None,
                       metavar="SECONDS",
                       help="speculatively re-dispatch a shard that "
                            "has been running longer than this; first "
                            "completion wins (default: "
                            "REPRO_SHARD_STRAGGLER or off)")
    batch.add_argument("--telemetry", default=None, metavar="DIR",
                       help="record the run through repro.obs and "
                            "write manifest.json, events.jsonl and "
                            "metrics.prom into DIR (default: "
                            "REPRO_TELEMETRY_DIR or off); supersedes "
                            "the old --profile JSON dump")
    batch.add_argument("--trace-spans", action="store_true",
                       help="enable telemetry and print the "
                            "hierarchical span-timing tree after the "
                            "batch")
    batch.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve live GET /metrics (Prometheus text) "
                            "and GET /healthz on 127.0.0.1:PORT while "
                            "the batch runs (0 picks an ephemeral "
                            "port; default: REPRO_METRICS_PORT or "
                            "off); implies telemetry")
    batch.set_defaults(handler=_cmd_batch)

    design = subparsers.add_parser(
        "design", help="circulation-size optimisation (Sec. V-A)")
    design.add_argument("--servers", type=int, default=1000)
    design.add_argument("--mu", type=float, default=55.0)
    design.add_argument("--sigma", type=float, default=6.0)
    design.add_argument("--chiller-capex", type=float, default=20000.0)
    design.set_defaults(handler=_cmd_design)

    tco = subparsers.add_parser(
        "tco", help="TCO and break-even report (Table I / Sec. V-D)")
    tco.add_argument("--generation", type=float, default=4.177,
                     help="average per-CPU TEG output, watts")
    tco.add_argument("--cpus", type=int, default=100_000)
    tco.set_defaults(handler=_cmd_tco)

    trace = subparsers.add_parser(
        "trace", help="generate and inspect/export a synthetic trace")
    trace.add_argument("--name", default="common",
                       choices=("drastic", "irregular", "common"))
    trace.add_argument("--servers", type=int, default=100)
    trace.add_argument("--hours", type=float, default=24.0)
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--out", default=None,
                       help="write the trace as matrix CSV to this path")
    trace.add_argument("--classify", action="store_true",
                       help="run the workload classifier on the trace")
    trace.set_defaults(handler=_cmd_trace)

    reuse = subparsers.add_parser(
        "reuse", help="compare H2P vs district heating vs CCHP "
                      "(Sec. II-C)")
    reuse.add_argument("--climate", default="hangzhou",
                       choices=("hangzhou", "singapore", "stockholm"))
    reuse.add_argument("--servers", type=int, default=1000)
    reuse.set_defaults(handler=_cmd_reuse)

    audit = subparsers.add_parser(
        "audit", help="run the physical-consistency self-audits, or "
                      "diff two run manifests with --manifest")
    audit.add_argument("--servers", type=int, default=60)
    audit.add_argument("--manifest", nargs=2, default=None,
                       metavar=("A", "B"),
                       help="compare two manifest.json files: metric "
                            "totals (relative-tolerance aware) and "
                            "span-tree structure; exit 1 on drift")
    audit.add_argument("--tolerance", type=float, default=1e-6,
                       metavar="REL",
                       help="relative tolerance for float metric "
                            "comparisons in --manifest mode "
                            "(default: 1e-6)")
    audit.set_defaults(handler=_cmd_audit)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one paper experiment by id")
    experiment.add_argument("id", nargs="?", default=None,
                            help="experiment id (e.g. E-F14); omit to "
                                 "list all")
    experiment.set_defaults(handler=_cmd_experiment)

    fleet = subparsers.add_parser(
        "fleet", help="heterogeneous-fleet evaluation (Sec. VII)")
    fleet.add_argument("--servers", type=int, default=120)
    fleet.add_argument("--trace", default="common",
                       choices=("drastic", "irregular", "common"))
    fleet.set_defaults(handler=_cmd_fleet)

    seasonal = subparsers.add_parser(
        "seasonal", help="annual harvest profile (12 representative "
                         "days)")
    seasonal.add_argument("--servers", type=int, default=60)
    seasonal.add_argument("--climate", default="hangzhou",
                          choices=("hangzhou", "singapore",
                                   "stockholm"))
    seasonal.set_defaults(handler=_cmd_seasonal)

    hotspot = subparsers.add_parser(
        "hotspot", help="hot-spot episode comparison (Sec. II-B)")
    hotspot.add_argument("--inlet", type=float, default=52.0)
    hotspot.add_argument("--flow", type=float, default=50.0)
    hotspot.add_argument("--baseline", type=float, default=0.2)
    hotspot.add_argument("--spike", type=float, default=1.0)
    hotspot.set_defaults(handler=_cmd_hotspot)

    return parser


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace, reporter: Reporter) -> int:
    from .core.config import teg_loadbalance, teg_original
    from .core.h2p import H2PSystem
    from .workloads.synthetic import trace_by_name

    kwargs = {} if args.seed is None else {"seed": args.seed}
    trace = trace_by_name(args.trace, n_servers=args.servers, **kwargs)
    overrides = dict(circulation_size=args.circulation_size)
    comparison = H2PSystem().compare(
        trace, teg_original(**overrides), teg_loadbalance(**overrides))
    reporter.info(f"trace {trace.name!r}: {trace.n_servers} servers, "
                  f"{trace.n_steps} x {trace.interval_s / 60.0:.0f}-min "
                  f"steps")
    for result in (comparison.baseline, comparison.optimised):
        reporter.info(
            f"  {result.scheme:<16} avg {result.average_generation_w:6.3f} W"
            f"  peak {result.peak_generation_w:6.3f} W"
            f"  PRE {result.average_pre:6.1%}"
            f"  violations {result.total_safety_violations}")
    reporter.info(f"  improvement: {comparison.generation_improvement:.1%} "
                  f"(paper: 13.08 % overall)")
    reporter.result("comparison", comparison.summary())
    return 0


def _cmd_batch(args: argparse.Namespace, reporter: Reporter) -> int:
    from . import obs
    from .core.config import teg_loadbalance, teg_original, teg_static
    from .core.engine import BatchSimulationEngine, SimulationJob
    from .core.simulator import DatacenterSimulator
    from .errors import ConfigurationError
    from .faults import FaultSchedule
    from .workloads.synthetic import trace_by_name

    # Env validation happens up front: a malformed REPRO_TELEMETRY /
    # REPRO_TELEMETRY_DIR / REPRO_METRICS_PORT raises
    # ConfigurationError naming the variable before any job runs.
    telemetry_dir = obs.resolve_telemetry_dir(args.telemetry)
    metrics_port = obs.resolve_metrics_port(args.metrics_port)
    telemetry_on = (telemetry_dir is not None or args.trace_spans
                    or metrics_port is not None or obs.telemetry_enabled())

    schedule = None
    if args.faults is not None:
        schedule = FaultSchedule.from_json(args.faults)
        reporter.info(f"fault schedule: {len(schedule)} spec(s), "
                      f"seed {schedule.seed} ({args.faults})")
    factories = {"original": teg_original, "loadbalance": teg_loadbalance,
                 "static": teg_static}
    traces = [trace_by_name(name, n_servers=args.servers)
              for name in args.traces]
    jobs = [SimulationJob(trace=trace, config=factories[scheme](),
                          faults=schedule)
            for trace in traces for scheme in args.schemes]
    if args.resume and args.checkpoint is None:
        raise ConfigurationError("--resume requires --checkpoint DIR")
    engine = BatchSimulationEngine(args.workers, prefer=args.prefer,
                                   max_retries=args.max_retries,
                                   job_timeout_s=args.timeout,
                                   telemetry=telemetry_on,
                                   shard=args.shard,
                                   shard_servers=args.shard_servers,
                                   shard_steps=args.shard_steps,
                                   shard_straggler_s=args.shard_straggler,
                                   checkpoint=args.checkpoint,
                                   resume=args.resume,
                                   cache=args.cache,
                                   metrics_port=metrics_port)
    try:
        if engine.metrics_address is not None:
            # Printed before the run so scrapers can attach mid-flight
            # (the port may have been resolved from an ephemeral 0).
            reporter.info(f"live metrics: {engine.metrics_address}/metrics "
                          f"(health: {engine.metrics_address}/healthz)")
            reporter.result("metrics_url", engine.metrics_address)
            # Scrapers attach by parsing this line from a pipe: push it
            # through block buffering before the (long) run starts.
            reporter.stream.flush()
        batch = engine.run(jobs)
    finally:
        engine.close()
    reporter.info(f"{'scheme':<16} {'trace':<10} {'avg W':>7} {'PRE':>7} "
                  f"{'steps/s':>8} {'cache':>6}")
    for result in batch.results:
        metrics = result.metrics
        line = (f"{result.scheme:<16} {result.trace_name:<10} "
                f"{result.average_generation_w:>7.3f} "
                f"{result.average_pre:>6.1%} "
                f"{metrics.steps_per_s:>8.0f} "
                f"{metrics.cache_hit_rate:>6.1%}")
        if result.degraded_steps:
            line += (f"  degraded {result.degraded_steps} steps, "
                     f"lost {result.total_lost_harvest_kwh:.3f} kWh")
        reporter.info(line)
    aggregate = batch.metrics
    shard_note = (f", {aggregate.shards} shard(s)"
                  if aggregate.shards else "")
    reporter.info(f"batch: {aggregate.n_jobs} jobs via {aggregate.executor} "
                  f"x{aggregate.n_workers} in {aggregate.wall_time_s:.2f} s "
                  f"({aggregate.steps_per_s:.0f} steps/s, cache "
                  f"{aggregate.cache_hit_rate:.1%}{shard_note})")
    if aggregate.retries or aggregate.timeouts:
        reporter.info(f"recovery: {aggregate.retries} retrie(s), "
                      f"{aggregate.timeouts} timeout(s)")
    if aggregate.shards_resumed or aggregate.jobs_resumed:
        reporter.info(f"resumed from checkpoint: "
                      f"{aggregate.shards_resumed} shard(s), "
                      f"{aggregate.jobs_resumed} whole job(s)")
    if aggregate.result_cache_hits:
        reporter.info(f"served from cache: {aggregate.result_cache_hits}"
                      f"/{aggregate.n_jobs} job(s)")
    if aggregate.jobs_deduped:
        reporter.info(f"deduplicated within batch: "
                      f"{aggregate.jobs_deduped} job(s)")
    for failed in batch.failures:
        reporter.error(f"FAILED {failed.scheme} on {failed.trace_name}: "
                       f"[{failed.error_type}] {failed.message} "
                       f"({failed.attempts} attempt(s), "
                       f"{failed.elapsed_s:.1f} s)")
    reporter.result("batch", aggregate.summary())
    reporter.result("jobs", batch.summaries())
    reporter.result("failures", [
        {"scheme": failed.scheme, "trace": failed.trace_name,
         "error_type": failed.error_type, "message": failed.message,
         "attempts": failed.attempts,
         "elapsed_s": round(failed.elapsed_s, 4),
         "timed_out": failed.timed_out}
        for failed in batch.failures])

    if batch.telemetry is not None:
        if args.trace_spans:
            reporter.info(obs.render_span_tree(
                batch.telemetry.tracer.snapshot()))
        reporter.result(
            "telemetry",
            {"metrics": batch.telemetry.registry.snapshot().to_dict(),
             "n_events": len(batch.telemetry.events)})
        if telemetry_dir is not None:
            # Fold the console transcript into the event log so the
            # artefacts carry the full story of the run.
            batch.telemetry.events.extend(reporter.events.snapshot())
            command = ["h2p"] + list(getattr(args, "raw_argv", []))
            paths = obs.write_run_artifacts(
                telemetry_dir, batch.telemetry, command=command,
                batch=batch)
            reporter.result("telemetry_dir", str(telemetry_dir))
            reporter.info(f"telemetry written to {paths['manifest'].parent}")

    if args.check and batch.results:
        # Results are the completed jobs in submission order, so each
        # pairs with the next job of its label; a failed job has none.
        remaining = iter(jobs)
        mismatches = []
        for result in batch.results:
            job = next(job for job in remaining
                       if job.key == (result.scheme, result.trace_name))
            serial = DatacenterSimulator(job.trace, job.config,
                                         faults=job.faults).run()
            if (serial.records != result.records
                    or serial.violations != result.violations):
                mismatches.append(f"{result.scheme} on {result.trace_name}")
        reporter.result("serial_check", not mismatches)
        if not mismatches:
            reporter.info("serial check: bit-identical")
        else:
            for name in mismatches:
                reporter.error(f"serial check: MISMATCH in {name}")
            return 1
    return 0 if batch.ok else 1


def _cmd_design(args: argparse.Namespace, reporter: Reporter) -> int:
    from .cooling.chiller import Chiller
    from .cooling.circulation_design import CirculationDesignProblem

    problem = CirculationDesignProblem(
        total_servers=args.servers, temp_mu_c=args.mu,
        temp_sigma_c=args.sigma,
        chiller=Chiller(capacity_kw=500, capex_usd=args.chiller_capex))
    result = problem.optimise()
    reporter.info(f"{'n/circ':>8} {'E[dT] C':>9} {'total $/yr':>14}")
    shown = [n for n in (1, 5, 10, 20, 50, 100, 200, 500, args.servers)
             if n <= args.servers]
    for n in shown:
        try:
            cost = result.cost_for(n)
        except KeyError:
            cost = problem.total_cost_usd(n)
        marker = "  <- optimum" if n == result.best_n else ""
        reporter.info(f"{n:>8} {problem.expected_inlet_reduction_c(n):>9.2f} "
                      f"{cost:>14,.0f}{marker}")
    reporter.info(f"optimal circulation size: {result.best_n} "
                  f"(${result.best_cost_usd:,.0f}/year)")
    reporter.result("design", {"best_n": result.best_n,
                               "best_cost_usd": result.best_cost_usd})
    return 0


def _cmd_tco(args: argparse.Namespace, reporter: Reporter) -> int:
    from .economics.breakeven import BreakEvenAnalysis
    from .economics.tco import TcoModel
    from .reliability import TegDegradationModel

    breakdown = TcoModel().breakdown(args.generation)
    analysis = BreakEvenAnalysis(n_cpus=args.cpus)
    reporter.info(f"average generation : {args.generation:.3f} W/CPU")
    reporter.info(f"TCO without H2P    : ${breakdown.tco_no_teg_usd:.2f}"
                  f"/server/month")
    reporter.info(f"TCO with H2P       : ${breakdown.tco_h2p_usd:.2f}"
                  f"/server/month")
    reporter.info(f"reduction          : {breakdown.reduction_fraction:.2%}")
    reporter.info(f"fleet              : {args.cpus:,} CPUs")
    reporter.info(f"annual savings     : "
                  f"${breakdown.annual_savings_usd(args.cpus):,.0f}")
    reporter.info(f"daily energy       : "
                  f"{analysis.daily_energy_kwh(args.generation):,.1f} kWh")
    ideal = analysis.break_even_days(args.generation)
    reporter.info(f"break-even (ideal) : {ideal:,.0f} days")
    payload = {
        "generation_w": args.generation,
        "tco_no_teg_usd": breakdown.tco_no_teg_usd,
        "tco_h2p_usd": breakdown.tco_h2p_usd,
        "reduction_fraction": breakdown.reduction_fraction,
        "annual_savings_usd": breakdown.annual_savings_usd(args.cpus),
        "break_even_days": ideal,
    }
    if args.generation > 0:
        degraded = TegDegradationModel().degraded_break_even_days(
            args.generation,
            analysis.purchase_price_usd / (args.generation * args.cpus))
        reporter.info(f"break-even (faded) : {degraded:,.0f} days "
                      f"(0.4 %/yr output fade)")
        payload["break_even_days_faded"] = degraded
    reporter.result("tco", payload)
    return 0


def _cmd_trace(args: argparse.Namespace, reporter: Reporter) -> int:
    from .workloads.loader import save_trace_csv
    from .workloads.synthetic import trace_by_name

    kwargs = dict(n_servers=args.servers,
                  duration_s=args.hours * 3600.0)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    trace = trace_by_name(args.name, **kwargs)
    stats = trace.statistics()
    reporter.info(f"{trace!r}")
    reporter.info(f"statistics: {stats.describe()}")
    reporter.result("trace", {"name": trace.name,
                              "servers": trace.n_servers,
                              "steps": trace.n_steps,
                              "statistics": stats.describe()})
    if args.classify:
        from .workloads.analysis import TraceClassifier

        explanation = TraceClassifier().explain(trace)
        label = explanation.pop("class")
        details = ", ".join(f"{k}={v}" for k, v in explanation.items())
        reporter.info(f"classified as: {label} ({details})")
        reporter.result("classification", {"class": label, **explanation})
    if args.out:
        save_trace_csv(trace, args.out)
        reporter.info(f"written to {args.out}")
        reporter.result("out", args.out)
    return 0


def _cmd_reuse(args: argparse.Namespace, reporter: Reporter) -> int:
    from .environment import CLIMATES
    from .heatreuse.comparison import ReuseComparison

    comparison = ReuseComparison(n_servers=args.servers,
                                 climate=CLIMATES[args.climate])
    reporter.info(f"climate {args.climate}: {args.servers} servers shedding "
                  f"{comparison.total_heat_kw:.0f} kW of warm-water heat")
    options = comparison.all_options()
    for option in options:
        reporter.info(f"  {option.name:<22} ${option.annual_value_usd:>10,.0f}"
                      f"/year  (utilisation {option.utilisation:.0%}; "
                      f"{option.notes})")
    reporter.result("reuse", [
        {"name": option.name,
         "annual_value_usd": option.annual_value_usd,
         "utilisation": option.utilisation}
        for option in options])
    return 0


def _cmd_audit(args: argparse.Namespace, reporter: Reporter) -> int:
    if args.manifest is not None:
        return _audit_manifests(args, reporter)

    import numpy as np

    from .cooling.loop import WaterCirculation
    from .core.h2p import H2PSystem
    from .thermal.cpu_model import CoolingSetting
    from .validation import (
        audit_circulation_state,
        audit_simulation_result,
        audit_teg_models,
    )
    from .workloads.synthetic import common_trace

    circulation = WaterCirculation(n_servers=8)
    state = circulation.evaluate(
        np.linspace(0.0, 1.0, 8),
        CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=48.0))
    result = H2PSystem().evaluate(
        common_trace(n_servers=args.servers, duration_s=4 * 3600.0))
    reports = [
        audit_teg_models(),
        audit_circulation_state(circulation, state),
        audit_simulation_result(result),
    ]
    for report in reports:
        reporter.info(str(report))
    reporter.result("audits_ok", bool(all(report.ok for report in reports)))
    return 0 if all(report.ok for report in reports) else 1


def _audit_manifests(args: argparse.Namespace, reporter: Reporter) -> int:
    """``h2p audit --manifest A B``: diff two run manifests.

    Compares metric totals (relative-tolerance aware) and span-tree
    structure; timing fields are ignored by construction.  Exit code 1
    exactly when any drift beyond tolerance is found.
    """
    from . import obs
    from .errors import ConfigurationError

    path_a, path_b = args.manifest
    if args.tolerance < 0:
        raise ConfigurationError(
            f"--tolerance must be non-negative, got {args.tolerance}")
    diff = obs.diff_manifests(obs.load_manifest(path_a),
                              obs.load_manifest(path_b),
                              rel_tol=args.tolerance,
                              name_a=path_a, name_b=path_b)
    for line in diff.describe().splitlines():
        (reporter.info if diff.ok else reporter.error)(line)
    reporter.result("audit", diff.to_dict())
    return 0 if diff.ok else 1


def _cmd_hotspot(args: argparse.Namespace, reporter: Reporter) -> int:
    from .constants import CPU_MAX_OPERATING_TEMP_C
    from .cooling.hotspot import HotSpotScenario
    from .thermal.cpu_model import CoolingSetting

    scenario = HotSpotScenario(
        baseline_utilisation=args.baseline,
        spike_utilisation=args.spike,
        setting=CoolingSetting(flow_l_per_h=args.flow,
                               inlet_temp_c=args.inlet))
    outcomes = scenario.compare()
    reporter.info(f"spike {args.baseline:.0%} -> {args.spike:.0%} at "
                  f"{args.inlet:.0f} C inlet "
                  f"(limit {CPU_MAX_OPERATING_TEMP_C} C)")
    payload = {}
    for strategy in ("none", "chiller", "tec"):
        outcome = outcomes[strategy]
        verdict = "VIOLATION" if outcome.violation else "safe"
        reporter.info(f"  {strategy:<8} peak {outcome.peak_cpu_temp_c:6.1f} C  "
                      f"above-limit {outcome.time_above_limit_s:6.1f} s  "
                      f"TEC {outcome.tec_energy_j / 1000.0:6.1f} kJ  "
                      f"[{verdict}]")
        payload[strategy] = {"peak_cpu_temp_c": outcome.peak_cpu_temp_c,
                             "time_above_limit_s":
                                 outcome.time_above_limit_s,
                             "violation": outcome.violation}
    reporter.result("hotspot", payload)
    return 0


def _cmd_experiment(args: argparse.Namespace, reporter: Reporter) -> int:
    from .experiments import list_experiments, run_experiment

    if args.id is None:
        listing = list_experiments()
        for experiment_id, title in listing:
            reporter.info(f"{experiment_id:<7} {title}")
        reporter.result("experiments", [
            {"id": experiment_id, "title": title}
            for experiment_id, title in listing])
        return 0
    outcome = run_experiment(args.id)
    reporter.info(outcome.describe())
    reporter.result("experiment", {"id": args.id,
                                   "report": outcome.describe()})
    return 0


def _cmd_fleet(args: argparse.Namespace, reporter: Reporter) -> int:
    from .fleet import FleetMix
    from .workloads.synthetic import trace_by_name

    trace = trace_by_name(args.trace, n_servers=args.servers)
    mix = FleetMix()
    outcomes = mix.run(trace)
    reporter.info(f"{'CPU model':<18} {'servers':>7} {'T_safe C':>9} "
                  f"{'gen W/CPU':>10} {'violations':>10}")
    for outcome in outcomes:
        reporter.info(f"{outcome.spec.name:<18} {outcome.n_servers:>7} "
                      f"{outcome.spec.safe_temp_c:>9.1f} "
                      f"{outcome.generation_w:>10.3f} "
                      f"{outcome.result.total_safety_violations:>10}")
    summary = FleetMix.aggregate(outcomes)
    reporter.info(f"fleet: {summary['fleet_generation_w']:.3f} W/CPU, "
                  f"PRE {summary['fleet_pre']:.1%}")
    reporter.result("fleet", summary)
    return 0


def _cmd_seasonal(args: argparse.Namespace, reporter: Reporter) -> int:
    from .core.seasonal import SeasonalStudy, annual_summary
    from .environment import CLIMATES
    from .workloads.synthetic import common_trace

    trace = common_trace(n_servers=args.servers)
    study = SeasonalStudy(trace=trace,
                          wet_bulb=CLIMATES[args.climate])
    outcomes = study.run()
    reporter.info(f"{'month':<6} {'cold C':>7} {'wet bulb C':>11} "
                  f"{'gen W/CPU':>10} {'PRE':>7}")
    for outcome in outcomes:
        reporter.info(f"{outcome.month:<6} {outcome.cold_source_c:>7.1f} "
                      f"{outcome.wet_bulb_c:>11.1f} "
                      f"{outcome.generation_w:>10.3f} "
                      f"{outcome.result.average_pre:>6.1%}")
    summary = annual_summary(outcomes)
    reporter.info(f"annual mean {summary['generation_mean_w']:.2f} W/CPU, "
                  f"swing {summary['seasonal_swing']:.0%} "
                  f"(best {summary['best_month']}, worst "
                  f"{summary['worst_month']})")
    reporter.result("seasonal", summary)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(raw_argv)
    args.raw_argv = raw_argv
    reporter = Reporter(quiet=args.quiet, json_mode=args.json)
    code = args.handler(args, reporter)
    reporter.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
