"""Compare engine throughput against the committed baselines.

Usage (from the repository root)::

    PYTHONPATH=src:benchmarks python benchmarks/check_engine_baseline.py
    PYTHONPATH=src:benchmarks python benchmarks/check_engine_baseline.py --all
    PYTHONPATH=src:benchmarks python benchmarks/check_engine_baseline.py --update

Without ``--update`` the script re-measures a scenario and fails
(exit 1) if any checked figure drops below ``TOLERANCE`` x its
committed baseline.  The tolerance is deliberately generous — CI
runners are noisy and heterogeneous; the check exists to catch large,
real regressions (an accidentally quadratic loop, a lost fast path),
not small scheduling jitter.  With ``--update`` it rewrites the
selected baseline(s) from a fresh measurement instead.

Scenarios (``--all`` runs every one in a single invocation — the CI
entry point):

* default (``BENCH_engine.json``): kernel and serial-loop throughput
  on the pinned 1,000-step x 200-server trace.
* ``--fleet`` (``BENCH_fleet.json``): the fleet-scale sharded scenario
  (12,500 servers x 8,900 steps); the measurement itself asserts
  shard/unshard bit-parity and the bounded worker payload, and the
  check enforces the checkpoint-off envelope — with no checkpoint
  directory configured the sharded path must stay within 3 % of its
  committed baseline (machine-normalised against the unsharded
  kernel, which carries no checkpoint plumbing).
* ``--cache`` (``BENCH_cache.json``): the result-cache scenario (the
  same fleet trace through ``simulate_sharded``): the warm-hit speedup
  floor and the cache-off envelope, normalised the same way.
* ``--pipeline`` (``BENCH_pipeline.json``): the batched-decision A/B —
  the kernel's decide phase with the vectorised path on versus the
  scalar loop a policy without ``decide_batch`` takes, enforcing the
  committed speedup floor.

``--report-dir DIR`` additionally writes each scenario's fresh
measurement as ``DIR/BENCH_<scenario>.json`` so CI can archive the
numbers (the ``bench-history`` artifact) without touching the
committed baselines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: A checked figure fails below this fraction of its baseline.
TOLERANCE = 0.25

#: The default scenario's figures: the serial cached loop, kernel with
#: telemetry off, and kernel under a live repro.obs session (so a
#: telemetry-hook regression is caught even though the default path
#: has telemetry disabled).
CHECKED_FIELDS = ("loop_steps_per_s", "kernel_steps_per_s",
                  "kernel_telemetry_steps_per_s")

#: The fleet (``--fleet``) figures, from ``BENCH_fleet.json``: the
#: sharded engine on the 12,500 x 8,900 synthetic-Google scenario.
FLEET_CHECKED_FIELDS = ("sharded_cells_per_s", "unsharded_cells_per_s")

#: The result-cache (``--cache``) figures, from ``BENCH_cache.json``:
#: the cache-off recompute, the kernel normaliser and the warm hit.
CACHE_CHECKED_FIELDS = ("direct_cells_per_s", "kernel_cells_per_s",
                        "warm_cells_per_s")

#: The pipeline (``--pipeline``) figures, from ``BENCH_pipeline.json``:
#: the decide phase with the batch path on and forced off.
PIPELINE_CHECKED_FIELDS = ("batched_decide_steps_per_s",
                           "scalar_decide_steps_per_s")

#: With the result cache *disabled* (``result_cache=False``), the
#: sharded path must stay within this fraction of its committed
#: baseline — same envelope and same kernel normalisation as the
#: checkpoint-off guard (the kernel path shares the cache branches'
#: host but not their cost, so only a cache-plumbing slowdown trips
#: it).
CACHE_OFF_TOLERANCE = 0.03

#: The committed warm-hit speedup may degrade to no less than this
#: floor (the ISSUE 8 acceptance criterion).
CACHE_WARM_SPEEDUP_FLOOR = 20.0

#: With checkpointing *disabled* (the default), the sharded path must
#: stay within this fraction of its committed baseline — the same 3 %
#: envelope the telemetry-off guard uses.  The ratio is normalised by
#: the unsharded kernel figure measured in the same run: the kernel
#: path carries no checkpoint plumbing, so a uniformly slower runner
#: cancels out and only a sharded-path-specific slowdown (the
#: checkpoint branches) can trip the guard.
FLEET_CHECKPOINT_OFF_TOLERANCE = 0.03

#: The batched decide path must stay at least this many times faster
#: than the scalar loop (the ISSUE 9 acceptance criterion).  Phase
#: times come from the same run, so runner speed cancels out.
PIPELINE_DECIDE_SPEEDUP_FLOOR = 3.0


def _measure(scenario: str) -> dict:
    if scenario == "fleet":
        from test_bench_fleet_scale import measure_fleet_throughput

        # Best-of-two: the checkpoint-off envelope is tight (3 %), and
        # single-shot wall times at this scale carry that much jitter.
        return measure_fleet_throughput(rounds=2)
    if scenario == "cache":
        from test_bench_cache import measure_cache_throughput

        return measure_cache_throughput(rounds=2)
    if scenario == "pipeline":
        from test_bench_pipeline import measure_pipeline_throughput

        return measure_pipeline_throughput()
    from test_bench_engine import measure_kernel_throughput

    return measure_kernel_throughput()


SCENARIOS = {
    "engine": (Path(__file__).parent / "BENCH_engine.json",
               CHECKED_FIELDS),
    "fleet": (Path(__file__).parent / "BENCH_fleet.json",
              FLEET_CHECKED_FIELDS),
    "cache": (Path(__file__).parent / "BENCH_cache.json",
              CACHE_CHECKED_FIELDS),
    "pipeline": (Path(__file__).parent / "BENCH_pipeline.json",
                 PIPELINE_CHECKED_FIELDS),
}


def _check_fleet(baseline: dict, report: dict) -> bool:
    failed = False
    print(f"{'shards':<20} baseline "
          f"{baseline.get('n_shards', 0):>10}  "
          f"now {report['n_shards']:>10}")
    print(f"{'payload bytes':<20} baseline "
          f"{baseline.get('payload_bytes', 0):>10}  "
          f"now {report['payload_bytes']:>10}")
    print(f"{'sharded/unsharded':<20} baseline "
          f"{baseline.get('sharded_vs_unsharded', float('nan')):>10.2f}  "
          f"now {report['sharded_vs_unsharded']:>10.2f}")
    if all(baseline.get(f) for f in FLEET_CHECKED_FIELDS):
        direct = (report["sharded_cells_per_s"]
                  / baseline["sharded_cells_per_s"])
        machine = (report["unsharded_cells_per_s"]
                   / baseline["unsharded_cells_per_s"])
        # Take the kinder of the direct and machine-normalised
        # ratios (see FLEET_CHECKPOINT_OFF_TOLERANCE).
        ratio = max(direct, direct / machine)
        ok = ratio >= 1.0 - FLEET_CHECKPOINT_OFF_TOLERANCE
        failed = failed or not ok
        print(f"{'ckpt-off overhead':<20} sharded at {ratio:>9.2f}x "
              f"baseline (floor "
              f"{1.0 - FLEET_CHECKPOINT_OFF_TOLERANCE:.0%})  "
              f"[{'ok' if ok else 'REGRESSION'}]")
    return failed


def _check_cache(baseline: dict, report: dict) -> bool:
    failed = False
    print(f"{'entry bytes':<20} baseline "
          f"{baseline.get('entry_bytes', 0):>10}  "
          f"now {report['entry_bytes']:>10}")
    speedup_ok = report["warm_speedup"] >= CACHE_WARM_SPEEDUP_FLOOR
    failed = failed or not speedup_ok
    print(f"{'warm speedup':<20} baseline "
          f"{baseline.get('warm_speedup', float('nan')):>9.1f}x "
          f"now {report['warm_speedup']:>9.1f}x (floor "
          f"{CACHE_WARM_SPEEDUP_FLOOR:.0f}x)  "
          f"[{'ok' if speedup_ok else 'REGRESSION'}]")
    if all(baseline.get(f) for f in ("direct_cells_per_s",
                                     "kernel_cells_per_s")):
        direct = (report["direct_cells_per_s"]
                  / baseline["direct_cells_per_s"])
        machine = (report["kernel_cells_per_s"]
                   / baseline["kernel_cells_per_s"])
        # Take the kinder of the direct and machine-normalised
        # ratios (see CACHE_OFF_TOLERANCE).
        ratio = max(direct, direct / machine)
        ok = ratio >= 1.0 - CACHE_OFF_TOLERANCE
        failed = failed or not ok
        print(f"{'cache-off overhead':<20} direct at {ratio:>9.2f}x "
              f"baseline (floor {1.0 - CACHE_OFF_TOLERANCE:.0%})  "
              f"[{'ok' if ok else 'REGRESSION'}]")
    return failed


def _check_pipeline(baseline: dict, report: dict) -> bool:
    speedup_ok = (report["decide_speedup"]
                  >= PIPELINE_DECIDE_SPEEDUP_FLOOR)
    print(f"{'decide speedup':<20} baseline "
          f"{baseline.get('decide_speedup', float('nan')):>9.2f}x "
          f"now {report['decide_speedup']:>9.2f}x (floor "
          f"{PIPELINE_DECIDE_SPEEDUP_FLOOR:.0f}x)  "
          f"[{'ok' if speedup_ok else 'REGRESSION'}]")
    return not speedup_ok


def _check_engine(baseline: dict, report: dict) -> bool:
    print(f"{'speedup':<20} baseline {baseline['speedup']:>10.2f}  "
          f"now {report['speedup']:>10.2f}")
    print(f"{'telemetry overhead':<20} baseline "
          f"{baseline.get('telemetry_overhead', float('nan')):>10.2%}  "
          f"now {report['telemetry_overhead']:>10.2%}")
    return False


def run_scenario(scenario: str, baseline_path: Path, *,
                 update: bool = False,
                 report_dir: Path | None = None) -> int:
    """Measure one scenario; check (or ``--update``) its baseline."""
    checked_fields = SCENARIOS[scenario][1]
    print(f"--- {scenario} ({baseline_path.name}) ---")
    report = _measure(scenario)
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)
        out = report_dir / f"BENCH_{scenario}.json"
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"measurement written to {out}")
    if update:
        baseline_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {baseline_path}")
        return 0

    baseline = json.loads(baseline_path.read_text())
    if baseline.get("trace") != report["trace"]:
        print(f"baseline scenario {baseline.get('trace')} does not match "
              f"current scenario {report['trace']}; re-run with --update")
        return 1

    failed = False
    for field in checked_fields:
        if field not in baseline:
            print(f"{field:<20} missing from baseline; re-run with "
                  f"--update")
            failed = True
            continue
        floor = baseline[field] * TOLERANCE
        ratio = report[field] / baseline[field]
        verdict = "ok" if report[field] >= floor else "REGRESSION"
        failed = failed or report[field] < floor
        print(f"{field:<20} baseline {baseline[field]:>10.1f}  "
              f"now {report[field]:>10.1f}  ({ratio:>5.2f}x, floor "
              f"{TOLERANCE:.0%})  [{verdict}]")
    extra = {"engine": _check_engine, "fleet": _check_fleet,
             "cache": _check_cache, "pipeline": _check_pipeline}
    failed = extra[scenario](baseline, report) or failed
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline(s) instead of checking")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline file (default: the selected "
                             "scenario's committed BENCH_*.json; "
                             "incompatible with --all)")
    parser.add_argument("--fleet", action="store_true",
                        help="check the fleet-scale sharded scenario "
                             "(12,500 x 8,900) instead of the kernel one")
    parser.add_argument("--cache", action="store_true",
                        help="check the result-cache scenario (fleet "
                             "trace; warm hits and cache-off envelope)")
    parser.add_argument("--pipeline", action="store_true",
                        help="check the batched-decision pipeline "
                             "scenario (decide-phase A/B speedup)")
    parser.add_argument("--all", action="store_true",
                        help="check every committed BENCH_*.json in one "
                             "invocation (the CI entry point)")
    parser.add_argument("--report-dir", type=Path, default=None,
                        metavar="DIR",
                        help="also write each fresh measurement as "
                             "DIR/BENCH_<scenario>.json (for the CI "
                             "bench-history artifact)")
    args = parser.parse_args(argv)
    selected = [name for name, flag in (("fleet", args.fleet),
                                        ("cache", args.cache),
                                        ("pipeline", args.pipeline))
                if flag]
    if len(selected) > 1:
        parser.error("--fleet, --cache and --pipeline are mutually "
                     "exclusive")
    if args.all and (selected or args.baseline):
        parser.error("--all is incompatible with --fleet/--cache/"
                     "--pipeline/--baseline")

    if args.all:
        code = 0
        for scenario, (baseline_path, _) in SCENARIOS.items():
            code = max(code, run_scenario(
                scenario, baseline_path, update=args.update,
                report_dir=args.report_dir))
        return code
    scenario = selected[0] if selected else "engine"
    baseline_path = args.baseline or SCENARIOS[scenario][0]
    return run_scenario(scenario, baseline_path, update=args.update,
                        report_dir=args.report_dir)


if __name__ == "__main__":
    sys.exit(main())
