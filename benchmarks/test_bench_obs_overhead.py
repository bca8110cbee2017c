"""Telemetry overhead guard: disabled observability must stay free.

The ``repro.obs`` hooks sit directly on the kernel hot path
(``kernel.decide`` .. ``kernel.fold`` spans, per-run metric recording),
so this benchmark pins two contracts from ISSUE 5:

* **disabled** — with no telemetry session the hooks reduce to one
  ``ContextVar`` read each, so kernel throughput must stay within the
  rule table's envelope (``check_engine_baseline.ENVELOPE``, 3 %) of
  the ``engine`` section of the committed ``baseline.json``.  Raw
  steps/sec are machine-dependent, so the check takes the table's
  :func:`~check_engine_baseline.envelope` ratio, normalised by the
  loop-mode figure measured in the same run.  A regression specific to
  the kernel path — where the hooks live — fails both of its ratios.
* **enabled** — a live session records spans, counters and histograms
  for every run; that is allowed to cost something, but no more than
  :data:`ENABLED_MAX_OVERHEAD` of kernel throughput, measured
  same-run so the comparison is noise-free.

Both comparisons reuse ``measure_kernel_throughput`` from
``test_bench_engine.py`` — the same harness that feeds the committed
baseline — so the numbers are directly comparable.
"""

import json

import pytest

from test_bench_engine import (KERNEL_TRACE_KWARGS,
                               measure_kernel_throughput)

from bench_utils import print_table
from check_engine_baseline import BASELINE, ENVELOPE, envelope

#: An enabled session may cost at most this fraction of kernel
#: throughput (same-run comparison; generous because the pinned
#: scenario is short enough that session setup is visible).
ENABLED_MAX_OVERHEAD = 0.25

#: The live scrape endpoint is an idle ``select``-looping thread when
#: nobody scrapes; attaching it may cost at most this fraction of
#: labelled-telemetry batch throughput (same-run, best-of-rounds).
LIVE_ENDPOINT_MAX_OVERHEAD = 0.10


@pytest.mark.benchmark
def test_bench_telemetry_overhead(benchmark):
    baseline = json.loads(BASELINE.read_text())["engine"]
    report = benchmark.pedantic(measure_kernel_throughput,
                                rounds=1, iterations=1)

    # The hooks sit on the kernel path only, so the loop-mode figure
    # normalises runner speed; loop timing is the noisier of the two,
    # hence the envelope's kinder-of-two-ratios rule.  This check is
    # no row of the rule table, so CI's baseline step does not run it.
    disabled_ratio = envelope(baseline, report, "kernel_steps_per_s",
                              "loop_steps_per_s")
    enabled_overhead = report["telemetry_overhead"]

    print_table(
        "Telemetry overhead — 1,000-step trace, 200 servers",
        ["variant", "steps/s", "vs disabled"],
        [
            ["kernel (telemetry off)", report["kernel_steps_per_s"], 1.0],
            ["kernel (telemetry on)",
             report["kernel_telemetry_steps_per_s"],
             1.0 - enabled_overhead],
            ["baseline", baseline["kernel_steps_per_s"],
             round(disabled_ratio, 3)],
        ])

    assert disabled_ratio >= 1.0 - ENVELOPE, (
        f"disabled-telemetry kernel throughput is "
        f"{disabled_ratio:.1%} of the (machine-normalised) baseline; "
        f"floor is {1.0 - ENVELOPE:.0%}")
    assert enabled_overhead <= ENABLED_MAX_OVERHEAD, (
        f"enabled telemetry costs {enabled_overhead:.1%} of kernel "
        f"throughput; budget is {ENABLED_MAX_OVERHEAD:.0%}")


def measure_live_endpoint_overhead(rounds: int = 3) -> dict:
    """Labelled-telemetry batch throughput, endpoint off vs attached.

    Both variants run the pinned kernel scenario through the engine
    with telemetry on — the sessions record fully labelled
    (scheme/trace) series — differing only in whether a live scrape
    endpoint is bound.  Records are asserted identical so the endpoint
    can never look cheap by perturbing the work, and the labelled
    series are asserted present so the measurement cannot silently
    regress to bare names.
    """
    from repro.core.config import teg_original
    from repro.core.engine import BatchSimulationEngine, SimulationJob
    from repro.obs import series_family
    from repro.workloads.synthetic import common_trace

    trace = common_trace(**KERNEL_TRACE_KWARGS)
    measured: dict[str, float] = {}
    batches: dict[str, object] = {}
    for name, extra in (("labelled", {}), ("labelled+live",
                                           {"metrics_port": 0})):
        best = None
        with BatchSimulationEngine(n_workers=1, prefer="serial",
                                   telemetry=True, **extra) as engine:
            for _ in range(rounds):
                batch = engine.run([SimulationJob(trace=trace,
                                                  config=teg_original())])
                wall = batch.metrics.wall_time_s
                best = wall if best is None else min(best, wall)
                batches[name] = batch
        measured[name] = trace.n_steps / best
    assert (batches["labelled"].results[0].records
            == batches["labelled+live"].results[0].records)
    counters = (batches["labelled+live"].telemetry.registry
                .snapshot().counters)
    labelled = [key for key in counters
                if "{" in key and series_family(key) == "sim.runs"]
    assert labelled, "expected labelled sim.runs series in the batch"
    return {
        "labelled_steps_per_s": round(measured["labelled"], 1),
        "live_steps_per_s": round(measured["labelled+live"], 1),
        "live_overhead": round(
            1.0 - measured["labelled+live"] / measured["labelled"], 4),
    }


@pytest.mark.benchmark
def test_bench_live_endpoint_overhead(benchmark):
    report = benchmark.pedantic(measure_live_endpoint_overhead,
                                rounds=1, iterations=1)
    print_table(
        "Live endpoint overhead — 1,000-step trace, 200 servers",
        ["variant", "steps/s", "vs labelled"],
        [
            ["labelled telemetry", report["labelled_steps_per_s"], 1.0],
            ["labelled + live endpoint", report["live_steps_per_s"],
             1.0 - report["live_overhead"]],
        ])
    assert report["live_overhead"] <= LIVE_ENDPOINT_MAX_OVERHEAD, (
        f"attaching the live endpoint costs "
        f"{report['live_overhead']:.1%} of labelled-telemetry batch "
        f"throughput; budget is {LIVE_ENDPOINT_MAX_OVERHEAD:.0%}")
