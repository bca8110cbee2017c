"""Batched-decision pipeline A/B: the vectorised decide path must win.

Runs the whole-trace kernel twice on the pinned 1,000-step x
200-server scenario — once with the batched decision path (the
default) and once with ``decide_batch`` removed from
:class:`~repro.control.cooling_policy.LookupSpacePolicy`, which sends
the kernel down the scalar per-cell loop a third-party policy takes —
and compares the kernel's *decide phase* wall time
(``EngineMetrics.kernel.decide_s``).  Bit-identity between the two is
asserted before any timing is trusted: a fast-but-different batch path
can never look good.

``measure_pipeline_throughput`` is shared with
``benchmarks/check_engine_baseline.py``, which compares fresh numbers
against the ``pipeline`` section of the committed ``baseline.json`` in
CI and enforces :data:`PIPELINE_DECIDE_SPEEDUP_FLOOR`.
"""

import pytest

from repro.control.cooling_policy import LookupSpacePolicy
from repro.core.config import teg_original
from repro.core.engine import simulate
from repro.workloads.synthetic import common_trace

from bench_utils import print_table
from check_engine_baseline import floor

ROUNDS = 3

#: Same pinned scenario as the kernel baseline (ISSUE 3 / ISSUE 9).
PIPELINE_TRACE_KWARGS = dict(n_servers=200, duration_s=1000 * 300.0,
                             interval_s=300.0, seed=7)

#: Minimum batched-vs-scalar decide-phase speedup: the rule table's
#: decide floor.
PIPELINE_DECIDE_SPEEDUP_FLOOR = floor("pipeline", "decide_speedup")


def measure_pipeline_throughput(rounds: int = ROUNDS) -> dict:
    """Batched vs scalar decide-phase throughput on the 1,000 x 200 trace.

    Returns a plain dict so the baseline checker can serialise it.
    The decide phase is isolated through the kernel's own
    :class:`~repro.core.kernel.KernelTimings` rather than end-to-end
    wall time, so evaluate/reduce noise cannot mask a decide
    regression.
    """
    trace = common_trace(**PIPELINE_TRACE_KWARGS)
    config = teg_original()
    decide_s = {}
    results = {}

    def measure(name):
        best = None
        for _ in range(rounds):
            result = simulate(trace, config, mode="kernel")
            phase = result.metrics.kernel.decide_s
            best = phase if best is None else min(best, phase)
            results[name] = result
        decide_s[name] = best

    measure("batched")
    decide_batch = LookupSpacePolicy.decide_batch
    try:
        del LookupSpacePolicy.decide_batch
        measure("scalar")
    finally:
        LookupSpacePolicy.decide_batch = decide_batch
    assert results["batched"].records == results["scalar"].records
    assert results["batched"].violations == results["scalar"].violations
    return {
        "trace": dict(PIPELINE_TRACE_KWARGS),
        "n_steps": trace.n_steps,
        "scalar_decide_steps_per_s": round(
            trace.n_steps / decide_s["scalar"], 1),
        "batched_decide_steps_per_s": round(
            trace.n_steps / decide_s["batched"], 1),
        "decide_speedup": round(
            decide_s["scalar"] / decide_s["batched"], 2),
        "kernel_phases": results["batched"].metrics.kernel.summary(),
    }


@pytest.mark.benchmark
def test_bench_batched_decide_speedup(benchmark):
    report = benchmark.pedantic(measure_pipeline_throughput,
                                rounds=1, iterations=1)
    print_table(
        "Batched vs scalar decide — 1,000-step trace, 200 servers",
        ["path", "decide steps/s"],
        [
            ["scalar", report["scalar_decide_steps_per_s"]],
            ["batched", report["batched_decide_steps_per_s"]],
            ["speedup", report["decide_speedup"]],
        ])
    assert report["decide_speedup"] >= PIPELINE_DECIDE_SPEEDUP_FLOOR, (
        f"batched decide speedup {report['decide_speedup']:.2f}x below "
        f"the {PIPELINE_DECIDE_SPEEDUP_FLOOR:.0f}x floor")
