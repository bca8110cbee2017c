"""Result-cache benchmark (ISSUE 8): warm hits vs recompute at scale.

The acceptance scenario is the fleet-scale trace from
``test_bench_fleet_scale`` — 12,500 servers x 8,900 five-minute steps,
~111 M plane cells — run through ``simulate_sharded`` four ways:

* **direct** — result cache explicitly off (``result_cache=False``):
  the recompute reference, and the figure the cache-off overhead
  envelope in ``check_engine_baseline.py``'s rule table guards;
* **kernel** — the unsharded whole-trace kernel, measured in the same
  process as a machine normaliser (it carries no cache plumbing, so a
  uniformly slow runner cancels out of the envelope ratio);
* **cold** — a fresh cache directory: compute + store;
* **warm** — the same directory again: the run must be served from the
  cache, bit-identical to the direct recompute, and at least
  :data:`MIN_WARM_SPEEDUP` x faster than computing.

``measure_cache_throughput`` is shared with
``benchmarks/check_engine_baseline.py``, which compares fresh numbers
against the ``cache`` section of the committed ``baseline.json`` in CI.
"""

import tempfile
import time
from pathlib import Path

import pytest

from repro.core.config import teg_original
from repro.core.engine import simulate
from repro.core.shard import simulate_sharded
from repro.workloads.synthetic import common_trace

from bench_utils import print_table
from check_engine_baseline import floor
from test_bench_fleet_scale import FLEET_TRACE_KWARGS

#: A repeated fleet-scale run answered from the cache must be at least
#: this many times faster than recomputing it: the rule table's warm
#: floor.
MIN_WARM_SPEEDUP = floor("cache", "warm_speedup")


def measure_cache_throughput(rounds: int = 2) -> dict:
    """Direct vs cold vs warm wall time on the fleet-scale scenario.

    Returns a plain dict so the baseline checker can serialise it.
    Warm-hit bit-identity is asserted here, so a fast-but-wrong cache
    can never post a good number.
    """
    trace = common_trace(**FLEET_TRACE_KWARGS)
    config = teg_original()
    cells = trace.n_steps * trace.n_servers

    best_direct = None
    direct = None
    for _ in range(rounds):
        started = time.perf_counter()
        direct = simulate_sharded(trace, config, result_cache=False)
        elapsed = time.perf_counter() - started
        best_direct = (elapsed if best_direct is None
                       else min(best_direct, elapsed))

    best_kernel = None
    for _ in range(rounds):
        started = time.perf_counter()
        kernel = simulate(trace, config, mode="kernel",
                          result_cache=False)
        elapsed = time.perf_counter() - started
        best_kernel = (elapsed if best_kernel is None
                       else min(best_kernel, elapsed))
    assert kernel.records == direct.records

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "cache"
        started = time.perf_counter()
        cold = simulate_sharded(trace, config, result_cache=directory)
        cold_elapsed = time.perf_counter() - started
        assert not cold.metrics.result_cache_hit
        assert cold.records == direct.records

        entry_bytes = sum(p.stat().st_size for p in
                          (directory / "results").iterdir())

        best_warm = None
        warm = None
        for _ in range(max(rounds, 3)):
            started = time.perf_counter()
            warm = simulate_sharded(trace, config,
                                    result_cache=directory)
            elapsed = time.perf_counter() - started
            best_warm = (elapsed if best_warm is None
                         else min(best_warm, elapsed))
        assert warm.metrics.result_cache_hit
        assert warm.records == direct.records
        assert warm.violations == direct.violations

    return {
        "trace": dict(FLEET_TRACE_KWARGS),
        "cells": cells,
        "n_steps": trace.n_steps,
        "n_servers": trace.n_servers,
        "entry_bytes": entry_bytes,
        "direct_cells_per_s": round(cells / best_direct, 1),
        "kernel_cells_per_s": round(cells / best_kernel, 1),
        "cold_cells_per_s": round(cells / cold_elapsed, 1),
        "warm_cells_per_s": round(cells / best_warm, 1),
        "store_overhead": round(cold_elapsed / best_direct - 1.0, 3),
        "warm_speedup": round(best_direct / best_warm, 1),
    }


@pytest.mark.slow
@pytest.mark.benchmark
def test_bench_cache_warm_hits(benchmark):
    report = benchmark.pedantic(measure_cache_throughput,
                                rounds=1, iterations=1)
    print_table(
        "Result cache — 12,500 servers x 8,900 steps",
        ["metric", "value"],
        [
            ["entry (KiB)", report["entry_bytes"] >> 10],
            ["direct Mcells/s",
             round(report["direct_cells_per_s"] / 1e6, 2)],
            ["cold (store) Mcells/s",
             round(report["cold_cells_per_s"] / 1e6, 2)],
            ["warm (hit) Mcells/s",
             round(report["warm_cells_per_s"] / 1e6, 2)],
            ["store overhead", f"{report['store_overhead']:.1%}"],
            ["warm speedup", f"{report['warm_speedup']:.0f}x"],
        ])
    assert report["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"cache hit is only {report['warm_speedup']:.1f}x faster than "
        f"recompute (floor {MIN_WARM_SPEEDUP:.0f}x)")
    assert report["store_overhead"] <= 1.0, (
        f"storing the result costs {report['store_overhead']:.0%} of "
        f"the direct wall time")
