"""Checkpoint overhead and resume-speed benchmark (ISSUE 7).

Three runs of the same sharded scenario pin the checkpoint layer's
cost model:

* **plain** — ``simulate_sharded`` with no checkpoint directory: the
  reference throughput (checkpoint-off overhead at fleet scale is
  guarded separately by the ``fleet`` envelope rule of
  ``check_engine_baseline.py``);
* **checkpointed** — the same run persisting every shard as it
  completes (atomic write + fsync per shard), bounded to at most
  :data:`MAX_CHECKPOINT_OVERHEAD` of the plain wall time;
* **resumed** — a rerun against the populated directory, which must
  load every shard (``shards_resumed == n_shards``), produce the
  bit-identical result, and never be slower than computing from
  scratch.
"""

import tempfile
import time
from pathlib import Path

import pytest

from repro.core.config import teg_original
from repro.core.shard import simulate_sharded
from repro.workloads.synthetic import common_trace

from bench_utils import print_table

#: A mid-size scenario: 2,000 steps x 400 servers (800 k plane cells),
#: split into a 4 x 4 = 16-shard grid.
CKPT_TRACE_KWARGS = dict(n_servers=400, duration_s=2000 * 300.0,
                         interval_s=300.0, seed=11)
CKPT_SHARD_KWARGS = dict(shard_servers=100, shard_steps=500)

#: Persisting shards may cost at most this fraction of the plain wall
#: time (generous: the payload is a few MB of columnar planes and CI
#: disks are slow, but writing must never dominate the compute).
MAX_CHECKPOINT_OVERHEAD = 1.0


def measure_checkpoint_overhead(rounds: int = 3) -> dict:
    """Plain vs checkpointed vs resumed wall time on one scenario.

    Returns a plain dict; resume bit-identity and full shard reuse are
    asserted here, so a fast-but-wrong resume can never post a good
    number.
    """
    trace = common_trace(**CKPT_TRACE_KWARGS)
    config = teg_original()
    cells = trace.n_steps * trace.n_servers

    best_plain = None
    plain = None
    for _ in range(rounds):
        started = time.perf_counter()
        plain = simulate_sharded(trace, config, **CKPT_SHARD_KWARGS)
        elapsed = time.perf_counter() - started
        best_plain = (elapsed if best_plain is None
                      else min(best_plain, elapsed))

    with tempfile.TemporaryDirectory() as tmp:
        best_cold = None
        last_dir = None
        for index in range(rounds):
            directory = Path(tmp) / f"cold-{index}"
            started = time.perf_counter()
            cold = simulate_sharded(trace, config, **CKPT_SHARD_KWARGS,
                                    checkpoint=directory)
            elapsed = time.perf_counter() - started
            best_cold = (elapsed if best_cold is None
                         else min(best_cold, elapsed))
            last_dir = directory
        assert cold.records == plain.records
        assert cold.metrics.shards_resumed == 0

        best_resume = None
        resumed = None
        for _ in range(rounds):
            started = time.perf_counter()
            resumed = simulate_sharded(trace, config,
                                       **CKPT_SHARD_KWARGS,
                                       checkpoint=last_dir)
            elapsed = time.perf_counter() - started
            best_resume = (elapsed if best_resume is None
                           else min(best_resume, elapsed))

    assert resumed.records == plain.records
    assert resumed.violations == plain.violations
    n_shards = plain.metrics.n_shards
    assert resumed.metrics.shards_resumed == n_shards

    return {
        "trace": dict(CKPT_TRACE_KWARGS),
        "cells": cells,
        "n_shards": n_shards,
        "plain_cells_per_s": round(cells / best_plain, 1),
        "checkpointed_cells_per_s": round(cells / best_cold, 1),
        "resumed_cells_per_s": round(cells / best_resume, 1),
        "checkpoint_overhead": round(best_cold / best_plain - 1.0, 3),
        "resume_speedup": round(best_plain / best_resume, 2),
    }


@pytest.mark.benchmark
def test_bench_checkpoint_overhead(benchmark):
    report = benchmark.pedantic(measure_checkpoint_overhead,
                                rounds=1, iterations=1)
    print_table(
        "Checkpoint overhead — 2,000 steps x 400 servers, 16 shards",
        ["variant", "Mcells/s"],
        [
            ["plain", round(report["plain_cells_per_s"] / 1e6, 2)],
            ["checkpointed (cold)",
             round(report["checkpointed_cells_per_s"] / 1e6, 2)],
            ["resumed",
             round(report["resumed_cells_per_s"] / 1e6, 2)],
        ])
    assert report["checkpoint_overhead"] <= MAX_CHECKPOINT_OVERHEAD, (
        f"persisting shards costs {report['checkpoint_overhead']:.0%} "
        f"of the plain wall time (cap {MAX_CHECKPOINT_OVERHEAD:.0%})")
    assert report["resume_speedup"] >= 1.0, (
        f"resuming ({report['resumed_cells_per_s']:.0f} cells/s) is "
        f"slower than computing from scratch "
        f"({report['plain_cells_per_s']:.0f} cells/s)")
