"""Fleet-scale sharded simulation benchmark (the ISSUE 6 scenario).

One month-class synthetic-Google trace — 12,500 servers x 8,900
five-minute steps, ~111 M plane cells — is pushed through the sharded
engine path and through the unsharded whole-trace kernel.  The bench
asserts three things:

* the sharded result is bit-identical to the unsharded kernel at full
  fleet scale (parity at the scale the shard layer exists for);
* sharded throughput clears :data:`FLEET_CELLS_PER_S_FLOOR` (a
  deliberately generous fraction of the measured figure, so only real
  regressions trip it);
* the pickled worker payload stays under :data:`MAX_PAYLOAD_BYTES`
  even though the trace behind it is ~890 MB — workers slice the one
  shared-memory segment, they never receive trace data by value.

``measure_fleet_throughput`` is shared with
``benchmarks/check_engine_baseline.py``, which compares fresh numbers
against the ``fleet`` section of the committed ``baseline.json`` in
CI.
"""

import pickle
import time

import pytest

from repro.core.config import teg_original
from repro.core.engine import (
    BatchSimulationEngine,
    SharedTraceRef,
    SimulationJob,
    simulate,
)
from repro.core.shard import (
    DEFAULT_SHARD_SERVERS,
    DEFAULT_SHARD_STEPS,
    _ShardPayload,
    plan_shards,
    prime_decisions,
)
from repro.workloads.synthetic import common_trace

from bench_utils import print_table

#: The acceptance scenario: a synthetic-Google fleet, month-class run.
FLEET_TRACE_KWARGS = dict(n_servers=12500, duration_s=8900 * 300.0,
                          interval_s=300.0, seed=7)

#: Sharded throughput floor in plane cells per second.  Measured
#: ~3.5 M cells/s on a single-core developer container; the floor
#: leaves ~7x headroom for slow CI runners.
FLEET_CELLS_PER_S_FLOOR = 0.5e6

#: Hard ceiling on one pickled worker payload.  The trace plane is
#: ~890 MB; the payload carries a shared-memory window reference and
#: the primed policy memo (bounded by the policy's quantisation),
#: so 64 KiB is already generous.
MAX_PAYLOAD_BYTES = 64 * 1024


def fleet_payload_bytes(trace, config, primed):
    """Pickled size of the first worker payload for ``trace``."""
    specs = plan_shards(trace.n_steps, trace.n_servers,
                        config.circulation_size,
                        shard_servers=DEFAULT_SHARD_SERVERS,
                        shard_steps=DEFAULT_SHARD_STEPS)
    spec = specs[0]
    ref = SharedTraceRef(shm_name="bench-fleet-segment",
                         shape=(trace.n_steps, trace.n_servers),
                         dtype=str(trace.utilisation.dtype),
                         interval_s=trace.interval_s,
                         name=trace.name,
                         row_start=spec.step_start,
                         row_stop=spec.step_stop,
                         col_start=spec.server_start,
                         col_stop=spec.server_stop)
    payload = _ShardPayload(trace_ref=ref, spec=spec, config=config,
                            cpu_model=None, teg_module=None,
                            decisions=primed)
    return len(pickle.dumps(payload)), len(specs)


def measure_fleet_throughput(rounds: int = 1) -> dict:
    """Sharded vs unsharded kernel throughput at 12,500 x 8,900 scale.

    Returns a plain dict so the baseline checker can serialise it.
    Bit-identity between the two paths is asserted here, so a
    fast-but-wrong shard merge can never post a good number.
    """
    trace = common_trace(**FLEET_TRACE_KWARGS)
    config = teg_original()
    cells = trace.n_steps * trace.n_servers

    primed = prime_decisions(trace, config)
    payload_bytes, n_payloads = fleet_payload_bytes(trace, config,
                                                    primed)
    assert payload_bytes < MAX_PAYLOAD_BYTES, (
        f"worker payload is {payload_bytes} bytes for a "
        f"{trace.utilisation.nbytes >> 20} MiB trace — the window "
        f"slicing is no longer by reference")

    best_unsharded = None
    unsharded = None
    for _ in range(rounds):
        started = time.perf_counter()
        unsharded = simulate(trace, config, mode="kernel")
        elapsed = time.perf_counter() - started
        best_unsharded = (elapsed if best_unsharded is None
                          else min(best_unsharded, elapsed))

    best_sharded = None
    sharded = None
    with BatchSimulationEngine(prefer="process", shard=True) as engine:
        for _ in range(rounds):
            started = time.perf_counter()
            batch = engine.run([SimulationJob(trace=trace,
                                              config=config)])
            elapsed = time.perf_counter() - started
            best_sharded = (elapsed if best_sharded is None
                            else min(best_sharded, elapsed))
            assert not batch.failures
            sharded = batch.results[0]

    assert sharded.records == unsharded.records
    assert sharded.violations == unsharded.violations
    assert sharded.metrics.n_shards == n_payloads

    return {
        "trace": dict(FLEET_TRACE_KWARGS),
        "n_steps": trace.n_steps,
        "n_servers": trace.n_servers,
        "cells": cells,
        "n_shards": sharded.metrics.n_shards,
        "payload_bytes": payload_bytes,
        "trace_bytes": trace.utilisation.nbytes,
        "sharded_cells_per_s": round(cells / best_sharded, 1),
        "unsharded_cells_per_s": round(cells / best_unsharded, 1),
        "sharded_steps_per_s": round(trace.n_steps / best_sharded, 1),
        "sharded_vs_unsharded": round(best_unsharded / best_sharded, 2),
    }


@pytest.mark.slow
@pytest.mark.benchmark
def test_bench_fleet_scale_sharded(benchmark):
    report = benchmark.pedantic(measure_fleet_throughput,
                                rounds=1, iterations=1)
    print_table(
        "Fleet-scale sharded engine — 12,500 servers x 8,900 steps",
        ["metric", "value"],
        [
            ["shards", report["n_shards"]],
            ["payload (bytes)", report["payload_bytes"]],
            ["trace (MiB)", report["trace_bytes"] >> 20],
            ["sharded Mcells/s",
             round(report["sharded_cells_per_s"] / 1e6, 2)],
            ["unsharded Mcells/s",
             round(report["unsharded_cells_per_s"] / 1e6, 2)],
            ["sharded/unsharded", report["sharded_vs_unsharded"]],
        ])
    assert report["sharded_cells_per_s"] >= FLEET_CELLS_PER_S_FLOOR, (
        f"sharded throughput {report['sharded_cells_per_s']:.0f} "
        f"cells/s below the {FLEET_CELLS_PER_S_FLOOR:.0f} floor")
