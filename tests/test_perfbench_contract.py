"""What the benchmark's traced run relies on in the program.

``perfbench/ledger.py`` times the program by wrapping its functions by
name, and ``perfbench/run.py`` drives the shard layer directly.  These
tests import both unchanged and pin the names they use and the calls
one small sharded job makes through the wrappers, so a refactor that
renames a layer or bypasses a wrapper fails here rather than silently
emptying a ledger row.
"""

import importlib
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import cache as cache_mod
from repro.core import checkpoint as checkpoint_mod
from repro.core import engine as engine_mod
from repro.core import shard as shard_mod
from repro.core.config import teg_original
from repro.core.engine import BatchSimulationEngine, SimulationJob
from repro.workloads.trace import WorkloadTrace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Every attribute the ledger's clock wraps.
WRAPPED = (
    (checkpoint_mod, "trace_digest"),
    (cache_mod, "trace_digest"),
    (engine_mod, "result_key"),
    (cache_mod, "result_key"),
    (cache_mod.ResultCache, "load"),
    (cache_mod.ResultCache, "load_warm"),
    (cache_mod.ResultCache, "store"),
    (cache_mod.ResultCache, "store_warm"),
    (shard_mod, "primed_or_warm"),
    (shard_mod.StreamingMerge, "add"),
    (shard_mod.StreamingMerge, "result"),
    (shard_mod, "audit_merged_result"),
    (ProcessPoolExecutor, "submit"),
)


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``ledger`` and ``run`` modules, imported as is."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("ledger", "run")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield tuple(importlib.import_module(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


def fleet_job():
    rng = np.random.default_rng(7)
    trace = WorkloadTrace(rng.random((48, 40)), 300.0, name="fleet")
    return SimulationJob(trace, teg_original())


def test_clock_wraps_and_restores_every_layer(perfbench):
    ledger, _ = perfbench
    originals = [getattr(owner, attr) for owner, attr in WRAPPED]
    clock = ledger.LayerClock()
    clock.install()
    try:
        for (owner, attr), original in zip(WRAPPED, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        clock.uninstall()
    for (owner, attr), original in zip(WRAPPED, originals):
        assert getattr(owner, attr) is original, attr


def test_sharded_job_goes_through_every_wrapper(perfbench):
    ledger, run = perfbench
    jobs = [fleet_job()]
    clock = ledger.LayerClock()
    clock.install()
    try:
        with BatchSimulationEngine(2, prefer="process", cache=False,
                                   shard=True, shard_servers=20,
                                   shard_steps=12) as engine:
            clock.active = True
            batch = engine.run(jobs)
            clock.active = False
    finally:
        clock.uninstall()
    assert batch.ok
    assert batch.metrics.executor == "process"
    assert batch.metrics.shards == 8
    rows = ("shard.prime", "engine.submit", "shard.merge_add",
            "shard.finalise", "shard.audit", "checkpoint.trace_digest")
    # One submit per tile, plus the new pool's no-op round trip.
    assert {row: clock.calls[row] for row in rows} == {
        "shard.prime": 1, "engine.submit": 9, "shard.merge_add": 8,
        "shard.finalise": 1, "shard.audit": 1,
        "checkpoint.trace_digest": 1}
    assert run._shard_run_s(jobs) > 0
