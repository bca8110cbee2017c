"""The coordinator's row-band fan-out: the same bits on any CPU count.

The shard prime pass and the merge's final fold reduce the plane's rows
on one thread per usable CPU (``checkpoint._fan_out`` over
``checkpoint._row_bands``).  Patching ``checkpoint._usable_cpus`` runs
them on 1, 2, 3 and 8 threads here, more threads than this host may
have cores; every result must be bit-identical, no thread may outlive
the call, and the entry points pool workers run must start no thread.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

import repro.core.kernel as kernel_module
from repro.core import checkpoint
from repro.core.config import teg_loadbalance, teg_original
from repro.core.engine import simulate
from repro.core.results import STEP_COLUMNS
from repro.core.shard import (
    plan_shards,
    prime_decisions,
    run_shard,
    simulate_sharded,
)
from repro.core.simulator import DatacenterSimulator
from repro.workloads.synthetic import drastic_trace
from repro.workloads.trace import WorkloadTrace

CPU_COUNTS = (1, 2, 3, 8)


def ragged_trace(n_steps=24, order="C"):
    """47 servers: two 20-server circulations and a ragged 7-server one.

    ``order="F"`` views a column-major copy of the plane, whose rows
    NumPy does not reduce one by one, so it must run as one band.
    """
    trace = drastic_trace(n_servers=47, duration_s=n_steps * 300.0,
                          interval_s=300.0, seed=11)
    if order == "C":
        return trace
    return WorkloadTrace.from_shared(np.asfortranarray(trace.utilisation),
                                     300.0, name=trace.name)


def bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def result_bits(result):
    return {name: np.asarray(result.records.column(name)).tobytes()
            for name in STEP_COLUMNS}


@pytest.fixture
def pools(monkeypatch):
    """The thread counts of every pool the fan-out starts."""
    started = []

    class Recording(checkpoint.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "ThreadPoolExecutor", Recording)
    return started


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so a race between bands shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def on_cpus(monkeypatch, n, compute):
    monkeypatch.setattr(checkpoint, "_usable_cpus", lambda: n)
    return compute()


class TestRowBands:
    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    @pytest.mark.parametrize("n_rows", [1, 2, 5, 37])
    def test_bands_cover_every_row_once(self, monkeypatch, cpus, n_rows):
        bands = on_cpus(monkeypatch, cpus,
                        lambda: checkpoint._row_bands(n_rows))
        assert len(bands) == min(cpus, n_rows)
        assert [i for band in bands for i in range(n_rows)[band]] \
            == list(range(n_rows))


@pytest.mark.usefixtures("fast_switching")
class TestReductions:
    """The reductions the coordinator fans out, on any thread count."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n_steps", [3, 24])
    def test_circulation_reductions(self, monkeypatch, pools, order,
                                    n_steps):
        # Three steps is fewer rows than most of the thread counts.
        trace = ragged_trace(n_steps, order)
        sim = DatacenterSimulator(trace, teg_original())
        plane = trace.utilisation
        want_max = kernel_module._circulation_max(sim, plane)
        want_mean = kernel_module._per_circulation(sim, plane, np.mean)
        for cpus in CPU_COUNTS:
            got_max = on_cpus(monkeypatch, cpus,
                              lambda: kernel_module._circulation_max(
                                  sim, plane, fan_out=True))
            got_mean = kernel_module._per_circulation(sim, plane, np.mean,
                                                      fan_out=True)
            np.testing.assert_array_equal(bits(got_max), bits(want_max))
            np.testing.assert_array_equal(bits(got_mean), bits(want_mean))
        if order == "C":
            assert max(pools) == min(8, n_steps)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n_steps", [3, 24])
    def test_raw_step_mean_and_max(self, monkeypatch, order, n_steps):
        trace = ragged_trace(n_steps, order)
        columns = kernel_module.run_kernel_columns(
            DatacenterSimulator(trace, teg_original()))
        want = kernel_module._columnar_result(trace, "x", columns)
        for cpus in CPU_COUNTS:
            got = on_cpus(monkeypatch, cpus,
                          lambda: kernel_module._columnar_result(
                              trace, "x", columns, fan_out=True))
            assert result_bits(got) == result_bits(want)
        if order == "C":  # the serial loop's per-step reductions
            raw = trace.utilisation
            np.testing.assert_array_equal(
                bits(want.records.column("mean_utilisation")),
                bits(np.array([row.mean() for row in raw])))
            np.testing.assert_array_equal(
                bits(want.records.column("max_utilisation")),
                bits(np.array([row.max() for row in raw])))


@pytest.mark.usefixtures("fast_switching")
class TestCoordinatorPasses:
    @pytest.mark.parametrize("config", [teg_original(), teg_loadbalance()],
                             ids=lambda c: c.name)
    def test_prime_memo_is_bit_identical(self, monkeypatch, pools, config):
        trace = ragged_trace()
        memos = {cpus: on_cpus(monkeypatch, cpus, lambda: pickle.dumps(
            list(prime_decisions(trace, config).items())))
            for cpus in CPU_COUNTS}
        assert len(set(memos.values())) == 1
        assert 8 in pools

    @pytest.mark.parametrize("config", [teg_original(), teg_loadbalance()],
                             ids=lambda c: c.name)
    def test_sharded_result_is_bit_identical(self, monkeypatch, config):
        trace = ragged_trace()
        whole = simulate(trace, config, mode="kernel")
        for cpus in CPU_COUNTS:
            sharded = on_cpus(monkeypatch, cpus, lambda: simulate_sharded(
                trace, config, shard_servers=20, shard_steps=7))
            assert result_bits(sharded) == result_bits(whole)
            assert sharded.violations == whole.violations

    def test_no_thread_outlives_a_prime_pass_or_a_merge(self, monkeypatch,
                                                         pools):
        monkeypatch.setattr(checkpoint, "_usable_cpus", lambda: 2)
        trace = ragged_trace()
        before = threading.active_count()
        prime_decisions(trace, teg_original())
        assert threading.active_count() == before
        assert pools == [2]
        simulate_sharded(trace, teg_original(), shard_servers=20,
                         shard_steps=7)
        assert threading.active_count() == before
        assert pools == [2] * 3  # its prime pass, then the merge's fold

    def test_pool_worker_entry_points_start_no_thread(self, monkeypatch,
                                                      pools):
        monkeypatch.setattr(checkpoint, "_usable_cpus", lambda: 8)
        trace = ragged_trace()
        config = teg_original()
        simulate(trace, config, mode="kernel")
        spec = plan_shards(trace.n_steps, trace.n_servers,
                           config.circulation_size, shard_servers=40)[0]
        run_shard(trace.window(spec.step_start, spec.step_stop,
                               spec.server_start, spec.server_stop),
                  spec, config, cache=prime_decisions(trace, config))
        assert pools == [8]  # the prime pass alone
