"""Unit tests for the fleet-scale sharding layer (repro.core.shard).

Planner geometry, knob/environment validation (coordinator-side, the
satellite fix of the sharding PR), decision priming, and the
payload-size independence the zero-copy dispatch promises.  Numerical
parity between sharded and unsharded runs lives in
``tests/core/test_shard_parity.py``.
"""

import pickle
import tracemalloc

import pytest

from repro.core import kernel
from repro.core.config import SimulationConfig, teg_loadbalance, teg_original
from repro.core.engine import (
    BatchSimulationEngine,
    SharedTraceRef,
    SimulationJob,
    run_batch,
)
from repro.core.shard import (
    AUTO_SHARD_MIN_CELLS,
    SHARD_SERVERS_ENV_VAR,
    SHARD_STEPS_ENV_VAR,
    ShardSpec,
    _ShardPayload,
    clone_cache,
    plan_shards,
    prime_decisions,
    resolve_shard_size,
    run_shard,
    simulate_sharded,
)
from repro.core.simulator import DatacenterSimulator
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule, FaultSpec
from repro.workloads.synthetic import drastic_trace


def small_trace(n_servers=47, steps=24, seed=7):
    return drastic_trace(n_servers=n_servers, duration_s=steps * 300.0,
                         interval_s=300.0, seed=seed)


class TestPlanShards:
    """Tiling geometry: every cell exactly once, circulation-aligned."""

    def covers_exactly_once(self, specs, n_steps, n_servers):
        seen = set()
        for spec in specs:
            for step in range(spec.step_start, spec.step_stop):
                for server in range(spec.server_start, spec.server_stop):
                    assert (step, server) not in seen
                    seen.add((step, server))
        assert len(seen) == n_steps * n_servers

    def test_single_tile_when_unsplit(self):
        specs = plan_shards(100, 60, 20)
        assert len(specs) == 1
        spec = specs[0]
        assert (spec.step_start, spec.step_stop) == (0, 100)
        assert (spec.server_start, spec.server_stop) == (0, 60)
        assert (spec.circ_start, spec.circ_stop) == (0, 3)

    def test_covers_plane_exactly_once(self):
        specs = plan_shards(10, 47, 20, shard_servers=20, shard_steps=3)
        self.covers_exactly_once(specs, 10, 47)

    def test_server_boundaries_on_circulations(self):
        specs = plan_shards(10, 100, 20, shard_servers=50)
        for spec in specs:
            assert spec.server_start % 20 == 0
            assert spec.server_start == spec.circ_start * 20

    def test_ragged_trailing_circulation(self):
        # 47 servers at circulation 20 -> groups of 20, 20, 7.
        specs = plan_shards(5, 47, 20, shard_servers=20)
        widths = sorted(spec.n_servers for spec in specs)
        assert widths == [7, 20, 20]
        last = max(specs, key=lambda s: s.server_start)
        assert (last.server_start, last.server_stop) == (40, 47)

    def test_ragged_time_window(self):
        specs = plan_shards(10, 20, 20, shard_steps=4)
        lengths = [spec.n_steps for spec in specs]
        assert lengths == [4, 4, 2]

    def test_width_below_circulation_clamps_to_one_circ(self):
        # A 1-server target still ships whole circulations.
        specs = plan_shards(5, 40, 20, shard_servers=1)
        assert all(spec.n_circs == 1 for spec in specs)
        self.covers_exactly_once(specs, 5, 40)

    def test_width_above_trace_clamps(self):
        specs = plan_shards(5, 40, 20, shard_servers=10_000)
        assert len(specs) == 1

    def test_order_is_server_major_time_minor(self):
        specs = plan_shards(6, 40, 20, shard_servers=20, shard_steps=3)
        keys = [(spec.server_start, spec.step_start) for spec in specs]
        assert keys == sorted(keys)
        assert [spec.index for spec in specs] == list(range(len(specs)))

    @pytest.mark.parametrize("kwargs", [
        dict(n_steps=0, n_servers=10, circulation_size=5),
        dict(n_steps=10, n_servers=0, circulation_size=5),
        dict(n_steps=10, n_servers=10, circulation_size=0),
        dict(n_steps=10, n_servers=10, circulation_size=5,
             shard_servers=-1),
        dict(n_steps=10, n_servers=10, circulation_size=5, shard_steps=0),
    ])
    def test_invalid_inputs_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            plan_shards(**kwargs)


class TestResolveShardSize:
    """Explicit argument > environment > None; malformed values raise."""

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(SHARD_SERVERS_ENV_VAR, "100")
        assert resolve_shard_size(7, SHARD_SERVERS_ENV_VAR) == 7

    def test_env_used_when_unset(self, monkeypatch):
        monkeypatch.setenv(SHARD_STEPS_ENV_VAR, "250")
        assert resolve_shard_size(None, SHARD_STEPS_ENV_VAR) == 250

    def test_unset_returns_none(self, monkeypatch):
        monkeypatch.delenv(SHARD_STEPS_ENV_VAR, raising=False)
        assert resolve_shard_size(None, SHARD_STEPS_ENV_VAR) is None

    @pytest.mark.parametrize("value", ["abc", "-3", "0", "2.5", ""])
    def test_malformed_env_raises_naming_variable(self, monkeypatch,
                                                  value):
        monkeypatch.setenv(SHARD_SERVERS_ENV_VAR, value)
        with pytest.raises(ConfigurationError, match=SHARD_SERVERS_ENV_VAR):
            resolve_shard_size(None, SHARD_SERVERS_ENV_VAR)

    @pytest.mark.parametrize("value", [0, -4])
    def test_non_positive_explicit_raises(self, value):
        with pytest.raises(ConfigurationError):
            resolve_shard_size(value, SHARD_SERVERS_ENV_VAR)


class TestEngineKnobValidation:
    """The engine rejects bad knobs before anything reaches a worker."""

    @pytest.mark.parametrize("kwargs", [
        dict(shard_servers=0),
        dict(shard_servers=-5),
        dict(shard_steps=0),
        dict(shard_steps=-1),
    ])
    def test_constructor_rejects_non_positive(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchSimulationEngine(**kwargs)

    def test_env_malformed_fails_run_not_worker(self, monkeypatch):
        monkeypatch.setenv(SHARD_STEPS_ENV_VAR, "soon")
        engine = BatchSimulationEngine(n_workers=1, prefer="serial")
        job = SimulationJob(trace=small_trace(), config=teg_original())
        try:
            with pytest.raises(ConfigurationError,
                               match=SHARD_STEPS_ENV_VAR):
                engine.run([job])
        finally:
            engine.close()

    def test_knob_exceeding_trace_dimensions_raises(self):
        trace = small_trace(n_servers=47, steps=24)
        engine = BatchSimulationEngine(n_workers=1, prefer="serial",
                                       shard=True, shard_servers=48)
        job = SimulationJob(trace=trace, config=teg_original())
        try:
            with pytest.raises(ConfigurationError,
                               match=SHARD_SERVERS_ENV_VAR):
                engine.run([job])
        finally:
            engine.close()

    def test_steps_knob_exceeding_trace_raises(self):
        trace = small_trace(steps=24)
        engine = BatchSimulationEngine(n_workers=1, prefer="serial",
                                       shard=True, shard_steps=25)
        job = SimulationJob(trace=trace, config=teg_original())
        try:
            with pytest.raises(ConfigurationError,
                               match=SHARD_STEPS_ENV_VAR):
                engine.run([job])
        finally:
            engine.close()

    def test_shard_false_never_shards(self):
        trace = small_trace()
        engine = BatchSimulationEngine(n_workers=1, prefer="serial",
                                       shard=False, shard_servers=20)
        job = SimulationJob(trace=trace, config=teg_original())
        try:
            batch = engine.run([job])
        finally:
            engine.close()
        assert not batch.failures
        assert batch.results[0].metrics.n_shards == 0

    def test_auto_shard_threshold(self):
        # Below the cell threshold and with no knobs, jobs run whole.
        trace = small_trace()
        assert trace.n_steps * trace.n_servers < AUTO_SHARD_MIN_CELLS
        engine = BatchSimulationEngine(n_workers=1, prefer="serial")
        job = SimulationJob(trace=trace, config=teg_original())
        try:
            batch = engine.run([job])
        finally:
            engine.close()
        assert batch.results[0].metrics.n_shards == 0
        assert batch.metrics.shards == 0


class TestRunShardValidation:
    def test_tile_shape_mismatch_raises(self):
        trace = small_trace()
        spec = ShardSpec(index=0, step_start=0, step_stop=5,
                         server_start=0, server_stop=20,
                         circ_start=0, circ_stop=1)
        with pytest.raises(ConfigurationError, match="expects"):
            run_shard(trace, spec, teg_original())

    def test_fault_shard_must_span_cluster(self):
        trace = small_trace()
        spec = ShardSpec(index=0, step_start=0, step_stop=trace.n_steps,
                         server_start=20, server_stop=40,
                         circ_start=1, circ_stop=2)
        tile = trace.window(0, trace.n_steps, 20, 40)
        faults = FaultSchedule(specs=[FaultSpec(kind="sensor_bias",
                                                magnitude=0.05)], seed=1)
        with pytest.raises(ConfigurationError, match="time only"):
            run_shard(tile, spec, teg_original(), faults=faults)

    def test_trace_narrower_than_circulation_raises(self):
        trace = small_trace(n_servers=10)
        with pytest.raises(ConfigurationError, match="circulation"):
            simulate_sharded(trace, teg_original(), shard_steps=5)


class TestPrimeDecisions:
    def test_memoising_policy_gets_primed_cache(self):
        # The prime pass returns the policy's own memo, filled as the
        # serial loop fills it: {bucket: PolicyDecision}.
        trace = small_trace()
        memo = prime_decisions(trace, teg_original())
        assert memo is not None
        assert len(memo) > 0
        serial = DatacenterSimulator(trace, teg_original())
        serial.run()
        assert list(memo.items()) == list(serial._policy._cache.items())

    def test_pure_policies_skip_priming(self):
        trace = small_trace()
        for policy in ("analytic", "static"):
            config = SimulationConfig(name=policy, policy=policy)
            assert prime_decisions(trace, config) is None

    def test_store_bounded_by_quantisation(self):
        # Twice the steps must not grow the memo past the bucket bound
        # (one entry per bucket) — the payload-size independence hinges
        # on this.
        config = teg_original()
        short = prime_decisions(small_trace(steps=24), config)
        resolution = 0.005  # LookupSpacePolicy default
        bound = int(1 / resolution) + 2
        assert len(short) <= bound

    def test_balanced_plane_primes_from_its_means(self):
        # A LoadBalance plane is primed as the kernel decides it, from
        # its circulation means: the pass never builds a plane-sized
        # array, and its memo is the per-server route's.
        trace = small_trace(n_servers=400, steps=1000)
        tracemalloc.start()
        try:
            memo = prime_decisions(trace, teg_loadbalance())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < trace.utilisation.nbytes
        sim = DatacenterSimulator(trace, teg_loadbalance())
        kernel._decide_plane(sim, kernel._scheduled_plane(
            sim, trace.utilisation))
        assert list(memo.items()) == list(sim._policy._cache.items())

    def test_prime_pass_counts_each_decision_once(self):
        # The prime pass records no cells, and its memo growth is the
        # job's misses: a cold sharded job counts what the unsharded
        # kernel counts, and decide_cells sums to the job's cells.
        jobs = [SimulationJob(small_trace(n_servers=40, steps=48),
                              teg_original())]
        batches = [run_batch(jobs, prefer="serial", telemetry=True, **knobs)
                   for knobs in ({"shard": False},
                                 {"shard": True, "shard_servers": 20,
                                  "shard_steps": 12})]
        for batch in batches:
            counters = batch.telemetry.registry.snapshot().counters
            metrics = batch.metrics
            assert counters["engine.kernel.decide_cells"] == 48 * 2 \
                == metrics.cache_hits + metrics.cache_misses
        whole, sharded = (batch.metrics for batch in batches)
        assert sharded.shards == 8
        assert (sharded.cache_hits, sharded.cache_misses) \
            == (whole.cache_hits, whole.cache_misses)
        assert whole.cache_misses > 0

    def test_full_resume_reports_the_uninterrupted_counts(self, tmp_path):
        # A rerun that loads every tile from the checkpoint primes
        # nothing; the saved tiles carry the prime pass's miss count.
        trace, config = small_trace(n_servers=40, steps=48), teg_original()
        unsharded = simulate(trace, config, mode="kernel").metrics
        runs = [simulate_sharded(trace, config, shard_servers=20,
                                 shard_steps=12, checkpoint=tmp_path)
                for _ in range(2)]
        first, resumed = (run.metrics for run in runs)
        assert (first.n_shards, first.shards_resumed) == (8, 0)
        assert (resumed.n_shards, resumed.shards_resumed) == (8, 8)
        assert runs[1].records == runs[0].records
        assert unsharded.cache_misses > 0
        for metrics in (first, resumed):
            assert (metrics.cache_hits, metrics.cache_misses) \
                == (unsharded.cache_hits, unsharded.cache_misses)

    def test_clone_cache_copies_the_memo(self):
        trace = small_trace()
        primed = prime_decisions(trace, teg_original())
        clone = clone_cache(primed)
        assert clone is not primed
        assert clone == primed
        clone.clear()
        assert primed
        assert clone_cache(None) is None


class TestPayloadSizeIndependence:
    """Worker payloads must not grow with the trace or the shard count."""

    def payload_for(self, steps):
        trace = small_trace(steps=steps)
        ref = SharedTraceRef(shm_name="test-segment",
                             shape=(trace.n_steps, trace.n_servers),
                             dtype="float64",
                             interval_s=trace.interval_s,
                             name=trace.name,
                             row_start=0, row_stop=min(8, trace.n_steps),
                             col_start=0, col_stop=trace.n_servers)
        spec = ShardSpec(index=0, step_start=0,
                         step_stop=min(8, trace.n_steps),
                         server_start=0, server_stop=trace.n_servers,
                         circ_start=0, circ_stop=3)
        return _ShardPayload(
            trace_ref=ref, spec=spec, config=teg_original(),
            cpu_model=None, teg_module=None,
            decisions=prime_decisions(trace, teg_original()))

    def test_pickled_size_independent_of_trace_length(self):
        small = len(pickle.dumps(self.payload_for(steps=24)))
        large = len(pickle.dumps(self.payload_for(steps=24 * 40)))
        # The primed store is bounded by the policy quantisation (at
        # most one entry per (bucket, group size) pair), so a 40x
        # longer trace cannot scale the payload with it — only fill in
        # more of the bounded bucket range.
        assert large < small * 4
        assert large < 64 * 1024


# ----------------------------------------------------------------------
# Streaming pipeline: barrier-free merge, zero-copy
# ----------------------------------------------------------------------

import random  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.engine import simulate  # noqa: E402
from repro.core.shard import (  # noqa: E402
    COLUMN_PLANES,
    ShardColumnRef,
    StreamingMerge,
    _WORKER_COLUMN_BLOCKS,
    _column_block,
    _publish_columns,
)
from repro.errors import ResultIntegrityError  # noqa: E402


def sharded_outcomes(trace, config, specs):
    """Run every spec serially against a shared primed cache."""
    primed = prime_decisions(trace, config)
    outcomes = []
    for spec in specs:
        tile = trace.window(spec.step_start, spec.step_stop,
                            spec.server_start, spec.server_stop)
        outcomes.append(run_shard(tile, spec, config,
                                  cache=clone_cache(primed)))
    return outcomes


class TestEmptyFaultSchedule:
    @pytest.mark.parametrize("shard_servers", [20, None])
    def test_empty_schedule_runs_the_kernel_tile(self, shard_servers):
        # An empty schedule is no schedule: a server-split tile must not
        # refuse it, and a full-width one must not take the serial loop.
        trace, config = small_trace(), teg_original()
        specs = plan_shards(trace.n_steps, trace.n_servers,
                            config.circulation_size,
                            shard_servers=shard_servers, shard_steps=8)
        for spec in specs:
            tile = trace.window(spec.step_start, spec.step_stop,
                                spec.server_start, spec.server_stop)
            bare = run_shard(tile, spec, config)
            empty = run_shard(tile, spec, config, faults=FaultSchedule())
            assert empty.columns is not None and not empty.records
            for name in (*COLUMN_PLANES, "sizes", "violation_counts"):
                assert np.array_equal(getattr(empty.columns, name),
                                      getattr(bare.columns, name)), name
            assert empty.violations == bare.violations
        assert SimulationJob(trace, config,
                             faults=FaultSchedule()).faults is None


class TestStreamingMerge:
    """Fold-as-they-land merge: order-free bit-identity and auditing."""

    def setup_run(self):
        trace, config = small_trace(), teg_original()
        specs = plan_shards(trace.n_steps, trace.n_servers,
                            config.circulation_size,
                            shard_servers=20, shard_steps=8)
        assert len(specs) > 3
        return trace, config, specs, sharded_outcomes(trace, config, specs)

    def test_any_completion_order_matches_unsharded(self):
        trace, config, specs, outcomes = self.setup_run()
        reference = simulate(trace, config, mode="kernel")
        for seed in (0, 1, 2):
            shuffled = list(outcomes)
            random.Random(seed).shuffle(shuffled)
            merge = StreamingMerge(trace, config, kind="kernel")
            for outcome in shuffled:
                merge.add(outcome)
            result = merge.result()
            assert result.records == reference.records
            assert result.violations == reference.violations
        assert merge.n_added == len(specs)

    def test_overlap_rejected_at_add_time(self):
        trace, config, _, outcomes = self.setup_run()
        merge = StreamingMerge(trace, config, kind="kernel")
        merge.add(outcomes[0])
        # A double dispatch is caught the moment it lands, naming the
        # shard — not buried in a post-hoc audit.
        with pytest.raises(ResultIntegrityError, match="overlaps"):
            merge.add(outcomes[0])

    def test_uncovered_cells_rejected_at_result_time(self):
        trace, config, _, outcomes = self.setup_run()
        merge = StreamingMerge(trace, config, kind="kernel")
        merge.add(outcomes[0])
        with pytest.raises(ResultIntegrityError, match="never covered"):
            merge.result()

    def test_zero_outcomes_rejected(self):
        trace, config = small_trace(), teg_original()
        for kind in ("kernel", "fault"):
            with pytest.raises(ConfigurationError, match="zero shard"):
                StreamingMerge(trace, config, kind=kind).result()

    def test_unknown_kind_rejected(self):
        trace, config = small_trace(), teg_original()
        with pytest.raises(ConfigurationError, match="kind"):
            StreamingMerge(trace, config, kind="speculative")

    def test_fold_reads_circulation_major_planes(self, monkeypatch):
        # The kernel and the merge hand the fold circulation-major
        # planes, which it reduces in place: a row-major plane would be
        # copied first.
        layouts = []
        fold = kernel.fold_columns

        def spy(columns, n_servers):
            layouts.append([getattr(columns, name).flags.f_contiguous
                            for name in COLUMN_PLANES])
            return fold(columns, n_servers)

        monkeypatch.setattr(kernel, "fold_columns", spy)
        trace, config, _, outcomes = self.setup_run()
        assert all(getattr(outcome.columns, name).flags.f_contiguous
                   for outcome in outcomes for name in COLUMN_PLANES)
        merge = StreamingMerge(trace, config, kind="kernel")
        for outcome in outcomes:
            merge.add(outcome)
        merged = merge.result()
        reference = simulate(trace, config, mode="kernel")
        assert merged.records == reference.records
        assert layouts == [[True] * len(COLUMN_PLANES)] * 2

    def test_row_major_outcomes_still_merge(self):
        # An outcome saved before the column planes were circulation-
        # major resumes into the same bits.
        trace, config, _, outcomes = self.setup_run()
        merge = StreamingMerge(trace, config, kind="kernel")
        for outcome in outcomes:
            for name in COLUMN_PLANES:
                setattr(outcome.columns, name, np.ascontiguousarray(
                    getattr(outcome.columns, name)))
            merge.add(outcome)
        reference = simulate(trace, config, mode="kernel")
        assert merge.result().records == reference.records

    def test_row_major_plane_block_rejected(self):
        trace, config = small_trace(), teg_original()
        n_circs = -(-trace.n_servers // config.circulation_size)
        with pytest.raises(ConfigurationError, match="circulation-major"):
            StreamingMerge(trace, config, kind="kernel", plane_block=np.empty(
                (len(COLUMN_PLANES), trace.n_steps, n_circs)))

    def test_phase_timings_aggregate_across_shards(self):
        trace, config, specs, outcomes = self.setup_run()
        merge = StreamingMerge(trace, config, kind="kernel")
        for outcome in outcomes:
            assert outcome.timings is not None
            merge.add(outcome)
        merge.result()
        timings = merge.timings
        assert timings is not None
        for phase in ("decide_s", "evaluate_s", "reduce_s"):
            total = sum(getattr(o.timings, phase) for o in outcomes)
            assert getattr(timings, phase) == pytest.approx(total)
        assert timings.fold_s > 0.0
        assert merge.cache_hits + merge.cache_misses > 0


class TestShardAutotune:
    """An engine executes exactly the tiling it planned."""

    def test_autotune_off_executes_the_planned_tiling(self):
        trace = small_trace(n_servers=80, steps=48)
        planned = len(plan_shards(48, 80,
                                  teg_original().circulation_size,
                                  shard_servers=20, shard_steps=6))
        with BatchSimulationEngine(n_workers=2, prefer="thread",
                                   shard=True, shard_servers=20,
                                   shard_steps=6) as engine:
            batch = engine.run([SimulationJob(trace, teg_original())])
        assert batch.ok
        assert batch.results[0].metrics.n_shards == planned


class TestInProcessRetries:
    """Tiles run in-process by ``_drive_shards`` honour the retry budget."""

    @pytest.mark.usefixtures("no_backoff")
    def test_serial_engine_retries_a_failed_kernel_tile(self, monkeypatch):
        trace = small_trace(n_servers=40, steps=48)
        failures = iter([ValueError("transient")])

        def flaky(*args, **kwargs):
            error = next(failures, None)
            if error is not None:
                raise error
            return run_shard(*args, **kwargs)

        monkeypatch.setattr("repro.core.shard.run_shard", flaky)
        with BatchSimulationEngine(n_workers=1, prefer="serial",
                                   shard=True, shard_servers=20,
                                   shard_steps=12, max_retries=1,
                                   telemetry=True) as engine:
            batch = engine.run([SimulationJob(trace, teg_original())])
        assert batch.ok
        reference = simulate(trace, teg_original(), mode="kernel")
        assert batch.results[0].records == reference.records
        assert "shard.retry" in {event.kind
                                 for event in batch.telemetry.events}


class TestZeroCopyColumns:
    """Worker-published plane tiles must merge exactly like fat outcomes."""

    def test_published_and_fat_outcomes_mix_bit_identically(self):
        from multiprocessing import shared_memory

        trace, config = small_trace(), teg_original()
        reference = simulate(trace, config, mode="kernel")
        specs = plan_shards(trace.n_steps, trace.n_servers,
                            config.circulation_size,
                            shard_servers=20, shard_steps=8)
        outcomes = sharded_outcomes(trace, config, specs)
        n_circs = -(-trace.n_servers // config.circulation_size)
        shape = (len(COLUMN_PLANES), trace.n_steps, n_circs)
        block = shared_memory.SharedMemory(
            create=True, size=int(np.prod(shape)) * 8)
        try:
            planes = kernel._column_planes(trace.n_steps, n_circs,
                                           block.buf)
            ref = ShardColumnRef(shm_name=block.name,
                                 n_steps=trace.n_steps, n_circs=n_circs)
            assert ref.shape == planes.shape == shape
            # Publish every other outcome through the worker path; the
            # rest stay fat (the thread-pool / resume shape).  Both
            # kinds must mix freely within one merge.
            for outcome in outcomes[::2]:
                _publish_columns(ref, outcome)
                assert outcome.columns is None
                assert outcome.sizes is not None
                assert outcome.violation_counts is not None
            merge = StreamingMerge(trace, config, kind="kernel",
                                   plane_block=planes)
            for outcome in outcomes:
                merge.add(outcome)
            result = merge.result()
            assert result.records == reference.records
            assert result.violations == reference.violations
            merge.release_planes()
            del planes
        finally:
            entry = _WORKER_COLUMN_BLOCKS.pop(block.name, None)
            if entry is not None:
                entry[0].close()
            block.close()
            block.unlink()

    def test_attached_block_is_cached_and_swaps_per_job(self):
        from multiprocessing import shared_memory

        shape = (len(COLUMN_PLANES), 4, 2)
        blocks = [shared_memory.SharedMemory(
            create=True, size=int(np.prod(shape)) * 8) for _ in range(2)]
        try:
            refs = [ShardColumnRef(shm_name=b.name, n_steps=4, n_circs=2)
                    for b in blocks]
            first = _column_block(refs[0])
            assert _column_block(refs[0]) is first
            assert blocks[0].name in _WORKER_COLUMN_BLOCKS
            # Attaching the next job's block unmaps the previous one:
            # worker memory stays bounded at one block.
            _column_block(refs[1])
            assert blocks[0].name not in _WORKER_COLUMN_BLOCKS
            assert blocks[1].name in _WORKER_COLUMN_BLOCKS
        finally:
            for b in blocks:
                entry = _WORKER_COLUMN_BLOCKS.pop(b.name, None)
                if entry is not None:
                    entry[0].close()
                b.close()
                b.unlink()

    def test_plane_block_shape_validated(self):
        trace, config = small_trace(), teg_original()
        with pytest.raises(ConfigurationError, match="plane block"):
            StreamingMerge(trace, config, kind="kernel",
                           plane_block=np.empty((1, 2, 3)))

    def test_slimmed_outcome_without_summaries_rejected(self):
        trace, config = small_trace(), teg_original()
        specs = plan_shards(trace.n_steps, trace.n_servers,
                            config.circulation_size, shard_steps=8)
        outcome = sharded_outcomes(trace, config, specs[:1])[0]
        outcome.columns = None  # neither columns nor published planes
        merge = StreamingMerge(trace, config, kind="kernel")
        with pytest.raises(ConfigurationError, match="neither columns"):
            merge.add(outcome)
