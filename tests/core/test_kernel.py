"""Whole-trace kernel tests: parity, columnar store, mode plumbing.

The kernel pipeline (``repro.core.kernel``) collapses the simulator's
time loop into NumPy planes.  Its contract is the same as the engine's:
**bit-identical** records, violations and errors versus the serial
:class:`~repro.core.simulator.DatacenterSimulator` — these tests enforce
it on awkward shapes (trailing underpopulated circulation), on every
policy kind, and on the error paths.
"""

import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.kernel as kernel_module
from repro.core.config import (
    SimulationConfig,
    teg_loadbalance,
    teg_original,
)
from repro.core.engine import (
    EXECUTION_MODES,
    _CachedVectorisedSimulator,
    resolve_mode,
    simulate,
)
from repro.core.results import ColumnarSteps, StepRecord
from repro.core.shard import simulate_sharded
from repro.core.simulator import DatacenterSimulator, compare_schemes
from repro.cooling.cdu import CoolingSetting
from repro.cooling.loop import WaterCirculation
from repro.errors import (
    ConfigurationError,
    CoolingFailureError,
    PhysicalRangeError,
)
from repro.faults import FaultSchedule, FaultSpec
from repro.teg.device import TegDevice
from repro.teg.module import default_server_module, flow_coupling
from repro.thermal.cpu_model import (
    CpuThermalModel,
    OutletDeltaModel,
    SettingTerms,
)
from repro.workloads.synthetic import common_trace, drastic_trace
from repro.workloads.trace import WorkloadTrace

#: 47 servers with circulation_size=20 -> groups of 20, 20 and a
#: trailing, underpopulated group of 7.
TRAILING_TRACE_KWARGS = dict(n_servers=47, duration_s=2 * 3600.0,
                             interval_s=300.0, seed=7)

ALL_CONFIGS = [
    teg_original(),
    teg_loadbalance(),
    SimulationConfig(name="analytic", policy="analytic"),
    SimulationConfig(name="static", policy="static"),
    SimulationConfig(name="threshold", scheduler="threshold",
                     threshold_cap=0.5),
]


def trailing_trace(idle_steps: int = 0):
    """The trailing-group trace, after ``idle_steps`` steps at 2 % load.

    Idle steps neither overheat a CPU nor overload a circulation, so they
    move a scenario's first offending cell ``idle_steps`` steps later.
    """
    trace = drastic_trace(**TRAILING_TRACE_KWARGS)
    if not idle_steps:
        return trace
    idle = np.full((idle_steps, trace.n_servers), 0.02)
    return WorkloadTrace(np.vstack([idle, trace.utilisation]),
                         trace.interval_s, name=trace.name)


#: Idle steps before the offending ones: none, or enough to put the
#: first offending cell past the kernel's first row block.
IDLE_STEPS = [0, kernel_module.ROW_BLOCK_CELLS
              // TRAILING_TRACE_KWARGS["n_servers"] + 1]


class TestModeResolution:
    def test_default_is_kernel(self):
        assert resolve_mode(None) == "kernel"

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_known_modes_pass_through(self, mode):
        assert resolve_mode(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_mode("warp")


class TestKernelParity:
    """Kernel records == serial records, bit for bit."""

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_trailing_group_parity_all_modes(self, config):
        trace = trailing_trace()
        serial = DatacenterSimulator(trace, config).run()
        for mode in EXECUTION_MODES:
            fast = simulate(trace, config, mode=mode)
            assert fast.records == serial.records, mode
            assert fast.violations == serial.violations, mode

    def test_kernel_result_is_columnar(self):
        result = simulate(trailing_trace(), teg_original(), mode="kernel")
        assert isinstance(result.records, ColumnarSteps)
        assert result.metrics.mode == "kernel"
        timings = result.metrics.kernel
        assert timings is not None
        assert timings.total_s > 0
        assert set(timings.summary()) == {
            "decide_s", "evaluate_s", "reduce_s", "fold_s", "total_s"}

    def test_step_and_loop_modes_report_no_kernel_timings(self):
        assert simulate(trailing_trace(), teg_original(),
                        mode="loop").metrics.kernel is None

    def test_compare_schemes_parity_across_paths(self):
        trace = trailing_trace()
        comparison = compare_schemes(trace, teg_original(),
                                     teg_loadbalance())
        for result, config in ((comparison.baseline, teg_original()),
                               (comparison.optimised, teg_loadbalance())):
            serial = DatacenterSimulator(trace, config).run()
            assert result.records == serial.records, config.name
            assert result.violations == serial.violations, config.name
            assert result.metrics.mode == "kernel", config.name

    def test_violation_log_parity(self):
        # A deliberately hot static setting produces violations the
        # non-strict path must log identically (ids, times, temps).
        hot = SimulationConfig(
            name="hot", scheduler="none", policy="static",
            static_setting=CoolingSetting(flow_l_per_h=30.0,
                                          inlet_temp_c=55.0))
        for idle_steps in IDLE_STEPS:
            trace = trailing_trace(idle_steps)
            serial = DatacenterSimulator(trace, hot).run()
            kernel = simulate(trace, hot, mode="kernel")
            # The scenario must violate, first right after the idle steps.
            assert serial.violations[0].step_index == idle_steps
            assert kernel.violations == serial.violations, idle_steps
            assert kernel.records == serial.records, idle_steps

    def test_strict_safety_error_parity(self):
        hot = SimulationConfig(
            name="hot", scheduler="none", policy="static",
            strict_safety=True,
            static_setting=CoolingSetting(flow_l_per_h=30.0,
                                          inlet_temp_c=55.0))
        for idle_steps in IDLE_STEPS:
            trace = trailing_trace(idle_steps)
            errors = {}
            for label, run in (
                    ("serial",
                     DatacenterSimulator(trace, hot).run),
                    ("kernel",
                     lambda: simulate(trace, hot, mode="kernel"))):
                with pytest.raises(CoolingFailureError) as excinfo:
                    run()
                exc = excinfo.value
                errors[label] = (str(exc), exc.server_id,
                                 exc.temperature_c, exc.step_index)
            assert errors["serial"][3] == idle_steps
            assert errors["serial"] == errors["kernel"]

    def test_tower_capacity_error_parity(self):
        config = teg_original()
        for idle_steps in IDLE_STEPS:
            trace = trailing_trace(idle_steps)
            errors = {}
            for label, sim in (
                    ("serial", DatacenterSimulator(trace, config)),
                    ("kernel", _CachedVectorisedSimulator(
                        trace, config, mode="kernel"))):
                for circulation in sim._circulations:
                    circulation.tower = replace(circulation.tower,
                                                max_heat_kw=0.3)
                with pytest.raises(PhysicalRangeError) as excinfo:
                    sim.run()
                errors[label] = str(excinfo.value)
            assert errors["serial"] == errors["kernel"], idle_steps

    def test_circulation_views_read_the_trace_in_place(self):
        # The decide phase (and the shard prime pass) must not copy a
        # fleet-sized plane: NoScheduler schedules to the trace itself
        # and every per-circulation reduction reads a view of it.
        trace = trailing_trace()
        sim = DatacenterSimulator(trace, teg_original())
        plane = kernel_module._scheduled_plane(sim, trace.utilisation)
        assert plane is trace.utilisation
        views = list(kernel_module._circulations(sim, plane))
        assert [view.shape for _, _, view in views] == [(24, 2, 20),
                                                        (24, 1, 7)]
        assert all(np.shares_memory(view, plane) for _, _, view in views)

    def test_trace_subclass_falls_back_to_step_mode(self):
        # Subclasses may override step(); the kernel reads the plane
        # directly and would bypass them, so it must not engage.
        class Halved(WorkloadTrace):
            def step(self, index):
                return super().step(index) / 2.0

        base = trailing_trace()
        halved = Halved(base.utilisation, base.interval_s, name="halved")
        result = simulate(halved, teg_original())
        assert result.metrics.mode == "loop"
        serial = DatacenterSimulator(halved, teg_original()).run()
        assert result.records == serial.records


class TestKernelPropertyParity:
    """Hypothesis: kernel == serial over drawn shapes, schemes and models."""

    @settings(max_examples=25, deadline=None)
    @given(
        circulation_size=st.integers(min_value=1, max_value=140),
        full_circulations=st.integers(min_value=1, max_value=4),
        ragged=st.floats(min_value=0.0, max_value=0.99),
        n_steps=st.integers(min_value=2, max_value=7),
        block_rows=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        policy=st.sampled_from(["lookup", "analytic", "static", "hot"]),
        scheduler=st.sampled_from(["none", "ideal"]),
        physical_outlet=st.booleans(),
        physical_teg=st.booleans(),
        power_scale=st.sampled_from([1.0, 0.8, 1.35]),
        extra_resistance=st.sampled_from([0.0, 0.03]),
    )
    def test_kernel_equals_serial(self, circulation_size,
                                  full_circulations, ragged, n_steps,
                                  block_rows, seed, policy, scheduler,
                                  physical_outlet, physical_teg,
                                  power_scale, extra_resistance):
        # Sizes above 128 cross NumPy's pairwise-summation block; a
        # ragged fraction adds a trailing, underpopulated circulation.
        n_servers = (full_circulations * circulation_size
                     + int(ragged * circulation_size))
        trace = drastic_trace(n_servers=n_servers,
                              duration_s=n_steps * 300.0,
                              interval_s=300.0, seed=seed)
        config = SimulationConfig(
            name="drawn", policy="static" if policy == "hot" else policy,
            scheduler=scheduler, circulation_size=circulation_size,
            static_setting=CoolingSetting(
                flow_l_per_h=30.0 if policy == "hot" else 50.0,
                inlet_temp_c=60.0 if policy == "hot" else 45.0))
        cpu_model = CpuThermalModel(
            outlet_model=OutletDeltaModel(
                mode="physical" if physical_outlet else "empirical"),
            power_scale=power_scale,
            extra_resistance_k_per_w=extra_resistance)
        teg_module = default_server_module(TegDevice(
            mode="physical" if physical_teg else "empirical"))
        serial = DatacenterSimulator(trace, config, cpu_model,
                                     teg_module).run()
        with pytest.MonkeyPatch.context() as patch:
            # Several row blocks per trace.
            patch.setattr(kernel_module, "ROW_BLOCK_CELLS",
                          block_rows * n_servers)
            fast = simulate(trace, config, cpu_model, teg_module,
                            mode="kernel")
        assert fast.records == serial.records
        assert fast.violations == serial.violations


class TestFaultShadowSkip:
    """The healthy shadow evaluation only runs while a fault is active."""

    def schedule(self):
        # Active for exactly two control intervals: t in [600, 1200).
        return FaultSchedule(specs=(
            FaultSpec(kind="sensor_bias", start_s=600.0,
                      duration_s=600.0, magnitude=0.05),), seed=3)

    def test_shadow_skipped_on_inactive_steps(self, monkeypatch):
        trace = common_trace(n_servers=40, duration_s=6 * 300.0,
                             interval_s=300.0, seed=5)
        calls = []
        original = WaterCirculation.evaluate

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(WaterCirculation, "evaluate", counting)
        sim = DatacenterSimulator(trace, teg_original(),
                                  faults=self.schedule())
        sim.run()
        n_circs = sim.n_circulations
        active_steps = 2  # t = 600 and t = 900
        expected = (trace.n_steps + active_steps) * n_circs
        assert len(calls) == expected

    def test_inactive_schedule_matches_nominal_run(self):
        # A schedule that never activates must leave the records
        # bit-identical to the nominal simulator (the skip path *is*
        # the nominal arithmetic).
        trace = common_trace(n_servers=40, duration_s=4 * 300.0,
                             interval_s=300.0, seed=5)
        never = FaultSchedule(specs=(
            FaultSpec(kind="pump_stall", start_s=1e9,
                      duration_s=60.0),), seed=3)
        nominal = DatacenterSimulator(trace, teg_original()).run()
        faulted = DatacenterSimulator(trace, teg_original(),
                                      faults=never).run()
        assert faulted.records == nominal.records
        assert faulted.total_lost_harvest_kwh == 0.0


class TestColumnarSteps:
    """The struct-of-arrays record store behind kernel results."""

    def result(self):
        return simulate(trailing_trace(), teg_original(), mode="kernel")

    def test_lazy_records_match_serial_objects(self):
        columnar = self.result().records
        serial = DatacenterSimulator(trailing_trace(),
                                     teg_original()).run().records
        assert len(columnar) == len(serial)
        assert isinstance(columnar[0], StepRecord)
        assert columnar[0] == serial[0]
        assert columnar[-1] == serial[-1]
        assert columnar[2:5] == serial[2:5]
        assert list(columnar) == serial

    def test_equality_is_symmetric_with_lists(self):
        columnar = self.result().records
        as_list = list(columnar)
        assert columnar == as_list
        assert as_list == columnar  # list defers via NotImplemented
        assert columnar == self.result().records
        assert columnar != as_list[:-1]

    def test_append_rejected(self):
        result = self.result()
        with pytest.raises(ConfigurationError):
            result.append(result.records[0])

    def test_pickle_round_trip(self):
        records = self.result().records
        clone = pickle.loads(pickle.dumps(records))
        assert isinstance(clone, ColumnarSteps)
        assert clone == records

    def test_columns_are_read_only(self):
        records = self.result().records
        with pytest.raises(ValueError):
            records.column("chiller_power_w")[0] = 1.0

    def test_unknown_column_rejected(self):
        with pytest.raises(ConfigurationError):
            self.result().records.column("enthalpy")

    def test_aggregates_match_serial(self):
        kernel = self.result()
        serial = DatacenterSimulator(trailing_trace(),
                                     teg_original()).run()
        assert kernel.average_generation_w == serial.average_generation_w
        assert kernel.peak_generation_w == serial.peak_generation_w
        assert kernel.average_pre == serial.average_pre
        assert kernel.total_safety_violations == \
            serial.total_safety_violations


class TestKernelBatchEscapeHatch:
    """A policy without ``decide_batch`` takes the scalar decide loop."""

    def trace(self):
        return drastic_trace(n_servers=47, duration_s=24 * 300.0,
                             interval_s=300.0, seed=7)

    def test_scalar_path_is_bit_identical(self, monkeypatch):
        from repro.control.cooling_policy import LookupSpacePolicy

        trace = self.trace()
        batched = simulate(trace, teg_original(), mode="kernel")
        monkeypatch.delattr(LookupSpacePolicy, "decide_batch")
        scalar = simulate(trace, teg_original(), mode="kernel")
        assert scalar.records == batched.records
        assert scalar.violations == batched.violations

    def test_escape_hatch_really_avoids_the_batch_api(self, monkeypatch):
        from repro.control.cooling_policy import LookupSpacePolicy

        calls = []

        original = LookupSpacePolicy.decide_batch

        def spy(self, bindings):
            calls.append(len(bindings))
            return original(self, bindings)

        monkeypatch.setattr(LookupSpacePolicy, "decide_batch", spy)
        trace = self.trace()
        simulate(trace, teg_original(), mode="kernel")
        assert calls  # default path goes through decide_batch
        calls.clear()
        monkeypatch.delattr(LookupSpacePolicy, "decide_batch")
        simulate(trace, teg_original(), mode="kernel")
        assert calls == []  # scalar loop never touches it


# ----------------------------------------------------------------------
# The bulk reductions against the code they replaced
# ----------------------------------------------------------------------

def oracle_fold_columns(columns, n_servers):
    """The per-circulation fold loop ``fold_columns`` replaced."""
    n_steps, n_circs = columns.heat_c.shape
    total_generation = np.zeros(n_steps)
    total_cpu_power = np.zeros(n_steps)
    total_chiller = np.zeros(n_steps)
    total_tower = np.zeros(n_steps)
    total_pump = np.zeros(n_steps)
    inlet_sum = np.zeros(n_steps)
    flow_sum = np.zeros(n_steps)
    max_cpu_temp = np.full(n_steps, -np.inf)
    for index in range(n_circs):
        size = int(columns.sizes[index])
        total_generation += columns.generation_c[:, index]
        total_cpu_power += columns.heat_c[:, index]
        total_chiller += columns.chiller_power_c[:, index]
        total_tower += columns.tower_power_c[:, index]
        total_pump += columns.pump_power_c[:, index]
        np.maximum(max_cpu_temp, columns.max_temp_c[:, index],
                   out=max_cpu_temp)
        inlet_sum += columns.inlet_cell[:, index] * size
        flow_sum += columns.flow_cell[:, index] * size
    return {
        "generation_per_cpu_w": total_generation / n_servers,
        "cpu_power_per_cpu_w": total_cpu_power / n_servers,
        "mean_inlet_temp_c": inlet_sum / n_servers,
        "mean_flow_l_per_h": flow_sum / n_servers,
        "max_cpu_temp_c": max_cpu_temp,
        "chiller_power_w": total_chiller,
        "tower_power_w": total_tower,
        "pump_power_w": total_pump,
    }


def oracle_per_circulation(groups, plane, reduce):
    """``reduce(..., axis=2)`` over each run of same-size circulations."""
    n_steps, n_servers = plane.shape
    size = len(groups[0])
    full = n_servers // size
    out = np.empty((n_steps, len(groups)))
    out[:, :full] = reduce(plane[:, :full * size].reshape(
        n_steps, full, size), axis=2)
    if full * size < n_servers:
        out[:, full:] = reduce(plane[:, None, full * size:], axis=2)
    return out


def decide_cells(sim, plane):
    """The decide phase's ``(setting_id, applied_settings)``."""
    return kernel_module._decide_plane(sim, plane)[:2]


def oracle_decide_cells(sim, plane):
    """:func:`decide_cells` as it deduplicated with a 1-D ``np.unique``."""
    groups = sim._groups
    n_steps = plane.shape[0]
    n_circs = len(groups)
    cells = n_steps * n_circs
    policy = sim._policy
    aggregation = getattr(policy, "aggregation", "max")
    bindings = oracle_per_circulation(
        groups, plane, np.mean if aggregation == "avg" else np.max)
    resolution = getattr(policy, "cache_resolution", None)
    keys = np.rint(bindings / resolution) if resolution else bindings
    _, first_cell, inverse = np.unique(keys.ravel(), return_index=True,
                                       return_inverse=True)
    inverse = inverse.ravel()
    n_uniq = len(first_cell)
    memo = policy._cache if resolution else None
    before = len(memo) if memo is not None else 0
    order = np.argsort(first_cell, kind="stable")
    decisions = [None] * n_uniq
    if 0.0 <= plane.min() and plane.max() <= 1.0:
        batched = policy.decide_batch(bindings.ravel()[first_cell[order]])
        for uid, decision in zip(order, batched):
            decisions[int(uid)] = decision
    else:
        for uid in order:
            step, circ = divmod(int(first_cell[uid]), n_circs)
            decisions[uid] = policy.decide(plane[step, groups[circ]])
    misses = n_uniq if memo is None else len(memo) - before
    sim.decisions = (cells - misses, misses)
    setting_index: dict = {}
    cdu = sim._circulations[0].cdu
    uid_to_sid = np.array([
        setting_index.setdefault(cdu.clamp(decision.setting),
                                 len(setting_index))
        for decision in decisions], dtype=np.intp)
    setting_id = uid_to_sid[inverse].reshape(n_steps, n_circs)
    return setting_id, list(setting_index)


#: One fold cell: a double within ±1e6, a signed zero, NaN or an infinity.
FOLD_CELLS = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))


class TestReductionOracles:
    """Each rewritten reduction equals the code it replaced, bit for bit."""

    @staticmethod
    def assert_folds_equal(got, want):
        assert list(got) == list(want)
        for name in want:
            # Where two different NaNs meet (a NaN cell and inf - inf),
            # IEEE 754 leaves the result's payload to the implementation,
            # and NumPy's elementwise add and its reduction loops keep
            # different operands'.  Every other cell, signed zeros
            # included, is compared bit for bit.
            nan = np.isnan(want[name])
            assert np.array_equal(np.isnan(got[name]), nan), name
            assert np.array_equal(got[name][~nan].view(np.int64),
                                  want[name][~nan].view(np.int64)), name

    @settings(max_examples=60, deadline=None)
    @given(
        n_circs=st.integers(min_value=1, max_value=30),
        size=st.integers(min_value=1, max_value=25),
        tail=st.integers(min_value=1, max_value=25),
        n_steps=st.integers(min_value=1, max_value=12),
        chunk_circs=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_fold_equals_per_circulation_loop(self, n_circs, size, tail,
                                              n_steps, chunk_circs, data):
        sizes = np.array([size] * (n_circs - 1) + [min(tail, size)])
        planes = [data.draw(arrays(float, (n_steps, n_circs),
                                   elements=FOLD_CELLS))
                  for _ in range(8)]
        # The sign of a zero maximum over mixed +0.0 and -0.0 is
        # unspecified in both the elementwise loop and a reduction, and
        # no CPU runs at 0 °C: the hottest-CPU plane keeps one zero sign.
        planes[5][planes[5] == 0.0] = 0.0
        negative_zero_row = data.draw(st.integers(0, n_steps - 1))
        for plane in planes:
            plane[negative_zero_row] = -0.0
        # The same planes row-major (as built here) and in the kernel's
        # circulation-major column block.
        block = kernel_module._column_planes(n_steps, n_circs)
        block[...] = planes
        n_servers = int(sizes.sum())
        for stack in (planes, block):
            columns = kernel_module.KernelColumns(
                *stack, sizes=sizes,
                violation_counts=np.zeros(n_steps, dtype=np.int64))
            with pytest.MonkeyPatch.context() as patch, \
                    np.errstate(invalid="ignore", over="ignore"):
                want = oracle_fold_columns(columns, n_servers)
                # Several scaling chunks, the last one usually ragged.
                patch.setattr(kernel_module, "FOLD_CHUNK_CIRCS", chunk_circs)
                got = kernel_module.fold_columns(columns, n_servers)
            self.assert_folds_equal(got, want)
            assert got["generation_per_cpu_w"][negative_zero_row] == 0.0
            assert not np.signbit(got["chiller_power_w"][negative_zero_row])

    @pytest.mark.parametrize("n_circs", [8, 9, 31, 64, 200])
    def test_one_step_fold_adds_in_order(self, n_circs):
        # A one-step plane's circulations are its contiguous axis, along
        # which a reduce sums pairwise: random magnitudes round
        # differently in that order, so this pins the sequential path.
        rng = np.random.default_rng(n_circs)
        sizes = rng.integers(1, 21, size=n_circs)
        for draw in range(30):
            block = kernel_module._column_planes(1, n_circs)
            block[...] = (rng.standard_normal(block.shape)
                          * 10.0 ** rng.integers(-3, 9, size=block.shape))
            columns = kernel_module.KernelColumns(
                *block, sizes=sizes,
                violation_counts=np.zeros(1, dtype=np.int64))
            self.assert_folds_equal(
                kernel_module.fold_columns(columns, int(sizes.sum())),
                oracle_fold_columns(columns, int(sizes.sum())))

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=25),
        full=st.integers(min_value=1, max_value=6),
        tail=st.integers(min_value=0, max_value=24),
        n_steps=st.integers(min_value=1, max_value=12),
        margins=st.tuples(*[st.integers(min_value=0, max_value=3)] * 4),
        data=st.data(),
    )
    def test_circulation_max_equals_axis_max(self, size, full, tail,
                                             n_steps, margins, data):
        tail %= size  # 0: no ragged circulation; 1: a 1-wide tail
        n_servers = full * size + tail
        top, bottom, left, right = margins
        wide = data.draw(arrays(float, (top + n_steps + bottom,
                                        left + n_servers + right),
                                elements=FOLD_CELLS))
        groups = [np.arange(start, min(start + size, n_servers))
                  for start in range(0, n_servers, size)]
        sim = SimpleNamespace(_groups=groups)
        # The plane itself, and a strided window of a wider plane, as a
        # tile sees its slice of the trace.
        window = wide[top:top + n_steps, left:left + n_servers]
        for plane in (window.copy(), window):
            got = kernel_module._circulation_max(sim, plane)
            assert np.array_equal(
                got, oracle_per_circulation(groups, plane, np.max),
                equal_nan=True)

    @pytest.mark.parametrize("config,resolution", [
        (teg_original(), None),
        (teg_loadbalance(), None),
        (SimulationConfig(name="analytic", policy="analytic"), None),
        (teg_original(), 1e-7),
        (teg_loadbalance(), 1e-7),
    ], ids=["original", "loadbalance", "analytic", "original-fine",
            "loadbalance-fine"])
    def test_decide_cells_equals_unique_oracle(self, config, resolution):
        # 47 servers: two circulations of 20 and a ragged one of 7, so
        # cells of two group sizes share the policy's keys.
        trace = drastic_trace(n_servers=47, duration_s=24 * 3600.0,
                              interval_s=300.0, seed=11)
        runs = []
        for decide in (oracle_decide_cells, decide_cells):
            sim = _CachedVectorisedSimulator(trace, config, mode="kernel")
            if resolution is not None:
                sim._policy = replace(sim._policy,
                                      cache_resolution=resolution,
                                      _cache={})
            plane = kernel_module._scheduled_plane(sim, trace.utilisation)
            with pytest.MonkeyPatch.context() as patch:
                # 288 steps in blocks of 7 rows: a ragged last block.
                patch.setattr(kernel_module, "ROW_BLOCK_CELLS", 22)
                setting_id, applied = decide(sim, plane)
            runs.append((setting_id, applied, sim.decisions,
                         list(getattr(sim._policy, "_cache", {}).items())))
        want, got = runs
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]
        assert len(got[1]) > 1
        if resolution is None and config.policy == "lookup":
            assert got[2][0] > 0  # the code table deduplicated cells
        if resolution is not None:
            # Buckets this fine overflow the code table: the row-wise
            # unique answers, and it must agree too.
            bindings = oracle_per_circulation(sim._groups, plane, np.max)
            assert np.rint(bindings / resolution).max() >= 2**20

    def test_out_of_range_plane_primes_like_the_oracle(self):
        # One cell above 1 sends decide to the scalar loop, which primes
        # every key met before that cell and then raises the policy's
        # own error: the upper bound, read from the bindings, must see it.
        trace = drastic_trace(n_servers=47, duration_s=24 * 3600.0,
                              interval_s=300.0, seed=11)
        plane = trace.utilisation.copy()
        plane[200, 30] = 1.2
        primed = []
        for decide in (oracle_decide_cells, decide_cells):
            sim = _CachedVectorisedSimulator(trace, teg_original(),
                                             mode="kernel")
            with pytest.raises(PhysicalRangeError):
                decide(sim, plane)
            primed.append(list(sim._policy._cache.items()))
        assert primed[1] == primed[0]
        assert primed[0]


class TestTinyRowBlocks:
    """Every block loop over many blocks and a ragged last one."""

    @pytest.mark.parametrize("config", [teg_original(), teg_loadbalance()],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("trace", [
        drastic_trace(n_servers=47, duration_s=4 * 3600.0,
                      interval_s=300.0, seed=7),
        common_trace(n_servers=40, duration_s=4 * 3600.0,
                     interval_s=300.0, seed=5),
    ], ids=["drastic47", "common40"])
    def test_kernel_and_shards_equal_serial(self, config, trace):
        serial = DatacenterSimulator(trace, config).run()
        for block_cells in (1, 7, 40):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernel_module, "ROW_BLOCK_CELLS", block_cells)
                kernel = simulate(trace, config, mode="kernel")
                sharded = simulate_sharded(trace, config, shard_servers=20,
                                           shard_steps=7)
            for fast in (kernel, sharded):
                assert fast.records == serial.records, block_cells
                assert fast.violations == serial.violations, block_cells


# ----------------------------------------------------------------------
# Evaluate against the per-block model calls it replaced
# ----------------------------------------------------------------------

def oracle_evaluate_blocks(sim, plane, setting_id, applied_settings):
    """``_evaluate_blocks`` as it called the checked model entry points
    per block and built every cell's CPU temperature."""
    n_steps, n_servers = plane.shape
    cpu_model = sim.cpu_model
    limit = cpu_model.max_operating_temp_c
    terms_by_sid = np.array([cpu_model.setting_terms(applied)
                             for applied in applied_settings]).T
    coupling_by_sid = np.array([flow_coupling(applied.flow_l_per_h)
                                for applied in applied_settings])
    heat_c, generation_c, max_temp_c = (
        np.empty(setting_id.shape) for _ in range(3))
    counts = np.zeros(n_steps, dtype=np.int64)
    over = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    rows = max(1, kernel_module.ROW_BLOCK_CELLS // n_servers)
    for first in range(0, n_steps, rows):
        block = slice(first, first + rows)
        for circs, first_server, utils in kernel_module._circulations(
                sim, plane[block]):
            sid = setting_id[block, circs, None]
            power, temp, outlet = cpu_model.response(
                utils, SettingTerms(*terms_by_sid[:, sid]))
            heat_c[block, circs] = power.sum(axis=2)
            generation_c[block, circs] = sim.teg_module.coupled_generation_w(
                outlet, sim.config.cold_source_temp_c,
                coupling_by_sid[sid]).sum(axis=2)
            hottest = kernel_module._slot_max(temp, max_temp_c[block, circs])
            if (hottest > limit).any():
                hot = temp > limit
                counts[block] += hot.sum(axis=(1, 2))
                step, circ, slot = np.nonzero(hot)
                over.append((first + step,
                             first_server + circ * utils.shape[2] + slot,
                             temp[step, circ, slot]))
    steps, servers, temps = map(np.concatenate, zip(*over))
    order = np.lexsort((servers, steps))
    return (heat_c, generation_c, max_temp_c, counts,
            (steps[order], servers[order], temps[order]))


def assert_same_bits(got, want, name):
    """Bit-equal arrays, except that at NaN cells only NaN-ness counts."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), name
    assert np.array_equal(got[~nan].view(np.int64),
                          want[~nan].view(np.int64)), name


class TestEvaluateOracle:
    """The in-place evaluate equals the per-block model calls."""

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=25),
        full=st.integers(min_value=1, max_value=4),
        tail=st.integers(min_value=0, max_value=24),
        n_steps=st.integers(min_value=1, max_value=9),
        block_cells=st.sampled_from([1, 7, 40]),
        setting=st.sampled_from(["lookup", "hot", "warm", "fast"]),
        strict=st.booleans(),
        physical_outlet=st.booleans(),
        physical_teg=st.booleans(),
        power_scale=st.sampled_from([0.8, 1.0, 1.35]),
        extra_resistance=st.sampled_from([0.0, 0.03, -0.2]),
        data=st.data(),
    )
    def test_evaluate_equals_oracle(self, size, full, tail, n_steps,
                                    block_cells, setting, strict,
                                    physical_outlet, physical_teg,
                                    power_scale, extra_resistance, data):
        # ``tail`` adds a ragged last circulation; "hot" (30 L/h, 60 °C)
        # puts CPUs over the limit, and "fast" (250 L/h) has R_th < 0
        # when the extra resistance is -0.2.
        n_servers = full * size + tail % size
        plane = data.draw(arrays(float, (n_steps, n_servers),
                                 elements=st.floats(0.0, 1.0)))
        flow, inlet = {"hot": (30.0, 60.0), "warm": (50.0, 45.0),
                       "fast": (250.0, 45.0)}.get(setting, (50.0, 45.0))
        config = SimulationConfig(
            name="drawn", policy="lookup" if setting == "lookup"
            else "static", circulation_size=size, strict_safety=strict,
            static_setting=CoolingSetting(flow_l_per_h=flow,
                                          inlet_temp_c=inlet))
        cpu_model = CpuThermalModel(
            outlet_model=OutletDeltaModel(
                mode="physical" if physical_outlet else "empirical"),
            power_scale=power_scale,
            extra_resistance_k_per_w=extra_resistance)
        teg_module = default_server_module(TegDevice(
            mode="physical" if physical_teg else "empirical"))
        trace = WorkloadTrace(plane, 300.0)
        runs = []
        for oracle in (True, False):
            sim = _CachedVectorisedSimulator(trace, config, cpu_model,
                                             teg_module, mode="kernel")
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernel_module, "ROW_BLOCK_CELLS", block_cells)
                setting_id, applied = decide_cells(sim, plane)
                if oracle:
                    outputs = oracle_evaluate_blocks(sim, plane, setting_id,
                                                     applied)
                    patch.setattr(
                        kernel_module, "_evaluate_blocks",
                        lambda sim, plane, sid, applied, in_range:
                        oracle_evaluate_blocks(sim, plane, sid, applied))
                else:
                    outputs = kernel_module._evaluate_blocks(
                        sim, plane, setting_id, applied, True)
                # The whole run, for the error strict safety raises.
                columns = kernel_module.run_kernel_columns(sim)
            runs.append((outputs, columns))
        (want, want_columns), (got, got_columns) = runs
        for name, got_plane, want_plane in zip(
                ("heat", "generation", "hottest"), got[:3], want[:3]):
            assert_same_bits(got_plane, want_plane, name)
        assert np.array_equal(got[3], want[3])
        for got_cells, want_cells in zip(got[4], want[4]):
            assert np.array_equal(got_cells, want_cells)
        assert got_columns.violations == want_columns.violations
        assert np.array_equal(got_columns.violation_counts,
                              want_columns.violation_counts)
        assert (None if got_columns.error is None
                else str(got_columns.error.exception)) == (
            None if want_columns.error is None
            else str(want_columns.error.exception))


class TestEvaluateRangeCheck:
    """An out-of-range plane decide did not prove still raises."""

    def test_custom_scheduler_overload_raises_like_serial(self,
                                                          monkeypatch):
        class Overloading:
            """Adds half a CPU to every load: the per-cell schedule path."""

            policy_aggregation = "max"

            def schedule(self, utilisations):
                return np.asarray(utilisations, dtype=float) + 0.5

        class Clipping:
            """Decides on clipped loads, and has no ``decide_batch``."""

            def __init__(self, policy):
                self.policy = policy
                self.aggregation = policy.aggregation

            def decide(self, utilisations):
                return self.policy.decide(np.clip(utilisations, 0.0, 1.0))

        build_policy = SimulationConfig.build_policy
        monkeypatch.setattr(SimulationConfig, "build_scheduler",
                            lambda self: Overloading())
        monkeypatch.setattr(
            SimulationConfig, "build_policy",
            lambda self, *args, **kwargs: Clipping(
                build_policy(self, *args, **kwargs)))
        trace = drastic_trace(n_servers=47, duration_s=3600.0, seed=3)
        assert trace.utilisation.max() > 0.5
        with pytest.raises(PhysicalRangeError):
            DatacenterSimulator(trace, teg_original()).run()
        with pytest.raises(PhysicalRangeError):
            simulate(trace, teg_original(), mode="kernel")


# ----------------------------------------------------------------------
# A balanced plane evaluated once per circulation
# ----------------------------------------------------------------------

def repeated(sim, means):
    """The per-server ``IdealBalancer`` plane of per-circulation ``means``."""
    return np.repeat(means, [len(group) for group in sim._groups], axis=1)


def run_columns(sim, per_server):
    """``run_kernel_columns``, balanced or through the per-server route.

    ``per_server`` runs decide and evaluate on the repeated plane, the
    code the balanced route replaced.
    """
    with pytest.MonkeyPatch.context() as patch:
        if per_server:
            patch.setattr(kernel_module, "_decide_balanced",
                          lambda sim, means: kernel_module._decide_plane(
                              sim, repeated(sim, means)))
            patch.setattr(kernel_module, "_evaluate_balanced",
                          lambda sim, means, *rest:
                          kernel_module._evaluate_blocks(
                              sim, repeated(sim, means), *rest))
        return kernel_module.run_kernel_columns(sim)


def drawn_model(physical_outlet, physical_teg, power_scale=1.0,
                extra_resistance=0.0):
    cpu_model = CpuThermalModel(
        outlet_model=OutletDeltaModel(
            mode="physical" if physical_outlet else "empirical"),
        power_scale=power_scale,
        extra_resistance_k_per_w=extra_resistance)
    teg_module = default_server_module(TegDevice(
        mode="physical" if physical_teg else "empirical"))
    return cpu_model, teg_module


class TestBalancedRoute:
    """The balanced route equals the per-server route on the repeated plane."""

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=25),
        full=st.integers(min_value=1, max_value=4),
        tail=st.integers(min_value=0, max_value=24),
        n_steps=st.integers(min_value=1, max_value=9),
        block_cells=st.sampled_from([1, 7, 40]),
        setting=st.sampled_from(["lookup", "hot", "warm", "fast"]),
        strict=st.booleans(),
        physical_outlet=st.booleans(),
        physical_teg=st.booleans(),
        power_scale=st.sampled_from([0.8, 1.0, 1.35]),
        extra_resistance=st.sampled_from([0.0, 0.03, -0.2]),
        data=st.data(),
    )
    def test_balanced_evaluate_equals_per_server(
            self, size, full, tail, n_steps, block_cells, setting, strict,
            physical_outlet, physical_teg, power_scale, extra_resistance,
            data):
        # ``tail`` adds a ragged last circulation; "hot" (30 L/h, 60 °C)
        # puts CPUs over the limit, and "fast" (250 L/h) has R_th < 0
        # when the extra resistance is -0.2.
        n_servers = full * size + tail % size
        raw = data.draw(arrays(float, (n_steps, n_servers),
                               elements=st.floats(0.0, 1.0)))
        flow, inlet = {"hot": (30.0, 60.0), "warm": (50.0, 45.0),
                       "fast": (250.0, 45.0)}.get(setting, (50.0, 45.0))
        config = SimulationConfig(
            name="drawn", scheduler="ideal",
            policy="lookup" if setting == "lookup" else "static",
            circulation_size=size, strict_safety=strict,
            static_setting=CoolingSetting(flow_l_per_h=flow,
                                          inlet_temp_c=inlet))
        cpu_model, teg_module = drawn_model(physical_outlet, physical_teg,
                                            power_scale, extra_resistance)
        trace = WorkloadTrace(raw, 300.0)

        def simulator():
            return _CachedVectorisedSimulator(trace, config, cpu_model,
                                              teg_module, mode="kernel")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel_module, "ROW_BLOCK_CELLS", block_cells)
            sim = simulator()
            means = kernel_module._per_circulation(sim, raw, np.mean)
            plane = kernel_module._scheduled_plane(sim, raw)
            assert np.array_equal(plane, repeated(sim, means))
            decided = kernel_module._decide_balanced(sim, means)
            oracle_sim = simulator()
            want_decided = kernel_module._decide_plane(oracle_sim, plane)
            got = kernel_module._evaluate_balanced(sim, means, *decided)
            want = kernel_module._evaluate_blocks(sim, plane, *decided)
            columns = [run_columns(simulator(), per_server)
                       for per_server in (False, True)]
        assert np.array_equal(decided[0], want_decided[0])
        assert decided[1:] == want_decided[1:]
        assert sim.decisions == oracle_sim.decisions
        assert list(getattr(sim._policy, "_cache", {}).items()) == list(
            getattr(oracle_sim._policy, "_cache", {}).items())
        for name, got_plane, want_plane in zip(
                ("heat", "generation", "hottest"), got[:3], want[:3]):
            assert_same_bits(got_plane, want_plane, name)
        assert np.array_equal(got[3], want[3])
        for got_cells, want_cells in zip(got[4], want[4]):
            assert np.array_equal(got_cells, want_cells)
        got_columns, want_columns = columns
        for name in kernel_module.KernelColumns.__dataclass_fields__:
            if name not in ("violations", "error"):
                assert np.array_equal(getattr(got_columns, name),
                                      getattr(want_columns, name)), name
        assert got_columns.violations == want_columns.violations
        assert (None if got_columns.error is None
                else str(got_columns.error.exception)) == (
            None if want_columns.error is None
            else str(want_columns.error.exception))

    def test_hot_balanced_run_logs_every_server(self):
        # Every server of an over-limit balanced circulation is logged,
        # the ragged tail's too, exactly as the serial loop logs them.
        hot = teg_loadbalance(policy="static", static_setting=CoolingSetting(
            flow_l_per_h=30.0, inlet_temp_c=60.0))
        trace = trailing_trace()
        serial = DatacenterSimulator(trace, hot).run()
        kernel = simulate(trace, hot, mode="kernel")
        assert {v.server_id for v in serial.violations} >= {46}
        assert kernel.violations == serial.violations
        assert kernel.records == serial.records
        strict = replace(hot, strict_safety=True)
        errors = []
        for run in (DatacenterSimulator(trace, strict).run,
                    lambda: simulate(trace, strict, mode="kernel")):
            with pytest.raises(CoolingFailureError) as excinfo:
                run()
            exc = excinfo.value
            errors.append((str(exc), exc.server_id, exc.temperature_c,
                           exc.step_index))
        assert errors[0] == errors[1]

    def test_scalar_decide_gets_full_vectors(self, monkeypatch):
        # Without ``decide_batch`` the balanced route asks the policy
        # once per novel cell with the circulation's whole vector, whose
        # mean is the per-server route's binding, so both routes fill
        # the policy memo alike.
        from repro.control.cooling_policy import LookupSpacePolicy

        monkeypatch.delattr(LookupSpacePolicy, "decide_batch")
        decide = LookupSpacePolicy.decide
        sizes = []

        def sized(policy, utilisations):
            sizes.append(len(utilisations))
            return decide(policy, utilisations)

        monkeypatch.setattr(LookupSpacePolicy, "decide", sized)
        trace = trailing_trace()
        memos = []
        for per_server in (False, True):
            sim = _CachedVectorisedSimulator(trace, teg_loadbalance(),
                                             mode="kernel")
            run_columns(sim, per_server)
            memos.append(list(sim._policy._cache.items()))
        assert memos[0] == memos[1]
        assert set(sizes) == {20, 7}
        serial = DatacenterSimulator(trace, teg_loadbalance()).run()
        assert simulate(trace, teg_loadbalance(),
                        mode="kernel").records == serial.records

    @pytest.mark.parametrize("shard_servers", [20, 40])
    def test_sharded_ragged_loadbalance_equals_serial(self, shard_servers):
        # 53 servers: circulations of 20, 20 and a ragged 13, so with
        # 20-server tiles the tail runs as a tile of its own.
        trace = drastic_trace(n_servers=53, duration_s=6 * 3600.0,
                              interval_s=300.0, seed=17)
        config = teg_loadbalance()
        serial = DatacenterSimulator(trace, config).run()
        sharded = simulate_sharded(trace, config,
                                   shard_servers=shard_servers,
                                   shard_steps=25)
        assert sharded.records == serial.records
        assert sharded.violations == serial.violations
