"""Cooling-policy tests (Sec. V-B1, Fig. 13)."""

import numpy as np
import pytest

from repro.constants import CPU_SAFE_TEMP_C
from repro.control.cooling_policy import (
    AnalyticPolicy,
    LookupSpacePolicy,
    PolicyDecision,
    StaticPolicy,
)
from repro.control.lookup_space import LookupSpace
from repro.errors import ConfigurationError, PhysicalRangeError
from repro.thermal.cpu_model import (
    CoolingSetting,
    CpuThermalModel,
    OutletDeltaModel,
)


@pytest.fixture
def lookup_policy(lookup_space):
    return LookupSpacePolicy(space=lookup_space, aggregation="max")


class TestStaticPolicy:
    def test_always_same_setting(self):
        policy = StaticPolicy()
        d1 = policy.decide([0.1, 0.2])
        d2 = policy.decide([0.9, 0.95])
        assert d1.setting == d2.setting

    def test_predictions_filled(self):
        decision = StaticPolicy().decide([0.5])
        assert decision.predicted_cpu_temp_c > 0.0
        assert decision.predicted_outlet_temp_c > \
            decision.setting.inlet_temp_c
        assert decision.predicted_generation_w >= 0.0


class TestBindingUtilisation:
    def test_max_aggregation(self, lookup_policy):
        decision = lookup_policy.decide([0.1, 0.6, 0.3])
        assert decision.binding_utilisation == pytest.approx(0.6)

    def test_avg_aggregation(self, lookup_space):
        policy = LookupSpacePolicy(space=lookup_space, aggregation="avg")
        decision = policy.decide([0.1, 0.6, 0.2])
        assert decision.binding_utilisation == pytest.approx(0.3)

    def test_empty_rejected(self, lookup_policy):
        with pytest.raises(ConfigurationError):
            lookup_policy.decide([])

    def test_out_of_range_rejected(self, lookup_policy):
        with pytest.raises(PhysicalRangeError):
            lookup_policy.decide([0.5, 1.4])

    def test_bad_aggregation_rejected(self, lookup_space):
        policy = LookupSpacePolicy(space=lookup_space,
                                   aggregation="median")
        with pytest.raises(ConfigurationError):
            policy.decide([0.5])


class TestLookupSpacePolicy:
    def test_cpu_held_near_safe_temp(self, lookup_policy):
        decision = lookup_policy.decide([0.5, 0.6, 0.7])
        assert decision.predicted_cpu_temp_c == pytest.approx(
            CPU_SAFE_TEMP_C, abs=1.5)

    def test_lower_load_hotter_inlet(self, lookup_policy):
        # The heart of the optimisation: cooler clusters allow hotter
        # water, hence more generation.
        low = lookup_policy.decide([0.2])
        high = lookup_policy.decide([0.8])
        assert low.setting.inlet_temp_c > high.setting.inlet_temp_c
        assert low.predicted_generation_w > high.predicted_generation_w

    def test_balanced_beats_unbalanced(self, lookup_space):
        # The Fig. 13 A_avg-vs-A_max contrast on one decision.
        utils = [0.1, 0.2, 0.8]
        original = LookupSpacePolicy(space=lookup_space,
                                     aggregation="max").decide(utils)
        balanced = LookupSpacePolicy(space=lookup_space,
                                     aggregation="avg").decide(utils)
        assert balanced.predicted_generation_w > \
            original.predicted_generation_w

    def test_idle_cluster_uses_fallback_hottest(self):
        # With an actuator whose inlet tops out at 48 C, an idle CPU can
        # never reach T_safe: the fallback must pick a hot (maximum
        # generation), still-safe setting — not emergency cold.
        import numpy as np
        from repro.control.lookup_space import LookupSpace

        capped_space = LookupSpace(
            inlet_grid=np.linspace(20.0, 44.0, 13))
        policy = LookupSpacePolicy(space=capped_space, aggregation="max")
        decision = policy.decide([0.0, 0.0])
        assert decision.predicted_cpu_temp_c < CPU_SAFE_TEMP_C
        assert decision.setting.inlet_temp_c == pytest.approx(44.0)
        assert decision.predicted_generation_w > 1.5

    def test_overload_fallback_cools_hard(self, lookup_space):
        # With a very low safe temperature nothing is admissible: the
        # policy must pick the coldest, fastest setting.
        policy = LookupSpacePolicy(space=lookup_space, safe_temp_c=20.0,
                                   aggregation="max")
        decision = policy.decide([1.0])
        assert decision.setting.inlet_temp_c == pytest.approx(
            float(lookup_space.inlet_grid[0]))
        assert decision.setting.flow_l_per_h == pytest.approx(
            float(lookup_space.flow_grid[-1]))

    def test_decisions_cached(self, lookup_space):
        policy = LookupSpacePolicy(space=lookup_space, aggregation="max")
        d1 = policy.decide([0.5])
        d2 = policy.decide([0.5])
        assert d1 is d2  # cache hit returns the same object

    def test_cache_resolution_distinguishes(self, lookup_space):
        policy = LookupSpacePolicy(space=lookup_space, aggregation="max")
        d1 = policy.decide([0.2])
        d2 = policy.decide([0.8])
        assert d1 is not d2


class TestAnalyticPolicy:
    def test_cpu_exactly_at_safe_temp_when_unclamped(self):
        policy = AnalyticPolicy(inlet_max_c=70.0)
        decision = policy.decide([0.7])
        assert decision.predicted_cpu_temp_c == pytest.approx(
            CPU_SAFE_TEMP_C, abs=1e-6)

    def test_clamped_inlet_respected(self):
        policy = AnalyticPolicy(inlet_max_c=50.0)
        decision = policy.decide([0.05])
        assert decision.setting.inlet_temp_c <= 50.0

    def test_lower_load_more_generation(self):
        policy = AnalyticPolicy()
        low = policy.decide([0.2])
        high = policy.decide([0.9])
        assert low.predicted_generation_w >= high.predicted_generation_w

    def test_net_of_pump_prefers_lower_flow(self):
        gross = AnalyticPolicy(net_of_pump=False).decide([0.5])
        net = AnalyticPolicy(net_of_pump=True).decide([0.5])
        assert net.setting.flow_l_per_h <= gross.setting.flow_l_per_h

    def test_analytic_upper_bounds_lookup(self, lookup_space):
        # The analytic optimum is the continuous version of the lookup
        # search; it can only do better (or equal within grid error).
        utils = [0.4, 0.5]
        lookup = LookupSpacePolicy(space=lookup_space,
                                   aggregation="max").decide(utils)
        analytic = AnalyticPolicy(
            inlet_max_c=float(lookup_space.inlet_grid[-1]),
            flow_candidates=tuple(float(f)
                                  for f in lookup_space.flow_grid),
        ).decide(utils)
        assert analytic.predicted_generation_w >= \
            lookup.predicted_generation_w - 0.15


# ----------------------------------------------------------------------
# Batched decisions (the decide_batch fast path of the kernel pipeline)
# ----------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

#: Pre-aggregated binding utilisations, the decide_batch input domain.
binding_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=12)


#: Models whose arithmetic takes other branches than the default's:
#: Eq. 8 as an energy balance, and a scaled CPU behind extra thermal
#: resistance, so hot that full load overheats at every setting.
VARIANT_MODELS = [
    pytest.param(CpuThermalModel(
        outlet_model=OutletDeltaModel(mode="physical")),
        id="physical-outlet"),
    pytest.param(CpuThermalModel(power_scale=1.3,
                                 extra_resistance_k_per_w=0.5),
                 id="scaled-power"),
]


class TestBatchScalarEquivalence:
    """``decide_batch`` must reproduce the scalar ``decide`` bit for bit.

    The vectorised kernel pipeline funnels every cooling decision
    through ``decide_batch``; any divergence from the scalar path —
    however small — would break the engine's bit-identity contract, so
    equality here is exact (``PolicyDecision`` compares all five floats
    with ``==``), not approximate.
    """

    def assert_equivalent(self, make_policy, bindings):
        batch_policy = make_policy()
        scalar_policy = make_policy()
        batched = batch_policy.decide_batch(bindings)
        scalar = [scalar_policy.decide([b]) for b in bindings]
        assert batched == scalar
        # Memoising policies must also leave the memo in the same
        # state (same buckets, primed in the same first-occurrence
        # order) — shards clone it, so a drifted memo breaks parity
        # later even if this batch matched.
        batch_memo = getattr(batch_policy, "_cache", None)
        if batch_memo is not None:
            scalar_memo = scalar_policy._cache
            assert list(batch_memo) == list(scalar_memo)
            assert batch_memo == scalar_memo

    @given(bindings=binding_lists)
    def test_static_policy(self, bindings):
        self.assert_equivalent(StaticPolicy, bindings)

    @settings(max_examples=40, deadline=None)
    @given(bindings=binding_lists)
    def test_analytic_policy(self, bindings):
        self.assert_equivalent(AnalyticPolicy, bindings)

    @settings(max_examples=15, deadline=None)
    @given(bindings=binding_lists)
    def test_analytic_policy_net_of_pump(self, bindings):
        self.assert_equivalent(lambda: AnalyticPolicy(net_of_pump=True),
                               bindings)

    @pytest.mark.parametrize("model", VARIANT_MODELS)
    @settings(max_examples=15, deadline=None)
    @given(bindings=binding_lists)
    def test_analytic_policy_model_variants(self, model, bindings):
        self.assert_equivalent(lambda: AnalyticPolicy(model=model),
                               bindings + [0.0, 1.0])

    @pytest.mark.parametrize("model", VARIANT_MODELS)
    @settings(max_examples=10, deadline=None)
    @given(bindings=binding_lists)
    def test_lookup_policy_model_variants(self, model, bindings):
        space = LookupSpace(model=model)
        self.assert_equivalent(lambda: LookupSpacePolicy(space=space),
                               bindings + [0.0, 1.0])

    @settings(max_examples=15, deadline=None)
    @given(bindings=binding_lists)
    def test_lookup_policy(self, lookup_space, bindings):
        self.assert_equivalent(
            lambda: LookupSpacePolicy(space=lookup_space), bindings)

    @settings(max_examples=10, deadline=None)
    @given(bindings=binding_lists)
    def test_lookup_policy_avg_aggregation(self, lookup_space, bindings):
        self.assert_equivalent(
            lambda: LookupSpacePolicy(space=lookup_space,
                                      aggregation="avg"), bindings)

    def test_extreme_loads_hit_fallback_branches(self, lookup_space):
        # Deterministic anchors for the two fallback branches (idle
        # below the band, overload above it) on top of the random
        # sweep above.
        self.assert_equivalent(
            lambda: LookupSpacePolicy(space=lookup_space),
            [0.0, 1.0, 0.5, 0.0, 1.0])

    def test_empty_batch_is_noop(self, lookup_space):
        policy = LookupSpacePolicy(space=lookup_space)
        assert policy.decide_batch([]) == []
        assert policy._cache == {}

    def test_batch_rejects_out_of_range(self, lookup_space):
        for policy in (StaticPolicy(), AnalyticPolicy(),
                       LookupSpacePolicy(space=lookup_space)):
            with pytest.raises(PhysicalRangeError):
                policy.decide_batch([0.5, 1.5])


# ----------------------------------------------------------------------
# The Fig. 13 search against the code it replaced
# ----------------------------------------------------------------------

from repro.core.config import teg_original  # noqa: E402
from repro.teg.device import TegDevice  # noqa: E402
from repro.teg.module import default_server_module  # noqa: E402


def per_row_search(policy, bindings):
    """``_decide_uncached_batch`` as it decided one row at a time."""
    if policy.tolerance_c <= 0:
        raise PhysicalRangeError(
            f"tolerance must be > 0, got {policy.tolerance_c}")
    cpu, outlet = policy.space.plane_temperatures_batch(bindings)
    power = np.empty_like(outlet)
    for j, flow in enumerate(policy.space.flow_grid):
        power[:, j, :] = policy.teg_module.generation_w(
            outlet[:, j, :], policy.cold_source_temp_c, float(flow))
    in_band = np.abs(cpu - policy.safe_temp_c) <= policy.tolerance_c
    below_band = cpu <= policy.safe_temp_c + policy.tolerance_c
    n_inlets = len(policy.space.inlet_grid)
    decisions = []
    for i, binding in enumerate(bindings):
        mask = in_band[i] if in_band[i].any() else below_band[i]
        if mask.any():
            masked = np.where(mask, power[i], -np.inf).ravel()
            flat = int(np.argmax(masked))
            j, k = divmod(flat, n_inlets)
            flow = float(policy.space.flow_grid[j])
            inlet = float(policy.space.inlet_grid[k])
            cpu_temp = float(cpu[i, j, k])
            out_temp = float(outlet[i, j, k])
            best_power = float(masked[flat])
        else:
            flow = float(policy.space.flow_grid[-1])
            inlet = float(policy.space.inlet_grid[0])
            cpu_temp = float(cpu[i, -1, 0])
            out_temp = float(outlet[i, -1, 0])
            best_power = float(power[i, -1, 0])
        decisions.append(PolicyDecision(
            setting=CoolingSetting(flow_l_per_h=flow, inlet_temp_c=inlet),
            binding_utilisation=float(binding),
            predicted_cpu_temp_c=cpu_temp,
            predicted_outlet_temp_c=out_temp,
            predicted_generation_w=best_power,
        ))
    return decisions


def scalar_search(policy, binding):
    """``decide``'s memo miss as it scanned the safe region point by point."""
    region = policy.space.safe_region(binding, policy.safe_temp_c,
                                      policy.tolerance_c)
    if region:
        best_point, best_power = None, -np.inf
        for point in region:
            power = policy.teg_module.generation_w(
                point.outlet_temp_c, policy.cold_source_temp_c,
                point.flow_l_per_h)
            if power > best_power:
                best_power, best_point = power, point
        return PolicyDecision(
            setting=best_point.setting, binding_utilisation=binding,
            predicted_cpu_temp_c=best_point.cpu_temp_c,
            predicted_outlet_temp_c=best_point.outlet_temp_c,
            predicted_generation_w=best_power)
    cpu_plane, outlet_plane = policy.space.plane_temperatures(binding)
    best_point, best_power = None, -np.inf
    for j, flow in enumerate(policy.space.flow_grid):
        for k, inlet in enumerate(policy.space.inlet_grid):
            cpu_temp = float(cpu_plane[j, k])
            if cpu_temp > policy.safe_temp_c + policy.tolerance_c:
                continue
            outlet = float(outlet_plane[j, k])
            power = policy.teg_module.generation_w(
                outlet, policy.cold_source_temp_c, float(flow))
            if power > best_power:
                best_power = power
                best_point = (float(flow), float(inlet), cpu_temp, outlet)
    if best_point is None:
        flow = float(policy.space.flow_grid[-1])
        inlet = float(policy.space.inlet_grid[0])
        outlet = float(outlet_plane[-1, 0])
        best_point = (flow, inlet, float(cpu_plane[-1, 0]), outlet)
        best_power = policy.teg_module.generation_w(
            outlet, policy.cold_source_temp_c, flow)
    flow, inlet, cpu_temp, outlet = best_point
    return PolicyDecision(
        setting=CoolingSetting(flow_l_per_h=flow, inlet_temp_c=inlet),
        binding_utilisation=binding, predicted_cpu_temp_c=cpu_temp,
        predicted_outlet_temp_c=outlet, predicted_generation_w=best_power)


def row_kind(policy, decision):
    """Which branch of the search answered ``decision``."""
    band = abs(decision.predicted_cpu_temp_c - policy.safe_temp_c)
    if band <= policy.tolerance_c:
        return "in-band"
    if decision.predicted_cpu_temp_c <= policy.safe_temp_c \
            + policy.tolerance_c:
        return "below-band"
    return "emergency"


#: Bindings in [0, 1]: anywhere, or on a utilisation node (0 and 1
#: included).
search_bindings = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=1.0),
              st.sampled_from(np.linspace(0.0, 1.0, 11).tolist())),
    min_size=1, max_size=30)

#: (T_safe, tol) pairs that reach every row kind: a band only light
#: loads reach (30 °C), the paper's (62 °C) and one no setting reaches
#: from below (95 °C).
BANDS = [(30.0, 0.5), (62.0, 0.05), (62.0, 1.0), (75.0, 3.0), (95.0, 1.0)]


def search_policy(teg_mode, band, space):
    safe, tolerance = band
    return LookupSpacePolicy(
        space=space, safe_temp_c=safe, tolerance_c=tolerance,
        teg_module=default_server_module(TegDevice(mode=teg_mode)))


class TestSearchOracle:
    """The array search equals the per-row and per-point searches."""

    @settings(max_examples=60, deadline=None)
    @given(bindings=search_bindings,
           teg_mode=st.sampled_from(["empirical", "physical"]),
           band=st.sampled_from(BANDS))
    def test_array_search_equals_per_row_loop(self, lookup_space, bindings,
                                              teg_mode, band):
        policies = [search_policy(teg_mode, band, lookup_space)
                    for _ in range(2)]
        got = policies[0]._decide_uncached_batch(bindings)
        want = per_row_search(policies[1], bindings)
        assert len(got) == len(want)
        for got_one, want_one in zip(got, want):
            for name in PolicyDecision.__dataclass_fields__:
                assert getattr(got_one, name) == getattr(want_one, name), name
        # decide_batch primes the memo with the same decisions, in the
        # same order.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(policies[1], "_decide_uncached_batch",
                          lambda rows: per_row_search(policies[1], rows))
            assert policies[1].decide_batch(bindings) == \
                policies[0].decide_batch(bindings)
        assert list(policies[0]._cache.items()) == list(
            policies[1]._cache.items())

    def test_every_row_kind_is_reached(self, lookup_space):
        kinds = set()
        for band in BANDS:
            policy = search_policy("empirical", band, lookup_space)
            kinds.update(row_kind(policy, decision) for decision in
                         policy._decide_uncached_batch([0.0, 0.5, 1.0]))
        assert kinds == {"in-band", "below-band", "emergency"}

    @pytest.mark.parametrize("band", BANDS)
    def test_decide_equals_point_scan(self, lookup_space, band):
        # Empirical TEG: every decision is the per-point scan's, bit for
        # bit, including the below-band and emergency fallbacks.
        bindings = np.concatenate([
            np.linspace(0.0, 1.0, 11),
            np.random.default_rng(3).uniform(0.0, 1.0, 200)]).tolist()
        policy = search_policy("empirical", band, lookup_space)
        for binding in bindings:
            policy._cache.clear()
            assert policy.decide([binding]) == scalar_search(policy,
                                                             binding)

    def test_physical_teg_decide_equals_decide_batch(self):
        # Squaring a scalar through libm ``pow`` once made this
        # binding's scalar decision one bit off the batch's.
        binding = 0.19904020680777346
        teg_module = default_server_module(TegDevice(mode="physical"))
        scalar, batch = (teg_original().build_policy(CpuThermalModel(),
                                                     teg_module)
                         for _ in range(2))
        assert scalar.decide([binding]) == batch.decide_batch([binding])[0]
