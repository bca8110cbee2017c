"""Cooling-policy tests (Sec. V-B1, Fig. 13)."""

import numpy as np
import pytest

from repro.constants import CPU_SAFE_TEMP_C
from repro.control.cooling_policy import (
    AnalyticPolicy,
    LookupSpacePolicy,
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
