"""CPU thermal/power model tests — anchored to the paper's measurements."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import CPU_MAX_OPERATING_TEMP_C
from repro.errors import PhysicalRangeError
from repro.thermal.cpu_model import (
    CoolingSetting,
    CpuThermalModel,
    FrequencyGovernor,
    OutletDeltaModel,
    cpu_power_w,
)

utilisations = st.floats(min_value=0.0, max_value=1.0)


class TestCpuPower:
    """Eq. 20 of the paper."""

    def test_idle_power(self):
        assert cpu_power_w(0.0) == pytest.approx(9.39, abs=0.05)

    def test_full_load_power(self):
        assert cpu_power_w(1.0) == pytest.approx(77.17, abs=0.05)

    def test_typical_google_load(self):
        # At the traces' ~0.22 mean utilisation CPU power is ~28 W, which
        # is what makes the paper's 14 % PRE arithmetic work.
        assert 25.0 < cpu_power_w(0.22) < 31.0

    def test_out_of_range_rejected(self):
        with pytest.raises(PhysicalRangeError):
            cpu_power_w(-0.1)
        with pytest.raises(PhysicalRangeError):
            cpu_power_w(1.1)

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_monotone_increasing(self, u):
        assert cpu_power_w(u + 1e-3) > cpu_power_w(u)

    @given(utilisations)
    def test_concave(self, u):
        # The log law has diminishing returns: the marginal watt per
        # utilisation point shrinks.
        h = 1e-3
        if h <= u <= 1.0 - h:
            left = cpu_power_w(u) - cpu_power_w(u - h)
            right = cpu_power_w(u + h) - cpu_power_w(u)
            assert right < left

    def test_vectorised_matches_scalar(self):
        utils = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        vector = cpu_power_w(utils)
        assert vector.shape == utils.shape
        for u, p in zip(utils, vector):
            assert p == pytest.approx(cpu_power_w(float(u)))


#: Flow rates every flow check must reject.
bad_flows = pytest.mark.parametrize(
    "flow", [0.0, -5.0, np.nan, np.inf, -np.inf])


class TestCoolingSetting:
    def test_invalid_flow_rejected(self):
        with pytest.raises(PhysicalRangeError):
            CoolingSetting(flow_l_per_h=0.0, inlet_temp_c=40.0)

    @pytest.mark.parametrize("flow", [np.nan, np.inf, -np.inf])
    def test_non_finite_flow_rejected(self, flow):
        with pytest.raises(PhysicalRangeError, match="finite and > 0"):
            CoolingSetting(flow_l_per_h=flow, inlet_temp_c=40.0)

    def test_implausible_inlet_rejected(self):
        with pytest.raises(PhysicalRangeError):
            CoolingSetting(flow_l_per_h=50.0, inlet_temp_c=120.0)

    def test_frozen(self):
        setting = CoolingSetting(flow_l_per_h=50.0, inlet_temp_c=40.0)
        with pytest.raises(AttributeError):
            setting.inlet_temp_c = 50.0


class TestFrequencyGovernor:
    """Fig. 10: powersave settles at ~2.5 GHz."""

    def test_idle_frequency(self):
        gov = FrequencyGovernor()
        assert gov.frequency_ghz(0.0) == pytest.approx(1.2)

    def test_plateau_at_full_load(self):
        gov = FrequencyGovernor()
        assert gov.frequency_ghz(1.0) == pytest.approx(2.5, abs=0.05)

    def test_slows_beyond_knee(self):
        gov = FrequencyGovernor()
        before = gov.frequency_ghz(0.5) - gov.frequency_ghz(0.4)
        after = gov.frequency_ghz(0.9) - gov.frequency_ghz(0.8)
        assert after < before

    @given(utilisations)
    def test_monotone_and_bounded(self, u):
        gov = FrequencyGovernor()
        freq = gov.frequency_ghz(u)
        assert 1.2 <= freq <= 3.0
        if u < 1.0:
            assert gov.frequency_ghz(min(1.0, u + 1e-3)) >= freq

    def test_out_of_range_rejected(self):
        with pytest.raises(PhysicalRangeError):
            FrequencyGovernor().frequency_ghz(1.5)


class TestOutletDelta:
    """Fig. 9: dT_out-in in 1-3.5 C, driven by utilisation."""

    def test_range_matches_paper(self):
        model = OutletDeltaModel()
        low = model.delta_c(0.0, 20.0, 35.0)
        high = model.delta_c(1.0, 20.0, 35.0)
        assert 0.8 <= low <= 1.5
        assert 3.0 <= high <= 3.6

    def test_utilisation_dominates(self):
        model = OutletDeltaModel()
        util_span = (model.delta_c(1.0, 20.0, 35.0)
                     - model.delta_c(0.0, 20.0, 35.0))
        flow_span = abs(model.delta_c(0.5, 20.0, 35.0)
                        - model.delta_c(0.5, 300.0, 35.0))
        inlet_span = abs(model.delta_c(0.5, 20.0, 30.0)
                         - model.delta_c(0.5, 20.0, 45.0))
        assert util_span > 3.0 * flow_span
        assert util_span > 10.0 * inlet_span

    def test_physical_mode_energy_balance(self):
        model = OutletDeltaModel(mode="physical")
        delta = model.delta_c(1.0, 20.0, 35.0)
        # 85 % of 77 W into 20 L/H of water: ~2.8 C.
        assert delta == pytest.approx(2.81, abs=0.1)

    def test_physical_mode_inverse_in_flow(self):
        model = OutletDeltaModel(mode="physical")
        assert model.delta_c(0.5, 40.0, 35.0) == pytest.approx(
            model.delta_c(0.5, 20.0, 35.0) / 2.0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(PhysicalRangeError):
            OutletDeltaModel(mode="guess")

    def test_invalid_inputs_rejected(self):
        model = OutletDeltaModel()
        with pytest.raises(PhysicalRangeError):
            model.delta_c(1.5, 20.0, 35.0)
        with pytest.raises(PhysicalRangeError):
            model.delta_c(0.5, 0.0, 35.0)

    @given(utilisations, st.floats(min_value=20.0, max_value=300.0))
    def test_always_positive(self, u, flow):
        assert OutletDeltaModel().delta_c(u, flow, 40.0) > 0.0

    @bad_flows
    @pytest.mark.parametrize("mode", ["empirical", "physical"])
    def test_factors_reject_bad_flow(self, flow, mode):
        with pytest.raises(PhysicalRangeError, match="finite and > 0"):
            OutletDeltaModel(mode=mode).factors(flow, 40.0)

    @pytest.mark.parametrize("mode", ["empirical", "physical"])
    def test_factors_take_an_inlet_array(self, mode):
        # Far below the reference inlet the empirical inlet factor is
        # floored at zero, in the array form as in the scalar one.
        model = OutletDeltaModel(mode=mode, inlet_sensitivity_per_c=0.05)
        inlets = np.array([-10.0, 10.0, 35.0, 47.5, 90.0])
        first, second = model.factors(100.0, inlets)
        for n, inlet in enumerate(inlets.tolist()):
            scalar_first, scalar_second = model.factors(100.0, inlet)
            assert type(scalar_first) is float
            assert type(scalar_second) is float
            assert first == scalar_first
            assert np.broadcast_to(second, inlets.shape)[n] == scalar_second
        if mode == "empirical":
            assert second[0] == 0.0


class TestCpuThermalModel:
    """Figs. 10-11 anchors from Sec. II-B and Sec. IV."""

    def test_slope_in_paper_band(self, cpu_model):
        # k in [1, 1.3], larger at low flow.
        assert 1.2 < cpu_model.slope(20.0) <= 1.3
        assert 1.0 < cpu_model.slope(300.0) < 1.1

    def test_slope_decreases_with_flow(self, cpu_model):
        assert cpu_model.slope(20.0) > cpu_model.slope(100.0) \
            > cpu_model.slope(300.0)

    def test_full_load_45c_water_is_safe(self, cpu_model):
        # Sec. II-B: 40-45 C water never exceeds 78.9 C even at 100 %.
        for inlet in (40.0, 42.5, 45.0):
            setting = CoolingSetting(flow_l_per_h=20.0, inlet_temp_c=inlet)
            assert cpu_model.cpu_temp_c(1.0, setting) \
                <= CPU_MAX_OPERATING_TEMP_C

    def test_50c_water_high_load_unsafe(self, cpu_model):
        # Sec. II-B: >50 C water with >=70 % utilisation exceeds the max.
        setting = CoolingSetting(flow_l_per_h=20.0, inlet_temp_c=50.5)
        assert cpu_model.cpu_temp_c(0.75, setting) \
            > CPU_MAX_OPERATING_TEMP_C

    def test_linear_in_inlet_temperature(self, cpu_model):
        # Fig. 11: T_CPU grows linearly with coolant temperature.
        setting_fn = lambda t: CoolingSetting(flow_l_per_h=50.0,
                                              inlet_temp_c=t)
        t30 = cpu_model.cpu_temp_c(1.0, setting_fn(30.0))
        t40 = cpu_model.cpu_temp_c(1.0, setting_fn(40.0))
        t50 = cpu_model.cpu_temp_c(1.0, setting_fn(50.0))
        assert (t50 - t40) == pytest.approx(t40 - t30, rel=1e-9)

    def test_flow_saturation(self, cpu_model):
        # Fig. 11: above ~250 L/H extra flow barely helps.
        setting = lambda f: CoolingSetting(flow_l_per_h=f, inlet_temp_c=45.0)
        gain_low = (cpu_model.cpu_temp_c(1.0, setting(20.0))
                    - cpu_model.cpu_temp_c(1.0, setting(70.0)))
        gain_high = (cpu_model.cpu_temp_c(1.0, setting(250.0))
                     - cpu_model.cpu_temp_c(1.0, setting(300.0)))
        assert gain_low > 5.0 * gain_high

    def test_inlet_inversion_round_trip(self, cpu_model):
        inlet = cpu_model.inlet_for_cpu_temp(0.6, 100.0, 62.0)
        setting = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=inlet)
        assert cpu_model.cpu_temp_c(0.6, setting) == pytest.approx(62.0)

    @given(utilisations,
           st.floats(min_value=20.0, max_value=300.0),
           st.floats(min_value=45.0, max_value=75.0))
    def test_inversion_property(self, u, flow, target):
        model = CpuThermalModel()
        inlet = model.inlet_for_cpu_temp(u, flow, target)
        setting = CoolingSetting(flow_l_per_h=flow,
                                 inlet_temp_c=max(-9.0, min(89.0, inlet)))
        if setting.inlet_temp_c == inlet:
            assert model.cpu_temp_c(u, setting) == pytest.approx(
                target, abs=1e-9)

    def test_outlet_above_inlet(self, cpu_model, warm_setting):
        assert cpu_model.outlet_temp_c(0.5, warm_setting) \
            > warm_setting.inlet_temp_c

    def test_is_safe_with_margin(self, cpu_model):
        setting = CoolingSetting(flow_l_per_h=20.0, inlet_temp_c=45.0)
        assert cpu_model.is_safe(1.0, setting)
        assert not cpu_model.is_safe(1.0, setting, safety_margin_c=10.0)

    def test_extra_resistance_heats_cpu(self):
        # The Fig. 3 effect in steady state: the TEG's thermal resistance
        # in the heat path drives the CPU far hotter.
        base = CpuThermalModel()
        sandwiched = CpuThermalModel(extra_resistance_k_per_w=1.55)
        setting = CoolingSetting(flow_l_per_h=20.0, inlet_temp_c=28.0)
        assert (sandwiched.cpu_temp_c(0.2, setting)
                - base.cpu_temp_c(0.2, setting)) > 30.0

    @bad_flows
    def test_flow_laws_reject_bad_flow(self, cpu_model, flow):
        for law in (cpu_model.slope, cpu_model.thermal_resistance_k_per_w):
            with pytest.raises(PhysicalRangeError, match="finite and > 0"):
                law(flow)

    def test_terms_at_inlet_array_match_settings(self, cpu_model):
        inlets = np.array([20.0, 33.3, 54.5])
        _, temps, outlets = cpu_model.response(
            np.array([0.1, 0.6, 0.95]), cpu_model.terms_at(150.0, inlets))
        for n, (u, inlet) in enumerate(zip([0.1, 0.6, 0.95], inlets)):
            setting = CoolingSetting(flow_l_per_h=150.0,
                                     inlet_temp_c=float(inlet))
            assert temps[n] == cpu_model.cpu_temp_c(u, setting)
            assert outlets[n] == cpu_model.outlet_temp_c(u, setting)

    def test_vectorised_utilisation(self, cpu_model, warm_setting):
        utils = np.linspace(0.0, 1.0, 5)
        temps = cpu_model.cpu_temp_c(utils, warm_setting)
        assert temps.shape == utils.shape
        assert np.all(np.diff(temps) > 0)


def oracle_response(model, utilisation, terms):
    """``CpuThermalModel.response`` as it was written out of place."""
    utils = np.asarray(utilisation, dtype=float)
    if np.any((utils < 0.0) | (utils > 1.0)):
        raise PhysicalRangeError("utilisation out of range")
    eq20 = 109.71 * np.log(utils + 1.17) - 7.83
    if utils.ndim == 0:
        utils, eq20 = float(utils), float(eq20)
    power = model.power_scale * eq20
    cpu_temp = terms.k_inlet + terms.r_th * power
    outlet_model = model.outlet_model
    if outlet_model.mode == "physical":
        delta = outlet_model.capture_efficiency * eq20 / terms.outlet_first
    else:
        base = outlet_model.base_delta_c + outlet_model.load_delta_c * utils
        delta = base * terms.outlet_first * terms.outlet_second
    return power, cpu_temp, terms.inlet_temp_c + delta


class TestResponseLaws:
    """``response`` runs the in-place laws, bit for bit as before."""

    @given(utils=st.lists(utilisations, min_size=1, max_size=9),
           physical=st.booleans(),
           power_scale=st.sampled_from([0.8, 1.0, 1.35]),
           extra=st.sampled_from([0.0, 0.03, -0.2]),
           flow=st.sampled_from([20.0, 150.0, 300.0]),
           inlet=st.floats(min_value=20.0, max_value=60.0))
    def test_response_equals_oracle(self, utils, physical, power_scale,
                                    extra, flow, inlet):
        model = CpuThermalModel(
            outlet_model=OutletDeltaModel(
                mode="physical" if physical else "empirical"),
            power_scale=power_scale, extra_resistance_k_per_w=extra)
        terms = model.terms_at(flow, inlet)
        for utilisation in (np.array(utils), utils[0]):
            got = model.response(utilisation, terms)
            want = oracle_response(model, utilisation, terms)
            for value, expected in zip(got, want):
                assert type(value) is type(expected)
                assert np.array_equal(np.asarray(value).view(np.int64),
                                      np.asarray(expected).view(np.int64))

    def test_response_rejects_out_of_range_utilisation(self):
        model = CpuThermalModel()
        terms = model.terms_at(50.0, 45.0)
        for bad in (-0.1, 1.1, np.array([0.2, 1.5]), np.array([-0.1])):
            with pytest.raises(PhysicalRangeError):
                model.response(bad, terms)
        # NaN is not out of range: it propagates.
        assert np.isnan(model.response(np.nan, terms)[1])
