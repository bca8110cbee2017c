"""TEG string/module tests — Fig. 7, Fig. 8 and Eqs. 4/7."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import PhysicalRangeError
from repro.teg.device import PAPER_TEG, TegDevice
from repro.teg.module import (
    REFERENCE_FLOW_L_PER_H,
    TegModule,
    TegString,
    default_server_module,
    flow_coupling,
)

deltas = st.floats(min_value=0.0, max_value=50.0)


class TestFlowCoupling:
    """The Fig. 7 flow effect: present but small."""

    def test_unity_at_reference_flow(self):
        assert flow_coupling(REFERENCE_FLOW_L_PER_H) == pytest.approx(1.0)

    def test_lower_flow_lower_coupling(self):
        assert flow_coupling(50.0) < 1.0

    def test_higher_flow_slightly_better(self):
        assert 1.0 < flow_coupling(300.0) < 1.02

    def test_effect_is_small_across_prototype_range(self):
        # "This improvement may be too little to be worth making": the
        # whole 50-300 L/H sweep moves the voltage by under ten percent.
        spread = flow_coupling(300.0) - flow_coupling(50.0)
        assert 0.0 < spread < 0.10

    def test_invalid_flow_rejected(self):
        with pytest.raises(PhysicalRangeError):
            flow_coupling(0.0)

    @given(st.floats(min_value=10.0, max_value=295.0))
    def test_monotone(self, flow):
        assert flow_coupling(flow + 5.0) > flow_coupling(flow)


class TestTegString:
    """Eqs. 4 and 7: everything scales linearly with n."""

    def test_resistance_scales(self):
        assert TegString(count=6).resistance_ohm == pytest.approx(12.0)

    def test_voc_n_times_single(self):
        # Eq. 4 exactly: Voc_n = n * v.
        string = TegString(count=6)
        single = PAPER_TEG.open_circuit_voltage_v(20.0)
        assert string.open_circuit_voltage_v(20.0) == pytest.approx(
            6.0 * single)

    def test_pmax_n_times_single(self):
        # Eq. 7 exactly: Pmax_n = n * Pmax_1.
        string = TegString(count=12)
        single = PAPER_TEG.max_power_w(20.0)
        assert string.max_power_w(20.0) == pytest.approx(12.0 * single)

    def test_fig8_series_scaling(self):
        # Fig. 8: at a given dT, voltage and power are proportional to n.
        v = {n: TegString(count=n).open_circuit_voltage_v(15.0)
             for n in (1, 3, 6, 12)}
        assert v[3] == pytest.approx(3 * v[1])
        assert v[12] == pytest.approx(2 * v[6])

    def test_fig8_power_higher_than_1_8w_at_25c(self):
        # Paper: "the maximum output power of 12 TEGs can be higher than
        # 1.8 W" beyond dT = 25 C.
        assert TegString(count=12).max_power_w(25.0) > 1.8

    def test_invalid_count_rejected(self):
        with pytest.raises(PhysicalRangeError):
            TegString(count=0)

    def test_matched_operating_point(self):
        string = TegString(count=6)
        op = string.matched_operating_point(20.0)
        # At the matched load the terminal voltage is half of Voc.
        assert op.voltage_v == pytest.approx(
            string.open_circuit_voltage_v(20.0) / 2.0)
        # The paper fitted Eq. 3 (voltage) and Eq. 6 (power) from
        # independent measurement campaigns, so the circuit-derived power
        # (Voc^2/4R) and the quadratic fit disagree by ~15 %.  The string
        # must honour both views within that band.
        assert op.power_w == pytest.approx(string.max_power_w(20.0),
                                           rel=0.2)

    def test_operating_point_open_circuit(self):
        string = TegString(count=6)
        op = string.operating_point(20.0, load_ohm=0.0)
        assert op.power_w == 0.0  # short circuit delivers no power

    def test_arbitrary_load_below_matched(self):
        string = TegString(count=6)
        matched = string.max_power_w(20.0)
        for load in (2.0, 6.0, 24.0, 100.0):
            assert string.operating_point(20.0, load).power_w <= matched

    def test_flow_modulates_voltage(self):
        string = TegString(count=6)
        slow = string.open_circuit_voltage_v(20.0, flow_l_per_h=50.0)
        fast = string.open_circuit_voltage_v(20.0, flow_l_per_h=300.0)
        assert slow < fast

    def test_negative_delta_rejected(self):
        with pytest.raises(PhysicalRangeError):
            TegString(count=6).open_circuit_voltage_v(-1.0)

    @given(deltas, st.integers(min_value=1, max_value=24))
    def test_linearity_property(self, delta, n):
        string = TegString(count=n)
        assert string.max_power_w(delta) == pytest.approx(
            n * PAPER_TEG.max_power_w(delta), rel=1e-12)


class TestTegModule:
    def test_prototype_has_12_tegs(self):
        module = default_server_module()
        assert module.teg_count == 12
        assert module.group_size == 6
        assert module.group_count == 2

    def test_module_equals_string_of_12(self):
        module = default_server_module()
        assert module.max_power_w(25.0) == pytest.approx(
            TegString(count=12).max_power_w(25.0))

    def test_generation_uses_eq2(self):
        # delta_T = T_warm_out - T_cold (Eq. 2).
        module = default_server_module()
        assert module.generation_w(52.0, 20.0) == pytest.approx(
            module.max_power_w(32.0))

    def test_generation_zero_when_cold(self):
        module = default_server_module()
        assert module.generation_w(15.0, 20.0) == 0.0

    def test_generation_vectorised(self):
        module = default_server_module()
        outs = np.array([45.0, 50.0, 55.0])
        gen = module.generation_w(outs, 20.0, 100.0)
        assert gen.shape == (3,)
        assert np.all(np.diff(gen) > 0)

    def test_paper_headline_magnitude(self):
        # At the evaluated operating region (outlet ~54 C vs 20 C natural
        # water) one server's module produces ~4 W — the paper's headline.
        module = default_server_module()
        assert 3.5 < module.generation_w(54.5, 20.0, 150.0) < 5.0

    def test_heat_harvested_positive(self):
        module = default_server_module()
        assert module.heat_harvested_w(50.0, 20.0) > 0.0
        assert module.heat_harvested_w(15.0, 20.0) == 0.0

    def test_generation_efficiency_consistency(self):
        # Electrical output never exceeds the harvested heat.
        module = default_server_module()
        power = module.generation_w(55.0, 20.0)
        heat = module.heat_harvested_w(55.0, 20.0)
        assert 0.0 < power < heat

    def test_invalid_geometry_rejected(self):
        with pytest.raises(PhysicalRangeError):
            TegModule(group_size=0)
        with pytest.raises(PhysicalRangeError):
            TegModule(group_count=-1)


def oracle_generation(module, warm_out, cold, coupling):
    """``TegModule.coupled_generation_w`` as it was written out of place."""
    delta = np.maximum(0.0, np.asarray(warm_out, dtype=float) - cold)
    if delta.ndim == 0:
        delta = float(delta)
    effective = np.asarray(delta, dtype=float) * coupling
    device = module.device
    if device.mode == "physical":
        voc = device.seebeck_slope_v_per_c() * effective
        if voc.ndim == 0:
            voc = float(voc)
        power = voc ** 2 / (4.0 * device.resistance_ohm)
    else:
        fit = device.fit
        power = (fit.pmax_quad_w_per_c2 * effective ** 2
                 + fit.pmax_lin_w_per_c * effective + fit.pmax_const_w)
        power = np.where(effective == 0.0, 0.0, np.maximum(0.0, power))
    if np.ndim(power) == 0:
        power = float(power)
    return module.teg_count * power


class TestGenerationLaws:
    """The public TEG entry points run the in-place laws as before."""

    @given(warm=st.lists(st.floats(min_value=0.0, max_value=80.0),
                         min_size=1, max_size=9),
           physical=st.booleans(),
           flow=st.sampled_from([20.0, 50.0, 200.0, 300.0]))
    def test_generation_equals_oracle(self, warm, physical, flow):
        module = default_server_module(
            TegDevice(mode="physical" if physical else "empirical"))
        coupling = flow_coupling(flow)
        for warm_out in (np.array(warm), warm[0]):
            got = module.coupled_generation_w(warm_out, 20.0, coupling)
            want = oracle_generation(module, warm_out, 20.0, coupling)
            assert type(got) is type(want)
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))
        # Unchanged inputs: the laws work on copies.
        array = np.array(warm)
        module.coupled_generation_w(array, 20.0, coupling)
        module.as_string.coupled_max_power_w(array, coupling)
        assert array.tolist() == warm

    def test_negative_inputs_rejected(self):
        string = TegString(count=6)
        with pytest.raises(PhysicalRangeError):
            string.coupled_max_power_w(1.0, -0.5)
        with pytest.raises(PhysicalRangeError):
            string.coupled_max_power_w(-1.0, 1.0)
        with pytest.raises(PhysicalRangeError):
            default_server_module().coupled_generation_w(50.0, 20.0, -0.5)
