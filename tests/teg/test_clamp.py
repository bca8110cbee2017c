"""The TEG laws' zero clamp equals ``np.maximum(0.0, x)`` bit for bit.

Both laws floor at zero with a masked copy (``teg.device._clamp_negative``).
The references below are the laws written inline with
``np.maximum(0.0, x)``; results are compared as their int64 bit
patterns, so a ``-0.0`` for a ``+0.0`` or a different NaN fails.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.teg.device import EmpiricalTegFit, TegDevice
from repro.teg.module import TegModule, TegString

#: The cells where a clamp could differ: signed zeros, NaN, infinities,
#: subnormals and the smallest normals of both signs.
EDGES = (-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, -2.2250738585072014e-308, -1.0, 1.0)

cells = st.one_of(st.sampled_from(EDGES), st.floats(width=64))
arrays = st.lists(cells, min_size=1, max_size=40).map(np.array)
#: Differences the public entry points accept: ``>= 0`` (``-0.0``
#: included) or NaN.
checked = st.one_of(st.sampled_from((-0.0, 0.0, np.nan, np.inf, 5e-324)),
                    st.floats(min_value=0.0, max_value=1e3))
#: Signed zero coefficients make a ``-0.0`` power, which the clamp keeps.
coefficients = st.one_of(st.sampled_from((-0.0, 0.0)),
                         st.floats(min_value=-1.0, max_value=1.0))
fits = st.builds(EmpiricalTegFit, pmax_quad_w_per_c2=coefficients,
                 pmax_lin_w_per_c=coefficients, pmax_const_w=coefficients)
devices = st.one_of(st.builds(TegDevice, fit=fits),
                    st.just(TegDevice(mode="physical")))
couplings = st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0))


def reference_fit_power(fit, delta):
    power = np.square(delta, out=np.empty_like(delta))
    np.multiply(fit.pmax_quad_w_per_c2, power, out=power)
    power += np.multiply(fit.pmax_lin_w_per_c, delta)
    power += fit.pmax_const_w
    np.maximum(0.0, power, out=power)
    np.copyto(power, 0.0, where=delta == 0.0)
    return power


def reference_device_power(device, delta):
    if device.mode == "empirical":
        return reference_fit_power(device.fit, delta)
    voc = np.multiply(device.seebeck_slope_v_per_c(), delta)
    return np.divide(np.square(voc), 4.0 * device.resistance_ohm)


def reference_string_power(string, delta, coupling):
    delta = np.array(delta, dtype=float)
    if coupling is not None:
        np.multiply(delta, coupling, out=delta)
    return reference_device_power(string.device, delta) * string.count


def reference_generation(module, warm_out, cold, coupling):
    delta = np.maximum(0.0, np.subtract(warm_out, cold))
    return reference_string_power(module.as_string, delta, coupling)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestClampBits:
    @settings(max_examples=200, deadline=None)
    @given(fit=fits, delta=arrays)
    @example(fit=EmpiricalTegFit(pmax_quad_w_per_c2=-0.0,
                                 pmax_lin_w_per_c=-0.0, pmax_const_w=-0.0),
             delta=np.array([1.0, -1.0, np.nan]))
    def test_fit_power(self, fit, delta):
        with np.errstate(all="ignore"):
            got = fit._max_power(delta)
            want = reference_fit_power(fit, delta)
        np.testing.assert_array_equal(bits(got), bits(want))

    @settings(max_examples=200, deadline=None)
    @given(device=devices, warm_out=arrays,
           cold=st.one_of(st.sampled_from(EDGES),
                          st.floats(min_value=-50.0, max_value=100.0)),
           coupling=couplings, buffers=st.booleans())
    def test_coupled_generation(self, device, warm_out, cold, coupling,
                                buffers):
        module = TegModule(device=device)
        # The kernel hands the law its block buffers; other callers
        # let it allocate.
        out, work = ((np.empty_like(warm_out), np.empty_like(warm_out))
                     if buffers else (None, None))
        with np.errstate(all="ignore"):
            got = module._coupled_generation(warm_out.copy(), cold,
                                             coupling, out, work)
            want = reference_generation(module, warm_out, cold, coupling)
        np.testing.assert_array_equal(bits(got), bits(want))

    @settings(max_examples=200, deadline=None)
    @given(device=devices, delta=checked, coupling=couplings,
           count=st.integers(min_value=1, max_value=12))
    def test_scalar_string_power(self, device, delta, coupling, count):
        string = TegString(device=device, count=count)
        with np.errstate(all="ignore"):
            got = string.coupled_max_power_w(delta, coupling)
            want = reference_string_power(string, delta, coupling)
        assert isinstance(got, float)
        assert bits(got) == bits(float(want))
