"""Steady-state CPU thermal and power models calibrated to the paper.

The paper characterises an Intel Xeon E5-2650 V3 cooled by a cold plate and
reports three empirical relationships that this module encodes:

* **Eq. 20** — CPU power vs. utilisation:
  ``P = 109.71 * ln(u + 1.17) - 7.83`` watts with ``u`` in ``[0, 1]``
  (9.4 W idle, ~77 W at full load, RMS error < 5 W).
* **Fig. 10 / Fig. 11** — CPU temperature is linear in coolant temperature,
  ``T_CPU = k(f) * T_coolant + b(u, f)`` with the slope ``k`` in [1, 1.3]
  growing as the flow rate shrinks, and the cooling benefit of extra flow
  saturating above ~250 L/H.
* **Fig. 9** — the coolant outlet-inlet temperature difference fluctuates
  within 1-3.5 degC and is driven almost entirely by CPU utilisation.

The calibration constants were chosen so that the model reproduces every
anchor point the paper states: full load with 40-45 degC water stays below
the 78.9 degC limit, while 50 degC water with >=70 % utilisation exceeds it
(Sec. II-B), and the Fig. 13 working region around T_safe = 62 degC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..constants import (
    CPU_MAX_FREQUENCY_GHZ,
    CPU_MAX_OPERATING_TEMP_C,
    CPU_POWER_CONST_W,
    CPU_POWER_LOG_COEFF_W,
    CPU_POWER_LOG_OFFSET,
    CPU_POWERSAVE_FREQUENCY_GHZ,
    WATER_HEAT_CAPACITY_J_PER_KG_C,
)
from ..errors import PhysicalRangeError
from ..units import litres_per_hour_to_kg_per_s


def _check_utilisation(utilisation) -> np.ndarray:
    """Validate a scalar or array utilisation and return it as an array."""
    utils = np.asarray(utilisation, dtype=float)
    if np.any((utils < 0.0) | (utils > 1.0)):
        raise PhysicalRangeError(
            f"utilisation must be in [0, 1], got {utilisation}")
    return utils


def _check_flow(flow_l_per_h) -> None:
    """Reject a flow rate that is not a finite positive number."""
    if not (math.isfinite(flow_l_per_h) and flow_l_per_h > 0):
        raise PhysicalRangeError(
            f"flow rate must be finite and > 0, got {flow_l_per_h}")


def cpu_power_w(utilisation):
    """CPU electrical power at a given utilisation (paper Eq. 20).

    Parameters
    ----------
    utilisation:
        CPU utilisation as a fraction in ``[0, 1]``; scalar or array.

    Returns
    -------
    float or numpy.ndarray
        Package power in watts (~9.4 W idle, ~77 W at 100 %); matches the
        input's shape.
    """
    return _eq20(_check_utilisation(utilisation))


def _eq20(utils: np.ndarray, out=None):
    """Eq. 20 over already-checked utilisations (a float for 0-d input).

    ``out`` (an array shaped like ``utils``, which may be ``utils``
    itself) receives the result, every operation then running in place.
    """
    power = np.add(utils, CPU_POWER_LOG_OFFSET, out=out)
    power = np.log(power, out=out)
    power = np.multiply(CPU_POWER_LOG_COEFF_W, power, out=out)
    power = np.add(power, CPU_POWER_CONST_W, out=out)
    if power.ndim == 0:
        return float(power)
    return power


# One arithmetic step of a law: the plain operator (Python floats stay
# floats) or, given ``out``, the ufunc writing into it.
def _add(a, b, out=None):
    return a + b if out is None else np.add(a, b, out=out)


def _mul(a, b, out=None):
    return a * b if out is None else np.multiply(a, b, out=out)


def _div(a, b, out=None):
    return a / b if out is None else np.divide(a, b, out=out)


@dataclass(frozen=True)
class CoolingSetting:
    """The pair ``{f, T_warm_in}`` the control plane adjusts (Sec. V-B).

    Attributes
    ----------
    flow_l_per_h:
        Coolant flow rate through each server's cold plate, litres/hour.
    inlet_temp_c:
        Inlet water temperature ``T_warm_in``, degC.
    """

    flow_l_per_h: float
    inlet_temp_c: float

    def __post_init__(self) -> None:
        _check_flow(self.flow_l_per_h)
        if not -10.0 <= self.inlet_temp_c <= 90.0:
            raise PhysicalRangeError(
                f"inlet temperature {self.inlet_temp_c} C is outside the "
                f"plausible coolant range (-10..90 C)")


@dataclass(frozen=True)
class FrequencyGovernor:
    """The "powersave" CPU frequency governor observed in Fig. 10.

    Frequency rises roughly linearly with utilisation, slows beyond 50 %
    and settles at ~2.5 GHz instead of the 3.0 GHz maximum.
    """

    idle_frequency_ghz: float = 1.2
    knee_utilisation: float = 0.5
    knee_frequency_ghz: float = 2.3
    plateau_frequency_ghz: float = CPU_POWERSAVE_FREQUENCY_GHZ
    plateau_rate: float = 0.15

    def frequency_ghz(self, utilisation: float) -> float:
        """Operating frequency at ``utilisation`` (fraction in [0, 1])."""
        if not 0.0 <= utilisation <= 1.0:
            raise PhysicalRangeError(
                f"utilisation must be in [0, 1], got {utilisation}")
        if utilisation <= self.knee_utilisation:
            slope = ((self.knee_frequency_ghz - self.idle_frequency_ghz)
                     / self.knee_utilisation)
            return self.idle_frequency_ghz + slope * utilisation
        span = self.plateau_frequency_ghz - self.knee_frequency_ghz
        progress = 1.0 - math.exp(
            -(utilisation - self.knee_utilisation) / self.plateau_rate)
        freq = self.knee_frequency_ghz + span * progress
        return min(freq, CPU_MAX_FREQUENCY_GHZ)


@dataclass(frozen=True)
class OutletDeltaModel:
    """Model of ``dT_out-in``, the coolant temperature rise across the CPU.

    Two modes are provided:

    * ``"empirical"`` (default) reproduces Fig. 9: the rise is ~1 degC idle
      and ~3.5 degC at full load at the prototype's 20 L/H reference flow,
      with only weak flow-rate and inlet-temperature dependence.
    * ``"physical"`` applies the energy balance
      ``dT = eta * P_cpu / (m_dot * cp)`` with a heat-capture efficiency
      ``eta``; use it when strict energy conservation across the loop
      matters more than matching the measured weak flow sensitivity.
    """

    mode: str = "empirical"
    capture_efficiency: float = 0.85
    base_delta_c: float = 1.05
    load_delta_c: float = 2.45
    flow_exponent: float = -0.08
    inlet_sensitivity_per_c: float = 0.004
    reference_flow_l_per_h: float = 20.0
    reference_inlet_c: float = 35.0

    def __post_init__(self) -> None:
        if self.mode not in ("empirical", "physical"):
            raise PhysicalRangeError(
                f"mode must be 'empirical' or 'physical', got {self.mode!r}")
        if not 0.0 < self.capture_efficiency <= 1.0:
            raise PhysicalRangeError(
                f"capture efficiency must be in (0, 1], "
                f"got {self.capture_efficiency}")

    def delta_c(self, utilisation, flow_l_per_h: float,
                inlet_temp_c: float):
        """Outlet-inlet temperature difference, degC.

        ``utilisation`` may be a scalar or an array; the result matches.
        """
        utils = _check_utilisation(utilisation)
        factors = self.factors(flow_l_per_h, inlet_temp_c)
        power = _eq20(utils) if self.mode == "physical" else None
        if utils.ndim == 0:
            utils = float(utils)
        return self.delta_from(utils, power, *factors)

    def factors(self, flow_l_per_h: float, inlet_temp_c):
        """The two per-setting terms :meth:`delta_from` needs.

        Empirical mode: the flow factor and the inlet factor (floored at
        zero).  Physical mode: the flow's heat capacity ``m_dot * cp``
        and an unused ``1.0``.  ``inlet_temp_c`` may be an array (one
        entry per element); the inlet factor then matches it, each entry
        equal to a scalar call.  A scalar inlet gives Python floats.
        """
        _check_flow(flow_l_per_h)
        if self.mode == "physical":
            mass_flow = litres_per_hour_to_kg_per_s(flow_l_per_h)
            return mass_flow * WATER_HEAT_CAPACITY_J_PER_KG_C, 1.0
        flow_factor = (flow_l_per_h
                       / self.reference_flow_l_per_h) ** self.flow_exponent
        inlet_factor = 1.0 + self.inlet_sensitivity_per_c * (
            inlet_temp_c - self.reference_inlet_c)
        if np.ndim(inlet_factor):
            return flow_factor, np.maximum(inlet_factor, 0.0)
        return flow_factor, max(inlet_factor, 0.0)

    def delta_from(self, utilisation, eq20_power_w, first, second):
        """The rise from checked utilisations and :meth:`factors`.

        ``eq20_power_w`` is the unscaled Eq. 20 power (read in physical
        mode only); ``first``/``second`` may be per-element arrays.
        """
        return self._delta(utilisation, eq20_power_w, first, second)

    def _delta(self, utils, eq20, first, second, out=None):
        """The law of :meth:`delta_from`, written into ``out`` if given.

        ``out`` is an array of the broadcast shape; it may be ``eq20``
        (physical mode) but not ``utils`` (empirical mode reads it).
        """
        if self.mode == "physical":
            return _div(_mul(self.capture_efficiency, eq20, out), first, out)
        base = _add(self.base_delta_c, _mul(self.load_delta_c, utils, out),
                    out)
        return _mul(_mul(base, first, out), second, out)


class SettingTerms(NamedTuple):
    """Per-setting scalars of :meth:`CpuThermalModel.response`.

    Each field is a float for one cooling setting, or an array that
    broadcasts against the utilisations (one entry per element) when
    many elements run under different settings.
    """

    inlet_temp_c: float
    #: ``k(f) * T_inlet``, the coolant term of the linear law.
    k_inlet: float
    #: ``R_th(f)``.
    r_th: float
    #: :meth:`OutletDeltaModel.factors`.
    outlet_first: float
    outlet_second: float


@dataclass(frozen=True)
class CpuThermalModel:
    """Steady-state CPU temperature model (Figs. 10-11).

    ``T_CPU = k(f) * T_inlet + R_th(f) * P_cpu(u)``

    where the slope ``k(f) = 1 + k_amp * exp(-f / k_flow)`` reproduces the
    paper's observation that the slope grows as the flow decreases
    (k in [1, 1.3]) and the junction-to-coolant thermal resistance
    ``R_th(f) = r_min + r_amp * exp(-f / r_flow)`` saturates above
    ~250 L/H (Fig. 11).
    """

    k_amp: float = 0.30
    k_flow_l_per_h: float = 100.0
    r_min_k_per_w: float = 0.12
    r_amp_k_per_w: float = 0.196
    r_flow_l_per_h: float = 120.0
    max_operating_temp_c: float = CPU_MAX_OPERATING_TEMP_C
    outlet_model: OutletDeltaModel = OutletDeltaModel()
    governor: FrequencyGovernor = FrequencyGovernor()
    extra_resistance_k_per_w: float = 0.0
    #: Multiplier on the Eq. 20 power curve; 1.0 is the prototype CPU.
    #: Lets heterogeneous-fleet specs reuse the same calibration shape.
    power_scale: float = 1.0

    def slope(self, flow_l_per_h: float) -> float:
        """The coefficient ``k(f)`` of the linear law (paper: k in [1, 1.3])."""
        _check_flow(flow_l_per_h)
        return 1.0 + self.k_amp * math.exp(-flow_l_per_h / self.k_flow_l_per_h)

    def thermal_resistance_k_per_w(self, flow_l_per_h: float) -> float:
        """Junction-to-coolant thermal resistance at ``flow_l_per_h``."""
        _check_flow(flow_l_per_h)
        r_plate = (self.r_min_k_per_w
                   + self.r_amp_k_per_w
                   * math.exp(-flow_l_per_h / self.r_flow_l_per_h))
        return r_plate + self.extra_resistance_k_per_w

    def cpu_power_w(self, utilisation):
        """CPU power at ``utilisation`` — Eq. 20 times ``power_scale``."""
        return self.power_scale * cpu_power_w(utilisation)

    def setting_terms(self, setting: CoolingSetting) -> SettingTerms:
        """The per-setting scalars of :meth:`response` for ``setting``."""
        return self.terms_at(setting.flow_l_per_h, setting.inlet_temp_c)

    def terms_at(self, flow_l_per_h: float, inlet_temp_c) -> SettingTerms:
        """:meth:`setting_terms` for one flow and a scalar or array inlet.

        An array inlet (one entry per element) gives array inlet terms,
        each entry equal to the scalar terms of that inlet.  Unlike a
        :class:`CoolingSetting`, the inlet is not range-checked here.
        """
        return SettingTerms(
            inlet_temp_c, self.slope(flow_l_per_h) * inlet_temp_c,
            self.thermal_resistance_k_per_w(flow_l_per_h),
            *self.outlet_model.factors(flow_l_per_h, inlet_temp_c))

    def response(self, utilisation, terms: SettingTerms):
        """CPU power, CPU temperature and outlet temperature, elementwise.

        Checks the utilisations, then applies the elementwise laws:
        Eq. 20 is evaluated once and feeds both the linear temperature
        law and Eq. 8.  ``terms`` come from :meth:`setting_terms`; their
        fields may be arrays broadcasting against ``utilisation``.
        Every expression keeps the operation order of a scalar call, so
        each element is bit-identical to evaluating it alone.

        The whole-trace kernel checks a plane once and calls the same
        laws (:meth:`_power_outlet`, :meth:`_cpu_temp`) on row blocks.
        Where ``R_th >= 0`` the temperature law is non-decreasing in the
        power, so it applies the law to each circulation's peak power:
        rounding is monotone, so ``k + R_th * max(P)`` is the hottest
        CPU's temperature bit for bit.

        Returns ``(cpu_power_w, cpu_temp_c, outlet_temp_c)``, floats for
        a scalar utilisation and scalar terms.
        """
        utils = _check_utilisation(utilisation)
        if utils.ndim == 0:
            utils = float(utils)
        power, outlet = self._power_outlet(utils, terms)
        return (power, self._cpu_temp(power, terms.k_inlet, terms.r_th),
                outlet)

    def _power_outlet(self, utils, terms: SettingTerms, power_out=None,
                      outlet_out=None):
        """CPU power (Eq. 20 scaled) and outlet temperature (Eq. 8).

        ``utils`` are checked utilisations.  Given arrays of the
        broadcast shape, ``power_out`` and ``outlet_out`` receive the
        results and every operation runs in place.
        """
        eq20 = _eq20(utils, out=power_out)
        delta = self.outlet_model._delta(utils, eq20, terms.outlet_first,
                                         terms.outlet_second, out=outlet_out)
        return (_mul(self.power_scale, eq20, power_out),
                _add(terms.inlet_temp_c, delta, outlet_out))

    @staticmethod
    def _cpu_temp(power, k_inlet, r_th, out=None):
        """The linear law ``k(f) * T_inlet + R_th(f) * P``.

        ``out`` (which may be ``power``) receives the result if given.
        """
        return _add(k_inlet, _mul(r_th, power, out), out)

    def cpu_temp_c(self, utilisation, setting: CoolingSetting):
        """Steady-state CPU temperature for a load and cooling setting."""
        _, cpu_temp, _ = self.response(utilisation,
                                       self.setting_terms(setting))
        return cpu_temp

    def outlet_temp_c(self, utilisation: float,
                      setting: CoolingSetting) -> float:
        """CPU outlet water temperature ``T_warm_out`` (paper Eq. 8)."""
        _, _, outlet = self.response(utilisation,
                                     self.setting_terms(setting))
        return outlet

    def inlet_for_cpu_temp(self, utilisation: float, flow_l_per_h: float,
                           target_cpu_temp_c: float) -> float:
        """Invert the linear law: the inlet temperature giving a CPU temp.

        This is the analytic core of the cooling-setting policy: for a given
        load and flow, the hottest admissible inlet temperature is the one
        that puts the CPU exactly at the safe temperature.
        """
        power = self.cpu_power_w(utilisation)
        rth = self.thermal_resistance_k_per_w(flow_l_per_h)
        return (target_cpu_temp_c - rth * power) / self.slope(flow_l_per_h)

    def is_safe(self, utilisation: float, setting: CoolingSetting,
                safety_margin_c: float = 0.0) -> bool:
        """Whether the CPU stays below its maximum operating temperature."""
        return (self.cpu_temp_c(utilisation, setting)
                <= self.max_operating_temp_c - safety_margin_c)

    def frequency_ghz(self, utilisation: float) -> float:
        """Operating frequency under the configured governor (Fig. 10)."""
        return self.governor.frequency_ghz(utilisation)
