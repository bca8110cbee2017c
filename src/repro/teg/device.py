"""A single thermoelectric generator device.

Two complementary views of the device are provided, and everything
downstream can use either:

* **Empirical** — the paper's measured fits on the SP 1848-27145
  (Sec. IV-B): open-circuit voltage Eq. 3 ``v = 0.0448 dT - 0.0051`` and
  maximum output power Eq. 6
  ``P = 0.0003 dT^2 - 0.0003 dT + 0.0011``.  These are the models the
  paper's evaluation is built on, so they are the default everywhere.
* **Physical** — first-principles Seebeck relations (Eq. 1
  ``Voc = n * alpha * dT``) parameterised by a
  :class:`~repro.teg.materials.ThermoelectricMaterial`, used for the
  material what-if studies of Sec. VI-D where no empirical fit exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..constants import (
    TEG_MAX_AMBIENT_C,
    TEG_MIN_AMBIENT_C,
    TEG_PMAX_CONST_W,
    TEG_PMAX_LIN_W_PER_C,
    TEG_PMAX_QUAD_W_PER_C2,
    TEG_RESISTANCE_OHM,
    TEG_VOC_INTERCEPT_V,
    TEG_VOC_SLOPE_V_PER_C,
)
from ..errors import PhysicalRangeError
from ..units import celsius_to_kelvin
from .materials import BISMUTH_TELLURIDE, ThermoelectricMaterial


def _check_delta(delta_t_c) -> np.ndarray:
    """Validate a scalar or array temperature difference (>= 0)."""
    delta = np.asarray(delta_t_c, dtype=float)
    if np.any(delta < 0):
        raise PhysicalRangeError(
            f"temperature difference must be >= 0, got {delta_t_c}")
    return delta


def _clamp_negative(values: np.ndarray) -> np.ndarray:
    """``np.maximum(0.0, values, out=values)``, bit for bit, only faster.

    Every negative cell, ``-inf`` included, becomes ``+0.0``.  NaN and
    ``-0.0`` are not ``< 0.0``, so they stay, as ``maximum`` returns
    them.  NumPy's ``maximum`` with a scalar operand takes a slow loop:
    19.2 us per 32,768-cell block against 3.7 us for this masked copy
    (NumPy 2.4 on a 2-vCPU AMD EPYC).
    """
    np.copyto(values, 0.0, where=values < 0.0)
    return values


@dataclass(frozen=True)
class EmpiricalTegFit:
    """The paper's regression models for one SP 1848-27145 (Eqs. 3 and 6).

    Both fits have small negative terms near ``dT = 0``; physically the
    device produces nothing without a temperature difference, so outputs
    are floored at zero.
    """

    voc_slope_v_per_c: float = TEG_VOC_SLOPE_V_PER_C
    voc_intercept_v: float = TEG_VOC_INTERCEPT_V
    pmax_quad_w_per_c2: float = TEG_PMAX_QUAD_W_PER_C2
    pmax_lin_w_per_c: float = TEG_PMAX_LIN_W_PER_C
    pmax_const_w: float = TEG_PMAX_CONST_W

    def open_circuit_voltage_v(self, delta_t_c):
        """Open-circuit voltage of one TEG at ``delta_t_c`` (Eq. 3).

        ``delta_t_c`` may be a scalar or an array; the result matches.
        """
        delta = _check_delta(delta_t_c)
        voltage = np.maximum(
            0.0, self.voc_slope_v_per_c * delta + self.voc_intercept_v)
        if voltage.ndim == 0:
            return float(voltage)
        return voltage

    def max_power_w(self, delta_t_c):
        """Maximum output power of one TEG at ``delta_t_c`` (Eq. 6).

        ``delta_t_c`` may be a scalar or an array; the result matches.
        The fit's small positive constant term is zeroed at exactly
        ``dT = 0`` (a TEG cannot generate without a difference).
        """
        power = self._max_power(_check_delta(delta_t_c))
        if power.ndim == 0:
            return float(power)
        return power

    def _max_power(self, delta: np.ndarray, out=None, work=None):
        """The law of :meth:`max_power_w` over checked differences.

        ``delta`` is an array and is left unchanged.  ``out`` receives
        the result and ``work`` the linear term, when given: arrays
        shaped like ``delta``, neither of them ``delta`` itself.
        """
        power = np.square(delta, out=np.empty_like(delta) if out is None
                          else out)
        np.multiply(self.pmax_quad_w_per_c2, power, out=power)
        power += np.multiply(self.pmax_lin_w_per_c, delta, out=work)
        power += self.pmax_const_w
        _clamp_negative(power)
        np.copyto(power, 0.0, where=delta == 0.0)
        return power


@dataclass(frozen=True)
class TegDevice:
    """One thermoelectric generator (default: the paper's SP 1848-27145).

    Attributes
    ----------
    resistance_ohm:
        Internal electrical resistance (measured as ~2 ohm, Sec. IV-B).
    n_couples:
        Number of n-p semiconductor couples.  127 couples of Bi2Te3 at
        ~0.4 mV/K per couple give the 0.0448 V/K module slope measured in
        Eq. 3, tying the physical and empirical views together.
    material:
        Leg material (determines the physical-mode Seebeck slope and the
        conversion-efficiency estimate).
    fit:
        Empirical regression used when ``mode == "empirical"``.
    mode:
        ``"empirical"`` (paper fits; default) or ``"physical"`` (Eq. 1).
    thermal_conductance_w_per_k:
        Through-device thermal conductance.  TEGs are "almost adiabatic"
        (Sec. III-B); ~0.65 W/K matches the calibrated 1.55 K/W the Fig. 3
        reproduction uses.
    """

    resistance_ohm: float = TEG_RESISTANCE_OHM
    n_couples: int = 127
    material: ThermoelectricMaterial = BISMUTH_TELLURIDE
    fit: EmpiricalTegFit = field(default_factory=EmpiricalTegFit)
    mode: str = "empirical"
    thermal_conductance_w_per_k: float = 0.645

    def __post_init__(self) -> None:
        if self.resistance_ohm <= 0:
            raise PhysicalRangeError(
                f"resistance must be > 0, got {self.resistance_ohm}")
        if self.n_couples <= 0:
            raise PhysicalRangeError(
                f"n_couples must be > 0, got {self.n_couples}")
        if self.mode not in ("empirical", "physical"):
            raise PhysicalRangeError(
                f"mode must be 'empirical' or 'physical', got {self.mode!r}")
        if self.thermal_conductance_w_per_k <= 0:
            raise PhysicalRangeError("thermal conductance must be > 0")

    # ------------------------------------------------------------------
    # Electrical characteristics
    # ------------------------------------------------------------------

    def check_ambient(self, temp_c: float) -> None:
        """Raise if ``temp_c`` is outside the device's rated ambient range."""
        if not TEG_MIN_AMBIENT_C <= temp_c <= TEG_MAX_AMBIENT_C:
            raise PhysicalRangeError(
                f"TEG rated for {TEG_MIN_AMBIENT_C}..{TEG_MAX_AMBIENT_C} C, "
                f"got {temp_c} C")

    def seebeck_slope_v_per_c(self) -> float:
        """Volts of open-circuit voltage per degC of difference."""
        if self.mode == "empirical":
            return self.fit.voc_slope_v_per_c
        return self.n_couples * self.material.seebeck_v_per_k

    def open_circuit_voltage_v(self, delta_t_c):
        """Open-circuit voltage at a hot/cold side difference (Eq. 1/Eq. 3).

        ``delta_t_c`` may be a scalar or an array; the result matches.
        """
        delta = _check_delta(delta_t_c)
        if self.mode == "empirical":
            return self.fit.open_circuit_voltage_v(delta_t_c)
        voltage = self.seebeck_slope_v_per_c() * delta
        if voltage.ndim == 0:
            return float(voltage)
        return voltage

    def current_a(self, delta_t_c: float, load_ohm: float) -> float:
        """Current into a resistive load."""
        if load_ohm < 0:
            raise PhysicalRangeError(f"load must be >= 0, got {load_ohm}")
        voc = self.open_circuit_voltage_v(delta_t_c)
        return voc / (self.resistance_ohm + load_ohm)

    def power_at_load_w(self, delta_t_c: float, load_ohm: float) -> float:
        """Power delivered into an arbitrary resistive load.

        Maximum when ``load_ohm == resistance_ohm`` (Sec. III-C).
        """
        current = self.current_a(delta_t_c, load_ohm)
        return current ** 2 * load_ohm

    def max_power_w(self, delta_t_c: float) -> float:
        """Maximum (matched-load) output power at ``delta_t_c``.

        Empirical mode uses the paper's quadratic fit (Eq. 6); physical
        mode evaluates ``Voc^2 / (4 R)`` (Eq. 5 with a matched load).
        """
        power = self._max_power(_check_delta(delta_t_c))
        if np.ndim(power) == 0:
            return float(power)
        return power

    def _max_power(self, delta: np.ndarray, out=None, work=None):
        """The law of :meth:`max_power_w` over checked differences.

        Takes ``out`` and ``work`` as
        :meth:`EmpiricalTegFit._max_power` does.
        """
        if self.mode == "empirical":
            return self.fit._max_power(delta, out, work)
        voc = np.multiply(self.seebeck_slope_v_per_c(), delta, out=out)
        # ``** 2`` squares an array but calls libm ``pow`` on a scalar,
        # and the two differ in the last bit for some values.
        voc = voc ** 2 if out is None else np.square(voc, out=out)
        return np.divide(voc, 4.0 * self.resistance_ohm, out=out)

    # ------------------------------------------------------------------
    # Thermal characteristics
    # ------------------------------------------------------------------

    @property
    def thermal_resistance_k_per_w(self) -> float:
        """Through-device thermal resistance (why Fig. 3 overheats)."""
        return 1.0 / self.thermal_conductance_w_per_k

    def heat_through_w(self, hot_c: float, cold_c: float,
                       load_ohm: float | None = None) -> float:
        """Heat entering the hot side while generating into ``load_ohm``.

        ``Q_h = K dT + alpha I T_h - I^2 R / 2`` (conduction + Peltier
        pumping - half the Joule heat returned to the hot side).  With
        ``load_ohm=None`` a matched load is assumed.
        """
        if hot_c < cold_c:
            raise PhysicalRangeError(
                f"hot side ({hot_c} C) must be >= cold side ({cold_c} C)")
        delta = hot_c - cold_c
        load = self.resistance_ohm if load_ohm is None else load_ohm
        current = self.current_a(delta, load)
        conduction = self.thermal_conductance_w_per_k * delta
        peltier = (self.seebeck_slope_v_per_c() * current
                   * celsius_to_kelvin(hot_c))
        joule_back = 0.5 * current ** 2 * self.resistance_ohm
        return conduction + peltier - joule_back

    def conversion_efficiency(self, hot_c: float, cold_c: float) -> float:
        """Electrical output / heat input at matched load.

        ~5 % for Bi2Te3 at datacenter temperatures (Sec. VI-D).
        """
        if hot_c <= cold_c:
            return 0.0
        heat = self.heat_through_w(hot_c, cold_c)
        if heat <= 0:
            return 0.0
        power = self.max_power_w(hot_c - cold_c)
        return min(power / heat, self.material.conversion_efficiency(
            hot_c, cold_c) + 0.05)

    def with_material(self, material: ThermoelectricMaterial) -> "TegDevice":
        """A physical-mode copy of this device using another material.

        Keeps geometry (couples, resistance) and switches the Seebeck slope
        to the new material — the Sec. VI-D what-if device.
        """
        # Thermal conductance scales with the material's kappa relative to
        # the baseline material (same leg geometry).
        scale = (material.thermal_conductivity_w_per_m_k
                 / self.material.thermal_conductivity_w_per_m_k)
        return TegDevice(
            resistance_ohm=self.resistance_ohm,
            n_couples=self.n_couples,
            material=material,
            fit=self.fit,
            mode="physical",
            thermal_conductance_w_per_k=self.thermal_conductance_w_per_k
            * scale,
        )


def matched_load_power_w(voc_v: float, resistance_ohm: float) -> float:
    """Maximum power of a source ``voc_v`` behind ``resistance_ohm`` (Eq. 5).

    ``P = (Voc/2)^2 / R``; the load sees half the open-circuit voltage when
    matched to the internal resistance.
    """
    if resistance_ohm <= 0:
        raise PhysicalRangeError(
            f"resistance must be > 0, got {resistance_ohm}")
    return (voc_v / 2.0) ** 2 / resistance_ohm


#: The exact device evaluated in the paper (empirical mode, 2-ohm SP 1848).
PAPER_TEG = TegDevice()


def _self_check() -> None:
    """Cross-check the physical and empirical views agree to ~15 %."""
    physical = TegDevice(mode="physical")
    for delta in (10.0, 20.0, 25.0):
        emp = PAPER_TEG.open_circuit_voltage_v(delta)
        phy = physical.open_circuit_voltage_v(delta)
        if not math.isclose(emp, phy, rel_tol=0.2):
            raise AssertionError(
                f"empirical ({emp:.3f} V) and physical ({phy:.3f} V) TEG "
                f"models diverged at dT={delta}")


_self_check()
