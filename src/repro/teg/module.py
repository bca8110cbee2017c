"""Series-connected TEG strings and the per-server TEG module.

The prototype (Sec. IV-A, Fig. 5/6) mounts 12 TEGs per server: two groups
of six, each group sandwiched between a warm-loop cold plate (fed by the
CPU outlet water) and a cold-loop cold plate (fed by ~20 degC natural
water).  Electrically the TEGs are connected in series to raise the output
voltage (Sec. III-C); the maximum output power occurs when the load
resistance equals the whole string's internal resistance.

This module reproduces:

* Fig. 7 — open-circuit voltage of 6 TEGs vs. coolant temperature
  difference at different flow rates (flow enters through a convective
  coupling factor that slightly degrades the device-level temperature
  difference at low flow);
* Fig. 8a/8b — voltage and maximum power scaling with the number of TEGs
  in series (Eqs. 4 and 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import TEGS_PER_SERVER
from ..errors import PhysicalRangeError
from .device import (
    PAPER_TEG,
    TegDevice,
    _check_delta,
    _clamp_negative,
    matched_load_power_w,
)

#: Flow rate at which the paper's Eq. 3/Eq. 6 fits were measured (Sec. IV-B).
REFERENCE_FLOW_L_PER_H = 200.0

#: Half-saturation constant of the convective coupling model, L/H.
#: Chosen so the Fig. 7 spread between 50 L/H and 300 L/H is a few percent
#: ("this improvement may be too little to be worth making").
_COUPLING_HALF_FLOW_L_PER_H = 5.0


def flow_coupling(flow_l_per_h: float,
                  reference_flow_l_per_h: float = REFERENCE_FLOW_L_PER_H) -> float:
    """Fraction of the fluid temperature difference the TEG faces see.

    At low flow the plate boundary layers eat into the available
    temperature difference; the factor is normalised to 1.0 at the
    reference flow where the empirical fits were taken, and exceeds 1
    slightly above it.
    """
    if flow_l_per_h <= 0:
        raise PhysicalRangeError(f"flow rate must be > 0, got {flow_l_per_h}")
    def saturation(f: float) -> float:
        return f / (f + _COUPLING_HALF_FLOW_L_PER_H)
    return saturation(flow_l_per_h) / saturation(reference_flow_l_per_h)


def _check_coupling(coupling) -> None:
    """Reject a negative coupling factor (``None`` and NaN pass)."""
    if coupling is not None and np.any(np.asarray(coupling) < 0.0):
        raise PhysicalRangeError(
            f"coupling factor must be >= 0, got {coupling}")


def _coupling(flow_l_per_h: float | None) -> float | None:
    """:func:`flow_coupling`, or ``None`` (no coupling) without a flow."""
    return None if flow_l_per_h is None else flow_coupling(flow_l_per_h)


@dataclass(frozen=True)
class OperatingPoint:
    """Electrical state of a TEG string driving a load."""

    voltage_v: float
    current_a: float
    power_w: float
    load_ohm: float
    delta_t_c: float

    @property
    def is_open_circuit(self) -> bool:
        """True when no current flows (infinite load)."""
        return self.current_a == 0.0


@dataclass(frozen=True)
class TegString:
    """``n`` identical TEG devices electrically in series.

    Open-circuit voltage and matched-load power both scale linearly with
    ``n`` (paper Eqs. 4 and 7); internal resistance is ``n * R_TEG``.
    """

    device: TegDevice = PAPER_TEG
    count: int = 6

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise PhysicalRangeError(f"count must be > 0, got {self.count}")

    @property
    def resistance_ohm(self) -> float:
        """Total series resistance of the string."""
        return self.count * self.device.resistance_ohm

    def open_circuit_voltage_v(self, delta_t_c: float,
                               flow_l_per_h: float | None = None) -> float:
        """String open-circuit voltage (Eq. 4: ``Voc_n = n * v``).

        Parameters
        ----------
        delta_t_c:
            Temperature difference between the warm and the cold coolant.
        flow_l_per_h:
            Optional loop flow rate; when given, the convective coupling
            factor of Fig. 7 is applied.
        """
        effective = self._effective_delta(delta_t_c, _coupling(flow_l_per_h))
        return self.count * self.device.open_circuit_voltage_v(effective)

    def max_power_w(self, delta_t_c: float,
                    flow_l_per_h: float | None = None) -> float:
        """Matched-load power of the string (Eq. 7: ``P_n = n * P_1``)."""
        return self.coupled_max_power_w(delta_t_c, _coupling(flow_l_per_h))

    def coupled_max_power_w(self, delta_t_c, coupling):
        """:meth:`max_power_w` given the flow's coupling factor directly.

        ``coupling`` is a :func:`flow_coupling` value, an array of them
        aligned with ``delta_t_c`` (one flow per element), or ``None``.
        """
        delta = _check_delta(delta_t_c).copy()
        _check_coupling(coupling)
        power = self._coupled_max_power(delta, coupling)
        if np.ndim(power) == 0:
            return float(power)
        return power

    def _coupled_max_power(self, delta: np.ndarray, coupling, out=None,
                           work=None):
        """The law of :meth:`coupled_max_power_w`, unchecked.

        ``delta`` (an array of differences ``>= 0`` or NaN) is scaled in
        place by ``coupling`` (``>= 0`` or ``None``), so each cell stays
        ``>= 0`` or NaN; ``out`` and ``work`` are as for
        :meth:`TegDevice._max_power`.
        """
        if coupling is not None:
            np.multiply(delta, coupling, out=delta)
        power = self.device._max_power(delta, out, work)
        power *= self.count
        return power

    def operating_point(self, delta_t_c: float, load_ohm: float,
                        flow_l_per_h: float | None = None) -> OperatingPoint:
        """Electrical operating point into an arbitrary resistive load."""
        if load_ohm < 0:
            raise PhysicalRangeError(f"load must be >= 0, got {load_ohm}")
        effective = self._effective_delta(delta_t_c, _coupling(flow_l_per_h))
        voc = self.count * self.device.open_circuit_voltage_v(effective)
        current = voc / (self.resistance_ohm + load_ohm) if load_ohm >= 0 else 0.0
        voltage = current * load_ohm
        return OperatingPoint(
            voltage_v=voltage,
            current_a=current,
            power_w=current ** 2 * load_ohm,
            load_ohm=load_ohm,
            delta_t_c=effective,
        )

    def matched_operating_point(self, delta_t_c: float,
                                flow_l_per_h: float | None = None,
                                ) -> OperatingPoint:
        """Operating point at the maximum-power (matched) load."""
        return self.operating_point(delta_t_c, self.resistance_ohm,
                                    flow_l_per_h)

    def _effective_delta(self, delta_t_c, coupling):
        delta = np.asarray(delta_t_c, dtype=float)
        if np.any(delta < 0):
            raise PhysicalRangeError(
                f"temperature difference must be >= 0, got {delta_t_c}")
        if coupling is not None:
            delta = delta * coupling
        if delta.ndim == 0:
            return float(delta)
        return delta


@dataclass(frozen=True)
class TegModule:
    """The per-server thermoelectric generation module (Fig. 5).

    ``group_count`` strings of ``group_size`` TEGs each; electrically the
    strings are themselves chained in series (the paper's
    "collecting-in-series method", Sec. III-C), so a default module behaves
    as 12 TEGs in series.
    """

    device: TegDevice = PAPER_TEG
    group_size: int = 6
    group_count: int = 2

    def __post_init__(self) -> None:
        if self.group_size <= 0 or self.group_count <= 0:
            raise PhysicalRangeError(
                f"group size/count must be > 0, got "
                f"{self.group_size}/{self.group_count}")

    @property
    def teg_count(self) -> int:
        """Total TEGs in the module (12 in the prototype)."""
        return self.group_size * self.group_count

    @property
    def as_string(self) -> TegString:
        """The whole module viewed as one series string."""
        return TegString(device=self.device, count=self.teg_count)

    def open_circuit_voltage_v(self, delta_t_c: float,
                               flow_l_per_h: float | None = None) -> float:
        """Module open-circuit voltage at a coolant temperature difference."""
        return self.as_string.open_circuit_voltage_v(delta_t_c, flow_l_per_h)

    def max_power_w(self, delta_t_c: float,
                    flow_l_per_h: float | None = None) -> float:
        """Module matched-load output power (paper Eq. 7 with n=12)."""
        return self.as_string.max_power_w(delta_t_c, flow_l_per_h)

    def generation_w(self, warm_out_temp_c, cold_temp_c: float,
                     flow_l_per_h: float | None = None):
        """Power generated given the warm outlet and cold source temperatures.

        ``delta_T = T_warm_out - T_cold`` (paper Eq. 2); never negative —
        the module simply produces nothing if the warm loop is colder than
        the cold source.  ``warm_out_temp_c`` may be a scalar or an array.
        """
        return self.coupled_generation_w(warm_out_temp_c, cold_temp_c,
                                         _coupling(flow_l_per_h))

    def coupled_generation_w(self, warm_out_temp_c, cold_temp_c: float,
                             coupling):
        """:meth:`generation_w` given the flow's coupling factor directly.

        The elementwise entry point: ``coupling`` may be an array aligned
        with ``warm_out_temp_c`` (see :meth:`TegString.coupled_max_power_w`).
        """
        _check_coupling(coupling)
        power = self._coupled_generation(
            np.array(warm_out_temp_c, dtype=float), cold_temp_c, coupling)
        if np.ndim(power) == 0:
            return float(power)
        return power

    def _coupled_generation(self, warm_out: np.ndarray, cold_temp_c: float,
                            coupling, out=None, work=None):
        """The law of :meth:`coupled_generation_w`, unchecked.

        ``warm_out`` (an array) is overwritten: ``max(0, warm - cold)``
        leaves every cell ``>= 0`` or NaN, so with a ``coupling >= 0``
        (checked once by the caller) no cell needs a range check.
        ``out`` and ``work`` are as for :meth:`TegDevice._max_power`.
        """
        delta = np.subtract(warm_out, cold_temp_c, out=warm_out)
        _clamp_negative(delta)
        return self.as_string._coupled_max_power(delta, coupling, out, work)

    def heat_harvested_w(self, warm_out_temp_c: float,
                         cold_temp_c: float) -> float:
        """Heat drawn from the warm loop while generating (matched load)."""
        if warm_out_temp_c <= cold_temp_c:
            return 0.0
        return self.teg_count * self.device.heat_through_w(
            warm_out_temp_c, cold_temp_c)


def default_server_module(device: TegDevice = PAPER_TEG) -> TegModule:
    """The 12-TEG module H2P attaches to each server (Sec. IV-A)."""
    assert TEGS_PER_SERVER == 12
    return TegModule(device=device, group_size=6, group_count=2)
