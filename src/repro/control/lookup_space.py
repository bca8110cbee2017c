"""The 3-D measurement space of Fig. 12 and the Fig. 13 region search.

The paper's policy does not invert a closed-form model: it interpolates a
cloud of *measurements*.  Each measured point has coordinates
``(u, f, T_warm_in)`` and carries the observed ``T_CPU`` (and, through
Eq. 8, ``T_warm_out``).  Because "T_CPU changes continuously and linearly
with its variables", the discrete cloud is fitted into a continuous lookup
space usable at any operating point.

:class:`LookupSpace` simulates that workflow: it is *built from samples*
(by default sampled from the calibrated :class:`CpuThermalModel`, playing
the role of the testbed), then interpolates trilinearly, and can extract
the near-``T_safe`` slice the paper calls the space ``X`` intersected with
the utilisation plane ``U`` (Fig. 13).  Such a plane lies on the grid's
``(flow, inlet)`` nodes, so it is a lerp along utilisation between the
two measured planes around ``U``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from ..constants import CPU_SAFE_TEMP_C
from ..errors import ConfigurationError, PhysicalRangeError
from ..thermal.cpu_model import CoolingSetting, CpuThermalModel, SettingTerms


def _check_on_grid(axis_name: str, grid: np.ndarray, values) -> None:
    """Raise unless every value lies within the grid's bounds.

    The utilisation grid lies within ``[0, 1]`` (the model rejects any
    other utilisation while measuring it), so this check also enforces
    the physical range.
    """
    values = np.atleast_1d(values)
    outside = ~((values >= grid[0]) & (values <= grid[-1]))
    if outside.any():
        raise PhysicalRangeError(
            f"{axis_name} {values[outside][0]} is outside the lookup "
            f"grid [{grid[0]}, {grid[-1]}]")


@dataclass(frozen=True)
class SpacePoint:
    """One point of the lookup space with its predicted temperatures."""

    utilisation: float
    flow_l_per_h: float
    inlet_temp_c: float
    cpu_temp_c: float
    outlet_temp_c: float

    @property
    def setting(self) -> CoolingSetting:
        """The cooling setting of this point."""
        return CoolingSetting(flow_l_per_h=self.flow_l_per_h,
                              inlet_temp_c=self.inlet_temp_c)


class LookupSpace:
    """Interpolated ``(u, f, T_in) -> (T_CPU, T_out)`` measurement space.

    Parameters
    ----------
    model:
        The CPU thermal model standing in for the testbed measurements.
    utilisation_grid / flow_grid / inlet_grid:
        Grid axes of the simulated measurement campaign.  The defaults
        mirror the prototype's sweeps: utilisation 0-100 % in 10 % steps,
        flow 20-300 L/H, inlet 20-60 degC.
    """

    def __init__(self, model: CpuThermalModel | None = None,
                 utilisation_grid: np.ndarray | None = None,
                 flow_grid: np.ndarray | None = None,
                 inlet_grid: np.ndarray | None = None) -> None:
        self.model = model or CpuThermalModel()
        self.utilisation_grid = np.asarray(
            utilisation_grid if utilisation_grid is not None
            else np.linspace(0.0, 1.0, 11))
        self.flow_grid = np.asarray(
            flow_grid if flow_grid is not None
            else np.array([20.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0]))
        self.inlet_grid = np.asarray(
            inlet_grid if inlet_grid is not None
            else np.linspace(20.0, 60.0, 21))
        for axis_name, axis in (("utilisation", self.utilisation_grid),
                                ("flow", self.flow_grid),
                                ("inlet", self.inlet_grid)):
            if axis.ndim != 1 or len(axis) < 2:
                raise ConfigurationError(
                    f"{axis_name} grid must be 1-D with >= 2 points")
            if not np.all(np.isfinite(axis)):
                raise ConfigurationError(
                    f"{axis_name} grid must be finite, got {axis}")
            if np.any(np.diff(axis) <= 0):
                raise ConfigurationError(
                    f"{axis_name} grid must be strictly increasing")
        self._cpu_temp, self._outlet_temp = self._measure()
        self._cpu_interp = RegularGridInterpolator(
            (self.utilisation_grid, self.flow_grid, self.inlet_grid),
            self._cpu_temp, bounds_error=True)
        self._outlet_interp = RegularGridInterpolator(
            (self.utilisation_grid, self.flow_grid, self.inlet_grid),
            self._outlet_temp, bounds_error=True)

    def _measure(self) -> tuple[np.ndarray, np.ndarray]:
        """Run the simulated measurement campaign over the grid.

        One :meth:`CpuThermalModel.response` call covers the whole
        ``(u, flow, inlet)`` cube: the utilisation axis as a ``(U, 1,
        1)`` column against the nodes' setting terms stacked flow by
        flow.  Each flow's terms are one :meth:`CpuThermalModel.terms_at`
        call over the inlet grid, whose entries equal the scalar terms
        of each node, and each element keeps the operation order of a
        scalar call, so the cube equals the per-point campaign bit for
        bit.

        Every node is a :class:`CoolingSetting`, checked in the
        campaign's flow-major order: the first row meets every inlet
        and each later row's first node its flow, so a bad grid raises
        what the first bad node would.
        """
        flows = [float(flow) for flow in self.flow_grid]
        inlets = self.inlet_grid.astype(float)
        for inlet in inlets:
            CoolingSetting(flow_l_per_h=flows[0], inlet_temp_c=float(inlet))
        for flow in flows[1:]:
            CoolingSetting(flow_l_per_h=flow, inlet_temp_c=float(inlets[0]))
        per_flow = [self.model.terms_at(flow, inlets) for flow in flows]
        # A field is one scalar or one inlet row per flow: (1, F, 1) or
        # (1, F, I), either of which broadcasts to the cube.
        terms = SettingTerms(*(np.reshape(field, (1, len(flows), -1))
                               for field in zip(*per_flow)))
        _, cpu, outlet = self.model.response(
            self.utilisation_grid[:, None, None], terms)
        return cpu, outlet

    # ------------------------------------------------------------------
    # Interpolation
    # ------------------------------------------------------------------

    def _point(self, utilisation: float, flow_l_per_h: float,
               inlet_temp_c: float) -> np.ndarray:
        _check_on_grid("utilisation", self.utilisation_grid, utilisation)
        _check_on_grid("flow", self.flow_grid, flow_l_per_h)
        _check_on_grid("inlet", self.inlet_grid, inlet_temp_c)
        return np.array([[utilisation, flow_l_per_h, inlet_temp_c]])

    def cpu_temp_c(self, utilisation: float, flow_l_per_h: float,
                   inlet_temp_c: float) -> float:
        """Interpolated CPU temperature at an arbitrary operating point.

        Raises :class:`PhysicalRangeError` for a point off the grid.
        """
        return float(self._cpu_interp(
            self._point(utilisation, flow_l_per_h, inlet_temp_c))[0])

    def outlet_temp_c(self, utilisation: float, flow_l_per_h: float,
                      inlet_temp_c: float) -> float:
        """Interpolated CPU-outlet water temperature (``T_warm_out``).

        Raises :class:`PhysicalRangeError` for a point off the grid.
        """
        return float(self._outlet_interp(
            self._point(utilisation, flow_l_per_h, inlet_temp_c))[0])

    # ------------------------------------------------------------------
    # Fig. 13: the intersection A = U ∩ X
    # ------------------------------------------------------------------

    def plane_temperatures(self, utilisation: float
                           ) -> tuple[np.ndarray, np.ndarray]:
        """``(T_CPU, T_out)`` over the whole ``u`` plane.

        :meth:`plane_temperatures_batch` for one utilisation.  Both
        returned arrays have shape ``(len(flow_grid), len(inlet_grid))``.
        """
        cpu, outlet = self.plane_temperatures_batch([utilisation])
        return cpu[0], outlet[0]

    def plane_temperatures_batch(self, utilisations
                                 ) -> tuple[np.ndarray, np.ndarray]:
        """``(T_CPU, T_out)`` planes for many utilisations.

        A plane query sits on the grid's ``(flow, inlet)`` nodes, where
        the trilinear interpolant's flow and inlet weights are exactly 0
        and 1.  What is left is a lerp along utilisation between the two
        measured planes that bracket ``u``, ``cube[i] * (1 - t) +
        cube[i + 1] * t``, with the interpolator's arithmetic for ``t``.
        The six zero-weight corners add exact zeros, so element ``[n,
        j, k]`` equals ``cpu_temp_c(u[n], flow_j, inlet_k)`` (and
        likewise the outlet) bit for bit.  At a utilisation node ``t``
        is 0 or 1, so either bracket gives the measured plane.  Both
        returned arrays have shape ``(len(utilisations),
        len(flow_grid), len(inlet_grid))``.
        """
        utils = np.asarray(utilisations, dtype=float)
        if utils.ndim != 1:
            raise ConfigurationError(
                f"utilisations must be 1-D, got shape {utils.shape}")
        grid = self.utilisation_grid
        _check_on_grid("utilisation", grid, utils)
        i = np.clip(np.searchsorted(grid, utils) - 1, 0, len(grid) - 2)
        t = ((utils - grid[i]) / (grid[i + 1] - grid[i]))[:, None, None]
        return tuple(cube[i] * (1 - t) + cube[i + 1] * t
                     for cube in (self._cpu_temp, self._outlet_temp))

    def safe_region(self, utilisation: float,
                    safe_temp_c: float = CPU_SAFE_TEMP_C,
                    tolerance_c: float = 1.0) -> list[SpacePoint]:
        """Grid points on the utilisation plane with T_CPU near T_safe.

        Implements Step 1-2 of Sec. V-B1: draw the plane ``u = U`` and keep
        the points whose CPU temperature lies within
        ``[T_safe - tol, T_safe + tol]``.

        Returns
        -------
        list of SpacePoint
            The intersection area ``A`` (may be empty when no setting can
            hold the CPU near ``T_safe`` — e.g. at very high load with a
            bounded inlet grid).  Points are ordered flow-major then
            inlet, exactly as the measurement sweeps run.
        """
        if tolerance_c <= 0:
            raise PhysicalRangeError(
                f"tolerance must be > 0, got {tolerance_c}")
        cpu_plane, outlet_plane = self.plane_temperatures(utilisation)
        region = []
        for j, flow in enumerate(self.flow_grid):
            for k, inlet in enumerate(self.inlet_grid):
                cpu_temp = float(cpu_plane[j, k])
                if abs(cpu_temp - safe_temp_c) <= tolerance_c:
                    region.append(SpacePoint(
                        utilisation=utilisation,
                        flow_l_per_h=float(flow),
                        inlet_temp_c=float(inlet),
                        cpu_temp_c=cpu_temp,
                        outlet_temp_c=float(outlet_plane[j, k]),
                    ))
        return region

    def iter_points(self) -> Iterator[SpacePoint]:
        """Iterate over every simulated measurement point (Fig. 12)."""
        for i, util in enumerate(self.utilisation_grid):
            for j, flow in enumerate(self.flow_grid):
                for k, inlet in enumerate(self.inlet_grid):
                    yield SpacePoint(
                        utilisation=float(util),
                        flow_l_per_h=float(flow),
                        inlet_temp_c=float(inlet),
                        cpu_temp_c=float(self._cpu_temp[i, j, k]),
                        outlet_temp_c=float(self._outlet_temp[i, j, k]),
                    )

    @property
    def n_points(self) -> int:
        """Total number of points in the measurement grid."""
        return (len(self.utilisation_grid) * len(self.flow_grid)
                * len(self.inlet_grid))
