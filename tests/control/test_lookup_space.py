"""Lookup-space (Fig. 12/13) tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.lookup_space import LookupSpace
from repro.core.config import SimulationConfig
from repro.errors import ConfigurationError, PhysicalRangeError
from repro.thermal.cpu_model import (
    CoolingSetting,
    CpuThermalModel,
    OutletDeltaModel,
    SettingTerms,
)

#: The spaces the plane-query and campaign properties run over.
SPACE_BUILDERS = {
    "default": LookupSpace,
    "config-4x36": lambda: SimulationConfig().build_policy(
        CpuThermalModel()).space,
    "physical-outlet": lambda: LookupSpace(model=CpuThermalModel(
        outlet_model=OutletDeltaModel(mode="physical"))),
    "scaled-power": lambda: LookupSpace(model=CpuThermalModel(
        power_scale=1.3, extra_resistance_k_per_w=0.5)),
    "non-uniform-u": lambda: LookupSpace(utilisation_grid=np.array(
        [0.0, 0.03, 0.2, 0.37, 0.5, 0.81, 0.97, 1.0])),
}


@pytest.fixture(scope="module", params=sorted(SPACE_BUILDERS))
def space(request):
    return SPACE_BUILDERS[request.param]()


def scalar_campaign(space):
    """The per-point measurement loop, one scalar model call per point."""
    shape = (len(space.utilisation_grid), len(space.flow_grid),
             len(space.inlet_grid))
    cpu = np.empty(shape)
    outlet = np.empty(shape)
    for j, flow in enumerate(space.flow_grid):
        for k, inlet in enumerate(space.inlet_grid):
            terms = space.model.setting_terms(CoolingSetting(
                flow_l_per_h=float(flow), inlet_temp_c=float(inlet)))
            for i, util in enumerate(space.utilisation_grid):
                _, cpu[i, j, k], outlet[i, j, k] = space.model.response(
                    float(util), terms)
    return cpu, outlet


def node_utilisations(space):
    """0, 1, every utilisation node and its two float neighbours."""
    grid = space.utilisation_grid
    near = np.concatenate([[0.0, 1.0], grid, np.nextafter(grid, -1.0),
                           np.nextafter(grid, 2.0)])
    return sorted(set(near[(near >= 0.0) & (near <= 1.0)].tolist()))


class TestConstruction:
    def test_default_grid_size(self, lookup_space):
        assert lookup_space.n_points == 11 * 7 * 21

    def test_bad_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            LookupSpace(utilisation_grid=np.array([0.5]))
        with pytest.raises(ConfigurationError):
            LookupSpace(flow_grid=np.array([100.0, 50.0]))

    @pytest.mark.parametrize("axis, grid", [
        ("flow_grid", [20.0, np.inf]),
        ("flow_grid", [20.0, np.nan]),
        ("utilisation_grid", [0.0, np.nan, 1.0]),
        ("inlet_grid", [-np.inf, 40.0]),
    ])
    def test_non_finite_grids_rejected(self, axis, grid):
        with pytest.raises(ConfigurationError, match="finite"):
            LookupSpace(**{axis: np.array(grid)})

    def test_built_with_one_model_call(self, monkeypatch):
        calls = []
        response = CpuThermalModel.response

        def counting(model, utilisation, terms):
            calls.append(np.shape(utilisation))
            return response(model, utilisation, terms)

        monkeypatch.setattr(CpuThermalModel, "response", counting)
        LookupSpace()
        assert calls == [(11, 1, 1)]

    def test_campaign_equals_scalar_loop(self, space):
        cpu, outlet = space._measure()
        ref_cpu, ref_outlet = scalar_campaign(space)
        assert cpu.tobytes() == ref_cpu.tobytes()
        assert outlet.tobytes() == ref_outlet.tobytes()

    def test_iter_points_count(self):
        space = LookupSpace(
            utilisation_grid=np.linspace(0, 1, 3),
            flow_grid=np.array([20.0, 100.0]),
            inlet_grid=np.linspace(30.0, 50.0, 4))
        assert len(list(space.iter_points())) == 3 * 2 * 4


class TestInterpolation:
    def test_exact_on_grid(self, lookup_space, cpu_model):
        # At grid nodes the interpolation equals the model exactly.
        setting = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=40.0)
        assert lookup_space.cpu_temp_c(0.5, 100.0, 40.0) == pytest.approx(
            cpu_model.cpu_temp_c(0.5, setting))

    def test_close_off_grid(self, lookup_space, cpu_model):
        # Between nodes, trilinear interpolation stays close to the model
        # (the paper's premise: T_CPU is continuous and near-linear).
        setting = CoolingSetting(flow_l_per_h=85.0, inlet_temp_c=43.7)
        assert lookup_space.cpu_temp_c(0.37, 85.0, 43.7) == pytest.approx(
            cpu_model.cpu_temp_c(0.37, setting), abs=1.0)

    def test_outlet_interpolation(self, lookup_space, cpu_model):
        setting = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=40.0)
        assert lookup_space.outlet_temp_c(0.5, 100.0, 40.0) == \
            pytest.approx(cpu_model.outlet_temp_c(0.5, setting))

    def test_out_of_bounds_rejected(self, lookup_space):
        with pytest.raises(ValueError):
            lookup_space.cpu_temp_c(0.5, 100.0, 90.0)

    @pytest.mark.parametrize("flow, inlet, message", [
        (100.0, 90.0, r"inlet 90.0 is outside the lookup grid "
                      r"\[20.0, 60.0\]"),
        (10.0, 40.0, r"flow 10.0 is outside the lookup grid "
                     r"\[20.0, 300.0\]"),
        (np.nan, 40.0, r"flow nan is outside"),
    ])
    def test_off_grid_raises_typed_error(self, lookup_space, flow, inlet,
                                         message):
        with pytest.raises(PhysicalRangeError, match=message):
            lookup_space.cpu_temp_c(0.5, flow, inlet)
        with pytest.raises(PhysicalRangeError, match=message):
            lookup_space.outlet_temp_c(0.5, flow, inlet)

    def test_utilisation_off_a_partial_grid_rejected(self):
        space = LookupSpace(utilisation_grid=np.array([0.2, 0.6]))
        for query in (lambda: space.cpu_temp_c(0.1, 100.0, 40.0),
                      lambda: space.plane_temperatures(0.7),
                      lambda: space.plane_temperatures_batch([0.3, 0.1])):
            with pytest.raises(PhysicalRangeError,
                               match=r"utilisation .* \[0.2, 0.6\]"):
                query()

    def test_invalid_utilisation_rejected(self, lookup_space):
        with pytest.raises(PhysicalRangeError):
            lookup_space.cpu_temp_c(1.5, 100.0, 40.0)


class TestSafeRegion:
    def test_region_points_near_safe_temp(self, lookup_space):
        region = lookup_space.safe_region(0.3, safe_temp_c=62.0,
                                          tolerance_c=1.0)
        assert region
        for point in region:
            assert abs(point.cpu_temp_c - 62.0) <= 1.0
            assert point.utilisation == 0.3

    def test_region_respects_tolerance(self, lookup_space):
        tight = lookup_space.safe_region(0.3, 62.0, tolerance_c=0.5)
        loose = lookup_space.safe_region(0.3, 62.0, tolerance_c=2.0)
        assert len(tight) <= len(loose)

    def test_bad_tolerance_rejected(self, lookup_space):
        with pytest.raises(PhysicalRangeError):
            lookup_space.safe_region(0.3, 62.0, tolerance_c=0.0)

    def test_empty_region_for_unreachable_band(self, lookup_space):
        # No admissible setting pushes an idle CPU to 85 C (the hottest
        # grid point tops out near 77 C).
        assert lookup_space.safe_region(0.0, 85.0, 0.5) == []

    def test_fig13_higher_inlet_for_lower_utilisation(self, lookup_space):
        # Fig. 13: the A_avg region (low u) sits at higher T_warm_in than
        # the A_max region (high u).
        low_u = lookup_space.safe_region(0.2, 62.0, 1.0)
        high_u = lookup_space.safe_region(0.7, 62.0, 1.0)
        assert low_u and high_u
        mean_inlet_low = np.mean([p.inlet_temp_c for p in low_u])
        mean_inlet_high = np.mean([p.inlet_temp_c for p in high_u])
        assert mean_inlet_low > mean_inlet_high

    def test_point_setting_accessor(self, lookup_space):
        region = lookup_space.safe_region(0.3, 62.0, 1.0)
        point = region[0]
        setting = point.setting
        assert setting.flow_l_per_h == point.flow_l_per_h
        assert setting.inlet_temp_c == point.inlet_temp_c


class TestCustomModel:
    def test_space_reflects_model(self):
        # A model with a TEG in the CPU heat path produces a hotter space.
        hot_model = CpuThermalModel(extra_resistance_k_per_w=1.0)
        space = LookupSpace(model=hot_model,
                            utilisation_grid=np.linspace(0, 1, 3),
                            flow_grid=np.array([20.0, 100.0]),
                            inlet_grid=np.linspace(30.0, 50.0, 5))
        base = LookupSpace(utilisation_grid=np.linspace(0, 1, 3),
                           flow_grid=np.array([20.0, 100.0]),
                           inlet_grid=np.linspace(30.0, 50.0, 5))
        assert space.cpu_temp_c(1.0, 20.0, 40.0) > base.cpu_temp_c(
            1.0, 20.0, 40.0) + 50.0


class TestPlaneBatch:
    """plane_temperatures_batch row i == plane_temperatures(u_i), bitwise."""

    def test_lerp_equals_interpolator(self, space):
        # Every plane element equals the scipy interpolator's value at
        # that (u, flow, inlet) node, bit for bit.
        utilisations = st.one_of(
            st.sampled_from(node_utilisations(space)),
            st.floats(min_value=0.0, max_value=1.0))

        @settings(max_examples=12, deadline=None)
        @given(utils=st.lists(utilisations, min_size=1, max_size=3))
        def check(utils):
            cpu, outlet = space.plane_temperatures_batch(utils)
            for n, u in enumerate(utils):
                for j, flow in enumerate(space.flow_grid):
                    for k, inlet in enumerate(space.inlet_grid):
                        assert cpu[n, j, k] == space.cpu_temp_c(
                            u, flow, inlet)
                        assert outlet[n, j, k] == space.outlet_temp_c(
                            u, flow, inlet)

        check()

    def test_every_node_neighbour_equals_interpolator(self, space):
        # The same equality at every utilisation the property samples
        # from, against one batched interpolator call per utilisation.
        utils = node_utilisations(space)
        cpu, outlet = space.plane_temperatures_batch(utils)
        flows, inlets = np.meshgrid(space.flow_grid, space.inlet_grid,
                                    indexing="ij")
        for n, u in enumerate(utils):
            points = np.column_stack(
                [np.full(flows.size, u), flows.ravel(), inlets.ravel()])
            assert (cpu[n].tobytes()
                    == space._cpu_interp(points).tobytes())
            assert (outlet[n].tobytes()
                    == space._outlet_interp(points).tobytes())

    def test_nodes_return_measured_planes(self, space):
        grid = space.utilisation_grid
        cpu, outlet = space.plane_temperatures_batch(grid)
        assert cpu.tobytes() == space._cpu_temp.tobytes()
        assert outlet.tobytes() == space._outlet_temp.tobytes()

    def test_rows_match_scalar_planes(self, lookup_space):
        @settings(max_examples=20, deadline=None)
        @given(utils=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1, max_size=6))
        def check(utils):
            cpu_b, out_b = lookup_space.plane_temperatures_batch(utils)
            assert cpu_b.shape == (len(utils), len(lookup_space.flow_grid),
                                   len(lookup_space.inlet_grid))
            for i, u in enumerate(utils):
                cpu, out = lookup_space.plane_temperatures(u)
                assert np.array_equal(cpu_b[i], cpu)
                assert np.array_equal(out_b[i], out)

        check()

    def test_batch_validates_like_scalar(self, lookup_space):
        with pytest.raises(PhysicalRangeError):
            lookup_space.plane_temperatures_batch([0.2, 1.2])
        with pytest.raises(ConfigurationError):
            lookup_space.plane_temperatures_batch([[0.2], [0.4]])


def per_node_measure(space):
    """``_measure`` as it built one checked setting per grid node."""
    per_node = [space.model.setting_terms(CoolingSetting(
                    flow_l_per_h=float(flow), inlet_temp_c=float(inlet)))
                for flow in space.flow_grid for inlet in space.inlet_grid]
    shape = (1, len(space.flow_grid), len(space.inlet_grid))
    terms = SettingTerms(*(np.reshape(field, shape)
                           for field in zip(*per_node)))
    _, cpu, outlet = space.model.response(
        space.utilisation_grid[:, None, None], terms)
    return cpu, outlet


#: Models whose terms take other branches than the default's.
MEASURE_MODELS = {
    "default": CpuThermalModel(),
    "physical-outlet": CpuThermalModel(
        outlet_model=OutletDeltaModel(mode="physical")),
    "power-1.35": CpuThermalModel(power_scale=1.35),
    "negative-extra-r": CpuThermalModel(extra_resistance_k_per_w=-0.2),
}

#: A grid off the defaults: uneven axes and inlets near both ends of
#: the plausible coolant range.
CUSTOM_GRID = dict(
    utilisation_grid=np.array([0.0, 0.07, 0.5, 0.93, 1.0]),
    flow_grid=np.array([3.0, 35.5, 120.0, 280.0, 999.0]),
    inlet_grid=np.array([-10.0, -0.5, 17.25, 61.0, 89.75, 90.0]))


class TestMeasureOracle:
    """The per-flow campaign equals the per-node one."""

    @pytest.mark.parametrize("grid", ["default", "custom"])
    @pytest.mark.parametrize("model", sorted(MEASURE_MODELS))
    def test_measure_equals_per_node_campaign(self, model, grid):
        space = LookupSpace(model=MEASURE_MODELS[model],
                            **(CUSTOM_GRID if grid == "custom" else {}))
        for got, want in zip(space._measure(), per_node_measure(space)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("flows, inlets", [
        ([0.0, 20.0, 50.0], None),
        (None, [-20.0, 20.0, 40.0]),
        (None, [20.0, 40.0, 95.0]),
        ([0.0, 20.0], [20.0, 95.0]),
        ([20.0, 50.0], [-20.0, 40.0, 95.0]),
    ])
    def test_bad_node_raises_the_first_error(self, flows, inlets):
        space = LookupSpace()
        if flows is not None:
            space.flow_grid = np.array(flows)
        if inlets is not None:
            space.inlet_grid = np.array(inlets)
        errors = []
        for measure in (per_node_measure, LookupSpace._measure):
            with pytest.raises(PhysicalRangeError) as excinfo:
                measure(space)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        with pytest.raises(PhysicalRangeError) as excinfo:
            LookupSpace(flow_grid=space.flow_grid,
                        inlet_grid=space.inlet_grid)
        assert str(excinfo.value) == errors[0]
