"""WorkloadTrace container tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import PhysicalRangeError, TraceFormatError
from repro.workloads.trace import WorkloadTrace


def make_trace(matrix, interval=300.0, name="t"):
    return WorkloadTrace(np.asarray(matrix, dtype=float), interval, name)


class TestValidation:
    def test_one_dimensional_rejected(self):
        with pytest.raises(TraceFormatError):
            make_trace([0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(TraceFormatError):
            make_trace(np.empty((0, 5)))

    def test_nan_rejected(self):
        with pytest.raises(TraceFormatError):
            make_trace([[0.1, np.nan]])

    def test_out_of_range_rejected(self):
        with pytest.raises(PhysicalRangeError):
            make_trace([[0.1, 1.2]])
        with pytest.raises(PhysicalRangeError):
            make_trace([[-0.1, 0.5]])

    def test_bad_interval_rejected(self):
        with pytest.raises(PhysicalRangeError):
            make_trace([[0.1, 0.2]], interval=0.0)

    def test_matrix_is_read_only(self):
        trace = make_trace([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValueError):
            trace.utilisation[0, 0] = 0.9


class TestShape:
    def test_dimensions(self):
        trace = make_trace(np.zeros((6, 4)))
        assert trace.n_steps == 6
        assert trace.n_servers == 4
        assert len(trace) == 6
        assert trace.duration_s == pytest.approx(1800.0)

    def test_times(self):
        trace = make_trace(np.zeros((3, 2)), interval=60.0)
        assert list(trace.times_s) == [0.0, 60.0, 120.0]

    def test_step_and_server_access(self):
        matrix = np.array([[0.1, 0.2], [0.3, 0.4]])
        trace = make_trace(matrix)
        assert list(trace.step(1)) == [0.3, 0.4]
        assert list(trace.server(0)) == [0.1, 0.3]

    def test_repr_mentions_shape(self):
        trace = make_trace(np.zeros((5, 3)), name="demo")
        assert "demo" in repr(trace)
        assert "5" in repr(trace)


class TestAggregations:
    def test_mean_and_max_per_step(self):
        trace = make_trace([[0.2, 0.4], [0.6, 1.0]])
        assert list(trace.mean_per_step()) == [
            pytest.approx(0.3), pytest.approx(0.8)]
        assert list(trace.max_per_step()) == [0.4, 1.0]

    def test_statistics(self):
        trace = make_trace([[0.0, 1.0], [0.5, 0.5]])
        stats = trace.statistics()
        assert stats.mean == pytest.approx(0.5)
        assert stats.max == 1.0
        assert "mean" in stats.describe()

    def test_volatility_of_constant_trace_is_zero(self):
        trace = make_trace(np.full((10, 3), 0.4))
        assert trace.statistics().volatility == 0.0

    def test_single_step_volatility(self):
        trace = make_trace(np.full((1, 3), 0.4))
        assert trace.statistics().volatility == 0.0


class TestTransformations:
    def test_slice_servers(self):
        trace = make_trace(np.arange(12).reshape(3, 4) / 20.0)
        part = trace.slice_servers(1, 3)
        assert part.n_servers == 2
        assert part.utilisation[0, 0] == pytest.approx(1 / 20.0)

    def test_slice_servers_bad_range(self):
        trace = make_trace(np.zeros((3, 4)))
        with pytest.raises(TraceFormatError):
            trace.slice_servers(3, 2)
        with pytest.raises(TraceFormatError):
            trace.slice_servers(0, 9)

    def test_slice_time(self):
        trace = make_trace(np.zeros((10, 2)), interval=300.0)
        window = trace.slice_time(600.0, 1500.0)
        assert window.n_steps == 3

    def test_slice_time_bad_window(self):
        trace = make_trace(np.zeros((10, 2)))
        with pytest.raises(TraceFormatError):
            trace.slice_time(6000.0, 9000.0)

    def test_resample_block_average(self):
        matrix = np.array([[0.2], [0.4], [0.6], [0.8]])
        trace = make_trace(matrix, interval=60.0)
        coarse = trace.resample(120.0)
        assert coarse.n_steps == 2
        assert coarse.utilisation[0, 0] == pytest.approx(0.3)
        assert coarse.interval_s == 120.0

    def test_resample_cannot_refine(self):
        trace = make_trace(np.zeros((4, 1)), interval=300.0)
        with pytest.raises(TraceFormatError):
            trace.resample(60.0)

    def test_resample_too_short(self):
        trace = make_trace(np.zeros((2, 1)), interval=60.0)
        with pytest.raises(TraceFormatError):
            trace.resample(300.0)

    def test_balanced_preserves_work(self):
        matrix = np.array([[0.2, 0.8], [0.0, 0.6]])
        balanced = make_trace(matrix).balanced()
        assert np.allclose(balanced.utilisation.sum(axis=1),
                           matrix.sum(axis=1))
        assert np.allclose(balanced.utilisation[:, 0],
                           balanced.utilisation[:, 1])

    def test_concat_time(self):
        a = make_trace(np.zeros((2, 3)))
        b = make_trace(np.ones((3, 3)) * 0.5)
        joined = a.concat_time(b)
        assert joined.n_steps == 5
        assert joined.utilisation[-1, 0] == 0.5

    def test_concat_mismatched_width_rejected(self):
        a = make_trace(np.zeros((2, 3)))
        b = make_trace(np.zeros((2, 4)))
        with pytest.raises(TraceFormatError):
            a.concat_time(b)

    def test_concat_mismatched_interval_rejected(self):
        a = make_trace(np.zeros((2, 3)), interval=60.0)
        b = make_trace(np.zeros((2, 3)), interval=300.0)
        with pytest.raises(TraceFormatError):
            a.concat_time(b)

    @given(arrays(float, (7, 5), elements=st.floats(min_value=0.0,
                                                    max_value=1.0)))
    def test_balanced_mean_invariant(self, matrix):
        trace = make_trace(matrix)
        balanced = trace.balanced()
        assert np.allclose(balanced.mean_per_step(), trace.mean_per_step())
        # Balancing never raises the per-step maximum.
        assert np.all(balanced.max_per_step()
                      <= trace.max_per_step() + 1e-12)


class TestAdoptValidation:
    """One minimum and one maximum validate a whole plane."""

    @pytest.mark.parametrize("bad, error, message", [
        (np.nan, TraceFormatError, "trace contains NaN or infinite values"),
        (np.inf, TraceFormatError, "trace contains NaN or infinite values"),
        (-np.inf, TraceFormatError, "trace contains NaN or infinite values"),
        (-0.1, PhysicalRangeError,
         "all utilisations must be in [0, 1]; offending range "
         "[-0.100, 0.900]"),
        (1.1, PhysicalRangeError,
         "all utilisations must be in [0, 1]; offending range "
         "[0.000, 1.100]"),
    ])
    def test_bad_cell_raises_todays_error(self, bad, error, message):
        matrix = np.linspace(0.0, 0.9, 12).reshape(3, 4)
        matrix[1, 2] = bad
        with pytest.raises(error) as excinfo:
            make_trace(matrix)
        assert str(excinfo.value) == message
        with pytest.raises(error) as excinfo:
            WorkloadTrace._owning(matrix.copy(), 300.0)
        assert str(excinfo.value) == message

    def test_nan_beats_out_of_range(self):
        with pytest.raises(TraceFormatError):
            make_trace([[1.5, np.nan, -2.0]])

    def test_validation_allocates_no_plane_temporary(self):
        import tracemalloc

        matrix = np.random.default_rng(0).uniform(0.0, 1.0, (2000, 1000))
        tracemalloc.start()
        try:
            WorkloadTrace._owning(matrix, 300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * matrix.nbytes

    def test_shared_window_attaches_without_reading_cells(self):
        # A window of a plane its owning trace validated is not read
        # again: a cell the constructor would reject goes unseen, while
        # the shape and the interval are still checked.
        matrix = np.linspace(0.0, 0.9, 12).reshape(3, 4)
        matrix[1, 2] = np.nan
        window = WorkloadTrace.from_shared(matrix, 300.0, name="w")
        assert window.utilisation is matrix
        assert not window.utilisation.flags.writeable
        assert window._shared_block is None
        with pytest.raises(TraceFormatError, match="2-D"):
            WorkloadTrace.from_shared(matrix[0], 300.0)
        with pytest.raises(TraceFormatError, match="empty"):
            WorkloadTrace.from_shared(matrix[:0], 300.0)
        with pytest.raises(PhysicalRangeError, match="interval"):
            WorkloadTrace.from_shared(matrix, 0.0)
