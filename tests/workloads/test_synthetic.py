"""Synthetic trace generator tests — the three paper classes."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import PhysicalRangeError
from repro.workloads import synthetic
from repro.workloads.synthetic import (
    TRACE_GENERATORS,
    common_trace,
    drastic_trace,
    irregular_trace,
    trace_by_name,
)


class TestRegistry:
    def test_all_three_classes(self):
        assert set(TRACE_GENERATORS) == {"drastic", "irregular", "common"}

    def test_trace_by_name(self):
        trace = trace_by_name("common", n_servers=10,
                              duration_s=3600.0, seed=0)
        assert trace.name == "common"
        assert trace.n_servers == 10

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            trace_by_name("bursty")


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = drastic_trace(n_servers=20, duration_s=7200.0, seed=42)
        b = drastic_trace(n_servers=20, duration_s=7200.0, seed=42)
        assert np.array_equal(a.utilisation, b.utilisation)

    def test_different_seeds_differ(self):
        a = drastic_trace(n_servers=20, duration_s=7200.0, seed=1)
        b = drastic_trace(n_servers=20, duration_s=7200.0, seed=2)
        assert not np.array_equal(a.utilisation, b.utilisation)


class TestPaperShapes:
    """The qualitative structure the paper assigns to each class."""

    @pytest.fixture(scope="class")
    def traces(self):
        kwargs = dict(n_servers=300, duration_s=12 * 3600.0)
        return {
            "drastic": drastic_trace(seed=0, **kwargs),
            "irregular": irregular_trace(seed=1, **kwargs),
            "common": common_trace(seed=2, **kwargs),
        }

    def test_default_durations(self):
        # Alibaba: 12 h; Google selections: 24 h.
        assert drastic_trace(n_servers=5).duration_s == 12 * 3600.0
        assert irregular_trace(n_servers=5).duration_s == 24 * 3600.0
        assert common_trace(n_servers=5).duration_s == 24 * 3600.0

    def test_default_server_counts(self):
        assert drastic_trace(duration_s=3600.0).n_servers == 1313
        assert irregular_trace(duration_s=3600.0).n_servers == 1000

    def test_volatility_ordering(self, traces):
        # Drastic >> irregular > common in step-to-step movement.
        v = {k: t.statistics().volatility for k, t in traces.items()}
        assert v["drastic"] > 3.0 * v["irregular"]
        assert v["irregular"] > v["common"]

    def test_irregular_has_high_peaks(self, traces):
        stats = traces["irregular"].statistics()
        # Background is calm (p95 low) but peaks reach high utilisation.
        assert stats.p95 < 0.35
        assert stats.max > 0.6

    def test_common_has_small_range(self, traces):
        stats = traces["common"].statistics()
        assert stats.max < 0.85
        assert stats.std < 0.12

    def test_mean_utilisations_match_pre_arithmetic(self, traces):
        # Back-solved from the paper's PRE numbers: drastic ~0.26,
        # irregular ~0.19, common ~0.25 (see module docstring).
        assert traces["drastic"].statistics().mean == pytest.approx(
            0.27, abs=0.04)
        assert traces["irregular"].statistics().mean == pytest.approx(
            0.19, abs=0.04)
        assert traces["common"].statistics().mean == pytest.approx(
            0.25, abs=0.04)

    def test_all_in_unit_interval(self, traces):
        for trace in traces.values():
            assert trace.utilisation.min() >= 0.0
            assert trace.utilisation.max() <= 1.0

    def test_diurnal_pattern_present(self):
        # 24 h classes must be busier in the afternoon than pre-dawn.
        trace = common_trace(n_servers=100, seed=3)
        hours = trace.times_s / 3600.0
        afternoon = trace.mean_per_step()[(hours >= 12) & (hours < 16)]
        night = trace.mean_per_step()[(hours >= 2) & (hours < 6)]
        assert afternoon.mean() > night.mean()


class TestArguments:
    def test_bad_duration_rejected(self):
        with pytest.raises(PhysicalRangeError):
            drastic_trace(n_servers=5, duration_s=0.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(PhysicalRangeError):
            common_trace(n_servers=5, interval_s=-5.0)

    def test_sub_interval_duration_rejected(self):
        with pytest.raises(PhysicalRangeError):
            common_trace(n_servers=5, duration_s=10.0, interval_s=300.0)

    def test_custom_interval(self):
        trace = irregular_trace(n_servers=5, duration_s=3600.0,
                                interval_s=600.0)
        assert trace.interval_s == 600.0
        assert trace.n_steps == 6


# ----------------------------------------------------------------------
# The in-place generators against the code they replaced
# ----------------------------------------------------------------------

def oracle_ar1(rng, n_steps, n_servers, rho, sigma):
    """``_ar1`` as it recursed into a second plane."""
    noise = rng.normal(0.0, sigma, size=(n_steps, n_servers))
    series = np.empty_like(noise)
    series[0] = noise[0]
    for t in range(1, n_steps):
        series[t] = rho * series[t - 1] + noise[t]
    return series


def oracle_drastic(n_servers, duration_s, interval_s, seed):
    """``drastic_trace``'s plane as it was built out of place."""
    rng = synthetic._rng(seed)
    n_steps = synthetic._steps(duration_s, interval_s)
    base = 0.22 + synthetic._diurnal(n_steps, interval_s, amplitude=0.05)
    noise = oracle_ar1(rng, n_steps, n_servers, rho=0.3, sigma=0.07)
    bursts = np.zeros((n_steps, n_servers))
    n_bursts = max(1, n_steps * n_servers // 40)
    starts = rng.integers(0, n_steps, size=n_bursts)
    servers = rng.integers(0, n_servers, size=n_bursts)
    lengths = rng.integers(1, max(2, n_steps // 6), size=n_bursts)
    heights = rng.uniform(0.12, 0.32, size=n_bursts)
    for start, server, length, height in zip(starts, servers, lengths,
                                             heights):
        bursts[start:start + length, server] += height
    return np.clip(base[:, None] + noise + bursts, 0.0, 0.90)


def oracle_irregular(n_servers, duration_s, interval_s, seed):
    """``irregular_trace``'s plane as it was built out of place."""
    rng = synthetic._rng(seed)
    n_steps = synthetic._steps(duration_s, interval_s)
    base = 0.17 + synthetic._diurnal(n_steps, interval_s, amplitude=0.04)
    noise = oracle_ar1(rng, n_steps, n_servers, rho=0.9, sigma=0.02)
    spikes = np.zeros((n_steps, n_servers))
    n_spikes = max(1, n_steps * n_servers // 400)
    starts = rng.integers(0, n_steps, size=n_spikes)
    servers = rng.integers(0, n_servers, size=n_spikes)
    lengths = rng.integers(1, 4, size=n_spikes)
    heights = rng.uniform(0.5, 0.8, size=n_spikes)
    for start, server, length, height in zip(starts, servers, lengths,
                                             heights):
        spikes[start:start + length, server] += height
    return np.clip(base[:, None] + noise + spikes, 0.0, 1.0)


def oracle_common(n_servers, duration_s, interval_s, seed):
    """``common_trace``'s plane as it was built out of place."""
    rng = synthetic._rng(seed)
    n_steps = synthetic._steps(duration_s, interval_s)
    base = 0.22 + synthetic._diurnal(n_steps, interval_s, amplitude=0.03)
    noise = oracle_ar1(rng, n_steps, n_servers, rho=0.97, sigma=0.008)
    per_server_offset = rng.normal(0.0, 0.05, size=n_servers)
    hot = rng.random(n_servers) < 0.04
    per_server_offset[hot] += rng.uniform(0.18, 0.32, size=int(hot.sum()))
    return np.clip(base[:, None] + noise + per_server_offset[None, :],
                   0.0, 1.0)


GENERATOR_ORACLES = [(drastic_trace, oracle_drastic),
                     (irregular_trace, oracle_irregular),
                     (common_trace, oracle_common)]


class TestInPlacePlanes:
    """Each generator builds its plane in place, bit for bit as before."""

    @pytest.mark.parametrize("generator,oracle", GENERATOR_ORACLES,
                             ids=["drastic", "irregular", "common"])
    @pytest.mark.parametrize("n_servers,n_steps", [
        (1, 1), (1, 40), (37, 1), (37, 3), (200, 50)])
    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_plane_equals_out_of_place_oracle(self, generator, oracle,
                                              n_servers, n_steps, seed):
        kwargs = dict(n_servers=n_servers, duration_s=n_steps * 300.0,
                      interval_s=300.0, seed=seed)
        got = generator(**kwargs).utilisation
        want = oracle(**kwargs)
        assert got.shape == (n_steps, n_servers)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("generator,bound", [
        (common_trace, 1.5), (drastic_trace, 2.5), (irregular_trace, 2.5)],
        ids=["common", "drastic", "irregular"])
    def test_peak_allocation_is_bounded(self, generator, bound):
        # 2,000 steps x 1,000 servers: a 16 MB plane.  Out of place, the
        # generators peaked at 3.0x (common) and ~4x (the two with a
        # bursts/spikes plane) its bytes.
        n_steps, n_servers = 2_000, 1_000
        tracemalloc.start()
        try:
            trace = generator(n_servers=n_servers,
                              duration_s=n_steps * 300.0, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.utilisation.shape == (n_steps, n_servers)
        assert peak <= bound * trace.utilisation.nbytes
