"""Unit tests for statistics collection."""

import pytest

from repro.sim.stats import MissRateWindow, StatsSet, TrafficCategory, TrafficStats, merge_traffic


def test_stats_set_inc_and_get():
    stats = StatsSet("test")
    stats.inc("hits")
    stats.inc("hits", 4)
    assert stats.get("hits") == 5
    assert stats.get("missing") == 0


def test_stats_set_merge():
    a = StatsSet("a")
    b = StatsSet("b")
    a.inc("x", 2)
    b.inc("x", 3)
    b.inc("y", 1)
    a.merge(b)
    assert a.get("x") == 5
    assert a.get("y") == 1


def test_traffic_stats_breakdown():
    traffic = TrafficStats("in-package")
    traffic.record(TrafficCategory.HIT_DATA, 64)
    traffic.record(TrafficCategory.TAG, 32)
    traffic.record(TrafficCategory.HIT_DATA, 64)
    assert traffic.total_bytes == 160
    assert traffic.bytes_for(TrafficCategory.HIT_DATA) == 128
    assert traffic.breakdown()["Tag"] == 32
    assert traffic.total_accesses == 3


def test_traffic_stats_bytes_per_instruction():
    traffic = TrafficStats("x")
    traffic.record(TrafficCategory.REPLACEMENT, 4096)
    per_instr = traffic.bytes_per_instruction(1000)
    assert per_instr["Replacement"] == pytest.approx(4.096)
    assert traffic.bytes_per_instruction(0)["Replacement"] == 0.0


def test_traffic_stats_rejects_negative():
    traffic = TrafficStats("x")
    with pytest.raises(ValueError):
        traffic.record(TrafficCategory.TAG, -1)


def test_merge_traffic():
    a = TrafficStats("a")
    b = TrafficStats("b")
    a.record(TrafficCategory.HIT_DATA, 64)
    b.record(TrafficCategory.HIT_DATA, 64)
    merged = merge_traffic({"a": a, "b": b})
    assert merged.bytes_for(TrafficCategory.HIT_DATA) == 128


def test_miss_rate_window_tracks_rate():
    window = MissRateWindow(window=100, initial_rate=1.0)
    assert window.rate == pytest.approx(1.0)
    for _ in range(100):
        window.record(hit=True)
    assert window.rate == pytest.approx(0.0, abs=0.05)
    for _ in range(100):
        window.record(hit=False)
    assert window.rate > 0.9


@pytest.mark.parametrize("size", [1, 2, 3])
def test_miss_rate_window_under_four_never_divides_by_zero(size):
    """``window // 4`` is 0 below 4, so a fresh or just-rolled window (no
    outcome yet) must report the last complete rate, not divide by zero."""
    window = MissRateWindow(window=size, initial_rate=0.25)
    assert window.rate == 0.25
    for _ in range(size):
        window.record(hit=False)
    # The window just rolled: the count is zero again.
    assert window.rate == 1.0
    if size > 1:
        window.record(hit=True)
        assert window.rate == pytest.approx(0.5 * (1.0 + 0.0))


def test_miss_rate_window_validation():
    with pytest.raises(ValueError):
        MissRateWindow(window=0)
