"""Unit tests for the DRAM substrate (timing, device).

Channel behaviour is exercised through one-channel devices: the timing
arithmetic lives in :meth:`DramDevice.access_latency`.
"""

import pytest

from repro.dram.device import DramDevice
from repro.dram.timing import DramTiming
from repro.sim.config import DramConfig, DramTimingConfig
from repro.sim.stats import TrafficCategory


def make_timing(bandwidth_scale=1.0, latency_scale=1.0):
    return DramTiming(DramTimingConfig(), 2.7, latency_scale=latency_scale, bandwidth_scale=bandwidth_scale)


def test_transfer_rounds_to_minimum_granularity():
    timing = make_timing()
    # A 64 B line plus a tag read of 8 B is charged as 96 B on the wire,
    # i.e. the 32 B minimum transfer makes 72 B cost the same as 96 B.
    assert timing.transfer_cycles(72) == timing.transfer_cycles(96)
    assert timing.transfer_cycles(64) < timing.transfer_cycles(96)
    assert timing.transfer_cycles(0) == 0


def test_transfer_scales_with_bytes():
    timing = make_timing()
    assert timing.transfer_cycles(4096) > 40 * timing.transfer_cycles(64)


def test_latency_scale_reduces_device_latency():
    fast = make_timing(latency_scale=0.5)
    slow = make_timing(latency_scale=1.0)
    assert fast.row_miss_latency_cycles < slow.row_miss_latency_cycles


def test_bandwidth_scale_changes_transfer_time():
    narrow = make_timing(bandwidth_scale=0.5)
    wide = make_timing(bandwidth_scale=1.0)
    assert narrow.transfer_cycles(4096) > wide.transfer_cycles(4096)


def make_channel_device(background_buffer_cycles=4096):
    """A one-channel device: every access lands on ``channels[0]``."""
    config = DramConfig(name="off", capacity_bytes=1 << 20, num_channels=1)
    return DramDevice(config, 2.7, background_buffer_cycles=background_buffer_cycles)


def access(device, now, num_bytes, background=False):
    return device.access(now, 0, num_bytes, TrafficCategory.HIT_DATA, background=background)


def test_channel_queueing_delay_accumulates():
    device = make_channel_device()
    first = access(device, 0, 4096)
    second = access(device, 0, 64)
    assert first.queue_delay == 0
    assert second.queue_delay > 0
    assert device.traffic.total_accesses == 2


def test_channel_idle_requests_have_no_queue_delay():
    device = make_channel_device()
    first = access(device, 0, 64)
    # A demand access completes ``latency`` cycles after it was issued.
    later = access(device, first.latency + 10_000, 64)
    assert later.queue_delay == 0


def test_channel_background_traffic_is_buffered():
    device = make_channel_device(background_buffer_cycles=100_000)
    access(device, 0, 4096, background=True)
    demand = access(device, 0, 64)
    # The buffered page move does not block the demand read.
    assert demand.queue_delay == 0


def test_channel_background_overflow_applies_backpressure():
    device = make_channel_device(background_buffer_cycles=10)
    access(device, 0, 1 << 16, background=True)
    demand = access(device, 0, 64)
    assert demand.queue_delay > 0


def test_channel_background_drains_in_idle_gaps():
    device = make_channel_device(background_buffer_cycles=1 << 30)
    access(device, 0, 4096, background=True)
    backlog = device.channels[0].background_backlog
    assert backlog > 0
    access(device, backlog + 10_000, 64)
    assert device.channels[0].background_backlog == 0


def test_channel_rejects_negative_time():
    device = make_channel_device()
    with pytest.raises(ValueError):
        access(device, -1, 64)


def test_device_rejects_negative_bytes():
    device = make_channel_device()
    with pytest.raises(ValueError):
        access(device, 0, -64)
    with pytest.raises(ValueError):
        device.record_only(-64, TrafficCategory.HIT_DATA)


def test_device_row_buffer_hits_only_the_open_row():
    device = make_channel_device()
    timing = device.timing
    transfer = timing.transfer_cycles(64)
    idle = 1_000_000
    assert access(device, 0, 64).latency == timing.row_miss_latency_cycles + transfer
    # Same 8 KB row, channel idle again: only the CAS latency is paid.
    assert access(device, idle, 64).latency == timing.row_hit_latency_cycles + transfer
    other_row = device.access(2 * idle, 8192, 64, TrafficCategory.HIT_DATA)
    assert other_row.latency == timing.row_miss_latency_cycles + transfer


def test_device_routes_by_page_and_records_traffic():
    config = DramConfig(name="in-package", capacity_bytes=1 << 20, num_channels=4)
    device = DramDevice(config, 2.7, page_size=4096)
    result_a = device.access(0, 0, 64, TrafficCategory.HIT_DATA)
    result_b = device.access(0, 4096, 64, TrafficCategory.HIT_DATA)
    assert result_a.channel_id != result_b.channel_id
    assert device.traffic.bytes_for(TrafficCategory.HIT_DATA) == 128


def test_device_record_only_has_no_timing_effect():
    config = DramConfig(name="off", capacity_bytes=1 << 20, num_channels=1)
    device = DramDevice(config, 2.7)
    device.record_only(4096, TrafficCategory.REPLACEMENT)
    assert device.traffic.bytes_for(TrafficCategory.REPLACEMENT) == 4096
    assert device.channels[0].busy_until == 0
    assert device.channels[0].total_busy_cycles == 0


def test_device_reset_clears_state():
    config = DramConfig(name="off", capacity_bytes=1 << 20, num_channels=1)
    device = DramDevice(config, 2.7)
    device.access(0, 0, 64, TrafficCategory.HIT_DATA)
    device.reset()
    assert device.traffic.total_bytes == 0
    assert device.channels[0].busy_until == 0


def test_device_reset_repoints_traffic_counters():
    """Accesses after a reset are counted in the new ``traffic``, not the old."""
    device = make_channel_device()
    device.access_latency(0, 0, 64, TrafficCategory.HIT_DATA)
    old = device.traffic
    device.reset()
    device.access_latency(0, 0, 96, TrafficCategory.TAG, True)
    device.record_only(32, TrafficCategory.COUNTER)
    assert old.total_bytes == 64 and old.total_accesses == 1
    assert device.traffic is not old
    assert device.traffic.breakdown()["Tag"] == 96
    assert device.traffic.total_bytes == 128
    assert device.traffic.total_accesses == 2
    assert device.channels[0].total_busy_cycles == device.timing.transfer_cycles(96)


def test_device_utilization_bounded():
    config = DramConfig(name="off", capacity_bytes=1 << 20, num_channels=1)
    device = DramDevice(config, 2.7)
    for i in range(10):
        device.access(i, 0, 64, TrafficCategory.HIT_DATA)
    assert 0.0 <= device.utilization(10_000) <= 1.0
