"""A DRAM device: a set of channels plus traffic accounting.

Two devices exist in a simulated system — the in-package DRAM (the cache)
and the off-package DRAM (backing memory).  Addresses are interleaved across
the device's channels at page granularity, matching the paper's assumption
that physical addresses map to memory controllers statically at page
granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.dram.channel import DramChannel
from repro.dram.timing import DramTiming
from repro.sim.config import DramConfig
from repro.sim.stats import TrafficCategory, TrafficStats

#: Bytes per DRAM row: consecutive accesses within one row hit the open row.
ROW_BYTES = 8192


@dataclass
class DramAccessResult:
    """Latency and accounting outcome of one device access."""

    __slots__ = ("latency", "queue_delay", "num_bytes", "channel_id")

    latency: int
    queue_delay: int
    num_bytes: int
    channel_id: int


class DramDevice:
    """One DRAM device (in-package or off-package)."""

    def __init__(
        self,
        config: DramConfig,
        cpu_freq_ghz: float,
        page_size: int = 4096,
        background_buffer_cycles: int = 4096,
    ) -> None:
        if background_buffer_cycles < 0:
            raise ValueError("background_buffer_cycles must be non-negative")
        self.config = config
        self.page_size = page_size
        self.timing = DramTiming(
            config.timing,
            cpu_freq_ghz,
            latency_scale=config.latency_scale,
            bandwidth_scale=config.bandwidth_scale,
        )
        #: Per-channel capacity of the fill/writeback buffers, in transfer
        #: cycles; background work beyond it delays demand traffic.
        self.background_buffer_cycles = background_buffer_cycles
        self.channels: List[DramChannel] = [DramChannel(i) for i in range(config.num_channels)]
        self._num_channels = config.num_channels
        self._row_hit_cycles = self.timing.row_hit_latency_cycles
        self._row_miss_cycles = self.timing.row_miss_latency_cycles
        # Transfer-cycle memo: only a handful of distinct payload sizes occur
        # (line, tag, page, metadata, footprints).
        self._transfer_cycles: Dict[int, int] = {}
        self.traffic = TrafficStats(config.name)

    @property
    def name(self) -> str:
        """Device name ("in-package" or "off-package")."""
        return self.config.name

    def channel_for(self, addr: int) -> DramChannel:
        """Channel owning ``addr`` (page-granularity interleaving)."""
        return self.channels[(addr // self.page_size) % self._num_channels]

    def access_latency(
        self, now: int, addr: int, num_bytes: int, category: TrafficCategory, background: bool = False
    ) -> int:
        """Perform one access of ``num_bytes`` at ``addr``; returns its latency.

        This is the device's only timing path, run for every DRAM access the
        schemes issue: the transfer time, the open-row check, the idle-gap
        drain of buffered background work, queueing (demand) or buffering
        with back-pressure (``background``), and the traffic count.  A
        background access is off the critical path: its latency excludes
        queueing, and its transfer is buffered rather than serialised.
        """
        if now < 0:
            raise ValueError("time must be non-negative")
        try:
            transfer = self._transfer_cycles[num_bytes]
        except KeyError:
            if num_bytes < 0:
                raise ValueError(f"traffic bytes must be non-negative, got {num_bytes}") from None
            transfer = self._transfer_cycles[num_bytes] = self.timing.transfer_cycles(num_bytes)
        channel = self.channels[(addr // self.page_size) % self._num_channels]
        row = addr // ROW_BYTES
        if row == channel.last_row:
            device_latency = self._row_hit_cycles
        else:
            channel.last_row = row
            device_latency = self._row_miss_cycles

        busy = channel.busy_until
        backlog = channel.background_backlog
        if backlog > 0 and busy < now:
            # Idle time before ``now`` drains buffered background work.
            idle = now - busy
            drained = idle if idle <= backlog else backlog
            busy += drained
            backlog -= drained
        channel.total_busy_cycles += transfer
        traffic = self.traffic
        traffic._bytes[category] += num_bytes
        traffic._accesses += 1

        if background:
            backlog += transfer
            overflow = backlog - self.background_buffer_cycles
            if overflow > 0:
                # The fill/writeback buffers are full: the excess applies
                # back-pressure and delays demand traffic like any transfer.
                busy = (busy if busy >= now else now) + overflow
                backlog = self.background_buffer_cycles
            channel.busy_until = busy
            channel.background_backlog = backlog
            return device_latency + transfer

        start = now if now >= busy else busy
        channel.busy_until = start + transfer
        channel.background_backlog = backlog
        return start - now + device_latency + transfer

    def access(
        self, now: int, addr: int, num_bytes: int, category: TrafficCategory, background: bool = False
    ) -> DramAccessResult:
        """:meth:`access_latency` plus the queueing delay and the channel served."""
        channel = self.channel_for(addr)
        service = self.timing.access_latency_cycles(channel.last_row == addr // ROW_BYTES)
        latency = self.access_latency(now, addr, num_bytes, category, background)
        service += self._transfer_cycles[num_bytes]
        return DramAccessResult(
            latency=latency,
            queue_delay=latency - service,
            num_bytes=num_bytes,
            channel_id=channel.channel_id,
        )

    def record_only(self, num_bytes: int, category: TrafficCategory) -> None:
        """Record traffic without a timing effect (used for bulk background moves)."""
        self.traffic.record(category, num_bytes)

    def utilization(self, elapsed_cycles: int) -> float:
        """Average fraction of ``elapsed_cycles`` the channels spent transferring."""
        if not self.channels or elapsed_cycles <= 0:
            return 0.0
        return sum(
            min(1.0, channel.total_busy_cycles / elapsed_cycles) for channel in self.channels
        ) / len(self.channels)

    def reset(self) -> None:
        """Reset dynamic channel state and traffic counters."""
        for channel in self.channels:
            channel.reset()
        self.traffic = TrafficStats(self.config.name)
