"""Per-channel state of a DRAM device.

Each channel serialises the transfers routed to it.  A request arriving at
time ``now`` waits until the channel is free, then occupies it for the
transfer time of its payload.  The returned latency therefore includes
queueing delay, which is how bandwidth contention — the central quantity in
the Banshee evaluation — shows up as performance loss.

Two priority classes are modelled, mirroring how memory controllers schedule
traffic:

* **demand** accesses (the line a core is waiting for) are serialised on the
  channel and see queueing delay when it is busy;
* **background** transfers (cache fills, page replacement moves, dirty
  writebacks) are buffered and drained with lower priority: they consume
  bandwidth during idle gaps first, and only push back demand traffic once
  the device's background buffer is full.

Without the second class a single 4 KB page move would block a later demand
read for thousands of cycles, which is not how real controllers with
read-priority scheduling behave.

The timing arithmetic lives in one place,
:meth:`repro.dram.device.DramDevice.access_latency`, which runs for every DRAM
access; a :class:`DramChannel` only holds the state it reads and updates.
"""

from __future__ import annotations


class DramChannel:
    """Dynamic state of one DRAM channel."""

    __slots__ = (
        "channel_id",
        "busy_until",
        "total_busy_cycles",
        "background_backlog",
        "last_row",
    )

    def __init__(self, channel_id: int) -> None:
        self.channel_id = channel_id
        #: Cycle at which the channel finishes its committed transfers.
        self.busy_until = 0
        self.total_busy_cycles = 0
        #: Buffered background work not yet charged to the channel timeline.
        self.background_backlog = 0
        #: Row left open by the previous access (-1: none yet).
        self.last_row = -1

    def reset(self) -> None:
        """Clear all dynamic state (used between simulation phases)."""
        self.busy_until = 0
        self.total_busy_cycles = 0
        self.background_backlog = 0
        self.last_row = -1
