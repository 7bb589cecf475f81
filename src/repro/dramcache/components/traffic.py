"""Off-path traffic charging: per-set metadata and data movement.

Table 1 of the paper is, at heart, a catalogue of which DRAM accesses each
scheme performs per hit, miss, fill and eviction.  The accesses every
request makes (demand data, tag probes, per-miss fills) are written out in
each scheme's ``access``; these components express the rest — traffic that
only sampled accesses, replacements and migrations cause — once, with the
correct byte counts and :class:`~repro.sim.stats.TrafficCategory` labels:

* :class:`MetadataChannel` — the 32 B per-set metadata record that Banshee's
  frequency counters (and the LRU-ablation recency bits) live in;
* :class:`TransferFlows` — page fills, dirty-page evictions, writebacks and
  migration accounting between the two DRAM devices (Banshee's
  replacements, HMA).

All accesses go through the port's hoisted device-access methods (bound
once at construction), ``access_latency(now, addr, num_bytes, category,
background)``; the background flag is passed positionally, which is cheaper
than a keyword on a path that runs several times per LLC miss.
"""

from __future__ import annotations

from repro.sim.stats import TrafficCategory

#: Bytes of one per-set metadata record (Section 5.1: ~32 bytes per set).
METADATA_ACCESS_BYTES = 32

_COUNTER = TrafficCategory.COUNTER
_REPL = TrafficCategory.REPLACEMENT
_WB = TrafficCategory.WRITEBACK


class MetadataChannel:
    """The 32 B per-set metadata record in the in-package DRAM (Banshee)."""

    __slots__ = ("access_bytes", "_in_access", "_counters")

    def __init__(self, port, access_bytes: int = METADATA_ACCESS_BYTES) -> None:
        self.access_bytes = access_bytes
        self._in_access = port._in_access
        self._counters = port._counters

    def read(self, now: int, addr: int) -> None:
        """Load the set's metadata record (counted as a counter read)."""
        self._in_access(now, addr, self.access_bytes, _COUNTER, True)
        self._counters["counter_reads"] += 1

    def write(self, now: int, addr: int) -> None:
        """Store the set's metadata record (counted as a counter write)."""
        self._in_access(now, addr, self.access_bytes, _COUNTER, True)
        self._counters["counter_writes"] += 1

    def touch(self, now: int, addr: int) -> None:
        """One uncounted metadata transfer (the LRU ablation's recency bits)."""
        self._in_access(now, addr, self.access_bytes, _COUNTER, True)


class TransferFlows:
    """Fill / evict / writeback / migration data movement."""

    __slots__ = ("line_size", "_in_access", "_off_access", "_in_dram", "_off_dram")

    def __init__(self, port) -> None:
        self.line_size = port.line_size
        self._in_access = port._in_access
        self._off_access = port._off_access
        self._in_dram = port.in_dram
        self._off_dram = port.off_dram

    # ------------------------------------------------------------------ fills

    def fill_from_off(self, now: int, addr: int, num_bytes: int) -> None:
        """Move ``num_bytes`` from off-package DRAM into the cache (a fill)."""
        self._off_access(now, addr, num_bytes, _REPL, True)
        self._in_access(now, addr, num_bytes, _REPL, True)

    # ------------------------------------------------------------------ evictions

    def evict_dirty_to_off(self, now: int, addr: int, num_bytes: int) -> None:
        """Read a dirty victim out of the cache and write it off-package."""
        self._in_access(now, addr, num_bytes, _REPL, True)
        self._off_access(now, addr, num_bytes, _WB, True)

    # ------------------------------------------------------------------ LLC writebacks

    def writeback_to_cache(self, now: int, addr: int) -> None:
        """An LLC dirty eviction lands in the DRAM cache."""
        self._in_access(now, addr, self.line_size, _WB, True)

    def writeback_to_off(self, now: int, addr: int) -> None:
        """An LLC dirty eviction bypasses the cache to off-package DRAM."""
        self._off_access(now, addr, self.line_size, _WB, True)

    # ------------------------------------------------------------------ OS-driven migration

    def migrate_in_record_only(self, num_bytes: int) -> None:
        """Account an off→in page migration without timing it (HMA remap)."""
        self._off_dram.record_only(num_bytes, _REPL)
        self._in_dram.record_only(num_bytes, _REPL)

    def migrate_out_record_only(self, num_bytes: int) -> None:
        """Account an in→off dirty-page migration without timing it."""
        self._in_dram.record_only(num_bytes, _REPL)
        self._off_dram.record_only(num_bytes, _WB)
