"""Tagless DRAM Cache (TDC) baseline (Lee et al., ISCA 2015), idealised.

TDC tracks DRAM-cache contents through the page tables and TLBs (like
Banshee), so there is no tag traffic at all: a hit moves exactly the 64 B
demand line, a miss fetches it from off-package DRAM, both with ~1x latency.
The cache is fully associative with FIFO replacement, and replacement happens
on every miss.

Following Section 5.1.1 we model the *idealised* TDC: its hardware TLB
coherence mechanism is free, the address-consistency problem is ignored, and
it gets the same perfect footprint predictor as Unison Cache.  Even this
idealisation loses to Banshee because it still pays full replacement traffic
on every miss and FIFO can evict hot pages.

Residency is a :class:`~repro.dramcache.components.stores.FifoPageStore`
and the footprint a :class:`~repro.dramcache.footprint.FootprintPredictor`.
There is no probe traffic — which *is* the point of the design — and the
remaining DRAM accesses of a request (the demand line, the fill and a dirty
victim's writeback) are issued in line, since replacement runs on every
miss.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.device import DramDevice
from repro.dramcache.base import DramCacheScheme, OsServices
from repro.dramcache.components.stores import FifoPageStore
from repro.dramcache.footprint import FootprintPredictor
from repro.memctrl.request import MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import TrafficCategory
from repro.util.rng import DeterministicRng

_HIT = TrafficCategory.HIT_DATA
_MISS = TrafficCategory.MISS_DATA
_REPL = TrafficCategory.REPLACEMENT
_WB = TrafficCategory.WRITEBACK


class TaglessDramCache(DramCacheScheme):
    """Fully-associative, FIFO, PTE/TLB-mapped page-granularity DRAM cache."""

    name = "tdc"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        super().__init__(config, in_dram, off_dram, rng=rng, os_services=os_services)
        self.store = FifoPageStore(config.in_package_dram.capacity_bytes // self.page_size)
        self.capacity_pages = self.store.capacity_pages
        self.footprint = FootprintPredictor(
            self.page_size, granularity_lines=config.dram_cache.footprint_granularity_lines
        )

    @property
    def _resident(self):
        """The FIFO residency map (exposed for tests and diagnostics)."""
        return self.store.entries

    def is_resident(self, page: int) -> bool:
        return self.store.is_resident(page)

    # ------------------------------------------------------------------ access

    def access(self, now: int, request: MemRequest, mc_id: int) -> int:
        addr = request.addr
        page = addr // self.page_size
        entries = self.store.entries
        if request.is_writeback:
            # The mapping is known from the PTE/TLB extension, so no tag probe.
            if page in entries:
                entries[page] = True
                self._in_access(now, addr, self.line_size, _WB, True)
                self.footprint.on_access(page, addr)
            else:
                self._off_access(now, addr, self.line_size, _WB, True)
            return 0

        counters = self._counters
        if page in entries:
            latency = self._in_access(now, addr, self.line_size, _HIT)
            if request.is_write:
                entries[page] = True
            self.footprint.on_access(page, addr)
            counters["dram_cache_hits"] += 1
            return latency

        # Miss: the mapping was already known from the TLB, so the demand line
        # comes straight from off-package DRAM with no DRAM-cache probe.
        latency = self._off_access(now, addr, self.line_size, _MISS)
        counters["dram_cache_misses"] += 1

        # Replacement on every miss, FIFO eviction.
        fill_at = now + latency
        footprint = self.footprint
        if len(entries) >= self.capacity_pages:
            victim_page, victim_dirty = entries.popitem(last=False)
            if victim_dirty:
                # Read the dirty footprint out of the cache, write it off-package.
                dirty_bytes = footprint.writeback_bytes(victim_page)
                victim_addr = victim_page * self.page_size
                self._in_access(fill_at, victim_addr, dirty_bytes, _REPL, True)
                self._off_access(fill_at, victim_addr, dirty_bytes, _WB, True)
                counters["dirty_page_evictions"] += 1
            footprint.on_evict(victim_page)
            counters["page_evictions"] += 1
        entries[page] = request.is_write
        footprint.on_fill(page)
        footprint.on_access(page, addr)
        fill_bytes = footprint.predicted_fill_bytes()
        page_addr = page * self.page_size
        self._off_access(fill_at, page_addr, fill_bytes, _REPL, True)
        self._in_access(fill_at, page_addr, fill_bytes, _REPL, True)
        counters["page_fills"] += 1
        counters["fill_bytes"] += fill_bytes
        return latency
