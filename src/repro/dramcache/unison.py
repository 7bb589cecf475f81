"""Unison Cache baseline (Jevdjic et al., MICRO 2014).

Unison Cache is a set-associative, page-granularity DRAM cache that keeps
tags and LRU metadata in the in-package DRAM.  Following the paper's
methodology (Section 5.1.1) we model:

* perfect way prediction — a hit costs one combined data+tag read (96 B on
  the wire) plus a tag/LRU update write (32 B), i.e. "at least 128 B" as in
  Table 1, with single-access latency;
* LRU replacement *on every miss*;
* a perfect footprint predictor (see :mod:`repro.dramcache.footprint`)
  managed at 4-line granularity, so fills move only the page's predicted
  footprint rather than the whole 4 KB.

Misses pay the speculative tag+data read in the DRAM cache (96 B, the way
prediction still has to be verified) plus the off-package demand fetch, for
roughly 2x latency.

Residency and LRU live in a
:class:`~repro.dramcache.components.stores.SetAssociativePageStore` and the
footprint in a :class:`~repro.dramcache.footprint.FootprintPredictor`; the
DRAM accesses of a request (tag+data reads, the writeback probe, the fill
and a dirty victim's writeback) are issued in line, since replacement runs
on every miss.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.replacement import LruPolicy
from repro.dram.device import DramDevice
from repro.dramcache.base import TAG_ACCESS_BYTES, DramCacheScheme, OsServices
from repro.dramcache.components.stores import SetAssociativePageStore
from repro.dramcache.footprint import FootprintPredictor
from repro.memctrl.request import MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import TrafficCategory
from repro.util.rng import DeterministicRng

_HIT = TrafficCategory.HIT_DATA
_MISS = TrafficCategory.MISS_DATA
_TAG = TrafficCategory.TAG
_REPL = TrafficCategory.REPLACEMENT
_WB = TrafficCategory.WRITEBACK


class UnisonCache(DramCacheScheme):
    """Set-associative page-granularity DRAM cache with in-DRAM tags and LRU."""

    name = "unison"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        super().__init__(config, in_dram, off_dram, rng=rng, os_services=os_services)
        self.ways = config.dram_cache.ways
        total_pages = config.in_package_dram.capacity_bytes // self.page_size
        self.num_sets = max(1, total_pages // self.ways)
        self.store = SetAssociativePageStore(
            self.num_sets, self.ways, LruPolicy(self.num_sets, self.ways)
        )
        self.footprint = FootprintPredictor(
            self.page_size, granularity_lines=config.dram_cache.footprint_granularity_lines
        )

    # ------------------------------------------------------------------ helpers

    def is_resident(self, page: int) -> bool:
        return self.store.is_resident(page)

    # ------------------------------------------------------------------ access

    def access(self, now: int, request: MemRequest, mc_id: int) -> int:
        addr = request.addr
        page = addr // self.page_size
        in_access = self._in_access
        location = self.store.lookup(page)
        if request.is_writeback:
            # Writebacks must probe the in-DRAM tags to find the page.
            in_access(now, addr, TAG_ACCESS_BYTES, _TAG, True)
            if location is not None:
                self.store.mark_dirty(location[0], location[1])
                in_access(now, addr, self.line_size, _WB, True)
                self.footprint.on_access(page, addr)
            else:
                self._off_access(now, addr, self.line_size, _WB, True)
            return 0

        if location is not None:
            set_index, way = location
            # Data + tag read in one access (perfect way prediction), then
            # the tag read and the LRU update write.
            latency = in_access(now, addr, self.line_size, _HIT)
            in_access(now, addr, TAG_ACCESS_BYTES, _TAG, True)
            in_access(now, addr, TAG_ACCESS_BYTES, _TAG, True)
            self.store.touch(set_index, way)
            if request.is_write:
                self.store.mark_dirty(set_index, way)
            self.footprint.on_access(page, addr)
            self._counters["dram_cache_hits"] += 1
            return latency

        # Miss: speculative tag + data read in the DRAM cache, then the real fetch.
        latency = in_access(now, addr, self.line_size, _MISS)
        in_access(now, addr, TAG_ACCESS_BYTES, _TAG, True)
        latency += self._off_access(now + latency, addr, self.line_size, _MISS)
        self._counters["dram_cache_misses"] += 1
        self._replace(now + latency, request, page)
        return latency

    def _replace(self, now: int, request: MemRequest, page: int) -> None:
        """Replacement happens on every miss (Table 1)."""
        store = self.store
        footprint = self.footprint
        counters = self._counters
        set_index = store.set_of(page)
        victim_way = store.victim_way(set_index)
        victim = store.evict(set_index, victim_way)
        if victim is not None:
            victim_page = victim.page
            if victim.dirty:
                # Read the dirty footprint out of the cache, write it off-package.
                dirty_bytes = footprint.writeback_bytes(victim_page)
                victim_addr = victim_page * self.page_size
                self._in_access(now, victim_addr, dirty_bytes, _REPL, True)
                self._off_access(now, victim_addr, dirty_bytes, _WB, True)
                counters["dirty_page_evictions"] += 1
            footprint.on_evict(victim_page)
            counters["page_evictions"] += 1
        store.install(set_index, victim_way, page, request.is_write)
        footprint.on_fill(page)
        footprint.on_access(page, request.addr)

        # Fill traffic: predicted footprint read from off-package and written
        # into the DRAM cache, plus the tag update.
        fill_bytes = footprint.predicted_fill_bytes()
        page_addr = page * self.page_size
        self._off_access(now, page_addr, fill_bytes, _REPL, True)
        self._in_access(now, page_addr, fill_bytes, _REPL, True)
        self._in_access(now, page_addr, TAG_ACCESS_BYTES, _REPL, True)
        counters["page_fills"] += 1
        counters["fill_bytes"] += fill_bytes
