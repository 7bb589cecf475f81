"""Alloy Cache baseline (Qureshi & Loh, MICRO 2012) with BEAR optimisations.

Alloy Cache is a direct-mapped, cacheline-granularity DRAM cache that stores
each line's tag adjacent to its data ("TAD"), so a hit reads tag+data in a
single DRAM access — 96 bytes on an HBM-style link with a 32 B minimum
transfer (Table 1).  On a miss the speculative tag+data read is wasted and
the demand line is fetched from off-package DRAM.

The BEAR additions modelled here, following Section 5.1.1 of the Banshee
paper:

* *stochastic cache fills* — a missing line is inserted only with probability
  ``alloy_replacement_probability`` (1.0 for "Alloy 1", 0.1 for "Alloy 0.1");
* *bandwidth-efficient writeback probe* — an LLC dirty eviction first probes
  only the tag (32 B) and writes the 64 B line to the DRAM cache only when it
  is present, otherwise the line goes straight to off-package DRAM.

The paper disables the original Alloy optimisation of issuing the in- and
off-package accesses in parallel on a miss (it hurts when off-package
bandwidth is scarce); we follow that and serialise them.

Mechanically the scheme is a composition of a
:class:`~repro.dramcache.components.stores.DirectMappedLineStore` (residency),
a :class:`~repro.dramcache.components.traffic.TagProbe` (TAD reads and the
BEAR writeback probe) and :class:`~repro.dramcache.components.traffic.TransferFlows`
(fills and dirty-victim writebacks).
"""

from __future__ import annotations

from typing import Optional

from repro.dram.device import DramDevice
from repro.dramcache.base import LINE_SIZE, DramCacheScheme, OsServices
from repro.dramcache.components.stores import DirectMappedLineStore
from repro.dramcache.components.traffic import TagProbe, TransferFlows
from repro.memctrl.request import AccessResult, MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import TrafficCategory
from repro.util.rng import DeterministicRng

_MISS = TrafficCategory.MISS_DATA


class AlloyCache(DramCacheScheme):
    """Direct-mapped, line-granularity DRAM cache with stochastic fills."""

    name = "alloy"

    def __init__(
        self,
        config: SystemConfig,
        in_dram: DramDevice,
        off_dram: DramDevice,
        rng: Optional[DeterministicRng] = None,
        os_services: Optional[OsServices] = None,
    ) -> None:
        super().__init__(config, in_dram, off_dram, rng=rng, os_services=os_services)
        # One tag+data frame per cacheline of in-package capacity.  The TAD
        # layout stores 8 B of tag next to each 64 B line; we keep the
        # conventional simplification of ignoring the resulting ~11% capacity
        # loss (it is identical for Alloy 1 and Alloy 0.1).
        self.store = DirectMappedLineStore(config.in_package_dram.capacity_bytes // self.line_size)
        self.num_frames = self.store.num_frames
        self.fill_probability = config.dram_cache.alloy_replacement_probability
        self.probe = TagProbe(self)
        self.flows = TransferFlows(self)
        self.balancer = None
        if config.dram_cache.bandwidth_balance:
            from repro.core.bandwidth_balancer import BandwidthBalancer

            self.balancer = BandwidthBalancer(
                in_dram, off_dram, target_in_fraction=config.dram_cache.bandwidth_balance_target
            )

    # ------------------------------------------------------------------ internals

    def is_resident(self, page: int) -> bool:
        """Residency of the *line-sized* block whose number is ``page``."""
        return self.store.is_resident(page)

    # ------------------------------------------------------------------ access

    def access(self, now: int, request: MemRequest, mc_id: int) -> AccessResult:
        line = request.addr // LINE_SIZE
        line_addr = line * self.line_size
        # The store's frame mapping and residency check, in line: they run
        # for every LLC miss and writeback.
        store = self.store
        frame = line % store.num_frames
        resident = store.tags.get(frame) == line
        if request.is_writeback:
            return self._writeback(now, frame, resident, line_addr)

        if resident:
            served_by = "in-package"
            if (
                self.balancer is not None
                and not request.is_write
                and not store.is_dirty(frame)
                and self.balancer.should_redirect(self.rng.random())
            ):
                # Bandwidth balancing (Section 5.4.2): serve this clean hit
                # from off-package DRAM to relieve the in-package channels.
                latency = self._off_access(now, line_addr, self.line_size, TrafficCategory.HIT_DATA)
                served_by = "off-package"
            else:
                # One TAD read returns tag + data: 96 B on the wire.
                latency = self.probe.hit_read(now, line_addr)
            if request.is_write:
                store.mark_dirty(frame)
            self._counters["dram_cache_hits"] += 1
            return self._result_of(latency, True, served_by)

        # Miss: the speculative TAD read is wasted, then fetch from off-package.
        spec_latency = self.probe.speculative_read(now, line_addr)
        off_latency = self._off_access(now + spec_latency, line_addr, self.line_size, _MISS)
        latency = spec_latency + off_latency
        self._counters["dram_cache_misses"] += 1

        if self.rng.chance(self.fill_probability):
            self._fill(now + latency, frame, line, line_addr, request.is_write)
        return self._result_of(latency, False, "off-package")

    def _fill(self, now: int, frame: int, line: int, line_addr: int, dirty: bool) -> None:
        victim, victim_dirty = self.store.install(frame, line, dirty)
        if victim_dirty:
            # The evicted line is dirty: it must be written to off-package DRAM.
            self.flows.evict_dirty_to_off(now, victim * self.line_size, self.line_size)
            self._counters["dirty_victim_writebacks"] += 1
        # Fill writes the 64 B line and its tag into the TAD frame.
        self.flows.fill_in_only(now, line_addr, self.line_size)
        self.flows.fill_metadata(now, line_addr)
        self._counters["fills"] += 1

    def _writeback(self, now: int, frame: int, resident: bool, line_addr: int) -> AccessResult:
        # BEAR writeback probe: read only the tag first.
        self.probe.probe(now, line_addr)
        if resident:
            self.flows.writeback_to_cache(now, line_addr)
            self.store.mark_dirty(frame)
            self._counters["writeback_hits"] += 1
            return self._result_of(0, True, "in-package")
        self.flows.writeback_to_off(now, line_addr)
        self._counters["writeback_misses"] += 1
        return self._result_of(0, False, "off-package")
