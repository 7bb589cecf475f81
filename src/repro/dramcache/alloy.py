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

Residency is a :class:`~repro.dramcache.components.stores.DirectMappedLineStore`.
Every DRAM access of a request — the TAD read, the BEAR probe, the demand
fetch, the fill and a dirty victim's writeback — is issued in line from
:meth:`AlloyCache.access`, which runs for every LLC miss and writeback.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.device import DramDevice
from repro.dramcache.base import LINE_SIZE, TAG_ACCESS_BYTES, DramCacheScheme, OsServices
from repro.dramcache.components.stores import DirectMappedLineStore
from repro.memctrl.request import MemRequest
from repro.sim.config import SystemConfig
from repro.sim.stats import TrafficCategory
from repro.util.rng import DeterministicRng

_HIT = TrafficCategory.HIT_DATA
_MISS = TrafficCategory.MISS_DATA
_TAG = TrafficCategory.TAG
_REPL = TrafficCategory.REPLACEMENT
_WB = TrafficCategory.WRITEBACK


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
        # DeterministicRng.chance's draw, hoisted for the per-miss fill decision.
        self._draw = self.rng.generator.random
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

    def access(self, now: int, request: MemRequest, mc_id: int) -> int:
        line = request.addr // LINE_SIZE
        line_size = self.line_size
        line_addr = line * line_size
        in_access = self._in_access
        counters = self._counters
        store = self.store
        frame = line % store.num_frames
        tags = store.tags
        dirty_frames = store.dirty_frames
        resident = tags.get(frame) == line
        if request.is_writeback:
            # BEAR writeback probe: read only the tag first.
            in_access(now, line_addr, TAG_ACCESS_BYTES, _TAG, True)
            if resident:
                in_access(now, line_addr, line_size, _WB, True)
                dirty_frames.add(frame)
                counters["writeback_hits"] += 1
            else:
                self._off_access(now, line_addr, line_size, _WB, True)
                counters["writeback_misses"] += 1
            return 0

        is_write = request.is_write
        if resident:
            if (
                self.balancer is not None
                and not is_write
                and frame not in dirty_frames
                and self.balancer.should_redirect(self.rng.random())
            ):
                # Bandwidth balancing (Section 5.4.2): serve this clean hit
                # from off-package DRAM to relieve the in-package channels.
                latency = self._off_access(now, line_addr, line_size, _HIT)
            else:
                # One TAD read returns tag + data: 96 B on the wire.
                latency = in_access(now, line_addr, line_size, _HIT)
                in_access(now, line_addr, TAG_ACCESS_BYTES, _TAG, True)
            if is_write:
                dirty_frames.add(frame)
            counters["dram_cache_hits"] += 1
            return latency

        # Miss: the speculative TAD read is wasted, then fetch from off-package.
        latency = in_access(now, line_addr, line_size, _MISS)
        in_access(now, line_addr, TAG_ACCESS_BYTES, _TAG, True)
        latency += self._off_access(now + latency, line_addr, line_size, _MISS)
        counters["dram_cache_misses"] += 1

        # Stochastic fill (DeterministicRng.chance in line: no draw at
        # probability 0 or 1).
        probability = self.fill_probability
        if probability >= 1.0 or (probability > 0.0 and self._draw() < probability):
            fill_at = now + latency
            if frame in dirty_frames:
                # The evicted line is dirty: it must be written to off-package DRAM.
                victim_addr = tags[frame] * line_size
                in_access(fill_at, victim_addr, line_size, _REPL, True)
                self._off_access(fill_at, victim_addr, line_size, _WB, True)
                counters["dirty_victim_writebacks"] += 1
            if is_write:
                dirty_frames.add(frame)
            else:
                dirty_frames.discard(frame)
            tags[frame] = line
            # The fill writes the 64 B line and its tag into the TAD frame.
            in_access(fill_at, line_addr, line_size, _REPL, True)
            in_access(fill_at, line_addr, TAG_ACCESS_BYTES, _REPL, True)
            counters["fills"] += 1
        return latency
