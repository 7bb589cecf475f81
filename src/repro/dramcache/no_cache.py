"""The NoCache baseline: the system only has off-package DRAM.

Speedups in Figure 4 of the paper are normalised to this configuration.
"""

from __future__ import annotations

from repro.dramcache.base import DramCacheScheme
from repro.memctrl.request import MemRequest
from repro.sim.stats import TrafficCategory

_HIT = TrafficCategory.HIT_DATA
_WRITEBACK = TrafficCategory.WRITEBACK


class NoCache(DramCacheScheme):
    """Every LLC miss and writeback is served by off-package DRAM."""

    name = "nocache"

    def access(self, now: int, request: MemRequest, mc_id: int) -> int:
        if request.is_writeback:
            self._off_access(now, request.addr, self.line_size, _WRITEBACK, True)
            return 0
        self._counters["dram_cache_misses"] += 1
        return self._off_access(now, request.addr, self.line_size, _HIT)
