"""Memory-controller routing.

Physical addresses are statically mapped to memory controllers at page
granularity (Section 2).  The set of controllers shares one DRAM-cache
scheme object; schemes that keep per-controller hardware (Banshee's tag
buffers) index their internal structures with the controller id returned by
:meth:`MemoryControllerSet.controller_for`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memctrl.request import MemRequest
from repro.sim.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.dramcache.base import DramCacheScheme


class MemoryControllerSet:
    """All memory controllers of the system."""

    def __init__(self, config: SystemConfig, scheme: "DramCacheScheme") -> None:
        self.config = config
        self.scheme = scheme
        self.num_controllers = config.num_mem_controllers
        # Bound method hoisted once: ``access`` runs for every LLC miss and
        # writeback, and the extra attribute hop is measurable at trace scale.
        self._scheme_access = scheme.access

    def controller_for(self, addr: int, page_size: int) -> int:
        """Memory controller owning ``addr`` (static page-granularity mapping)."""
        return (addr // page_size) % self.num_controllers

    def access(self, now: int, request: MemRequest) -> int:
        """Route one request to the DRAM-cache scheme; returns its latency.

        Runs for every LLC miss and writeback, so the :meth:`controller_for`
        mapping is computed in line rather than called.  Request counts are
        the system's ``llc_misses`` and ``llc_writebacks``.
        """
        return self._scheme_access(
            now, request, (request.addr // request.page_size) % self.num_controllers
        )
