"""Memory request types exchanged between the LLC and the MCs.

Every L1 miss in Banshee carries the PTE/TLB mapping bits (cached + way)
down the hierarchy (Section 3.2).  In this simulator only requests that
actually reach a memory controller matter, so :class:`MemRequest` carries the
mapping bits the TLB held when the access was issued.  LLC dirty evictions
(writebacks) do not carry mapping information — that is exactly the case the
tag buffer's clean entries and the DRAM-cache tag probe exist for.

These are hot-path objects — one (reused) request per LLC miss plus one per
writeback; a controller access returns its latency as a plain ``int`` — so
they are plain ``__slots__`` classes rather than dataclasses: no per-instance
``__dict__``, cheaper construction, and cheap in-place mutation for the
preallocated requests :class:`repro.sim.system.System` reuses.  (Manual
``__slots__`` because ``@dataclass(slots=True)`` needs Python 3.10 and
fields with defaults conflict with hand-written slots.)
"""

from __future__ import annotations

from typing import Optional, Tuple


class MappingInfo:
    """Banshee PTE/TLB extension bits carried by a request."""

    __slots__ = ("cached", "way")

    def __init__(self, cached: bool = False, way: int = 0) -> None:
        self.cached = cached
        self.way = way

    def as_tuple(self) -> Tuple[bool, int]:
        """The (cached, way) pair."""
        return (self.cached, self.way)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingInfo):
            return NotImplemented
        return self.cached == other.cached and self.way == other.way

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MappingInfo(cached={self.cached!r}, way={self.way!r})"


class MemRequest:
    """One request arriving at a memory controller."""

    __slots__ = ("addr", "is_write", "core_id", "is_writeback", "mapping", "page_size")

    def __init__(
        self,
        addr: int,
        is_write: bool,
        core_id: int,
        is_writeback: bool = False,
        mapping: Optional[MappingInfo] = None,
        page_size: int = 4096,
    ) -> None:
        if addr < 0:
            raise ValueError("address must be non-negative")
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.addr = addr
        self.is_write = is_write
        self.core_id = core_id
        self.is_writeback = is_writeback
        self.mapping = mapping
        self.page_size = page_size

    @property
    def page(self) -> int:
        """Page number of the request at its page size."""
        return self.addr // self.page_size

    @property
    def line(self) -> int:
        """64-byte line number of the request."""
        return self.addr // 64

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MemRequest(addr={self.addr:#x}, is_write={self.is_write!r}, "
            f"core_id={self.core_id!r}, is_writeback={self.is_writeback!r}, "
            f"mapping={self.mapping!r}, page_size={self.page_size!r})"
        )
