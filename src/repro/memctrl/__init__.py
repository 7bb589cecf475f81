"""Memory-controller layer: request types and controller routing."""

from repro.memctrl.controller import MemoryControllerSet
from repro.memctrl.request import MappingInfo, MemRequest

__all__ = ["MemoryControllerSet", "MappingInfo", "MemRequest"]
