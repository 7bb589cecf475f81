"""Deterministic per-layer bytecode and call counts for one cell.

Wall-clock throughput on a shared host drifts by up to 2x between runs; the
number of bytecodes the interpreter executes per record does not.
:func:`count_ops` runs one cell under :func:`sys.settrace` with opcode
events enabled and attributes every executed bytecode and every Python
frame entry to the layer of the module whose code ran, using the module →
layer map of DESIGN.md §1.  Only ``engine.run`` is traced: system and
workload construction are excluded, record generation (inside the run) is
not.  C functions (numpy, ``dict`` and ``OrderedDict`` methods) execute no
bytecodes and enter no Python frame, so they count nothing here; their cost
shows only in wall time.

Two runs of the same cell give identical counts, so a before/after pair
measures a change to the per-record path exactly, on any host.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, DefaultDict, Dict, Optional, Tuple

from repro.perf.harness import _build_config
from repro.sim.engine import DEFAULT_ENGINE_MODE, SimulationEngine
from repro.sim.system import System
from repro.workloads.registry import get_workload

#: Module prefix → layer (DESIGN.md §1), first match wins.  Modules no
#: prefix names (``repro.cpu``, ``repro.util``, the rest of ``repro.sim``,
#: the standard library) count as ``other``.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads", "workloads"),
    ("repro.trace", "workloads"),
    ("repro.sim.engine", "sim"),
    ("repro.sim.batch", "sim"),
    ("repro.sim.system", "sim"),
    ("repro.vm", "vm"),
    ("repro.cache", "cache"),
    ("repro.memctrl", "dramcache"),
    ("repro.dramcache", "dramcache"),
    ("repro.core", "dramcache"),
    ("repro.dram", "dram"),
)

#: Report order of the layers.
LAYERS: Tuple[str, ...] = ("workloads", "sim", "vm", "cache", "dramcache", "dram", "other")


def layer_of(module: str) -> str:
    """The layer a module's code is charged to."""
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


@dataclass
class OpCount:
    """Bytecodes and Python calls of one traced cell, per layer."""

    scheme: str
    workload: str
    records: int
    #: layer -> (bytecodes, calls), every layer of :data:`LAYERS` present.
    layers: Dict[str, Tuple[int, int]]

    @property
    def bytecodes(self) -> int:
        """Bytecodes over all layers."""
        return sum(ops for ops, _calls in self.layers.values())

    @property
    def calls(self) -> int:
        """Python frame entries over all layers."""
        return sum(calls for _ops, calls in self.layers.values())

    def per_record(self, value: int) -> float:
        """``value`` divided by the records the cell processed."""
        return value / self.records if self.records else 0.0


def count_ops(
    scheme: str,
    workload_name: str,
    records_per_core: int,
    num_cores: int = 1,
    scale: float = 0.01,
    seed: int = 1,
    preset: str = "scaled",
    engine_mode: str = DEFAULT_ENGINE_MODE,
) -> OpCount:
    """Run one cell under opcode tracing; returns its per-layer counts."""
    config = _build_config(preset, scheme, num_cores, seed)
    workload = get_workload(
        workload_name, num_cores, scale=scale, seed=seed, page_size=config.dram_cache.page_size
    )
    engine = SimulationEngine(System(config, workload), mode=engine_mode)
    ops: DefaultDict[Any, int] = defaultdict(int)
    calls: DefaultDict[Any, int] = defaultdict(int)

    def local(frame: Any, event: str, _arg: Any) -> Any:
        if event == "opcode":
            ops[frame.f_code] += 1
        return local

    def on_call(frame: Any, event: str, _arg: Any) -> Optional[Any]:
        if event != "call":
            return None
        calls[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        engine.run(records_per_core)
    finally:
        sys.settrace(previous)

    # Code objects map to modules by filename: every repro module lives at
    # ``.../repro/<package path>.py``.
    layers: Dict[str, Tuple[int, int]] = {layer: (0, 0) for layer in LAYERS}
    for code in set(ops) | set(calls):
        layer = layer_of(_module_of(code.co_filename))
        layer_ops, layer_calls = layers[layer]
        layers[layer] = (layer_ops + ops.get(code, 0), layer_calls + calls.get(code, 0))
    return OpCount(scheme, workload_name, engine.records_processed, layers)


def _module_of(filename: str) -> str:
    """Dotted module name of a ``repro`` source file ('' outside the package)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index < 0 or not path.endswith(".py"):
        return ""
    dotted = "repro." + path[index + len(marker):-3].replace("/", ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


def format_opcount(count: OpCount) -> str:
    """A per-layer table of bytecodes and calls per record."""
    lines = [
        f"# count-ops {count.scheme}/{count.workload}: {count.records} records",
        f"{'layer':<10s} {'bytecodes/rec':>14s} {'calls/rec':>10s}",
    ]
    for layer in LAYERS:
        layer_ops, layer_calls = count.layers[layer]
        lines.append(
            f"{layer:<10s} {count.per_record(layer_ops):>14.1f} "
            f"{count.per_record(layer_calls):>10.2f}"
        )
    lines.append(
        f"{'total':<10s} {count.per_record(count.bytecodes):>14.1f} "
        f"{count.per_record(count.calls):>10.2f}"
    )
    return "\n".join(lines)
