"""The repository benchmark: simulator and campaign throughput.

Run from the repository root::

    python3 perfbench/run.py --workload missbound-reads --seed 1 --seconds 35 --trace 0

Workloads (fixed budgets; the seed picks the generated traces):

* ``missbound-reads``  -- 4 cores, scale 0.1, {mcf, pagerank} x
  {nocache, alloy, unison, banshee}: the miss-bound regime of the figures.
* ``missbound-writes`` -- 4 cores, scale 0.1, lbm x {nocache, alloy, tdc,
  banshee}: the same layers through the writeback and dirty-evict paths.
* ``campaign``         -- ``run_campaign`` with the default supervised
  executor on a fresh store: 48 short cells per pass.

Each run repeats its workload in passes until ``--seconds`` have elapsed
and reports medians over the passes.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer split (see ``spans.py``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Outputs are checked outside the timed region: every repeat of a cell must
give identical simulated statistics, the default engine must agree with the
scalar reference engine on a prefix of every cell, and a traced pass must
agree with the untraced one.  A cell that raises, passes its deadline or
fails a check counts as failed.  See ``CAVEATS.md`` for what the numbers do
not show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Stores, spool files and other run-time leftovers; removed on exit.
WORK_DIR = ROOT / ".perfbench_tmp"

#: Wall-clock limit of one simulation cell, and of one campaign pass.
CELL_DEADLINE_S = 30.0
CAMPAIGN_DEADLINE_S = 60.0

#: Share of each core's records that warms the caches before measurement.
WARMUP_FRACTION = 0.5


@dataclass(frozen=True)
class SimWorkload:
    """A (program x scheme) matrix simulated in-process through ``run_simulation``."""

    programs: Tuple[str, ...]
    schemes: Tuple[str, ...]
    num_cores: int
    scale: float
    records_per_core: int
    #: Records per core of the prefix compared against the scalar engine.
    check_records_per_core: int


@dataclass(frozen=True)
class CampaignWorkload:
    """A campaign of short cells run through ``run_campaign``."""

    programs: Tuple[str, ...]
    schemes: Tuple[str, ...]
    seeds_per_pass: int
    num_cores: int
    scale: float
    records_per_core: int
    check_records_per_core: int


WORKLOADS = {
    "missbound-reads": SimWorkload(
        programs=("mcf", "pagerank"), schemes=("nocache", "alloy", "unison", "banshee"),
        num_cores=4, scale=0.1, records_per_core=10_000, check_records_per_core=1_000,
    ),
    "missbound-writes": SimWorkload(
        programs=("lbm",), schemes=("nocache", "alloy", "tdc", "banshee"),
        num_cores=4, scale=0.1, records_per_core=10_000, check_records_per_core=1_000,
    ),
    "campaign": CampaignWorkload(
        programs=("gcc", "mcf", "lbm", "pagerank", "libquantum", "omnetpp"),
        schemes=("nocache", "alloy", "unison", "banshee"), seeds_per_pass=2,
        num_cores=2, scale=0.1, records_per_core=3_000, check_records_per_core=500,
    ),
}

#: Modules imported by a run; their import time is part of set-up.
SIM_IMPORTS = "repro.experiments.runner, repro.sim.config, repro.workloads.registry"
CAMPAIGN_IMPORTS = "repro.campaign.driver, repro.campaign.spec, repro.campaign.store"

#: (name, unit) of every per-layer metric, in print order.
LAYER_METRICS = (
    ("workloads.gen_s", "s"), ("workloads.gen_fraction", "ratio"),
    ("sim.engine.self_s", "s"), ("sim.system.calls", "count"), ("sim.system.self_s", "s"),
    ("sim.inline_hit_ratio", "ratio"),
    ("vm.walks", "count"), ("vm.self_s", "s"), ("vm.pte_batches", "count"),
    ("vm.pte_self_s", "s"),
    ("cache.calls", "count"), ("cache.self_s", "s"), ("cache.llc_miss_ratio", "ratio"),
    ("dramcache.calls", "count"), ("dramcache.self_s", "s"), ("dramcache.hit_rate", "ratio"),
    ("dram.calls", "count"), ("dram.self_s", "s"), ("dram.calls_per_llc_miss", "ratio"),
    ("dram.in_bytes_per_instr", "B/instr"), ("dram.off_bytes_per_instr", "B/instr"),
    ("campaign.cell_s", "s"), ("campaign.overhead_s", "s"), ("campaign.store_put_s", "s"),
    ("campaign.retries", "count"),
    ("trace.unattributed_s", "s"), ("tracing_overhead", "ratio"),
)


class CellDeadline(Exception):
    """A simulation cell ran past :data:`CELL_DEADLINE_S`."""


class CampaignDeadline(KeyboardInterrupt):
    """A campaign pass ran past :data:`CAMPAIGN_DEADLINE_S`.

    A ``KeyboardInterrupt`` so that the supervised executor takes its
    interrupt path: it kills the outstanding workers and the campaign
    returns the cells that completed.
    """


@contextmanager
def deadline(seconds: float, error: type) -> Iterator[None]:
    """Raise ``error`` in the main thread if the block runs past ``seconds``."""

    def expire(signum: int, frame: object) -> None:
        raise error(f"deadline of {seconds:g} s passed")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Pass:
    """One repetition of a workload's whole matrix."""

    setup_s: float
    #: Set-up plus the whole matrix.
    wall_s: float
    #: Trace records one cell simulates (all cores, warmup included).
    records_per_cell: int
    #: cell name -> host seconds spent simulating it: inside
    #: ``run_simulation`` for the simulation workloads, the cell's own wall
    #: time in its worker for ``campaign``.  Failed cells are absent.
    cell_s: Dict[str, float]
    #: cell name -> simulated statistics (``identity_dict``); failed cells absent.
    stats: Dict[str, dict]
    #: cell name -> why the cell failed.
    errors: Dict[str, str]
    #: Per-layer numbers of a traced pass.
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def cells(self) -> int:
        return len(self.stats) + len(self.errors)

    @property
    def busy_s(self) -> float:
        return sum(self.cell_s.values())

    @property
    def records(self) -> int:
        return len(self.stats) * self.records_per_cell


# ---------------------------------------------------------------- simulation workloads


def sim_cells(spec: SimWorkload) -> List[Tuple[str, str, str]]:
    return [(f"{scheme}/{program}", program, scheme)
            for program in spec.programs for scheme in spec.schemes]


def sim_pass(spec: SimWorkload, seed: int) -> Pass:
    """Simulate every cell once."""
    from repro.experiments.runner import run_simulation
    from repro.sim.config import SystemConfig
    from repro.workloads.registry import get_workload

    start = time.perf_counter()
    built = [
        (name, SystemConfig.scaled_default(scheme=scheme, num_cores=spec.num_cores, seed=seed),
         get_workload(program, spec.num_cores, scale=spec.scale, seed=seed))
        for name, program, scheme in sim_cells(spec)
    ]
    setup_s = time.perf_counter() - start
    cell_s: Dict[str, float] = {}
    stats: Dict[str, dict] = {}
    errors: Dict[str, str] = {}
    for name, config, workload in built:
        cell_start = time.perf_counter()
        try:
            with deadline(CELL_DEADLINE_S, CellDeadline):
                result = run_simulation(config, workload=workload,
                                        records_per_core=spec.records_per_core,
                                        warmup_fraction=WARMUP_FRACTION)
        except Exception as exc:  # noqa: BLE001 -- a failing cell is reported, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
            continue
        cell_s[name] = time.perf_counter() - cell_start
        stats[name] = result.identity_dict()
    return Pass(setup_s, time.perf_counter() - start, spec.num_cores * spec.records_per_core,
                cell_s, stats, errors)


def install_sim_spans(recorder, spec: SimWorkload, seed: int) -> None:
    """Wrap every layer boundary of the simulator (before any system is built)."""
    from repro.cache.hierarchy import CacheHierarchy
    from repro.dram.device import DramDevice
    from repro.experiments import runner
    from repro.memctrl.controller import MemoryControllerSet
    from repro.sim.config import SystemConfig
    from repro.sim.engine import SimulationEngine
    from repro.sim.system import System
    from repro.vm.page_table import PageTable
    from repro.vm.tlb import Tlb
    from repro.workloads.registry import get_workload

    probe = System(SystemConfig.scaled_default(num_cores=spec.num_cores, seed=seed),
                   get_workload(spec.programs[0], spec.num_cores, scale=spec.scale, seed=seed))
    # The outermost span: its self time is whatever no layer below claims
    # (system construction, result collection).
    recorder.wrap(runner, "run_simulation", "trace.unattributed")
    recorder.wrap(SimulationEngine, "run", "sim.engine")
    recorder.wrap(System, "process_record_cols", "sim.system")
    recorder.wrap(PageTable, "translate", "vm")
    recorder.wrap(Tlb, "fill", "vm")
    recorder.wrap(type(probe.os_services), "pte_update_batch", "vm.pte",
                  span="pte_update_batch")
    recorder.wrap(CacheHierarchy, "access_reused", "cache",
                  on_result=lambda outcome: "llc_miss" if outcome.llc_miss else None)
    recorder.wrap(MemoryControllerSet, "access", "dramcache")
    recorder.wrap(DramDevice, "access_latency", "dram")


def sim_layers(recorder, traced: Pass) -> Dict[str, float]:
    """Per-layer numbers of one traced simulation pass.

    The self times of all layers, the unattributed remainder included, add
    up to the time spent inside ``run_simulation``.
    """
    self_s, calls = recorder.self_s, recorder.calls
    print(f"reconcile: layer self times {sum(self_s.values()):.4f} s, of which "
          f"{self_s['trace.unattributed']:.4f} s unattributed; time inside run_simulation "
          f"{recorder.top_level_s:.4f} s")
    llc_misses = recorder.events["llc_miss"]
    cells = list(traced.stats.values())
    hits = sum(cell["dram_cache_hits"] for cell in cells)
    lookups = hits + sum(cell["dram_cache_misses"] for cell in cells)
    instructions = sum(cell["instructions"] for cell in cells)
    in_bytes = sum(sum(cell["in_traffic_bytes"].values()) for cell in cells)
    off_bytes = sum(sum(cell["off_traffic_bytes"].values()) for cell in cells)
    return {
        "sim.engine.self_s": self_s["sim.engine"],
        "sim.system.calls": calls["System.process_record_cols"],
        "sim.system.self_s": self_s["sim.system"],
        "sim.inline_hit_ratio": 1.0 - calls["System.process_record_cols"] / traced.records,
        "vm.walks": calls["PageTable.translate"],
        "vm.self_s": self_s["vm"],
        "vm.pte_batches": calls["pte_update_batch"],
        "vm.pte_self_s": self_s["vm.pte"],
        "cache.calls": calls["CacheHierarchy.access_reused"],
        "cache.self_s": self_s["cache"],
        "cache.llc_miss_ratio": llc_misses / max(1, calls["CacheHierarchy.access_reused"]),
        "dramcache.calls": calls["MemoryControllerSet.access"],
        "dramcache.self_s": self_s["dramcache"],
        "dramcache.hit_rate": hits / max(1, lookups),
        "dram.calls": calls["DramDevice.access_latency"],
        "dram.self_s": self_s["dram"],
        "dram.calls_per_llc_miss": calls["DramDevice.access_latency"] / max(1, llc_misses),
        "dram.in_bytes_per_instr": in_bytes / max(1, instructions),
        "dram.off_bytes_per_instr": off_bytes / max(1, instructions),
        "trace.unattributed_s": self_s["trace.unattributed"],
    }


def generation_seconds(spec: SimWorkload, seed: int) -> float:
    """A standalone ``trace_batches`` pass over every cell's records."""
    from repro.workloads.registry import get_workload

    start = time.perf_counter()
    for _name, program, _scheme in sim_cells(spec):
        workload = get_workload(program, spec.num_cores, scale=spec.scale, seed=seed)
        for core_id in range(spec.num_cores):
            produced = 0
            for gaps, _addrs, _writes in workload.trace_batches(core_id):
                produced += len(gaps)
                if produced >= spec.records_per_core:
                    break
    return time.perf_counter() - start


def sim_engine_mismatches(spec: SimWorkload, seed: int) -> Dict[str, str]:
    """Cells whose default engine disagrees with the scalar reference on a prefix."""
    from repro.sim.config import SystemConfig

    mismatches: Dict[str, str] = {}
    for name, program, scheme in sim_cells(spec):
        config = SystemConfig.scaled_default(scheme=scheme, num_cores=spec.num_cores, seed=seed)
        mismatch = engine_mismatch(config, program, spec.scale, seed,
                                   spec.check_records_per_core, WARMUP_FRACTION)
        if mismatch is not None:
            mismatches[name] = mismatch
    return mismatches


def engine_mismatch(config, program: str, scale: float, seed: int,
                    records_per_core: int, warmup_fraction: float) -> Optional[str]:
    """Why the default and scalar engines disagree on one cell prefix, or ``None``."""
    from repro.experiments.runner import run_simulation

    try:
        with deadline(CELL_DEADLINE_S, CellDeadline):
            default, scalar = (
                run_simulation(config, workload_name=program, records_per_core=records_per_core,
                               scale=scale, seed=seed, warmup_fraction=warmup_fraction,
                               engine_mode=mode).identity_dict()
                for mode in (None, "scalar")
            )
    except Exception as exc:  # noqa: BLE001 -- a failing check is reported, not fatal
        return f"reference check raised {type(exc).__name__}: {exc}"
    if default != scalar:
        differing = sorted(key for key in default if default[key] != scalar.get(key))
        return "default engine differs from the scalar engine in " + ", ".join(differing)
    expected = config.num_cores * (records_per_core - int(records_per_core * warmup_fraction))
    if default["memory_accesses"] != expected:
        return f"measured {default['memory_accesses']} accesses, expected {expected}"
    return None


# ---------------------------------------------------------------- campaign workload


def campaign_spec(spec: CampaignWorkload, seed: int):
    from repro.campaign.spec import CampaignSpec, SweepGrid

    return CampaignSpec(
        name="perfbench",
        grids=[SweepGrid(schemes=list(spec.schemes), workloads=list(spec.programs),
                         seeds=[seed + offset for offset in range(spec.seeds_per_pass)])],
        records_per_core=spec.records_per_core, scale=spec.scale,
        warmup_fraction=WARMUP_FRACTION, num_cores=spec.num_cores, preset="scaled",
        cell_timeout_seconds=CELL_DEADLINE_S,
    )


def campaign_pass(spec: CampaignWorkload, seed: int, workers: int) -> Pass:
    """Run the campaign once on a fresh store, under the supervised executor."""
    from repro.campaign.driver import run_campaign
    from repro.campaign.store import ResultStore

    store_dir = WORK_DIR / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    start = time.perf_counter()
    campaign = campaign_spec(spec, seed)
    names = {cell.key(): f"{cell.label}/{cell.workload}/seed{cell.seed}"
             for cell in campaign.cells()}
    store = ResultStore(store_dir)
    setup_s = time.perf_counter() - start
    run_start = time.perf_counter()
    outcomes = []
    try:
        with deadline(CAMPAIGN_DEADLINE_S, CampaignDeadline):
            outcomes = run_campaign(campaign, store=store, workers=workers).outcomes
    except CampaignDeadline:
        pass  # raised outside the executor's loop; every cell counts as failed
    run_s = time.perf_counter() - run_start
    finished = [outcome for outcome in outcomes if outcome.ok]
    stats = {names[outcome.key]: outcome.result.identity_dict() for outcome in finished}
    errors = {name: "no result before the campaign deadline"
              for name in names.values() if name not in stats}
    for outcome in outcomes:
        if not outcome.ok:
            errors[names[outcome.key]] = (outcome.error or "failed").splitlines()[0]
    cell_s = {names[outcome.key]: outcome.wall_seconds for outcome in finished}
    return Pass(setup_s, setup_s + run_s, spec.num_cores * spec.records_per_core, cell_s,
                stats, errors, layers={
                    "campaign.cell_s": sum(cell_s.values()),
                    "campaign.overhead_s": workers * run_s - sum(cell_s.values()),
                    "campaign.retries": sum(outcome.attempt - 1 for outcome in outcomes),
                })


def install_campaign_spans(recorder) -> None:
    """Time store puts in the parent process (cells run in worker processes)."""
    from repro.campaign.store import ResultStore

    recorder.wrap(ResultStore, "put", "campaign.store")


def campaign_layers(recorder, traced: Pass) -> Dict[str, float]:
    return {"campaign.store_put_s": recorder.self_s["campaign.store"]}


def campaign_engine_mismatches(spec: CampaignWorkload, seed: int) -> Dict[str, str]:
    mismatches: Dict[str, str] = {}
    for cell in campaign_spec(spec, seed).cells():
        mismatch = engine_mismatch(cell.config, cell.workload, cell.scale, cell.seed,
                                   spec.check_records_per_core, cell.warmup_fraction)
        if mismatch is not None:
            mismatches[f"{cell.label}/{cell.workload}/seed{cell.seed}"] = mismatch
    return mismatches


# ---------------------------------------------------------------- measurement


def import_seconds(modules: str, repeats: int = 5) -> float:
    """Median time to import ``modules`` in a fresh interpreter."""
    code = ("import time\nstart = time.perf_counter()\n"
            f"import {modules}\nprint(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_passes(seconds: float, untraced: Callable[[], Pass],
               traced: Optional[Callable[[], Pass]]) -> Tuple[List[Pass], List[Pass]]:
    """Repeat passes until ``seconds`` have elapsed (at least one of each kind).

    With ``traced`` given, untraced and traced passes alternate.  A pass
    with a failed cell ends the loop: a hang must not stall the benchmark.
    """
    plain: List[Pass] = []
    spans: List[Pass] = []
    start = time.perf_counter()
    while True:
        plain.append(untraced())
        if traced is not None:
            spans.append(traced())
        if plain[-1].errors or (spans and spans[-1].errors):
            break
        if time.perf_counter() - start >= seconds:
            break
    return plain, spans


def traced_pass(install: Callable, run_pass: Callable[[], Pass], layers: Callable) -> Pass:
    """Run one pass with spans installed; ``layers`` derives its per-layer numbers."""
    from spans import SpanRecorder

    with SpanRecorder() as recorder:
        install(recorder)
        result = run_pass()
    result.layers.update(layers(recorder, result))
    return result


def digest(stats: Dict[str, dict]) -> str:
    payload = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def count_failures(passes: List[Pass], reference: Dict[str, dict],
                   mismatches: Dict[str, str]) -> Tuple[int, int, Dict[str, str]]:
    """(attempted, failed, reasons) over every cell run of ``passes``.

    A cell run fails if it raised or passed its deadline, if its statistics
    differ from the cell's first run, or if the cell failed the scalar check.
    """
    attempted = failed = 0
    reasons: Dict[str, str] = {}
    for result in passes:
        attempted += result.cells
        for name, error in result.errors.items():
            failed += 1
            reasons.setdefault(name, error)
        for name, stats in result.stats.items():
            if name in mismatches:
                failed += 1
                reasons.setdefault(name, mismatches[name])
            elif stats != reference.get(name):
                failed += 1
                reasons.setdefault(name, "statistics differ from the cell's first run")
    return attempted, failed, reasons


def median_of(passes: List[Pass], value: Callable[[Pass], float]) -> float:
    return statistics.median(value(result) for result in passes)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    # Measure the program's defaults: no engine mode, bench budget or fault
    # plan from the caller's shell reaches the program or its workers.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    # The supervised executor spools outcomes under the temporary directory.
    tempfile.tempdir = str(WORK_DIR)
    try:
        return measure(args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def measure(args: argparse.Namespace) -> int:
    spec = WORKLOADS[args.workload]
    seed = args.seed
    is_campaign = isinstance(spec, CampaignWorkload)
    # Set-up includes imports; only the end-to-end metrics need them.
    import_s = 0.0 if args.trace else import_seconds(
        CAMPAIGN_IMPORTS if is_campaign else SIM_IMPORTS)

    if is_campaign:
        workers = len(os.sched_getaffinity(0))
        untraced = lambda: campaign_pass(spec, seed, workers)  # noqa: E731
        install, layers = install_campaign_spans, campaign_layers
    else:
        untraced = lambda: sim_pass(spec, seed)  # noqa: E731
        install = lambda recorder: install_sim_spans(recorder, spec, seed)  # noqa: E731
        layers = sim_layers
    traced = (lambda: traced_pass(install, untraced, layers)) if args.trace else None
    plain, spans = run_passes(args.seconds, untraced, traced)

    # ---- output check (outside the timed region)
    reference = dict(plain[0].stats)
    mismatches = (campaign_engine_mismatches(spec, seed) if is_campaign
                  else sim_engine_mismatches(spec, seed))
    attempted, failed, reasons = count_failures(plain + spans, reference, mismatches)
    failed_fraction = failed / max(1, attempted)

    print(f"workload {args.workload} seed {seed}: {len(plain)} untraced and {len(spans)} "
          f"traced passes, {attempted} cell runs, {failed} failed")
    for name, reason in sorted(reasons.items()):
        print(f"  FAILED {name}: {reason}")
    print(f"digest {args.workload} seed={seed} sha256:{digest(reference)}")

    if args.trace:
        metrics = layer_metrics(spec, seed, plain, spans, is_campaign)
        units = dict(LAYER_METRICS)
    else:
        metrics = end_to_end_metrics(plain, import_s, is_campaign)
        units = {"records_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                 "cells_per_min": "1/min", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        print(f"  {name:<26} {value:.6g} {units[name]}")
    print(f"  {'failed_fraction':<26} {failed_fraction:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def end_to_end_metrics(plain: List[Pass], import_s: float, is_campaign: bool) -> Dict[str, float]:
    """The end-to-end metrics of the untraced passes.

    Each cell's time is its median over the run's passes, and a pass of
    the matrix is measured as the sum of those medians (the simulation
    workloads run their cells one after another).  The campaign runs cells
    in parallel, so its pass time is the median wall time of whole passes.
    """
    cell_s: Dict[str, List[float]] = {}
    for result in plain:
        for name, seconds in result.cell_s.items():
            cell_s.setdefault(name, []).append(seconds)
    busy_s = sum(statistics.median(samples) for samples in cell_s.values())
    setup_s = median_of(plain, lambda p: p.setup_s)
    pass_s = median_of(plain, lambda p: p.wall_s) if is_campaign else setup_s + busy_s
    return {
        "records_per_s": len(cell_s) * plain[0].records_per_cell / busy_s if busy_s else 0.0,
        "wall_s": import_s + pass_s,
        "setup_s": import_s + setup_s,
        "cells_per_min": 60.0 * len(cell_s) / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(spec, seed: int, plain: List[Pass], spans: List[Pass],
                  is_campaign: bool) -> Dict[str, float]:
    """Every per-layer metric; those of the other kind of workload read 0."""
    metrics = {metric: 0.0 for metric, _unit in LAYER_METRICS}
    for metric in spans[0].layers:
        metrics[metric] = median_of(spans, lambda p: p.layers[metric])
    metrics["tracing_overhead"] = (median_of(spans, lambda p: p.wall_s)
                                   / median_of(plain, lambda p: p.wall_s))
    if not is_campaign:
        gen_s = generation_seconds(spec, seed)
        metrics["workloads.gen_s"] = gen_s
        metrics["workloads.gen_fraction"] = gen_s / median_of(plain, lambda p: p.busy_s)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
