"""Hot-path regression tests.

Covers the three guarantees of the allocation-free record pipeline:

* engine reuse is safe (per-run counter reset — the warmup/budget bug),
* warmup is excluded from *every* reported statistic (the
  ``begin_measurement`` snapshot bug for scheme/hierarchy stats),
* the fast path is bit-identical to the pre-refactor implementation
  (golden results captured from the original composed-API pipeline).
"""

import dataclasses
import json
import os

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sram_cache import SramCache
from repro.dramcache.variants import available_scheme_names
from repro.obs.snapshot import EngineSnapshot, capture_cursor
from repro.obs.timeline import TimelineObserver
from repro.sim.batch import RunController
from repro.sim.config import SystemConfig
from repro.sim.engine import ENGINE_MODES, SimulationEngine
from repro.sim.system import System
from repro.util.rng import DeterministicRng
from repro.workloads.registry import get_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_hotpath.json")
#: Miss-bound cells (4 cores, scale 0.1, mcf/lbm x every base scheme): most
#: records reach the memory controller, dirty L2->L3 chains, BEAR writeback
#: probes and page walks are frequent.  Captured from the scalar engine.
MISSBOUND_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_missbound.json")

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

#: Engine modes testable on this host (the numpy front end needs numpy).
TESTABLE_MODES = [
    mode for mode in ENGINE_MODES if mode != "numpy" or HAVE_NUMPY
]


def make_engine(scheme="banshee", workload="gcc", num_cores=2, scale=0.05, seed=1):
    config = SystemConfig.tiny(scheme=scheme, num_cores=num_cores, seed=seed)
    return SimulationEngine(System(config, get_workload(workload, num_cores, scale=scale, seed=seed)))


# ---------------------------------------------------------------- engine reuse


def test_engine_reuse_resets_per_run_counter():
    engine = make_engine()
    engine.run(100)
    assert engine.records_processed == 200  # 2 cores x 100 records
    assert engine.total_records_processed == 200
    engine.run(150)
    assert engine.records_processed == 300  # per-run, not cumulative
    assert engine.total_records_processed == 500


def test_engine_reuse_does_not_exhaust_total_budget():
    """A reused engine used to hit ``max_total_records`` before record one."""
    engine = make_engine()
    engine.run(100)
    second = engine.run(100, max_total_records=150)
    assert engine.records_processed == 150
    # The shared System keeps simulating across runs (no snapshot between
    # runs without warmup), so the result covers both runs' records.
    assert second.memory_accesses == 200 + 150


def test_engine_reuse_does_not_mistime_warmup():
    """A reused engine used to trip the warmup threshold immediately.

    With the bug, ``records_processed`` carried over from the first run, so
    ``begin_measurement`` fired on the second run's first record and the
    "measured" window silently included the warmup records.
    """
    engine = make_engine()
    engine.run(100)
    result = engine.run(100, warmup_records_per_core=60)
    # 2 cores x (100 - 60) post-warmup records, one memory access each.
    assert result.memory_accesses == 80


# ----------------------------------------------------- warmup stat consistency


def test_warmup_excludes_hierarchy_and_scheme_stats():
    """hierarchy_stats/scheme_stats must be post-warmup deltas like the rest."""
    engine = make_engine(workload="mcf", scale=0.05)
    result = engine.run(400, warmup_records_per_core=200)
    hier = result.hierarchy_stats
    # Every post-warmup record makes exactly one L1 access, so the L1
    # hit+miss total must equal the post-warmup access count.  Before the
    # fix these counters covered the whole run (warmup included).
    assert hier["l1_hits"] + hier["l1_misses"] == result.memory_accesses
    assert hier["l1_misses"] == hier["l2_hits"] + hier["l2_misses"]
    # Scheme counters must agree with the (already deltaed) top-level ones.
    assert result.scheme_stats.get("dram_cache_hits", 0) == result.dram_cache_hits
    assert result.scheme_stats.get("dram_cache_misses", 0) == result.dram_cache_misses


def test_no_warmup_stats_unchanged():
    """Without warmup the deltas equal the whole-run totals."""
    engine = make_engine(workload="mcf", scale=0.05)
    result = engine.run(400)
    hier = result.hierarchy_stats
    assert hier["l1_hits"] + hier["l1_misses"] == result.memory_accesses
    assert result.scheme_stats.get("dram_cache_hits", 0) == result.dram_cache_hits


# ------------------------------------------------------- fast-path equivalence


def _reference_walk(hierarchy, core_id, addr, is_write):
    """The hierarchy walk composed from each level's public SramCache API.

    SramCache.access/fill are the per-cache reference model; the inlined
    walk in CacheHierarchy.access_reused must reproduce this composition
    exactly, including the order of random-policy RNG draws.
    """
    l1, l2, l3 = hierarchy.l1[core_id], hierarchy.l2[core_id], hierarchy.l3
    writebacks = []

    def absorb_in_l3(victim_addr):
        evicted = l3.fill(victim_addr, dirty=True)
        if evicted is not None and evicted.dirty:
            writebacks.append((evicted.addr, True))

    first = l1.access(addr, is_write)
    if first.hit:
        return "l1", False, writebacks
    if first.eviction is not None and first.eviction.dirty:
        evicted = l2.fill(first.eviction.addr, dirty=True)
        if evicted is not None and evicted.dirty:
            absorb_in_l3(evicted.addr)
    second = l2.access(addr, is_write)
    if second.hit:
        return "l2", False, writebacks
    if second.eviction is not None and second.eviction.dirty:
        absorb_in_l3(second.eviction.addr)
    third = l3.access(addr, is_write)
    if third.hit:
        return "l3", False, writebacks
    if third.eviction is not None and third.eviction.dirty:
        writebacks.append((third.eviction.addr, True))
    return "memory", True, writebacks


def test_hierarchy_fast_path_matches_public_api():
    base = SystemConfig.tiny(num_cores=2)
    for policy in ("lru", "fifo", "random"):
        config = dataclasses.replace(
            base,
            l1=dataclasses.replace(base.l1, replacement=policy),
            l2=dataclasses.replace(base.l2, replacement=policy),
            l3=dataclasses.replace(base.l3, replacement=policy),
        )
        slow = CacheHierarchy(config, rng=DeterministicRng(3))
        fast = CacheHierarchy(config, rng=DeterministicRng(3))
        rng = DeterministicRng(11)
        for i in range(4000):
            core_id = i % 2
            addr = (rng.randint(0, 1 << 18)) * 16
            is_write = rng.chance(0.3)
            expected = _reference_walk(slow, core_id, addr, is_write)
            outcome = fast.access_reused(core_id, addr, is_write)
            got = (outcome.level, outcome.llc_miss, [(wb.addr, wb.dirty) for wb in outcome.writebacks])
            assert got == expected, policy
        assert fast.stats() == slow.stats(), policy
        for fast_cache, slow_cache in zip(fast.l1 + fast.l2 + [fast.l3], slow.l1 + slow.l2 + [slow.l3]):
            assert [list(bucket.items()) for bucket in fast_cache._sets] == \
                [list(bucket.items()) for bucket in slow_cache._sets], policy


def test_sram_fast_path_matches_public_api():
    from repro.sim.config import CacheLevelConfig

    for policy in ("lru", "fifo", "random"):
        config = CacheLevelConfig(size_bytes=4096, ways=4, replacement=policy)
        slow = SramCache("slow", config, rng=DeterministicRng(5))
        fast = SramCache("fast", config, rng=DeterministicRng(5))
        rng = DeterministicRng(9)
        for _ in range(3000):
            addr = rng.randint(0, 1 << 16)
            is_write = rng.chance(0.5)
            result = slow.access(addr, is_write)
            hit = fast.access_fast(addr, is_write)
            assert hit == result.hit
            if not hit:
                if result.eviction is None:
                    assert fast.victim_addr is None
                else:
                    assert fast.victim_addr == result.eviction.addr
                    assert fast.victim_dirty == result.eviction.dirty
        assert (fast.hits, fast.misses, fast.dirty_evictions) == (
            slow.hits, slow.misses, slow.dirty_evictions
        )


# ------------------------------------------------------------ golden determinism


def load_goldens(path=GOLDEN_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


def replay_golden(cell, mode):
    config = SystemConfig.scaled_default(
        scheme=cell["scheme"], num_cores=cell["num_cores"], seed=cell["seed"]
    )
    workload = get_workload(
        cell["workload"], cell["num_cores"], scale=cell["scale"], seed=cell["seed"]
    )
    result = SimulationEngine(System(config, workload), mode=mode).run(cell["records_per_core"])
    return json.loads(json.dumps(result.identity_dict()))


@pytest.mark.parametrize("mode", TESTABLE_MODES)
@pytest.mark.parametrize(
    "cell", load_goldens(), ids=lambda cell: f"{cell['scheme']}-{cell['workload']}"
)
def test_fast_path_matches_pre_refactor_goldens(cell, mode):
    """Every engine mode must stay bit-identical to the original pipeline.

    The goldens were captured from the original allocating pipeline (before
    the allocation-free fast path landed); JSON round-trip on both sides
    makes float comparison exact (shortest-round-trip formatting).  The
    scalar, batch and numpy engines all replay the same golden cells.
    """
    assert replay_golden(cell, mode) == cell["result"]


@pytest.mark.parametrize("mode", TESTABLE_MODES)
@pytest.mark.parametrize(
    "cell",
    load_goldens(MISSBOUND_GOLDEN_PATH),
    ids=lambda cell: f"{cell['scheme']}-{cell['workload']}",
)
def test_miss_path_matches_missbound_goldens(cell, mode):
    """The LLC-miss path (hierarchy walk, controllers, schemes, DRAM timing)
    stays bit-identical in every engine mode on the miss-bound cells."""
    assert replay_golden(cell, mode) == cell["result"]


# ------------------------------------------------------ cross-mode bit-identity


class _StopEvery(RunController):
    """Fires an edge every ``step`` records and snapshots at the first edge
    at or past ``snap_at``."""

    def __init__(self, step, snap_at):
        self.step = step
        self.snap_at = snap_at
        self.edges = []
        self.snapshot = None

    def next_stop(self, processed):
        return processed + self.step

    def on_edge(self, cursor):
        self.edges.append(cursor.processed)
        if self.snapshot is None and cursor.processed >= self.snap_at:
            self.snapshot = capture_cursor(cursor)
        return False


def _identity(scheme, mode, workload="gcc", num_cores=2, records=600, warmup=150,
              scale=0.02, observer_interval=None, controller_step=None):
    """identity_dict of one run, optionally with a timeline observer (which
    attaches a per-record hook) or an edge controller.  With a controller,
    the controller's edge counts are returned too, and the run is resumed
    from its snapshot into a fresh system, which must finish identically."""
    config = SystemConfig.scaled_default(scheme=scheme, num_cores=num_cores, seed=4)

    def engine():
        return SimulationEngine(
            System(config, get_workload(workload, num_cores, scale=scale, seed=4)), mode=mode
        )

    observer = TimelineObserver(observer_interval) if observer_interval else None
    controller = (
        _StopEvery(controller_step, snap_at=records * num_cores // 2)
        if controller_step else None
    )
    identity = engine().run(
        records, warmup_records_per_core=warmup, observer=observer, controller=controller
    ).identity_dict()
    if controller is None:
        return identity
    resumed = engine()
    resumed.restore(EngineSnapshot.from_dict(json.loads(json.dumps(controller.snapshot.to_dict()))))
    assert resumed.run(records, warmup_records_per_core=warmup).identity_dict() == identity
    return identity, controller.edges


@pytest.mark.parametrize("scheme", available_scheme_names())
def test_batch_engine_matches_scalar_for_every_variant(scheme):
    """Batch and scalar must agree exactly for every registered variant.

    Variants flip replacement policies, page sizes, sampling rates and OS
    hooks — the machinery most likely to disagree with the batch engine's
    inlined hit path and run-length scheduling.  Warmup is included so run
    cuts at the warmup edge are exercised too.
    """
    assert _identity(scheme, "batch") == _identity(scheme, "scalar")


@pytest.mark.parametrize("scheme", ["alloy", "banshee"])
@pytest.mark.parametrize(
    "edges",
    [{}, {"observer_interval": 97}, {"observer_interval": 1}, {"controller_step": 7}],
    ids=["warmup", "record-hook", "observer-1", "controller-7-resume"],
)
def test_one_record_turns_match_scalar_at_every_edge(scheme, edges):
    """Miss-bound cells run almost entirely in one-record turns.

    4 cores at scale 0.1 on lbm: nearly every record misses the L1, so the
    batch engine takes the one-record turn.  Each case crosses the warmup
    threshold (4 x 75 records); the observer attaches a per-record latency
    hook (which turns the inline path off), at interval 1 it also snapshots
    after every record; the controller fires an edge every 7 records and
    its mid-run snapshot must resume identically.
    """
    def run(mode):
        return _identity(scheme, mode, workload="lbm", num_cores=4, records=300,
                         warmup=75, scale=0.1, **edges)

    assert run("batch") == run("scalar")


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy engine mode requires numpy")
@pytest.mark.parametrize("scheme", ["banshee", "nocache", "hma"])
def test_numpy_engine_matches_scalar(scheme):
    """The vectorized front end must not change a single result bit."""
    assert _identity(scheme, "numpy", workload="pagerank", num_cores=1) == \
        _identity(scheme, "scalar", workload="pagerank", num_cores=1)


def test_single_core_scalar_fast_path_matches_multicore_semantics():
    """The heap-free single-core scalar loop is bit-identical per core.

    One core simulated alone must produce the same identity results whether
    the scheduler uses the heap or the dedicated single-core loop; compare
    against the batch engine, which schedules without a heap by design.
    """
    assert _identity("banshee", "scalar", workload="pagerank", num_cores=1) == \
        _identity("banshee", "batch", workload="pagerank", num_cores=1)
