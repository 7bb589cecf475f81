"""Unit tests for SimulationResults and the memory-controller request type."""

import pytest

from repro.memctrl.request import MappingInfo, MemRequest
from repro.sim.results import SimulationResults, geometric_mean


def make_results(scheme="banshee", cycles=1000.0, instructions=10_000, **kwargs):
    defaults = dict(
        workload="pagerank",
        scheme=scheme,
        num_cores=2,
        instructions=instructions,
        memory_accesses=2000,
        cycles=cycles,
        dram_cache_hits=300,
        dram_cache_misses=100,
        in_traffic_bytes={"HitData": 64_000, "Counter": 3200},
        off_traffic_bytes={"MissData": 6400},
    )
    defaults.update(kwargs)
    return SimulationResults(**defaults)


def test_derived_metrics():
    results = make_results()
    assert results.ipc == pytest.approx(10.0)
    assert results.dram_cache_miss_rate == pytest.approx(0.25)
    assert results.mpki == pytest.approx(10.0)
    assert results.in_bytes_per_instruction["HitData"] == pytest.approx(6.4)
    assert results.total_in_bytes_per_instruction == pytest.approx(6.72)
    assert results.total_off_bytes_per_instruction == pytest.approx(0.64)


def test_speedup_over():
    fast = make_results(cycles=500.0)
    slow = make_results(scheme="nocache", cycles=1000.0)
    assert fast.speedup_over(slow) == pytest.approx(2.0)


def test_speedup_requires_same_workload():
    a = make_results()
    b = make_results(workload="mcf") if False else SimulationResults(
        workload="mcf", scheme="nocache", num_cores=2, instructions=1, memory_accesses=1, cycles=1.0
    )
    with pytest.raises(ValueError):
        a.speedup_over(b)


def test_summary_keys():
    summary = make_results().summary()
    for key in ("workload", "scheme", "ipc", "mpki", "in_bpi", "off_bpi"):
        assert key in summary


def test_zero_instruction_guards():
    empty = SimulationResults(
        workload="x", scheme="y", num_cores=1, instructions=0, memory_accesses=0, cycles=0.0
    )
    assert empty.ipc == 0.0
    assert empty.mpki == 0.0
    assert empty.total_in_bytes_per_instruction == 0.0


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([0.0, 2.0]) == pytest.approx(2.0)


def test_mem_request_properties():
    request = MemRequest(addr=4096 * 3 + 128, is_write=True, core_id=1, mapping=MappingInfo(True, 2))
    assert request.page == 3
    assert request.line == (4096 * 3 + 128) // 64
    assert request.mapping.as_tuple() == (True, 2)


def test_mem_request_validation():
    with pytest.raises(ValueError):
        MemRequest(addr=-1, is_write=False, core_id=0)
