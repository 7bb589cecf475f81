"""Unit tests for Banshee's tag buffer."""

import pytest

from repro.core.tag_buffer import TagBuffer, TagBufferFullError
from repro.util.rng import DeterministicRng


def test_insert_and_lookup():
    buffer = TagBuffer(num_entries=64, num_ways=4)
    buffer.insert(page=10, cached=True, way=2, remap=True)
    entry = buffer.lookup(10)
    assert entry is not None
    assert entry.cached and entry.way == 2 and entry.remap
    assert buffer.lookup(11) is None


def test_update_in_place_preserves_remap():
    buffer = TagBuffer(num_entries=64, num_ways=4)
    buffer.insert(5, cached=True, way=1, remap=True)
    buffer.insert(5, cached=False, way=0, remap=False)
    entry = buffer.lookup(5)
    assert not entry.cached
    assert entry.remap, "a newer clean insert must not clear an unflushed remap"


def test_clean_entries_are_evictable_remap_entries_are_not():
    buffer = TagBuffer(num_entries=8, num_ways=2)  # 4 sets
    set_stride = buffer.num_sets
    # Fill one set with a clean entry and a remap entry.
    buffer.insert(0, cached=True, way=0, remap=False)
    buffer.insert(set_stride, cached=True, way=1, remap=True)
    # Inserting another remap entry evicts the clean one, not the remap one.
    buffer.insert(2 * set_stride, cached=True, way=2, remap=True)
    assert buffer.lookup(set_stride) is not None
    assert buffer.lookup(2 * set_stride) is not None
    assert buffer.lookup(0) is None


def test_full_set_of_remaps_raises():
    buffer = TagBuffer(num_entries=8, num_ways=2)
    stride = buffer.num_sets
    buffer.insert(0, True, 0, remap=True)
    buffer.insert(stride, True, 1, remap=True)
    with pytest.raises(TagBufferFullError):
        buffer.insert(2 * stride, True, 2, remap=True)
    # A clean insert into the same full set is silently dropped.
    buffer.insert(3 * stride, True, 3, remap=False)
    assert buffer.lookup(3 * stride) is None


def test_remap_entries_and_clear():
    buffer = TagBuffer(num_entries=64, num_ways=4)
    buffer.insert(1, True, 0, remap=True)
    buffer.insert(2, False, 0, remap=True)
    buffer.insert(3, True, 1, remap=False)
    updates = dict((page, (cached, way)) for page, cached, way in buffer.remap_entries())
    assert updates == {1: (True, 0), 2: (False, 0)}
    cleared = buffer.clear_remap_bits()
    assert cleared == 2
    assert buffer.remap_count == 0
    # Entries stay resident to serve dirty-eviction lookups.
    assert buffer.lookup(1) is not None


def test_remap_fraction():
    buffer = TagBuffer(num_entries=64, num_ways=8)
    for page in range(16):
        buffer.insert(page, True, 0, remap=True)
    assert buffer.remap_fraction == pytest.approx(16 / 64)


def test_validation():
    with pytest.raises(ValueError):
        TagBuffer(num_entries=10, num_ways=3)
    with pytest.raises(ValueError):
        TagBuffer(num_entries=0, num_ways=1)


def test_contains():
    buffer = TagBuffer(num_entries=64, num_ways=4)
    buffer.insert(42, True, 0, remap=False)
    assert 42 in buffer
    assert 43 not in buffer


def test_maintained_remap_count_equals_a_scan():
    """``remap_count`` is kept by ``insert`` and ``clear_remap_bits``; after
    a seeded mix of clean and remap inserts (updates of existing entries,
    clean-entry evictions, full-set refusals) and flushes it must equal a
    scan of the entries."""
    rng = DeterministicRng(11)
    buffer = TagBuffer(num_entries=32, num_ways=4)

    def scanned():
        return sum(1 for bucket in buffer._sets for entry in bucket.values() if entry.remap)

    for step in range(3000):
        page = rng.randint(0, 96)
        remap = rng.chance(0.4)
        try:
            buffer.insert(page, cached=rng.chance(0.5), way=rng.randint(0, 4), remap=remap)
        except TagBufferFullError:
            buffer.clear_remap_bits()
        if rng.chance(0.02):
            buffer.clear_remap_bits()
        assert buffer.remap_count == scanned(), step
    assert buffer.remap_fraction == scanned() / buffer.num_entries
