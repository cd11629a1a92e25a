"""Unit tests for the set-associative caches and hierarchy."""

import dataclasses
import random

import pytest

from structure_oracle import (LinearCacheHierarchy,
                              LinearSetAssociativeCache, recency)

from repro.hw.cache import CacheHierarchy, SetAssociativeCache
from repro.hw.dram import DRAMModel
from repro.hw.params import CacheParams, baseline_machine
from repro.hw.types import AccessKind, MemoryLevel
from repro.sim import simulator


def small_cache(size=1024, ways=2, line=64, cycles=2, name="T"):
    return SetAssociativeCache(CacheParams(name, size, ways, line, cycles))


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x1000)
        cache.insert(0x1000)
        assert cache.lookup(0x1000)

    def test_same_line_hits(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert cache.lookup(0x1004)
        assert cache.lookup(0x103F)

    def test_different_line_misses(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert not cache.lookup(0x1040)

    def test_lru_eviction_order(self):
        cache = small_cache(size=256, ways=2)  # 2 sets
        sets = cache.num_sets
        # Three lines mapping to set 0.
        line = 64
        a, b, c = 0, sets * line, 2 * sets * line
        cache.insert(a)
        cache.insert(b)
        cache.lookup(a)          # a is now MRU
        cache.insert(c)          # evicts b
        assert cache.lookup(a)
        assert not cache.lookup(b)
        assert cache.lookup(c)

    def test_eviction_counted(self):
        cache = small_cache(size=128, ways=1)
        line = 64
        cache.insert(0)
        cache.insert(cache.num_sets * line)
        assert sum(map(len, cache._sets)) == 1
        assert not cache.lookup(0)
        assert cache.lookup(cache.num_sets * line)

    def test_occupancy_bounded_by_capacity(self):
        cache = small_cache(size=1024, ways=2)
        for addr in range(0, 1 << 16, 64):
            cache.insert(addr)
        assert all(len(cset) <= cache.ways for cset in cache._sets)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(CacheParams("bad", 192, 1, 64, 1))

    def test_hit_miss_counters(self):
        # A miss changes nothing; a hit changes no residency and only
        # makes its line the most recent of its set.
        cache = small_cache(size=256, ways=2)
        other = cache.num_sets * 64  # set 0, tag 1
        assert not cache.lookup(0)
        assert recency(cache) == [[]] * cache.num_sets
        cache.insert(0)
        cache.insert(other)
        assert recency(cache)[0] == [0, 1]
        assert cache.lookup(0)
        assert recency(cache)[0] == [1, 0]


class TestCacheHierarchy:
    def make(self, cores=2):
        machine = baseline_machine(cores=cores)
        return CacheHierarchy(machine, DRAMModel(machine.dram))

    def test_first_access_reaches_dram(self):
        hierarchy = self.make()
        cycles, level = hierarchy.access(0, 0x123456)
        assert level is MemoryLevel.DRAM
        assert cycles > 40

    def test_second_access_hits_l1(self):
        hierarchy = self.make()
        hierarchy.access(0, 0x123456)
        cycles, level = hierarchy.access(0, 0x123456)
        assert level is MemoryLevel.L1
        assert cycles == hierarchy.l1d[0].params.access_cycles

    def test_cross_core_sharing_through_l3(self):
        hierarchy = self.make()
        hierarchy.access(0, 0x9000)
        _cycles, level = hierarchy.access(1, 0x9000)
        assert level is MemoryLevel.L3

    def test_skip_l1_for_walker_requests(self):
        hierarchy = self.make()
        hierarchy.access(0, 0x4000, skip_l1=True)
        # The line went to L2 but not L1.
        _cycles, level = hierarchy.access(0, 0x4000, skip_l1=True)
        assert level is MemoryLevel.L2
        cycles, level = hierarchy.access(0, 0x4000)
        assert level is MemoryLevel.L2

    def test_ifetch_uses_l1i(self):
        hierarchy = self.make()
        hierarchy.access(0, 0x8000, AccessKind.IFETCH)
        _c, level = hierarchy.access(0, 0x8000, AccessKind.IFETCH)
        assert level is MemoryLevel.L1
        assert sum(map(len, hierarchy.l1i[0]._sets)) == 1
        assert sum(map(len, hierarchy.l1d[0]._sets)) == 0

    def test_private_l2_isolation(self):
        hierarchy = self.make()
        hierarchy.access(0, 0xC000)
        # Core 1 misses its private L2 and hits shared L3.
        _c, level = hierarchy.access(1, 0xC000, skip_l1=True)
        assert level is MemoryLevel.L3


def _caches(hierarchy):
    return hierarchy.l1i + hierarchy.l1d + hierarchy.l2 + [hierarchy.l3]


def _hierarchy_snapshot(hierarchy):
    """Every level's per-set LRU order (oldest first), and the DRAM
    banks' open rows, of either backing."""
    return ([recency(c) for c in _caches(hierarchy)],
            hierarchy.dram._open_rows)


@pytest.mark.parametrize("linear", [True, False],
                         ids=["reference", "fast"])
def test_walk_access_matches_skip_l1_load(linear, linear_structures):
    # The production walk_access and data_access against a twin driven
    # through access(): walker references (skip_l1 loads) and demand
    # ifetches, loads and stores, with the whole state compared
    # mid-stream. Small L1D/L2/L3s so the stream sees hits at every
    # level, DRAM fills and evictions. The reference
    # twin is the oracle hierarchy on the linear-scan caches; the fast
    # twin is a production one.
    machine = dataclasses.replace(
        baseline_machine(cores=2),
        l1d=CacheParams("L1D", 2048, 2, 64, 4),
        l2=CacheParams("L2", 4096, 4, 64, 8),
        l3=CacheParams("L3", 16384, 8, 64, 32, shared=True))
    prod = CacheHierarchy(machine, DRAMModel(machine.dram))
    with linear_structures(linear):
        twin = simulator.CacheHierarchy(machine, DRAMModel(machine.dram))
    assert (type(twin) is LinearCacheHierarchy) == linear
    assert (type(twin.l3) is LinearSetAssociativeCache) == linear
    rng = random.Random(9)
    kinds = (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)
    last = [0, 0]
    snapshots = 0
    levels = set()
    for _ in range(8000):
        core = rng.randrange(2)
        if rng.random() < 0.3:
            paddr = last[core] | rng.randrange(64)
        else:
            paddr = rng.randrange(1024) * 64 + rng.randrange(64)
        last[core] = paddr & ~63
        op = rng.random()
        if op < 0.45:
            code = rng.randrange(3)
            cycles, level = twin.access(core, paddr, kinds[code])
            assert prod.data_access(core, paddr, code) == cycles
            levels.add(level)
        elif op < 0.95:
            cycles, level = twin.access(core, paddr, AccessKind.LOAD,
                                        skip_l1=True)
            assert prod.walk_access(core, paddr) == cycles
            levels.add(level)
        else:
            assert _hierarchy_snapshot(prod) == _hierarchy_snapshot(twin)
            snapshots += 1
    assert _hierarchy_snapshot(prod) == _hierarchy_snapshot(twin)
    assert snapshots
    assert levels == set(MemoryLevel)
    # The 64KB footprint overflows the 16KB L3, so its sets fill up and
    # evict.
    assert all(len(cset) == prod.l3.ways for cset in prod.l3._sets)


def test_unequal_line_sizes_rejected():
    # walk_access and data_access compute the line once for every
    # level, so the hierarchy refuses levels with different line sizes.
    machine = dataclasses.replace(
        baseline_machine(cores=1), l2=CacheParams("L2", 4096, 4, 128, 8))
    with pytest.raises(ValueError, match="one line size"):
        CacheHierarchy(machine, DRAMModel(machine.dram))


def test_data_access_matches_access():
    # The trace loop's data_access (kind codes, inlined L1 probe and
    # fill) against access() on a twin hierarchy: same cycles per access
    # and the same final state, recency order included. Half the
    # accesses repeat the previous line on the same core, so the L1 hit
    # path (the recency touch) carries much of the stream.
    machine = dataclasses.replace(
        baseline_machine(cores=2),
        l1d=CacheParams("L1D", 2048, 2, 64, 4),
        l2=CacheParams("L2", 4096, 4, 64, 8),
        l3=CacheParams("L3", 16384, 8, 64, 32, shared=True))
    fast = CacheHierarchy(machine, DRAMModel(machine.dram))
    twin = CacheHierarchy(machine, DRAMModel(machine.dram))
    kinds = (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)
    rng = random.Random(17)
    last = [0, 0]
    levels = set()
    for _ in range(8000):
        core = rng.randrange(2)
        if rng.random() < 0.5:
            paddr = last[core] | rng.randrange(64)
        else:
            paddr = rng.randrange(512) * 64 + rng.randrange(64)
        last[core] = paddr & ~63
        code = rng.randrange(3)
        cycles, level = twin.access(core, paddr, kinds[code])
        assert fast.data_access(core, paddr, code) == cycles
        levels.add(level)
    assert _hierarchy_snapshot(fast) == _hierarchy_snapshot(twin)
    assert levels == set(MemoryLevel)
