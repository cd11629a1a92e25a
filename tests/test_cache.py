"""Unit tests for the set-associative caches and hierarchy."""

import dataclasses
import random

import pytest

from repro.hw.cache import CacheHierarchy, SetAssociativeCache
from repro.hw.dram import DRAMModel
from repro.hw.params import CacheParams, baseline_machine
from repro.hw.types import AccessKind, MemoryLevel


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
        assert cache.evictions == 1

    def test_dirty_writeback(self):
        cache = small_cache(size=128, ways=1)
        line = 64
        cache.insert(0, is_write=True)
        cache.insert(cache.num_sets * line)
        assert cache.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = small_cache(size=128, ways=1)
        cache.insert(0, is_write=False)
        cache.insert(cache.num_sets * 64)
        assert cache.writebacks == 0

    def test_invalidate(self):
        cache = small_cache()
        cache.insert(0x2000)
        cache.invalidate(0x2000)
        assert not cache.lookup(0x2000)

    def test_flush(self):
        cache = small_cache()
        for addr in range(0, 512, 64):
            cache.insert(addr)
        cache.flush()
        assert cache.occupancy == 0

    def test_occupancy_bounded_by_capacity(self):
        cache = small_cache(size=1024, ways=2)
        for addr in range(0, 1 << 16, 64):
            cache.insert(addr)
        assert cache.occupancy <= cache.num_sets * cache.ways

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(CacheParams("bad", 192, 1, 64, 1))

    def test_hit_miss_counters(self):
        cache = small_cache()
        cache.lookup(0)
        cache.insert(0)
        cache.lookup(0)
        assert cache.misses == 1
        assert cache.hits == 1


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
        assert hierarchy.l1i[0].hits == 1
        assert hierarchy.l1d[0].hits == 0

    def test_invalidate_line_everywhere(self):
        hierarchy = self.make()
        hierarchy.access(0, 0xA000)
        hierarchy.access(1, 0xA000)
        hierarchy.invalidate_line(0xA000)
        _c, level = hierarchy.access(0, 0xA000)
        assert level is MemoryLevel.DRAM

    def test_stats_keys(self):
        hierarchy = self.make()
        hierarchy.access(0, 0xB000)
        stats = hierarchy.stats()
        for key in ("l1d_hits", "l2_misses", "l3_hits"):
            assert key in stats

    def test_private_l2_isolation(self):
        hierarchy = self.make()
        hierarchy.access(0, 0xC000)
        # Core 1 misses its private L2 and hits shared L3.
        _c, level = hierarchy.access(1, 0xC000, skip_l1=True)
        assert level is MemoryLevel.L3


def _cache_snapshot(cache):
    """Counters, dirty lines, epoch and per-set LRU order (oldest first)
    of either backing."""
    order = [list(cset) if not cset or next(iter(cset.values())) is None
             else sorted(cset, key=cset.get) for cset in cache._sets]
    return (cache.hits, cache.misses, cache.evictions, cache.writebacks,
            sorted(cache._dirty), cache.epoch, order)


def _hierarchy_snapshot(hierarchy):
    caches = hierarchy.l1i + hierarchy.l1d + hierarchy.l2 + [hierarchy.l3]
    return ([_cache_snapshot(c) for c in caches],
            hierarchy.dram.row_hits, hierarchy.dram.row_misses)


@pytest.mark.parametrize("fastpath", [False, True],
                         ids=["reference", "fast"])
def test_walk_access_matches_skip_l1_load(fastpath):
    # Twin hierarchies with small L2/L3s so the stream sees L2 hits, L3
    # hits, DRAM fills, evictions and dirty writebacks. Demand accesses
    # go to both twins; walker references go to one through
    # walk_access and to the other through access(..., skip_l1=True).
    machine = dataclasses.replace(
        baseline_machine(cores=2),
        l2=CacheParams("L2", 4096, 4, 64, 8),
        l3=CacheParams("L3", 16384, 8, 64, 32, shared=True))
    walk = CacheHierarchy(machine, DRAMModel(machine.dram), fastpath)
    twin = CacheHierarchy(machine, DRAMModel(machine.dram), fastpath)
    rng = random.Random(9)
    kinds = (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)
    for _ in range(6000):
        core = rng.randrange(2)
        paddr = rng.randrange(1024) * 64 + rng.randrange(64)
        if rng.random() < 0.4:
            kind = rng.choice(kinds)
            assert walk.access(core, paddr, kind) == \
                twin.access(core, paddr, kind)
        else:
            cycles, _level = twin.access(core, paddr, AccessKind.LOAD,
                                         skip_l1=True)
            assert walk.walk_access(core, paddr) == cycles
    assert _hierarchy_snapshot(walk) == _hierarchy_snapshot(twin)
    l2 = walk.l2[0]
    assert l2.hits and l2.evictions and l2.writebacks and walk.l3.hits
