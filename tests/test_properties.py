"""Property-based tests (hypothesis) on core data structures and
invariants."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.mask_page import MaskPage, MaskPageFull, pmd_index_of, region_of
from repro.core.opc import MAX_PRIVATE_COPIES, OPCField
from repro.hw.cache import SetAssociativeCache
from repro.hw.params import CacheParams, TLBParams
from repro.hw.tlb import REPLACE_SAME_PCID, SetAssocTLB, TLBEntry
from repro.hw.types import PageSize
from repro.kernel.aslr_layout import randomized_layout
from repro.kernel.frames import FrameAllocator
from repro.kernel.lru import ActiveInactiveLRU
from repro.kernel.page_table import AddressSpaceTables, PTE, table_index
from repro.kernel.vma import SegmentKind
from repro.sim.stats import percentile
from repro.workloads.zipf import ZipfGenerator

VPN48 = st.integers(min_value=0, max_value=(1 << 36) - 1)


class TestCacheProperties:
    @given(st.lists(st.integers(0, 1 << 20), max_size=200))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = SetAssociativeCache(CacheParams("p", 512, 2, 64, 1))
        capacity = cache.num_sets * cache.ways
        for addr in addrs:
            cache.insert(addr)
            assert cache.occupancy <= capacity

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_insert_then_lookup_hits(self, addrs):
        cache = SetAssociativeCache(CacheParams("p", 64 * 1024, 8, 64, 1))
        for addr in addrs:
            cache.insert(addr)
            assert cache.lookup(addr)

    @given(st.lists(st.integers(0, 1 << 16), max_size=100))
    @settings(max_examples=30)
    def test_hits_plus_misses_equals_lookups(self, addrs):
        # Every lookup is a hit or a miss, and it hits exactly when the
        # line is resident in an LRU model of its set (a list, least
        # recently used first).
        cache = SetAssociativeCache(CacheParams("p", 1024, 2, 64, 1))
        model = [[] for _ in range(cache.num_sets)]
        hits = misses = 0
        for addr in addrs:
            line = addr >> cache.line_bits
            ways = model[line & cache.set_mask]
            resident = line in ways
            if cache.lookup(addr):
                assert resident
                hits += 1
                ways.remove(line)
            else:
                assert not resident
                misses += 1
                cache.insert(addr)
                if len(ways) >= cache.ways:
                    del ways[0]
            ways.append(line)
        assert hits + misses == len(addrs)


class TestTLBProperties:
    @given(st.lists(st.tuples(VPN48, st.integers(1, 7)), max_size=150))
    @settings(max_examples=50)
    def test_occupancy_bounded(self, inserts):
        tlb = SetAssocTLB(TLBParams("t", 16, 4, PageSize.SIZE_4K, 1))
        for vpn, pcid in inserts:
            tlb.insert(TLBEntry(vpn, 1, pcid=pcid))
            assert tlb.occupancy <= 16

    @given(st.lists(st.tuples(VPN48, st.integers(1, 3)), max_size=80))
    @settings(max_examples=50)
    def test_most_recent_insert_always_hits(self, inserts):
        tlb = SetAssocTLB(TLBParams("t", 16, 4, PageSize.SIZE_4K, 1))
        for vpn, pcid in inserts:
            tlb.insert(TLBEntry(vpn, 1, pcid=pcid),
                       replace=REPLACE_SAME_PCID)
            assert tlb.lookup(vpn, lambda e, p=pcid: e.pcid == p) is not None

    @given(st.lists(VPN48, max_size=60), VPN48)
    @settings(max_examples=50)
    def test_invalidate_removes_all_copies(self, vpns, victim):
        tlb = SetAssocTLB(TLBParams("t", 32, 4, PageSize.SIZE_4K, 1))
        for i, vpn in enumerate(vpns):
            tlb.insert(TLBEntry(vpn, 1, pcid=i % 5))
        tlb.invalidate(victim)
        assert tlb.lookup(victim, lambda e: True) is None


class TestOPCProperties:
    @given(st.integers(0, (1 << 32) - 1), st.booleans())
    def test_pack_unpack_roundtrip(self, mask, o_bit):
        field = OPCField(o_bit, mask)
        assert OPCField.unpack(field.packed()) == field

    @given(st.sets(st.integers(0, 31), max_size=32))
    def test_orpc_equals_any_bit(self, bits):
        field = OPCField()
        for bit in bits:
            field.set_bit(bit)
        assert field.orpc == bool(bits)
        for bit in bits:
            assert field.test_bit(bit)


class TestMaskPageProperties:
    @given(st.lists(st.integers(1, 2000), min_size=1, max_size=100))
    def test_bits_unique_and_stable(self, pids):
        page = MaskPage(1, 0)
        assigned = {}
        for pid in pids:
            try:
                bit = page.assign_bit(pid)
            except MaskPageFull:
                assert len(set(pids[:pids.index(pid)])) >= MAX_PRIVATE_COPIES
                break
            if pid in assigned:
                assert assigned[pid] == bit
            assigned[pid] = bit
        bits = list(assigned.values())
        assert len(bits) == len(set(bits))

    @given(VPN48)
    def test_region_pmd_decomposition(self, vpn):
        assert region_of(vpn) == vpn >> 18
        assert 0 <= pmd_index_of(vpn) < 512
        # Same PTE table -> same region and pmd index.
        assert pmd_index_of(vpn) == pmd_index_of((vpn & ~511) | 17)


class TestFrameProperties:
    @given(st.lists(st.sampled_from(["alloc", "free"]), max_size=200))
    @settings(max_examples=50)
    def test_no_double_allocation(self, ops):
        alloc = FrameAllocator()
        live = []
        for op in ops:
            if op == "alloc" or not live:
                live.append(alloc.alloc())
                assert len(set(live)) == len(live)
            else:
                alloc.decref(live.pop())
        assert alloc.allocated == len(live)


class TestPageTableProperties:
    @given(st.lists(VPN48, min_size=1, max_size=60, unique=True))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_leaves_roundtrip(self, vpns):
        tables = AddressSpaceTables(FrameAllocator())
        for i, vpn in enumerate(vpns):
            tables.set_leaf(vpn, PTE(i + 1))
        found = {vpn: pte.ppn
                 for vpn, _l, _t, _i, pte in tables.iter_leaves()}
        assert found == {vpn: i + 1 for i, vpn in enumerate(vpns)}
        for vpn in vpns:
            assert tables.lookup_pte(vpn) is not None

    @given(VPN48)
    def test_table_index_reconstructs_vpn(self, vpn):
        from repro.kernel.page_table import PGD, PMD, PTE_LEVEL, PUD
        rebuilt = ((table_index(vpn, PGD) << 27)
                   | (table_index(vpn, PUD) << 18)
                   | (table_index(vpn, PMD) << 9)
                   | table_index(vpn, PTE_LEVEL))
        assert rebuilt == vpn & ((1 << 36) - 1)


class TestLayoutProperties:
    @given(st.integers(0, 1 << 30), st.integers(0, 1 << 30))
    @settings(max_examples=40)
    def test_layouts_never_collide_across_segments(self, seed_a, seed_b):
        a = randomized_layout(seed_a)
        b = randomized_layout(seed_b)
        # Segment windows are far enough apart that no two segments from
        # any two layouts can overlap within a plausible mapping size
        # (up to 2GB per segment).
        span = 1 << 19
        ranges = []
        for layout in (a, b):
            for segment in SegmentKind:
                base = layout.base(segment)
                ranges.append((segment, base, base + span))
        ranges.sort(key=lambda r: r[1])
        for (seg1, _s1, e1), (seg2, s2, _e2) in zip(ranges, ranges[1:]):
            if seg1 is not seg2:
                assert e1 <= s2

    @given(st.integers(0, 1 << 30))
    def test_diff_is_inverse(self, seed):
        a = randomized_layout(seed)
        b = randomized_layout(seed + 1)
        diff = a.diff(b)
        for segment in SegmentKind:
            assert a.base(segment) + diff[segment] == b.base(segment)


class TestZipfProperties:
    @given(st.integers(1, 5000), st.floats(0.0, 0.99),
           st.integers(0, 1 << 16))
    @settings(max_examples=40)
    def test_output_in_range(self, n, theta, seed):
        gen = ZipfGenerator(n, theta, seed=seed)
        for _ in range(50):
            assert 0 <= gen.next() < n


class TestLRUProperties:
    @given(st.lists(st.integers(1, 20), max_size=200))
    @settings(max_examples=40)
    def test_active_requires_two_touches(self, touches):
        lru = ActiveInactiveLRU()
        seen = set()
        for ppn in touches:
            lru.touch(ppn)
            if ppn not in seen:
                seen.add(ppn)
                if touches.count(ppn) == 1:
                    assert not lru.is_active(ppn)

    @given(st.lists(st.one_of(st.integers(1, 20), st.none()),
                    max_size=200))
    @settings(max_examples=60)
    def test_active_iff_touched_twice_since_reset(self, ops):
        # A stream of touches (a ppn) and resets (None): a page is
        # active exactly when it was touched at least twice since the
        # last reset, and tracked once it was touched at all.
        lru = ActiveInactiveLRU()
        touches = {}
        for op in ops:
            if op is None:
                lru.reset()
                touches.clear()
            else:
                lru.touch(op)
                touches[op] = touches.get(op, 0) + 1
            for ppn in range(1, 21):
                assert lru.is_active(ppn) == (touches.get(ppn, 0) >= 2)
                assert lru.is_tracked(ppn) == (ppn in touches)
        active = sum(1 for n in touches.values() if n >= 2)
        assert (lru.active_count, lru.inactive_count) == (
            active, len(touches) - active)


class TestPercentileProperties:
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
           st.integers(1, 100))
    def test_percentile_is_member_and_bounded(self, values, pct):
        result = percentile(values, pct)
        assert result in [float(v) for v in values]
        assert min(values) <= result <= max(values)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    def test_monotone_in_pct(self, values):
        results = [percentile(values, p) for p in (25, 50, 75, 95, 100)]
        assert results == sorted(results)
