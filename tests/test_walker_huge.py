"""Deep tests for the page walker: PWC behaviour, 1GB pages, and cache
interactions (Figure 7's mechanics)."""

import dataclasses
import random

from repro.hw.cache import CacheHierarchy
from repro.hw.dram import DRAMModel
from repro.hw.params import baseline_machine
from repro.hw.pwc import PWC_LEVELS, PageWalkCache
from repro.hw.types import AccessKind, PageSize
from repro.kernel.page_table import (PGD, PTE, PTE_LEVEL, PUD, TableRef,
                                     table_index)
from repro.kernel.vma import SegmentKind, VMAKind
from repro.sim.walker import PageWalker

from conftest import MiniSystem
from structure_oracle import recency

MMAP = SegmentKind.MMAP
HEAP = SegmentKind.HEAP


def walker_setup(cores=1):
    machine = baseline_machine(cores=cores)
    hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
    pwc = PageWalkCache(machine.mmu.pwc)
    return machine, hierarchy, pwc, PageWalker(0, hierarchy, pwc)


class TestPWCBehaviour:
    def test_pwc_caches_upper_levels_not_leaf(self):
        sys = MiniSystem(babelfish=False)
        for off in (0, 1):
            sys.touch(sys.zygote, MMAP, off)
        machine, _hier, pwc, walker = walker_setup()
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        walker.walk(sys.zygote, vpn)
        assert pwc.occupancy(4) == 1
        assert pwc.occupancy(3) == 1
        assert pwc.occupancy(2) == 1
        # The leaf pte level is what the TLB caches, not the PWC: the
        # next page's walk hits PGD/PUD/PMD in the PWC and reads its pte
        # from the L2 line the first walk brought in.
        _pte, _table, cycles = walker.walk(sys.zygote, vpn + 1)
        assert cycles == 3 * pwc.access_cycles + machine.l2.access_cycles
        assert [pwc.occupancy(level) for level in PWC_LEVELS] == [1, 1, 1]

    def test_cross_region_walk_misses_pwc(self):
        sys = MiniSystem(babelfish=False)
        sys.touch(sys.zygote, MMAP, 0)
        sys.touch(sys.zygote, SegmentKind.HEAP, 0, write=True)
        _machine, _hier, pwc, walker = walker_setup()
        walker.walk(sys.zygote, sys.vpn(sys.zygote, MMAP, 0))
        walker.walk(sys.zygote, sys.vpn(sys.zygote, SegmentKind.HEAP, 0))
        # Different segment => different PUD/PMD entries: only the PGD
        # entry may hit (different index here, so all three miss and
        # each level caches a second entry).
        assert [pwc.occupancy(level) for level in PWC_LEVELS] == [2, 2, 2]

    def test_shared_tables_share_walk_lines_across_cores(self):
        """Figure 7: container B's walk hits the L3 lines container A's
        walk brought in — because the tables are physically shared."""
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, MMAP, 0)
        a, b = sys.fork("a"), sys.fork("b")
        machine = baseline_machine(cores=2)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        walker_a = PageWalker(0, hierarchy, PageWalkCache(machine.mmu.pwc))
        walker_b = PageWalker(1, hierarchy, PageWalkCache(machine.mmu.pwc))
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        cost_a = walker_a.walk(a, vpn)[2]
        cost_b = walker_b.walk(b, vpn)[2]
        # B misses its own PWC/L2 but hits the shared L3 for the PTE line.
        assert cost_b < cost_a

    def test_private_tables_do_not_share_walk_lines(self):
        sys = MiniSystem(babelfish=False)
        sys.touch(sys.zygote, MMAP, 0)
        a, b = sys.fork("a"), sys.fork("b")
        machine = baseline_machine(cores=2)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        walker_a = PageWalker(0, hierarchy, PageWalkCache(machine.mmu.pwc))
        walker_b = PageWalker(1, hierarchy, PageWalkCache(machine.mmu.pwc))
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        cost_a = walker_a.walk(a, vpn)[2]
        cost_b = walker_b.walk(b, vpn)[2]
        # Different physical pte lines: B pays like A did.
        assert cost_b >= cost_a * 0.8


class Test1GBPages:
    def build_1g(self):
        """Install a 1GB leaf directly at the PUD level (no kernel path
        creates these; the hardware plumbing must still translate them)."""
        sys = MiniSystem(babelfish=False)
        allocator = sys.kernel.allocator
        base_vpn = sys.vpn(sys.zygote, MMAP, 0) & ~((1 << 18) - 1)
        ppn = allocator.alloc(pages=1)  # stands in for a 1GB frame
        pte = PTE(ppn, page_size=PageSize.SIZE_1G)
        sys.zygote.tables.set_leaf(base_vpn, pte, leaf_level=PUD)
        return sys, base_vpn, pte

    def test_walk_finds_1g_leaf(self):
        sys, base_vpn, pte = self.build_1g()
        _machine, _hier, _pwc, walker = walker_setup()
        found, leaf_table, _cycles = walker.walk(sys.zygote,
                                                 base_vpn + 12345)
        assert found is pte
        assert found.page_size is PageSize.SIZE_1G
        assert leaf_table.level == PUD

    def test_1g_tlb_structures_exist(self):
        machine = baseline_machine()
        assert machine.mmu.l1d_1g.entries == 4
        assert machine.mmu.l2_1g.entries == 16

    def test_multisize_1g_lookup(self):
        from repro.core.babelfish_tlb import conventional_lookup
        from repro.hw.params import TLBParams
        from repro.hw.tlb import MultiSizeTLB, TLBEntry
        multi = MultiSizeTLB([TLBParams("1g", 4, 4, PageSize.SIZE_1G, 1)])
        multi.insert(TLBEntry(2, 0x1000, PageSize.SIZE_1G, pcid=1))
        vpn4k = (2 << 18) + 98765
        found, size, _cow = conventional_lookup(multi, vpn4k, 1, False)
        assert found is not None and size is PageSize.SIZE_1G


class TestWalkAccounting:
    def test_walk_counts_and_cycles(self):
        sys = MiniSystem(babelfish=False)
        sys.touch(sys.zygote, MMAP, 0)
        machine, _hier, pwc, walker = walker_setup()
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        _pte, _table, cold = walker.walk(sys.zygote, vpn)
        _pte, _table, warm = walker.walk(sys.zygote, vpn)
        assert cold > warm > 0
        # The repeat hits the PWC at every upper level and the L2 for
        # the pte.
        assert warm == 3 * pwc.access_cycles + machine.l2.access_cycles

    def test_fault_level_reported(self):
        sys = MiniSystem(babelfish=False)
        _machine, _hier, pwc, walker = walker_setup()
        pte, leaf_table, _cycles = walker.walk(sys.zygote,
                                               sys.vpn(sys.zygote, MMAP, 7))
        assert pte is None and leaf_table is None
        # Nothing mapped: the walk stops at the PGD, the only level it
        # read, so the PWC holds a PGD entry and nothing below it.
        assert [pwc.occupancy(level) for level in PWC_LEVELS] == [1, 0, 0]


def _reference_walk(proc, vpn, hierarchy, pwc, pwc_outcomes):
    """Figure 2's walk one level at a time through the public pieces:
    ``table_index``, ``entry_paddr``, the PWC's lookup/insert and the
    hierarchy's skip-L1 load. Returns ``(pte, leaf_table, cycles)`` and
    the level the walk stopped at; adds each PWC probe's outcome (True
    on a hit) to ``pwc_outcomes``."""
    cycles = 0
    table, level = proc.tables.pgd, PGD
    while True:
        index = table_index(vpn, level)
        paddr = table.entry_paddr(index)
        hit = level > PTE_LEVEL and pwc.lookup(level, paddr)
        if level > PTE_LEVEL:
            pwc_outcomes.add(hit)
        if hit:
            cycles += pwc.access_cycles
        else:
            cycles += hierarchy.access(0, paddr, AccessKind.LOAD,
                                       skip_l1=True)[0]
            if level > PTE_LEVEL:
                pwc.insert(level, paddr)
        entry = table.entries.get(index)
        if isinstance(entry, TableRef):
            table, level = entry.table, level - 1
            continue
        if entry is None:
            return (None, None, cycles), level
        if not entry.present:
            return (None, table, cycles), level
        return (entry, table, cycles), level



class TestOnePassWalk:
    def test_matches_level_by_level_reference(self):
        # 4K pages, a 2MB page, holes and unmapped segments, walked in a
        # random order through a 2-entry-per-level PWC so it evicts.
        sys = MiniSystem(babelfish=True)
        sys.kernel.mmap(sys.zygote, HEAP, 4096, 512, VMAKind.ANON,
                        huge_ok=True, name="thp")
        sys.touch(sys.zygote, HEAP, 4096, write=True)
        for off in range(0, 64, 3):
            sys.touch(sys.zygote, MMAP, off)
            sys.touch(sys.zygote, HEAP, off * 7, write=True)
        child = sys.fork()
        sys.touch(child, HEAP, 5, write=True)
        machine = baseline_machine(cores=1)
        pwc_params = dataclasses.replace(machine.mmu.pwc,
                                         entries_per_level=2)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        pwc = PageWalkCache(pwc_params)
        walker = PageWalker(0, hierarchy, pwc)
        twin_hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        twin_pwc = PageWalkCache(pwc_params)
        rng = random.Random(4)
        segments = (MMAP, HEAP, SegmentKind.LIBS, SegmentKind.STACK)
        outcomes = set()
        pwc_outcomes = set()
        for _ in range(600):
            proc = rng.choice((sys.zygote, child))
            vpn = sys.vpn(proc, rng.choice(segments), rng.randrange(4700))
            got = walker.walk(proc, vpn)
            want, level = _reference_walk(proc, vpn, twin_hierarchy,
                                          twin_pwc, pwc_outcomes)
            assert got == want
            outcomes.add((level, got[0] is None))
        # 4K and 2MB leaves, faults at several levels, PWC hits and
        # misses.
        assert {(1, False), (2, False), (1, True)} <= outcomes
        assert len({level for level, fault in outcomes if fault}) >= 2
        assert pwc_outcomes == {True, False}
        for level in PWC_LEVELS:
            assert list(pwc._levels[level]) == list(twin_pwc._levels[level])
        assert recency(hierarchy.l2[0]) == recency(twin_hierarchy.l2[0])
        assert recency(hierarchy.l3) == recency(twin_hierarchy.l3)
        assert hierarchy.dram._open_rows == twin_hierarchy.dram._open_rows
