"""Tests for the kernel facade: faults, fork/CoW, THP, teardown."""

import pytest

from repro.hw.types import PageSize
from repro.kernel.errors import (
    ProtectionFault,
    SegmentationFault,
    SimulationError,
    TouchDidNotConverge,
)
from repro.kernel.fault import FaultType
from repro.kernel.frames import FrameKind
from repro.kernel.kernel import PrivatePTPolicy
from repro.kernel.page_table import PageTable
from repro.kernel.vma import SegmentKind, VMAKind

from conftest import MiniSystem

LIBS, MMAP, HEAP, DATA = (SegmentKind.LIBS, SegmentKind.MMAP,
                          SegmentKind.HEAP, SegmentKind.DATA)


class TestFaultHandling:
    def test_segfault_outside_vmas(self, mini_baseline):
        sys = mini_baseline
        with pytest.raises(SegmentationFault):
            sys.kernel.handle_fault(sys.zygote, 0xDEAD_BEEF_0)

    def test_first_touch_anon_is_minor(self, mini_baseline):
        sys = mini_baseline
        vpn = sys.vpn(sys.zygote, HEAP, 3)
        outcome = sys.kernel.handle_fault(sys.zygote, vpn, is_write=True)
        assert outcome.fault_type is FaultType.MINOR
        assert sys.zygote.minor_faults == 1

    def test_warm_file_page_is_minor(self, mini_baseline):
        sys = mini_baseline
        vpn = sys.vpn(sys.zygote, MMAP, 5)
        outcome = sys.kernel.handle_fault(sys.zygote, vpn)
        assert outcome.fault_type is FaultType.MINOR

    def test_cold_file_page_is_major(self, mini_baseline):
        sys = mini_baseline
        cold = sys.kernel.create_file("cold", 4)  # not populated
        sys.kernel.mmap(sys.zygote, MMAP, 2048, 4, VMAKind.FILE_SHARED,
                        file=cold, name="cold")
        vpn = sys.vpn(sys.zygote, MMAP, 2048)
        outcome = sys.kernel.handle_fault(sys.zygote, vpn)
        assert outcome.fault_type is FaultType.MAJOR
        assert outcome.cycles >= sys.kernel.costs.major_fault

    def test_shared_file_pages_share_frames(self, mini_baseline):
        sys = mini_baseline
        child = sys.fork()
        a = sys.touch(sys.zygote, MMAP, 7)
        b = sys.touch(child, MMAP, 7)
        assert a.ppn == b.ppn

    def test_private_read_maps_shared_then_cow_on_write(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, DATA, 1)
        assert pte.cow and not pte.writable
        shared_ppn = pte.ppn
        pte2 = sys.touch(sys.zygote, DATA, 1, write=True)
        assert pte2.writable and not pte2.cow
        assert pte2.ppn != shared_ppn
        assert sys.zygote.cow_faults == 1

    def test_private_write_fault_allocates_immediately(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, DATA, 2, write=True)
        assert pte.writable and not pte.cow
        assert sys.kernel.page_cache.lookup(sys.bindata, 2) != pte.ppn

    def test_write_to_readonly_raises(self, mini_baseline):
        sys = mini_baseline
        sys.touch(sys.zygote, LIBS, 0)
        with pytest.raises(ProtectionFault):
            sys.kernel.handle_fault(sys.zygote,
                                    sys.vpn(sys.zygote, LIBS, 0),
                                    is_write=True)

    def test_spurious_fault_cheap(self, mini_baseline):
        sys = mini_baseline
        vpn = sys.vpn(sys.zygote, MMAP, 9)
        sys.kernel.handle_fault(sys.zygote, vpn)
        outcome = sys.kernel.handle_fault(sys.zygote, vpn)
        assert outcome.fault_type is FaultType.SPURIOUS
        assert outcome.cycles < sys.kernel.costs.minor_fault

    def test_touch_that_never_converges_raises_typed_error(self,
                                                           mini_baseline):
        class DroppingPolicy(PrivatePTPolicy):
            """Sends every install to a detached table, so no fault ever
            makes the page visible to the lookup."""

            def install_target(self, kernel, proc, vma, vpn, table, index,
                               private_content):
                return PageTable(table.level, 0), index, 0

        sys = mini_baseline
        sys.kernel.policy = DroppingPolicy()
        vpn = sys.vpn(sys.zygote, HEAP, 4)
        with pytest.raises(TouchDidNotConverge) as info:
            sys.kernel.touch(sys.zygote, vpn, is_write=True)
        assert isinstance(info.value, SimulationError)
        assert (info.value.pid, info.value.vpn) == (sys.zygote.pid, vpn)
        assert sys.zygote.tables.lookup_pte(vpn) is None
        # The touch retried: one fault per attempt, each dropped.
        assert sys.zygote.minor_faults == 4


class TestForkCow:
    def test_fork_write_protects_anon(self, mini_any):
        sys = mini_any
        sys.touch(sys.zygote, HEAP, 0, write=True)
        child = sys.fork()
        parent_pte = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, HEAP, 0))
        child_pte = child.tables.lookup_pte(sys.vpn(child, HEAP, 0))
        assert parent_pte.cow and not parent_pte.writable
        assert child_pte.cow
        assert parent_pte.ppn == child_pte.ppn

    def test_cow_break_diverges(self, mini_any):
        sys = mini_any
        sys.touch(sys.zygote, HEAP, 1, write=True)
        child = sys.fork()
        child_pte = sys.touch(child, HEAP, 1, write=True)
        parent_pte = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, HEAP, 1))
        assert child_pte.ppn != parent_pte.ppn
        assert child_pte.writable and not child_pte.cow

    def test_anon_isolation_across_siblings(self, mini_any):
        """The critical containment property: two containers' private
        writes must land in different frames, under both policies."""
        sys = mini_any
        a, b = sys.fork("a"), sys.fork("b")
        pa = sys.touch(a, HEAP, 42, write=True)
        pb = sys.touch(b, HEAP, 42, write=True)
        assert pa.ppn != pb.ppn
        # And the zygote sees neither.
        zp = sys.touch(sys.zygote, HEAP, 42, write=True)
        assert zp.ppn not in (pa.ppn, pb.ppn)

    def test_file_shared_not_cow_on_fork(self, mini_any):
        sys = mini_any
        sys.touch(sys.zygote, MMAP, 3, write=True)
        child = sys.fork()
        pte = child.tables.lookup_pte(sys.vpn(child, MMAP, 3))
        assert pte.writable and not pte.cow

    def test_fork_increfs_frames(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, HEAP, 2, write=True)
        before = sys.kernel.allocator.refcount(pte.ppn)
        sys.fork()
        assert sys.kernel.allocator.refcount(pte.ppn) == before + 1

    def test_baseline_fork_copies_tables(self, mini_baseline):
        sys = mini_baseline
        sys.touch(sys.zygote, HEAP, 0)
        before = sys.kernel.allocator.count(FrameKind.PAGE_TABLE)
        sys.fork()
        after = sys.kernel.allocator.count(FrameKind.PAGE_TABLE)
        assert after - before >= 4  # full private tree

    def test_fork_cost_scales_with_copies(self, mini_baseline):
        sys = mini_baseline
        for off in range(0, 600, 10):
            sys.touch(sys.zygote, MMAP, off)
        _child, cycles = sys.kernel.fork(sys.zygote)
        assert cycles > sys.kernel.costs.fork_base


class TestTHP:
    def huge_setup(self, sys):
        sys.kernel.mmap(sys.zygote, HEAP, 2048, 1024, VMAKind.ANON,
                        huge_ok=True, name="thp")
        return sys.vpn(sys.zygote, HEAP, 2048)

    def test_huge_allocation(self, mini_baseline):
        sys = mini_baseline
        vpn = self.huge_setup(sys)
        pte = sys.touch(sys.zygote, HEAP, 2048, write=True)
        assert pte.page_size is PageSize.SIZE_2M
        # The whole 2MB block resolves through the single leaf.
        assert sys.zygote.tables.lookup_pte(vpn + 17) is pte

    def test_huge_disabled_by_config(self):
        sys = MiniSystem(babelfish=False, thp=False)
        sys.kernel.mmap(sys.zygote, HEAP, 2048, 1024, VMAKind.ANON,
                        huge_ok=True, name="thp")
        pte = sys.touch(sys.zygote, HEAP, 2048, write=True)
        assert pte.page_size is PageSize.SIZE_4K

    def test_huge_cow_across_fork(self, mini_any):
        sys = mini_any
        self.huge_setup(sys)
        sys.touch(sys.zygote, HEAP, 2048, write=True)
        child = sys.fork()
        cp = sys.touch(child, HEAP, 2048 + 5, write=True)
        zp = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, HEAP, 2048))
        assert cp.ppn != zp.ppn
        assert cp.page_size is PageSize.SIZE_2M

    def test_unaligned_tail_uses_4k(self, mini_baseline):
        sys = mini_baseline
        sys.kernel.mmap(sys.zygote, HEAP, 4096, 600, VMAKind.ANON,
                        huge_ok=True, name="thp2")
        # Only one full 2MB block fits; the tail takes 4K pages.
        tail = sys.touch(sys.zygote, HEAP, 4096 + 520, write=True)
        assert tail.page_size is PageSize.SIZE_4K


class TestExit:
    def test_exit_frees_private_frames(self, mini_baseline):
        sys = mini_baseline
        child = sys.fork()
        pte = sys.touch(child, HEAP, 9, write=True)
        ppn = pte.ppn
        sys.kernel.exit_process(child)
        assert sys.kernel.allocator.refcount(ppn) == 0

    def test_exit_keeps_shared_file_frames(self, mini_baseline):
        sys = mini_baseline
        child = sys.fork()
        pte = sys.touch(child, MMAP, 11)
        ppn = pte.ppn
        sys.kernel.exit_process(child)
        # Page cache still holds its reference.
        assert sys.kernel.allocator.refcount(ppn) >= 1

    def test_exit_frees_table_frames(self, mini_any):
        sys = mini_any
        child = sys.fork()
        sys.touch(child, HEAP, 5, write=True)
        before = sys.kernel.allocator.count(FrameKind.PAGE_TABLE)
        sys.kernel.exit_process(child)
        assert sys.kernel.allocator.count(FrameKind.PAGE_TABLE) < before

    def test_exit_removes_from_process_table(self, mini_baseline):
        sys = mini_baseline
        child = sys.fork()
        sys.kernel.exit_process(child)
        assert child.pid not in sys.kernel.processes
        assert not child.alive


class TestCounters:
    def test_fault_counters_reset(self, mini_baseline):
        sys = mini_baseline
        sys.touch(sys.zygote, HEAP, 0, write=True)
        sys.kernel.reset_fault_counters()
        assert sys.kernel.total_minor_faults == 0

    def test_clear_accessed_bits(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, MMAP, 0)
        assert pte.accessed
        sys.kernel.clear_accessed_bits()
        assert not pte.accessed
