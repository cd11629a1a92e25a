"""Tests for BabelFish's shared page tables (Sections III-B, IV-B, Appendix)."""

from repro.core.mask_page import region_of
from repro.kernel.audit import audit_kernel
from repro.kernel.fault import FaultType, InvalidationScope
from repro.kernel.page_table import PTE_LEVEL, pte_table_id
from repro.kernel.vma import SegmentKind, VMAKind

from conftest import MiniSystem

LIBS, MMAP, HEAP, DATA = (SegmentKind.LIBS, SegmentKind.MMAP,
                          SegmentKind.HEAP, SegmentKind.DATA)


def leaf_table(proc, vpn):
    path = proc.tables.walk(vpn)
    return path[-1][1]


class TestForkSharing:
    def test_fork_shares_pte_tables(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, MMAP, 0)
        child = sys.fork()
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        assert leaf_table(sys.zygote, vpn) is leaf_table(child, vpn)
        assert leaf_table(child, vpn).sharers == 2

    def test_fork_copies_upper_levels(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, MMAP, 0)
        child = sys.fork()
        assert child.tables.pgd is not sys.zygote.tables.pgd
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        child_path = child.tables.walk(vpn)
        parent_path = sys.zygote.tables.walk(vpn)
        # PGD/PUD/PMD tables differ; PTE table is the same object.
        for (child_step, parent_step) in zip(child_path[:-1], parent_path[:-1]):
            assert child_step[1] is not parent_step[1]
        assert child_path[-1][1] is parent_path[-1][1]

    def test_fork_cheaper_than_baseline(self):
        base = MiniSystem(babelfish=False)
        bf = MiniSystem(babelfish=True)
        for sys in (base, bf):
            for off in range(0, 512, 8):
                sys.touch(sys.zygote, MMAP, off)
        _c1, base_cycles = base.kernel.fork(base.zygote)
        _c2, bf_cycles = bf.kernel.fork(bf.zygote)
        assert bf_cycles < base_cycles

    def test_population_visible_to_existing_sibling(self, mini_babelfish):
        """Figure 6/7: the second container takes no fault at all for a
        page the first container populated in the shared table."""
        sys = mini_babelfish
        sys.touch(sys.zygote, MMAP, 0)  # table exists before fork
        a, b = sys.fork("a"), sys.fork("b")
        sys.touch(a, MMAP, 1)
        b.minor_faults = 0
        pte = b.tables.lookup_pte(sys.vpn(b, MMAP, 1))
        assert pte is not None and pte.present
        assert b.minor_faults == 0


class TestFaultTimeAttach:
    def test_attach_on_shared_file_fault(self, mini_babelfish):
        sys = mini_babelfish
        a, b = sys.fork("a"), sys.fork("b")
        # No table existed at fork; 'a' creates + registers, 'b' attaches.
        sys.touch(a, MMAP, 600)
        before = sys.policy.attaches
        outcome = sys.kernel.handle_fault(b, sys.vpn(b, MMAP, 600))
        assert sys.policy.attaches == before + 1
        assert outcome.fault_type is FaultType.SPURIOUS
        vpn = sys.vpn(a, MMAP, 600)
        assert leaf_table(a, vpn) is leaf_table(b, vpn)

    def test_no_attach_for_different_file(self, mini_babelfish):
        sys = mini_babelfish
        a, b = sys.fork("a"), sys.fork("b")
        other = sys.kernel.create_file("other", 1024)
        sys.kernel.page_cache.populate(other)
        # 'b' maps a different file at the same group VPNs.
        vma = b.mm.find(sys.vpn(b, MMAP, 0))
        b.mm.remove(vma)
        sys.kernel.mmap(b, MMAP, 0, 1024, VMAKind.FILE_SHARED, file=other,
                        name="other")
        pa = sys.touch(a, MMAP, 600)
        pb = sys.touch(b, MMAP, 600)
        assert pa.ppn != pb.ppn
        vpn = sys.vpn(a, MMAP, 600)
        assert leaf_table(a, vpn) is not leaf_table(b, vpn)

    def test_no_attach_for_anon(self, mini_babelfish):
        sys = mini_babelfish
        a, b = sys.fork("a"), sys.fork("b")
        sys.touch(a, HEAP, 700, write=True)
        sys.touch(b, HEAP, 700, write=True)
        vpn = sys.vpn(a, HEAP, 700)
        assert leaf_table(a, vpn) is not leaf_table(b, vpn)


class TestCoW:
    def setup_cow(self, sys):
        sys.touch(sys.zygote, HEAP, 0, write=True)
        a, b = sys.fork("a"), sys.fork("b")
        return a, b, sys.vpn(sys.zygote, HEAP, 0)

    def test_cow_creates_private_pte_page(self, mini_babelfish):
        sys = mini_babelfish
        a, b, vpn = self.setup_cow(sys)
        shared = leaf_table(a, vpn)
        outcome = sys.kernel.handle_fault(a, vpn, is_write=True)
        assert outcome.fault_type is FaultType.COW
        assert outcome.pte_page_copied
        private = leaf_table(a, vpn)
        assert private is not shared
        assert private.owned_by == a.pid
        assert leaf_table(b, vpn) is shared

    def test_cow_sets_mask_and_orpc(self, mini_babelfish):
        sys = mini_babelfish
        a, _b, vpn = self.setup_cow(sys)
        shared = leaf_table(a, vpn)
        sys.kernel.handle_fault(a, vpn, is_write=True)
        assert shared.orpc
        mask = sys.policy.mask_dir.mask_for(a.ccid, vpn)
        bit = a.pc_bits[region_of(vpn)]
        assert (mask >> bit) & 1

    def test_cow_invalidates_shared_entry_remotely(self, mini_babelfish):
        """Only the shared (O=0) entry is shot down remotely; the writer
        additionally drops its own stale private entry locally."""
        sys = mini_babelfish
        a, _b, vpn = self.setup_cow(sys)
        outcome = sys.kernel.handle_fault(a, vpn, is_write=True)
        scopes = [inv.scope for inv in outcome.invalidations]
        assert scopes.count(InvalidationScope.SHARED_ENTRY) == 1
        assert InvalidationScope.REGION_SHARED not in scopes
        assert all(inv.vpn == vpn for inv in outcome.invalidations)

    def test_other_sharers_keep_clean_page(self, mini_babelfish):
        sys = mini_babelfish
        a, b, vpn = self.setup_cow(sys)
        clean_ppn = b.tables.lookup_pte(vpn).ppn
        sys.kernel.handle_fault(a, vpn, is_write=True)
        assert b.tables.lookup_pte(vpn).ppn == clean_ppn
        assert a.tables.lookup_pte(vpn).ppn != clean_ppn

    def test_second_cow_in_same_range_reuses_private_table(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, HEAP, 0, write=True)
        sys.touch(sys.zygote, HEAP, 1, write=True)
        a = sys.fork("a")
        vpn0 = sys.vpn(a, HEAP, 0)
        vpn1 = sys.vpn(a, HEAP, 1)
        sys.kernel.handle_fault(a, vpn0, is_write=True)
        copies_before = sys.kernel.pte_pages_copied
        outcome = sys.kernel.handle_fault(a, vpn1, is_write=True)
        assert sys.kernel.pte_pages_copied == copies_before  # no new copy
        scopes = [inv.scope for inv in outcome.invalidations]
        assert InvalidationScope.SHARED_ENTRY in scopes

    def test_private_copy_has_cow_entries_for_rest(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, HEAP, 0, write=True)
        sys.touch(sys.zygote, HEAP, 1, write=True)
        a = sys.fork("a")
        sys.kernel.handle_fault(a, sys.vpn(a, HEAP, 0), is_write=True)
        # Page 1 in the private copy still points at the clean frame, CoW.
        pte1 = a.tables.lookup_pte(sys.vpn(a, HEAP, 1))
        zpte1 = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, HEAP, 1))
        assert pte1.ppn == zpte1.ppn
        assert pte1.cow

    def test_frame_refcounts_survive_cow(self, mini_babelfish):
        sys = mini_babelfish
        a, b, vpn = self.setup_cow(sys)
        clean_ppn = b.tables.lookup_pte(vpn).ppn
        sys.kernel.handle_fault(a, vpn, is_write=True)
        # Clean frame: shared table ref + a's private-copy refs dropped for
        # the broken page but kept... it must still be live.
        assert sys.kernel.allocator.refcount(clean_ppn) >= 1


class TestPrivateInstall:
    def test_anon_install_privatizes_shared_table(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, HEAP, 0, write=True)  # heap table exists
        a, b = sys.fork("a"), sys.fork("b")
        # First touch of a *new* heap page by 'a' must not install into
        # the shared table where 'b' would see it.
        pa = sys.touch(a, HEAP, 3, write=True)
        assert b.tables.lookup_pte(sys.vpn(b, HEAP, 3)) is None
        pb = sys.touch(b, HEAP, 3, write=True)
        assert pa.ppn != pb.ppn

    def test_file_private_write_privatizes(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, DATA, 0)
        a, b = sys.fork("a"), sys.fork("b")
        pa = sys.touch(a, DATA, 1, write=True)
        pte_b = b.tables.lookup_pte(sys.vpn(b, DATA, 1))
        assert pte_b is None or pte_b.ppn != pa.ppn


class TestRevert:
    def test_33rd_writer_reverts_region(self):
        sys = MiniSystem(babelfish=True, max_writers=4)
        sys.touch(sys.zygote, HEAP, 0, write=True)
        children = [sys.fork("c%d" % i) for i in range(5)]
        vpn = sys.vpn(sys.zygote, HEAP, 0)
        for child in children[:4]:
            sys.kernel.handle_fault(child, vpn, is_write=True)
        assert sys.policy.reverts == 0
        outcome = sys.kernel.handle_fault(children[4], vpn, is_write=True)
        assert sys.policy.reverts == 1
        scopes = {inv.scope for inv in outcome.invalidations}
        assert InvalidationScope.REGION_SHARED in scopes

    def test_after_revert_all_private(self):
        sys = MiniSystem(babelfish=True, max_writers=2)
        sys.touch(sys.zygote, HEAP, 0, write=True)
        children = [sys.fork("c%d" % i) for i in range(3)]
        vpn = sys.vpn(sys.zygote, HEAP, 0)
        for child in children:
            sys.kernel.handle_fault(child, vpn, is_write=True)
        for proc in [sys.zygote] + children:
            table = leaf_table(proc, vpn)
            assert table.owned_by in (proc.pid, None)
            assert not table.is_shared or table.owned_by is None

    def test_revert_isolation_preserved(self):
        sys = MiniSystem(babelfish=True, max_writers=2)
        sys.touch(sys.zygote, HEAP, 0, write=True)
        children = [sys.fork("c%d" % i) for i in range(3)]
        ppns = set()
        for child in children:
            pte = sys.touch(child, HEAP, 0, write=True)
            ppns.add(pte.ppn)
        assert len(ppns) == 3


class TestFillInfo:
    def test_shared_table_fill(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, MMAP, 0)
        child = sys.fork()
        vpn = sys.vpn(child, MMAP, 0)
        table = leaf_table(child, vpn)
        o_bit, orpc, mask = sys.policy.fill_info(child, table, vpn)
        assert not o_bit and not orpc and mask == 0

    def test_private_table_fill_is_owned(self, mini_babelfish):
        sys = mini_babelfish
        child = sys.fork()
        sys.touch(child, HEAP, 900, write=True)
        vpn = sys.vpn(child, HEAP, 900)
        table = leaf_table(child, vpn)
        o_bit, _orpc, _mask = sys.policy.fill_info(child, table, vpn)
        assert o_bit

    def test_orpc_fill_carries_mask(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, HEAP, 0, write=True)
        a, b = sys.fork("a"), sys.fork("b")
        vpn = sys.vpn(a, HEAP, 0)
        sys.kernel.handle_fault(a, vpn, is_write=True)
        shared = leaf_table(b, vpn)
        o_bit, orpc, mask = sys.policy.fill_info(b, shared, vpn)
        assert not o_bit and orpc and mask != 0


class TestTeardown:
    def test_last_sharer_frees_table(self, mini_babelfish):
        sys = mini_babelfish
        a, b = sys.fork("a"), sys.fork("b")
        sys.touch(a, MMAP, 600)
        sys.touch(b, MMAP, 600)
        vpn = sys.vpn(a, MMAP, 600)
        key = (a.ccid, PTE_LEVEL, pte_table_id(vpn))
        assert key in sys.policy.registry
        sys.kernel.exit_process(a)
        assert key in sys.policy.registry  # b still shares
        sys.kernel.exit_process(b)
        assert key not in sys.policy.registry

    def test_zygote_exit_keeps_children_tables(self, mini_babelfish):
        sys = mini_babelfish
        sys.touch(sys.zygote, MMAP, 0)
        child = sys.fork()
        vpn = sys.vpn(child, MMAP, 0)
        sys.kernel.exit_process(sys.zygote)
        pte = child.tables.lookup_pte(vpn)
        assert pte is not None and pte.present


class TestHugeMergeWithPteTables:
    """The fork-time PMD merge for 2MB pages (Section IV-C) takes only
    PMD tables that hold huge leaves alone and that no process owns, and
    a 4K fault under a merged PMD privatizes it before building its PTE
    table. Otherwise 4K tables and owned copies become reachable from
    every sharer and nested ``sharers`` counters no longer match."""

    @staticmethod
    def _mixed_region(sys):
        sys.kernel.mmap(sys.zygote, HEAP, 4096, 512, VMAKind.ANON,
                        huge_ok=True, name="thp")
        sys.touch(sys.zygote, HEAP, 4096, write=True)   # 2MB leaf

    def test_fork_after_4k_and_huge_in_one_region(self, mini_babelfish):
        sys = mini_babelfish
        self._mixed_region(sys)
        sys.touch(sys.zygote, HEAP, 0, write=True)      # 4K, same 1GB
        sys.fork()
        assert audit_kernel(sys.kernel, raise_on_failure=False) == []

    def test_4k_fault_under_merged_pmd(self, mini_babelfish):
        sys = mini_babelfish
        self._mixed_region(sys)
        child = sys.fork()
        sys.touch(child, HEAP, 0, write=True)
        assert audit_kernel(sys.kernel, raise_on_failure=False) == []

    def test_fork_after_cow_of_merged_pmd(self, mini_babelfish):
        sys = mini_babelfish
        sys.kernel.mmap(sys.zygote, HEAP, 4096, 1024, VMAKind.ANON,
                        huge_ok=True, name="thp")
        sys.touch(sys.zygote, HEAP, 4096, write=True)
        sys.fork()
        sys.touch(sys.zygote, HEAP, 4608, write=True)  # owned PMD copy
        sys.fork()
        assert audit_kernel(sys.kernel, raise_on_failure=False) == []
