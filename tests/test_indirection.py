"""Tests for the Appendix extension: per-2MB-range pid lists.

The paper notes that "with an extra indirection, one could support more
writing processes" than the 32-per-PMD-table-set limit. With
``per_range_lists`` every pmd_t entry gets its own pid list, raising the
limit to 32 writers per 2MB range.
"""

import pytest

from repro.core.mask_page import MaskPage, MaskPageDirectory, MaskPageFull
from repro.core.shared_pt import SharedPTManager
from repro.core.ccid import CCIDRegistry
from repro.core.aslr import ASLRMode, group_layout_for
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.vma import SegmentKind, VMAKind

HEAP = SegmentKind.HEAP


class TestMaskPagePerRange:
    def test_independent_lists_per_range(self):
        page = MaskPage(1, 0, per_range=True, max_writers=2)
        assert page.assign_bit(10, pmd_index=0) == 0
        assert page.assign_bit(11, pmd_index=0) == 1
        # Range 1 has its own list: same pids get fresh bits, more pids fit.
        assert page.assign_bit(12, pmd_index=1) == 0
        assert page.assign_bit(13, pmd_index=1) == 1
        with pytest.raises(MaskPageFull):
            page.assign_bit(14, pmd_index=0)

    def test_bit_of_scoped(self):
        page = MaskPage(1, 0, per_range=True)
        page.assign_bit(10, pmd_index=3)
        assert page.bit_of(10, pmd_index=3) == 0
        assert page.bit_of(10, pmd_index=4) is None

    def test_writers_counts_all_ranges(self):
        page = MaskPage(1, 0, per_range=True)
        page.assign_bit(1, pmd_index=0)
        page.assign_bit(2, pmd_index=1)
        assert page.writers == 2

    def test_directory_propagates_mode(self):
        directory = MaskPageDirectory(per_range_lists=True, max_writers=4)
        page = directory.get_or_create(1, 0)
        assert page.per_range
        assert page.max_writers == 4


def storm_kernel(max_writers, per_range):
    registry = CCIDRegistry()
    group = registry.group_for("tenant", "storm")
    kernel = Kernel(KernelConfig(), policy=SharedPTManager(
        MaskPageDirectory(max_writers=max_writers,
                          per_range_lists=per_range)))
    kernel.policy.mask_dir.allocator = kernel.allocator
    layout = group_layout_for(group, ASLRMode.SW)
    zygote = kernel.spawn(group.ccid, layout, name="zygote")
    kernel.mmap(zygote, HEAP, 0, 2048, VMAKind.ANON, name="heap")
    return kernel, group, zygote


class TestIndirectionEndToEnd:
    def cow_storm(self, per_range, writers, pages_per_range=1):
        """Writers CoW pages spread over several 2MB ranges of one 1GB
        region: page i*600 stays in range i (600 > 512)."""
        kernel, group, zygote = storm_kernel(max_writers=4,
                                             per_range=per_range)
        # Parent populates one page in each of 3 ranges.
        for r in range(3):
            kernel.touch(zygote, zygote.vpn_group(HEAP, r * 600),
                         is_write=True)
        children = []
        for i in range(writers):
            child, _ = kernel.fork(zygote, name="w%d" % i)
            group.add(child)
            children.append(child)
        for i, child in enumerate(children):
            target_range = i % 3
            kernel.handle_fault(
                child, child.vpn_group(HEAP, target_range * 600),
                is_write=True)
        return kernel, children

    def test_without_indirection_region_overflows(self):
        # 9 writers over 3 ranges share ONE region list of 4 -> revert.
        kernel, _children = self.cow_storm(per_range=False, writers=9)
        assert kernel.policy.reverts >= 1

    def test_with_indirection_no_overflow(self):
        # Same storm, per-range lists: 3 writers per range <= 4 -> fine.
        kernel, _children = self.cow_storm(per_range=True, writers=9)
        assert kernel.policy.reverts == 0

    def test_indirection_still_overflows_per_range(self):
        kernel, group, zygote = storm_kernel(max_writers=2, per_range=True)
        kernel.touch(zygote, zygote.vpn_group(HEAP, 0), is_write=True)
        children = []
        for i in range(3):
            child, _ = kernel.fork(zygote, name="w%d" % i)
            group.add(child)
            children.append(child)
        for child in children:
            kernel.handle_fault(child, child.vpn_group(HEAP, 0),
                                is_write=True)
        assert kernel.policy.reverts == 1

    def test_isolation_preserved_under_indirection(self):
        kernel, children = self.cow_storm(per_range=True, writers=6)
        ppns = {}
        for i, child in enumerate(children):
            vpn = child.vpn_group(HEAP, (i % 3) * 600)
            pte = child.tables.lookup_pte(vpn)
            ppns.setdefault(i % 3, set()).add(pte.ppn)
        # Writers of the same range got distinct private frames.
        for frames in ppns.values():
            assert len(frames) == len(frames)  # all resolvable
        all_frames = [f for s in ppns.values() for f in s]
        assert len(all_frames) == len(set(all_frames))

    def test_tlb_lookup_uses_range_domain(self):
        from repro.core.babelfish_tlb import (babelfish_lookup,
                                              babelfish_lookup_fast)
        from repro.hw.params import TLBParams
        from repro.hw.tlb import FastMultiSizeTLB, MultiSizeTLB, TLBEntry
        from repro.hw.types import PageSize

        kernel, children = self.cow_storm(per_range=True, writers=3)
        policy = kernel.policy
        writer = children[0]  # CoW'ed range 0
        vpn = writer.vpn_group(HEAP, 0)
        domain = policy.mask_domain(vpn)
        assert domain == vpn >> 9
        bit = writer.pc_bits[domain]
        # Both backings the simulator pairs: linear-scan + reference
        # lookup, dict-backed + inlined lookup.
        for multi_cls, lookup in ((MultiSizeTLB, babelfish_lookup),
                                  (FastMultiSizeTLB, babelfish_lookup_fast)):
            multi = multi_cls([TLBParams("4k", 16, 4, PageSize.SIZE_4K, 10)])
            shared_entry = TLBEntry(vpn, 0x999, pcid=0, ccid=writer.ccid,
                                    o_bit=False, orpc=True,
                                    pc_mask=1 << bit, inserted_by=0)
            multi.insert(shared_entry)
            domain_fn = policy.entry_mask_domain
            # The holder is blocked; a writer of another range is not.
            # Both probes read the bitmask and neither is a CoW fault.
            assert lookup(multi, vpn, writer, False, domain_fn) \
                == (None, None, True, False)
            assert lookup(multi, vpn, children[1], False, domain_fn) \
                == (shared_entry, PageSize.SIZE_4K, True, False)
