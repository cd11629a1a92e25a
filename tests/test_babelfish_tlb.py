"""Tests for the Figure 8 TLB lookup flowchart.

Every lookup case runs on two pairs: the linear-scan oracle
(``structure_oracle``: :class:`LinearMultiSizeTLB` with the closure
lookups) and the production :class:`MultiSizeTLB` with the inlined
lookups of :mod:`repro.core.babelfish_tlb`. The ``Fast`` test classes
re-run their base class's cases on the production pair, and every case
asserts on the returned tuple fields.
"""

import structure_oracle as oracle

from repro.core.babelfish_tlb import (
    babelfish_fill_fields,
    babelfish_lookup,
    conventional_lookup,
    entry_region,
    make_entry,
)
from repro.hw.params import TLBParams
from repro.hw.tlb import MultiSizeTLB, TLBEntry
from repro.hw.types import PageSize
from repro.kernel.page_table import PTE


class FakeProc:
    def __init__(self, pid=1, pcid=1, ccid=7, pc_bits=None):
        self.pid = pid
        self.pcid = pcid
        self.ccid = ccid
        self.pc_bits = pc_bits or {}


def shared_entry(vpn=0x10, ppn=0x100, ccid=7, orpc=False, pc_mask=0,
                 cow=False, writable=True, inserted_by=99):
    return TLBEntry(vpn, ppn, pcid=12, ccid=ccid, writable=writable,
                    cow=cow, o_bit=False, orpc=orpc, pc_mask=pc_mask,
                    inserted_by=inserted_by)


def owned_entry(vpn=0x10, ppn=0x200, pcid=1, ccid=7):
    return TLBEntry(vpn, ppn, pcid=pcid, ccid=ccid, o_bit=True,
                    inserted_by=1)


class TestFigure8:
    """Reference pair: the oracle's LinearMultiSizeTLB + closure
    ``babelfish_lookup``."""

    multi_cls = oracle.LinearMultiSizeTLB
    lookup_fn = staticmethod(oracle.babelfish_lookup)

    def multi(self):
        return self.multi_cls([TLBParams("4k", 16, 4, PageSize.SIZE_4K,
                                         10, 12)])

    def lookup(self, tlb, proc, is_write=False):
        """``(entry, consulted, cow_fault)`` for a probe of VPN 0x10."""
        entry, size, consulted, cow_fault = self.lookup_fn(
            tlb, 0x10, proc, is_write, entry_region)
        assert size is (None if entry is None else PageSize.SIZE_4K)
        return entry, consulted, cow_fault

    def test_box1_ccid_mismatch_misses(self):
        tlb = self.multi()
        tlb.insert(shared_entry(ccid=8))
        assert self.lookup(tlb, FakeProc(ccid=7)) == (None, False, False)

    def test_shared_hit_any_process(self):
        """Box 4: a shared entry hits for every process in the group."""
        tlb = self.multi()
        entry = shared_entry()
        tlb.insert(entry)
        for pcid in (1, 2, 3):
            assert self.lookup(tlb, FakeProc(pcid=pcid, ccid=7)) \
                == (entry, False, False)

    def test_owned_entry_needs_pcid(self):
        """Boxes 2/9: Ownership set means the PCID must also match."""
        tlb = self.multi()
        entry = owned_entry(pcid=1)
        tlb.insert(entry)
        assert self.lookup(tlb, FakeProc(pcid=1)) == (entry, False, False)
        assert self.lookup(tlb, FakeProc(pcid=2)) == (None, False, False)

    def test_private_copy_holder_misses_shared(self):
        """Box 3: a process whose PC bit is set cannot use the shared
        entry."""
        tlb = self.multi()
        entry = shared_entry(orpc=True, pc_mask=0b100)
        tlb.insert(entry)
        region = entry_region(entry)
        holder = FakeProc(pcid=1, ccid=7, pc_bits={region: 2})
        other = FakeProc(pcid=2, ccid=7, pc_bits={region: 0})
        stranger = FakeProc(pcid=3, ccid=7)
        # The holder's miss still read the bitmask (box 3).
        assert self.lookup(tlb, holder) == (None, True, False)
        assert self.lookup(tlb, other) == (entry, True, False)
        assert self.lookup(tlb, stranger) == (entry, True, False)

    def test_bitmask_consultation_flag(self):
        """ORPC clear: the PC bitmask read (and long access) is skipped."""
        tlb = self.multi()
        entry = shared_entry(orpc=False)
        tlb.insert(entry)
        assert self.lookup(tlb, FakeProc()) == (entry, False, False)

        tlb2 = self.multi()
        entry2 = shared_entry(orpc=True, pc_mask=1)
        tlb2.insert(entry2)
        assert self.lookup(tlb2, FakeProc(pcid=5)) == (entry2, True, False)

    def test_owned_hit_skips_bitmask(self):
        tlb = self.multi()
        entry = owned_entry(pcid=1)
        tlb.insert(entry)
        assert self.lookup(tlb, FakeProc(pcid=1)) == (entry, False, False)

    def test_write_to_cow_raises_cow_fault(self):
        """Boxes 5/6: a write hit on a CoW entry is a CoW page fault."""
        tlb = self.multi()
        entry = shared_entry(cow=True, writable=False)
        tlb.insert(entry)
        assert self.lookup(tlb, FakeProc(), is_write=True) \
            == (entry, False, True)

    def test_read_of_cow_hits(self):
        tlb = self.multi()
        entry = shared_entry(cow=True, writable=False)
        tlb.insert(entry)
        assert self.lookup(tlb, FakeProc(), is_write=False) \
            == (entry, False, False)

    def test_write_permission_miss(self):
        tlb = self.multi()
        tlb.insert(shared_entry(writable=False))
        assert self.lookup(tlb, FakeProc(), is_write=True) \
            == (None, False, False)

    def test_miss_on_empty(self):
        tlb = self.multi()
        assert self.lookup(tlb, FakeProc()) == (None, False, False)

    def test_shared_and_owned_coexist(self):
        """The advanced case: most processes share {VPN0, PPN0}; one has
        its private {VPN0, PPN1} (Section III-A)."""
        tlb = self.multi()
        shared = shared_entry(ppn=0x100, orpc=True, pc_mask=0b1)
        tlb.insert(shared)
        owned = owned_entry(ppn=0x200, pcid=9)
        tlb.insert(owned)
        region = entry_region(shared)
        owner = FakeProc(pcid=9, ccid=7, pc_bits={region: 0})
        assert self.lookup(tlb, owner) == (owned, True, False)
        other = FakeProc(pcid=5, ccid=7)
        assert self.lookup(tlb, other) == (shared, True, False)
        # Each hit moved its entry to the most-recent end of the set.
        assert list(tlb.entries()) == [owned, shared]


class TestFigure8Fast(TestFigure8):
    """Production pair: MultiSizeTLB + :func:`babelfish_lookup`."""

    multi_cls = MultiSizeTLB
    lookup_fn = staticmethod(babelfish_lookup)


class TestConventionalLookup:
    """Reference pair: the oracle's LinearMultiSizeTLB + closure
    ``conventional_lookup``."""

    multi_cls = oracle.LinearMultiSizeTLB
    lookup_fn = staticmethod(oracle.conventional_lookup)

    def multi(self):
        return self.multi_cls([TLBParams("4k", 16, 4, PageSize.SIZE_4K,
                                         10, 12)])

    def test_pcid_match(self):
        tlb = self.multi()
        entry = TLBEntry(0x10, 0x1, pcid=4, inserted_by=1)
        tlb.insert(entry)
        assert self.lookup_fn(tlb, 0x10, 4, False) \
            == (entry, PageSize.SIZE_4K, False)
        assert self.lookup_fn(tlb, 0x10, 5, False) == (None, None, False)

    def test_cow_write(self):
        tlb = self.multi()
        entry = TLBEntry(0x10, 0x1, pcid=4, cow=True, writable=False)
        tlb.insert(entry)
        assert self.lookup_fn(tlb, 0x10, 4, True) \
            == (entry, PageSize.SIZE_4K, True)


class TestConventionalLookupFast(TestConventionalLookup):
    """Production pair: MultiSizeTLB + :func:`conventional_lookup`."""

    multi_cls = MultiSizeTLB
    lookup_fn = staticmethod(conventional_lookup)


class TestFillHelpers:
    def test_fill_fields_skip_rules(self):
        # O set: skip.
        assert babelfish_fill_fields((True, False, 0)) == (True, False, 0, False)
        # O clear, ORPC clear: skip.
        assert babelfish_fill_fields((False, False, 0)) == (False, False, 0, False)
        # O clear, ORPC set: load the mask (long access).
        o, orpc, mask, long_access = babelfish_fill_fields((False, True, 0xF))
        assert not o and orpc and mask == 0xF and long_access

    def test_make_entry(self):
        pte = PTE(0x123, writable=True, cow=False)
        proc = FakeProc(pid=42, pcid=3, ccid=9)
        entry = make_entry(0x10, pte, proc, (False, True, 0b10),
                           PageSize.SIZE_4K)
        assert entry.vpn == 0x10 and entry.ppn == 0x123
        assert entry.ccid == 9 and entry.pcid == 3
        assert entry.orpc and entry.pc_mask == 0b10
        assert entry.inserted_by == 42

    def test_entry_region_by_size(self):
        e4k = TLBEntry(5 << 18, 1, PageSize.SIZE_4K)
        assert entry_region(e4k) == 5
        e2m = TLBEntry(5 << 9, 1, PageSize.SIZE_2M)
        assert entry_region(e2m) == 5
