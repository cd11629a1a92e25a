"""Unit tests for the generic TLB structures (Figure 1/3 substrate)."""

import pytest

from structure_oracle import LinearSetAssocTLB

from repro.core.babelfish_tlb import conventional_lookup
from repro.hw.params import TLBParams
from repro.hw.tlb import (
    REPLACE_SAME_PCID,
    REPLACE_SHARED,
    MultiSizeTLB,
    SetAssocTLB,
    TLBEntry,
)
from repro.hw.types import PageSize


def small_tlb(entries=8, ways=2, size=PageSize.SIZE_4K):
    return SetAssocTLB(TLBParams("t", entries, ways, size, 1))


def entry(vpn, ppn=0x100, pcid=1, **kw):
    return TLBEntry(vpn, ppn, pcid=pcid, **kw)


class TestSetAssocTLB:
    def test_insert_lookup(self):
        tlb = small_tlb()
        tlb.insert(entry(0x10))
        found = tlb.lookup(0x10, lambda e: True)
        assert found is not None
        assert found.ppn == 0x100

    def test_lookup_miss_counted(self):
        # A miss changes nothing: no entry, no set epoch (the L0 memo's
        # guard) moves.
        tlb = small_tlb()
        assert tlb.lookup(0x10, lambda e: True) is None
        assert tlb.occupancy == 0
        assert not any(tlb._set_epochs)

    def test_pcid_mismatch_misses(self):
        tlb = small_tlb()
        tlb.insert(entry(0x10, pcid=1))
        assert tlb.lookup(0x10, lambda e: e.pcid == 2) is None

    def test_two_entries_same_vpn_different_pcid(self):
        """Conventional TLBs replicate translations per process (the
        problem the paper attacks)."""
        tlb = small_tlb()
        tlb.insert(entry(0x10, pcid=1))
        tlb.insert(entry(0x10, pcid=2))
        assert tlb.lookup(0x10, lambda e: e.pcid == 1) is not None
        assert tlb.lookup(0x10, lambda e: e.pcid == 2) is not None
        assert tlb.occupancy == 2

    def test_lru_eviction(self):
        tlb = small_tlb(entries=4, ways=2)  # 2 sets
        sets = tlb.num_sets
        tlb.insert(entry(0))
        tlb.insert(entry(sets))
        tlb.lookup(0, lambda e: True)
        tlb.insert(entry(2 * sets))  # evicts vpn=sets
        assert tlb.lookup(0, lambda e: True) is not None
        assert tlb.lookup(sets, lambda e: True) is None

    def test_insert_replace_in_place(self):
        tlb = small_tlb()
        tlb.insert(entry(0x10, ppn=0xAAA, pcid=3))
        tlb.insert(entry(0x10, ppn=0xBBB, pcid=3),
                   replace=REPLACE_SAME_PCID)
        assert tlb.occupancy == 1
        assert tlb.lookup(0x10, lambda e: True).ppn == 0xBBB

    def test_replace_only_matching(self):
        tlb = small_tlb()
        tlb.insert(entry(0x10, pcid=3))
        tlb.insert(entry(0x10, pcid=4), replace=REPLACE_SAME_PCID)
        assert tlb.occupancy == 2

    def test_invalidate_by_pred(self):
        tlb = small_tlb()
        tlb.insert(entry(0x10, pcid=1))
        tlb.insert(entry(0x10, pcid=2))
        removed = tlb.invalidate(0x10, lambda e: e.pcid == 1)
        assert removed == 1
        assert tlb.lookup(0x10, lambda e: e.pcid == 2) is not None

    def test_flush_by_pred(self):
        tlb = small_tlb()
        tlb.insert(entry(1, pcid=1))
        tlb.insert(entry(2, pcid=2))
        assert tlb.flush(lambda e: e.pcid == 1) == 1
        assert tlb.occupancy == 1

    def test_flush_all(self):
        tlb = small_tlb()
        for vpn in range(4):
            tlb.insert(entry(vpn))
        tlb.flush()
        assert tlb.occupancy == 0

    def test_occupancy_bounded(self):
        tlb = small_tlb(entries=8, ways=2)
        for vpn in range(100):
            tlb.insert(entry(vpn))
        assert tlb.occupancy <= 8

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssocTLB(TLBParams("bad", 12, 2, PageSize.SIZE_4K, 1))

    def test_conventional_match(self):
        """Figure 1's hit rule: VPN and PCID must both match."""
        multi = MultiSizeTLB([TLBParams("t", 8, 2, PageSize.SIZE_4K, 1)])
        multi.insert(entry(0x10, pcid=7))

        def hit(vpn, pcid):
            return conventional_lookup(multi, vpn, pcid, False)[0] is not None

        assert hit(0x10, 7)
        assert not hit(0x10, 8)
        assert not hit(0x11, 7)


class TestMultiSizeTLB:
    def make(self):
        return MultiSizeTLB([
            TLBParams("4k", 8, 2, PageSize.SIZE_4K, 1),
            TLBParams("2m", 4, 2, PageSize.SIZE_2M, 1),
        ])

    @staticmethod
    def lookup(multi, vpn4k):
        """Probe every size for a pcid-1 read: ``(entry, page_size)``."""
        found, size, _cow = conventional_lookup(multi, vpn4k, 1, False)
        return found, size

    def test_4k_lookup(self):
        multi = self.make()
        multi.insert(TLBEntry(0x10, 0x100, PageSize.SIZE_4K, pcid=1))
        found, size = self.lookup(multi, 0x10)
        assert found is not None
        assert size is PageSize.SIZE_4K

    def test_2m_lookup_by_4k_vpn(self):
        multi = self.make()
        # A 2MB page at 2M-VPN 3 covers 4K-VPNs [3*512, 4*512).
        multi.insert(TLBEntry(3, 0x100, PageSize.SIZE_2M, pcid=1))
        found, size = self.lookup(multi, 3 * 512 + 17)
        assert found is not None
        assert size is PageSize.SIZE_2M

    def test_miss_returns_none(self):
        multi = self.make()
        found, size = self.lookup(multi, 0x999)
        assert found is None and size is None

    def test_invalidate_covers_all_sizes(self):
        multi = self.make()
        multi.insert(TLBEntry(3, 0x100, PageSize.SIZE_2M, pcid=1))
        removed = multi.invalidate(3 * 512 + 5)
        assert removed == 1

    def test_entries_iteration(self):
        multi = self.make()
        multi.insert(TLBEntry(1, 1, PageSize.SIZE_4K, pcid=1))
        multi.insert(TLBEntry(2, 2, PageSize.SIZE_2M, pcid=1))
        assert len(list(multi.entries())) == 2

    def test_size_restricted_lookup(self):
        # Each size keeps its own structure: a 4K fill is invisible to
        # a probe of the 2MB one.
        multi = self.make()
        multi.insert(TLBEntry(0x10, 0x100, PageSize.SIZE_4K, pcid=1))
        tlb_2m = multi.tlbs[PageSize.SIZE_2M]
        assert tlb_2m.lookup(0x10 >> 9, lambda e: True) is None
        assert tlb_2m.occupancy == 0


@pytest.mark.parametrize("cls", [LinearSetAssocTLB, SetAssocTLB],
                         ids=["reference", "fast"])
class TestReplaceRules:
    """The two named fill rules, on the linear-scan oracle and the
    production structure: a rule either
    overwrites one resident same-VPN entry in place (returning it) or
    the fill takes a new way beside it."""

    @staticmethod
    def fill(cls, resident, new, rule):
        tlb = cls(TLBParams("t", 8, 4, PageSize.SIZE_4K, 1))
        tlb.insert(resident)
        returned = tlb.insert(new, rule)
        return returned, [(e.ppn, e.pcid, e.ccid, e.o_bit)
                          for e in tlb.entries()]

    def test_same_pcid_overwrites(self, cls):
        old, new = entry(0x10, ppn=1, pcid=3), entry(0x10, ppn=2, pcid=3)
        returned, resident = self.fill(cls, old, new, REPLACE_SAME_PCID)
        assert returned is old
        assert resident == [(2, 3, 0, False)]

    def test_same_pcid_keeps_other_pcid(self, cls):
        old, new = entry(0x10, ppn=1, pcid=3), entry(0x10, ppn=2, pcid=4)
        returned, resident = self.fill(cls, old, new, REPLACE_SAME_PCID)
        assert returned is None
        assert resident == [(1, 3, 0, False), (2, 4, 0, False)]

    def test_shared_overwrites_group_entry_of_any_pcid(self, cls):
        old = entry(0x10, ppn=1, pcid=3, ccid=7, o_bit=False)
        new = entry(0x10, ppn=2, pcid=4, ccid=7, o_bit=False)
        returned, resident = self.fill(cls, old, new, REPLACE_SHARED)
        assert returned is old
        assert resident == [(2, 4, 7, False)]

    def test_shared_keeps_o_bit_mismatch(self, cls):
        old = entry(0x10, ppn=1, pcid=3, ccid=7, o_bit=False)
        new = entry(0x10, ppn=2, pcid=3, ccid=7, o_bit=True)
        returned, resident = self.fill(cls, old, new, REPLACE_SHARED)
        assert returned is None
        assert resident == [(1, 3, 7, False), (2, 3, 7, True)]

    def test_shared_keeps_other_ccid(self, cls):
        old = entry(0x10, ppn=1, pcid=3, ccid=7, o_bit=False)
        new = entry(0x10, ppn=2, pcid=3, ccid=8, o_bit=False)
        returned, resident = self.fill(cls, old, new, REPLACE_SHARED)
        assert returned is None
        assert resident == [(1, 3, 7, False), (2, 3, 8, False)]

    def test_shared_keeps_owned_entry_of_other_pcid(self, cls):
        old = entry(0x10, ppn=1, pcid=3, ccid=7, o_bit=True)
        new = entry(0x10, ppn=2, pcid=4, ccid=7, o_bit=True)
        returned, resident = self.fill(cls, old, new, REPLACE_SHARED)
        assert returned is None
        assert resident == [(1, 3, 7, True), (2, 4, 7, True)]

    def test_shared_overwrites_owned_entry_of_same_pcid(self, cls):
        old = entry(0x10, ppn=1, pcid=3, ccid=7, o_bit=True)
        new = entry(0x10, ppn=2, pcid=3, ccid=7, o_bit=True)
        returned, resident = self.fill(cls, old, new, REPLACE_SHARED)
        assert returned is old
        assert resident == [(2, 3, 7, True)]
