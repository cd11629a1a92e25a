"""Tests for the x86-64 four-level page tables."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.hw.types import PageSize
from repro.kernel.frames import FrameAllocator
from repro.kernel.page_table import (
    AddressSpaceTables,
    PGD,
    PMD,
    PTE,
    PTE_LEVEL,
    PUD,
    PageTable,
    TableRef,
    pte_table_id,
    region_id,
    table_index,
)


@pytest.fixture
def tables():
    return AddressSpaceTables(FrameAllocator())


class TestIndexing:
    def test_table_index_slices(self):
        vpn = (3 << 27) | (5 << 18) | (7 << 9) | 11
        assert table_index(vpn, PGD) == 3
        assert table_index(vpn, PUD) == 5
        assert table_index(vpn, PMD) == 7
        assert table_index(vpn, PTE_LEVEL) == 11

    def test_index_bounded(self):
        vpn = (1 << 36) - 1
        for level in (PGD, PUD, PMD, PTE_LEVEL):
            assert 0 <= table_index(vpn, level) < 512

    def test_region_and_table_ids(self):
        vpn = 0x40000 + 513
        assert region_id(vpn) == vpn >> 18
        assert pte_table_id(vpn) == vpn >> 9


class TestAddressSpaceTables:
    def test_cr3_is_pgd_frame(self, tables):
        assert tables.cr3 == tables.pgd.frame * 4096

    def test_empty_walk_stops_at_pgd(self, tables):
        path = tables.walk(0x1234)
        assert len(path) == 1
        assert path[0][0] == PGD
        assert path[0][3] is None

    def test_set_leaf_creates_path(self, tables):
        vpn = (1 << 27) | (2 << 18) | (3 << 9) | 4
        tables.set_leaf(vpn, PTE(0x55))
        path = tables.walk(vpn)
        assert len(path) == 4
        assert isinstance(path[-1][3], PTE)
        assert path[-1][3].ppn == 0x55

    def test_lookup_pte(self, tables):
        tables.set_leaf(0x77, PTE(0x99))
        assert tables.lookup_pte(0x77).ppn == 0x99
        assert tables.lookup_pte(0x78) is None

    def test_each_table_has_unique_frame(self, tables):
        tables.set_leaf(0, PTE(1))
        tables.set_leaf(1 << 27, PTE(2))
        frames = [t.frame for t in tables.iter_tables()]
        assert len(frames) == len(set(frames))

    def test_tables_allocated_counter(self, tables):
        before = tables.tables_allocated
        tables.set_leaf(0x123, PTE(1))
        # PUD + PMD + PTE tables created.
        assert tables.tables_allocated == before + 3

    def test_sibling_pages_share_tables(self, tables):
        tables.set_leaf(0x100, PTE(1))
        before = tables.tables_allocated
        tables.set_leaf(0x101, PTE(2))
        assert tables.tables_allocated == before

    def test_huge_leaf_at_pmd(self, tables):
        vpn = 512 * 7
        tables.set_leaf(vpn, PTE(0x1000, page_size=PageSize.SIZE_2M),
                        leaf_level=PMD)
        path = tables.walk(vpn + 5)
        assert path[-1][0] == PMD
        assert isinstance(path[-1][3], PTE)

    def test_mixing_huge_and_4k_rejected(self, tables):
        vpn = 512 * 7
        tables.set_leaf(vpn, PTE(0x1000, page_size=PageSize.SIZE_2M),
                        leaf_level=PMD)
        with pytest.raises(ValueError):
            tables.ensure_path(vpn + 1, PTE_LEVEL)

    def test_iter_leaves_roundtrip(self, tables):
        vpns = [5, 513, (1 << 18) + 7, (1 << 27) + 9]
        for i, vpn in enumerate(vpns):
            tables.set_leaf(vpn, PTE(i + 1))
        leaves = {vpn: pte.ppn for vpn, _l, _t, _i, pte in tables.iter_leaves()}
        assert leaves == {vpn: i + 1 for i, vpn in enumerate(vpns)}

    def test_table_provider_used(self, tables):
        shared = PageTable(PTE_LEVEL, FrameAllocator().alloc())
        shared.entries[5] = PTE(0xABC)

        def provider(level, vpn):
            if level == PTE_LEVEL:
                shared.sharers += 1
                return shared
            return None

        table, index, _alloc = tables.ensure_path(5, table_provider=provider)
        assert table is shared
        assert shared.sharers == 2
        assert isinstance(table.entries[index], PTE)

    def test_entry_paddr(self):
        table = PageTable(PTE_LEVEL, 0x10)
        assert table.entry_paddr(3) == 0x10 * 4096 + 24

    def test_count_table_pages(self, tables):
        tables.set_leaf(0, PTE(1))
        assert tables.count_table_pages() == 4  # PGD..PTE


class TestPTE:
    def test_clone_preserves_fields(self):
        pte = PTE(0x42, writable=False, cow=True, executable=True)
        pte.dirty = True
        clone = pte.clone()
        assert clone.ppn == 0x42
        assert clone.cow and not clone.writable and clone.executable
        assert clone.dirty

    def test_perm_key_equality(self):
        a = PTE(1, writable=True)
        b = PTE(2, writable=True)
        c = PTE(3, writable=False)
        assert a.perm_key() == b.perm_key()
        assert a.perm_key() != c.perm_key()

    def test_tableref_bits(self):
        ref = TableRef(PageTable(PTE_LEVEL, 1), o_bit=True, orpc=False)
        assert ref.o_bit and not ref.orpc


# -- differential: fast lookup vs leaf slot vs full walk ------------------------

#: VPNs from a few indices per level, so generated trees share upper
#: tables, leave whole levels missing and collide on leaves.
_VPN = st.builds(lambda i4, i3, i2, i1: (i4 << 27) | (i3 << 18) | (i2 << 9) | i1,
                 st.integers(0, 2), st.integers(0, 2), st.integers(0, 3),
                 st.sampled_from([0, 1, 5, 511]))

#: How a generated leaf is installed.
_LEAF_KINDS = ("4k", "4k_not_present", "2m", "2m_not_present", "shared")

#: The entry index of each PTE-table slot that the shared table maps.
_SHARED_SLOTS = (0, 5, 511)


def _shared_pte_table(allocator):
    table = PageTable(PTE_LEVEL, allocator.alloc())
    for index in _SHARED_SLOTS:
        table.entries[index] = PTE(0x5000 + index, present=index != 5)
    return table


def _build(tables, shared, ops):
    """Install ``ops`` into ``tables``; a ``shared`` op attaches
    ``shared`` as the PTE table of its 2MB range when that range has no
    PTE table yet."""
    def attach(level, _vpn):
        if level != PTE_LEVEL:
            return None
        shared.sharers += 1
        return shared

    for kind, vpn in ops:
        try:
            if kind == "shared":
                tables.ensure_path(vpn, table_provider=attach)
            elif kind.startswith("2m"):
                tables.set_leaf(vpn & ~511, PTE(
                    vpn, present=kind == "2m", page_size=PageSize.SIZE_2M),
                    leaf_level=PMD)
            else:
                tables.set_leaf(vpn, PTE(vpn, present=kind == "4k"))
        except ValueError:
            pass  # a 4K path through an existing 2M leaf: rejected


def _assert_agree(tables, vpn):
    path = tables.walk(vpn)
    last = path[-1]
    slot = tables.leaf_slot(vpn)
    assert slot[0] == last[0]
    assert slot[1] is last[1]
    assert slot[2] == last[2]
    assert slot[3] is last[3]
    expected = last[3] if isinstance(last[3], PTE) else None
    assert tables.lookup_pte(vpn) is expected


class TestWalkEntryPointsAgree:
    @given(st.lists(st.tuples(st.sampled_from(_LEAF_KINDS), _VPN),
                    max_size=40),
           st.lists(_VPN, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_lookup_leaf_slot_and_walk_agree(self, ops, queries):
        allocator = FrameAllocator()
        shared = _shared_pte_table(allocator)
        first = AddressSpaceTables(allocator)
        second = AddressSpaceTables(allocator)
        _build(first, shared, ops)
        _build(second, shared, list(reversed(ops)))
        for tables in (first, second):
            for vpn in queries + [vpn for _kind, vpn in ops]:
                _assert_agree(tables, vpn)
                _assert_agree(tables, vpn | 7)

    def test_each_stop_level_is_reached(self, tables):
        """The hand-built corners the generated trees cover: a missing
        PGD/PUD/PMD entry, a 2M leaf, a non-present 4K leaf, and a PTE
        table shared with a second tree."""
        allocator = tables.allocator
        shared = _shared_pte_table(allocator)
        tables.set_leaf(1 << 27, PTE(1))  # allocates PUD, PMD, PTE tables
        tables.set_leaf((1 << 27) | (1 << 18) | (2 << 9),
                        PTE(2, page_size=PageSize.SIZE_2M), leaf_level=PMD)
        tables.set_leaf((1 << 27) | 3, PTE(3, present=False))
        _build(tables, shared, [("shared", 2 << 27)])
        other = AddressSpaceTables(allocator)
        _build(other, shared, [("shared", 2 << 27)])
        assert shared.sharers == 3
        probes = {
            0: PGD,                                    # no PUD table
            (1 << 27) | (2 << 18): PUD,                # no PMD table
            (1 << 27) | (5 << 9): PMD,                 # no PTE table
            (1 << 27) | (1 << 18) | (2 << 9) | 9: PMD,  # 2M leaf
            (1 << 27) | 3: PTE_LEVEL,                  # not present
            (2 << 27) | 5: PTE_LEVEL,                  # shared, not present
            (2 << 27) | 511: PTE_LEVEL,                # shared, present
        }
        for vpn, level in probes.items():
            assert tables.leaf_slot(vpn)[0] == level
            _assert_agree(tables, vpn)
            _assert_agree(other, vpn)
        assert tables.lookup_pte((2 << 27) | 511) \
            is other.lookup_pte((2 << 27) | 511) \
            is shared.entries[511]
        assert tables.lookup_pte((1 << 27) | 3).present is False
