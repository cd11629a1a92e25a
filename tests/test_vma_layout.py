"""Tests for VMAs, the memory descriptor, ASLR layouts, page cache, LRU."""

import pytest

from repro.hw.types import ENTRIES_PER_TABLE
from repro.kernel.aslr_layout import (
    ASLR_SLOTS,
    CANONICAL_BASES,
    canonical_layout,
    randomized_layout,
)
from repro.kernel.frames import FrameAllocator
from repro.kernel.lru import ActiveInactiveLRU
from repro.kernel.page_cache import FileObject, PageCache
from repro.kernel.vma import MM, SegmentKind, VMA, VMAKind


class TestVMA:
    def file_vma(self, start=0x1000, npages=16, **kw):
        file = FileObject("f", 64)
        kw.setdefault("kind", VMAKind.FILE_PRIVATE)
        return VMA(start, npages, SegmentKind.LIBS, file=file, **kw)

    def test_contains(self):
        vma = self.file_vma()
        assert vma.contains(0x1000)
        assert vma.contains(0x100F)
        assert not vma.contains(0x1010)
        assert not vma.contains(0xFFF)

    def test_file_index(self):
        vma = self.file_vma()
        vma.file_offset = 4
        assert vma.file_index(0x1002) == 6

    def test_file_backed_requires_file(self):
        with pytest.raises(ValueError):
            VMA(0, 4, SegmentKind.HEAP, VMAKind.FILE_SHARED)

    def test_shareable(self):
        assert self.file_vma().shareable
        anon = VMA(0, 4, SegmentKind.HEAP, VMAKind.ANON)
        assert not anon.shareable


class TestMM:
    def test_add_and_find(self):
        mm = MM()
        vma = VMA(100, 10, SegmentKind.HEAP, VMAKind.ANON)
        mm.add(vma)
        assert mm.find(105) is vma
        assert mm.find(99) is None
        assert mm.find(110) is None

    def test_overlap_rejected(self):
        mm = MM()
        mm.add(VMA(100, 10, SegmentKind.HEAP, VMAKind.ANON))
        with pytest.raises(ValueError):
            mm.add(VMA(105, 10, SegmentKind.HEAP, VMAKind.ANON))
        with pytest.raises(ValueError):
            mm.add(VMA(95, 10, SegmentKind.HEAP, VMAKind.ANON))

    def test_adjacent_ok(self):
        mm = MM()
        mm.add(VMA(100, 10, SegmentKind.HEAP, VMAKind.ANON))
        mm.add(VMA(110, 10, SegmentKind.HEAP, VMAKind.ANON))
        assert len(mm) == 2

    def test_find_with_many_vmas(self):
        mm = MM()
        for i in range(20):
            mm.add(VMA(i * 100, 50, SegmentKind.HEAP, VMAKind.ANON))
        assert mm.find(542).start_vpn == 500
        assert mm.find(560) is None

    def test_remove(self):
        mm = MM()
        vma = mm.add(VMA(0, 10, SegmentKind.HEAP, VMAKind.ANON))
        mm.remove(vma)
        assert mm.find(5) is None

    def test_clone_into(self):
        mm = MM()
        mm.add(VMA(0, 10, SegmentKind.HEAP, VMAKind.ANON))
        other = MM()
        mm.clone_into(other)
        assert len(other) == 1
        assert other.find(5) is not mm.find(5)  # copies, not aliases

    def test_total_pages(self):
        mm = MM()
        mm.add(VMA(0, 10, SegmentKind.HEAP, VMAKind.ANON))
        mm.add(VMA(100, 5, SegmentKind.HEAP, VMAKind.ANON))
        assert mm.total_pages == 15


class TestLayout:
    def test_canonical_bases(self):
        layout = canonical_layout()
        for segment in SegmentKind:
            assert layout.base(segment) == CANONICAL_BASES[segment]

    def test_randomized_is_2mb_aligned_offset(self):
        layout = randomized_layout(seed=99)
        for segment in SegmentKind:
            delta = layout.base(segment) - CANONICAL_BASES[segment]
            assert delta % ENTRIES_PER_TABLE == 0
            assert 0 <= delta < ASLR_SLOTS * ENTRIES_PER_TABLE

    def test_deterministic_by_seed(self):
        assert randomized_layout(7) == randomized_layout(7)
        assert randomized_layout(7) != randomized_layout(8)

    def test_vpn(self):
        layout = randomized_layout(1)
        assert (layout.vpn(SegmentKind.HEAP, 10)
                == layout.base(SegmentKind.HEAP) + 10)

    def test_segment_of(self):
        layout = randomized_layout(3)
        vpn = layout.vpn(SegmentKind.LIBS, 1000)
        assert layout.segment_of(vpn) is SegmentKind.LIBS

    def test_diff(self):
        a = randomized_layout(1)
        b = randomized_layout(2)
        diff = a.diff(b)
        seg = SegmentKind.STACK
        assert a.base(seg) + diff[seg] == b.base(seg)


class TestPageCache:
    def test_fill_and_lookup(self):
        cache = PageCache(FrameAllocator())
        file = FileObject("f", 8)
        assert cache.lookup(file, 0) is None
        ppn = cache.fill(file, 0)
        assert cache.lookup(file, 0) == ppn

    def test_fill_idempotent(self):
        cache = PageCache(FrameAllocator())
        file = FileObject("f", 8)
        assert cache.fill(file, 3) == cache.fill(file, 3)

    def test_beyond_eof_rejected(self):
        cache = PageCache(FrameAllocator())
        file = FileObject("f", 8)
        with pytest.raises(ValueError):
            cache.fill(file, 8)

    def test_populate(self):
        cache = PageCache(FrameAllocator())
        file = FileObject("f", 8)
        cache.populate(file)
        assert len(cache._pages) == 8

    def test_populate_fills_like_a_fill_loop(self):
        # The same frames in the same order as one fill() per page,
        # around a page that is already cached, then EOF past the end.
        file = FileObject("f", 8)
        bulk, loop = PageCache(FrameAllocator()), PageCache(FrameAllocator())
        for cache in (bulk, loop):
            cache.fill(file, 3)
        bulk.populate(file, 1, 5)
        for index in range(1, 6):
            loop.fill(file, index)
        assert bulk._pages == loop._pages
        assert list(bulk._pages) == list(loop._pages)
        # Pages 6 and 7 fill before the range runs past EOF.
        with pytest.raises(ValueError, match="beyond EOF"):
            bulk.populate(file, 6, 4)
        assert len(bulk._pages) == 7

    def test_distinct_files_distinct_frames(self):
        alloc = FrameAllocator()
        cache = PageCache(alloc)
        a, b = FileObject("a", 2), FileObject("b", 2)
        assert cache.fill(a, 0) != cache.fill(b, 0)

    def test_stats(self):
        cache = PageCache(FrameAllocator())
        file = FileObject("f", 2)
        assert cache.lookup(file, 0) is None
        ppn = cache.fill(file, 0)
        assert cache.lookup(file, 0) == ppn
        assert cache.fill(file, 0) == ppn
        assert list(cache._pages) == [(file.fid, 0)]


class TestLRU:
    def test_promotion_on_second_touch(self):
        lru = ActiveInactiveLRU()
        lru.touch(1)
        assert not lru.is_active(1)
        lru.touch(1)
        assert lru.is_active(1)

    def test_reset(self):
        lru = ActiveInactiveLRU()
        lru.touch(1)
        lru.reset()
        assert lru._refs == {}

    def test_counts(self):
        lru = ActiveInactiveLRU()
        lru.touch(1)
        lru.touch(2)
        lru.touch(2)
        assert lru._refs == {1: False, 2: True}
