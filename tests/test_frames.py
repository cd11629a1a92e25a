"""Tests for the physical frame allocator."""

import os
import pickle
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.kernel.errors import OutOfMemoryError
from repro.kernel.frames import FrameAllocator, FrameKind


class TestFrameAllocator:
    def test_alloc_unique(self):
        alloc = FrameAllocator()
        frames = {alloc.alloc() for _ in range(100)}
        assert len(frames) == 100

    def test_frame_zero_reserved(self):
        alloc = FrameAllocator()
        assert alloc.alloc() != 0

    def test_kind_tracking(self):
        alloc = FrameAllocator()
        alloc.alloc(FrameKind.PAGE_TABLE)
        alloc.alloc(FrameKind.DATA)
        alloc.alloc(FrameKind.DATA)
        assert alloc.count(FrameKind.PAGE_TABLE) == 1
        assert alloc.count(FrameKind.DATA) == 2

    def test_refcount_lifecycle(self):
        alloc = FrameAllocator()
        ppn = alloc.alloc()
        assert alloc.refcount(ppn) == 1
        alloc.incref(ppn)
        assert alloc.refcount(ppn) == 2
        assert alloc.decref(ppn) == 1
        assert alloc.decref(ppn) == 0
        assert alloc.refcount(ppn) == 0

    def test_free_frame_reused(self):
        alloc = FrameAllocator()
        ppn = alloc.alloc()
        alloc.decref(ppn)
        assert alloc.alloc() == ppn

    def test_decref_unallocated_raises(self):
        alloc = FrameAllocator()
        with pytest.raises(ValueError):
            alloc.decref(0x999)

    def test_incref_unallocated_raises(self):
        alloc = FrameAllocator()
        with pytest.raises(ValueError):
            alloc.incref(0x999)

    def test_out_of_memory(self):
        alloc = FrameAllocator(total_frames=4)
        for _ in range(3):
            alloc.alloc()
        with pytest.raises(OutOfMemoryError):
            alloc.alloc()

    def test_block_alloc_contiguous(self):
        alloc = FrameAllocator()
        base = alloc.alloc(pages=512)
        nxt = alloc.alloc()
        assert nxt >= base + 512

    def test_block_freed_as_unit(self):
        alloc = FrameAllocator()
        before = alloc.allocated
        base = alloc.alloc(FrameKind.DATA, pages=512)
        assert alloc.allocated == before + 512
        alloc.decref(base)
        assert alloc.allocated == before

    def test_block_refcount(self):
        alloc = FrameAllocator()
        base = alloc.alloc(pages=8)
        alloc.incref(base)
        alloc.decref(base)
        assert alloc.refcount(base) == 1

    def test_peak_tracking(self):
        alloc = FrameAllocator()
        pp = [alloc.alloc() for _ in range(10)]
        for ppn in pp:
            alloc.decref(ppn)
        assert alloc.peak_allocated >= 10
        assert alloc.allocated == 0

    def test_kind_lookup(self):
        alloc = FrameAllocator()
        ppn = alloc.alloc(FrameKind.MASK_PAGE)
        assert alloc.kind(ppn) is FrameKind.MASK_PAGE
        assert alloc.kind(0x12345) is None


#: One allocator operation: ("alloc", kind index, pages) or ("decref", pick).
_OPS = st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, len(FrameKind) - 1),
              st.sampled_from([1, 1, 1, 8, 512])),
    st.tuples(st.just("decref"), st.integers(0, 1 << 16), st.just(0)),
), max_size=120)


class TestRunningTotals:
    @given(_OPS)
    @settings(max_examples=60, deadline=None)
    def test_running_total_matches_per_kind_sum(self, ops):
        """``allocated`` is kept incrementally; after any mix of single
        and huge allocations, frees and free-list reuse it must equal the
        per-kind sum, and ``peak_allocated`` the maximum of that sum over
        every allocation (its definition before it was incremental)."""
        alloc = FrameAllocator()
        kinds = list(FrameKind)
        live = []  # one element per reference held
        peak = 0
        for op, arg, pages in ops:
            if op == "alloc":
                ppn = alloc.alloc(kinds[arg], pages=pages)
                live.append(ppn)
                if arg % 2:
                    # A second reference: the next decref must not free.
                    alloc.incref(ppn)
                    live.append(ppn)
                peak = max(peak, sum(alloc.allocated_by_kind.values()))
            elif live:
                alloc.decref(live.pop(arg % len(live)))
            assert alloc.allocated == sum(alloc.allocated_by_kind.values())
            assert alloc.peak_allocated == peak
        for ppn in live:
            alloc.decref(ppn)
        assert alloc.allocated == 0

    def test_free_list_reuse_keeps_totals(self):
        alloc = FrameAllocator()
        first = [alloc.alloc(FrameKind.DATA) for _ in range(4)]
        block = alloc.alloc(FrameKind.DATA, pages=512)
        for ppn in first:
            alloc.decref(ppn)
        assert alloc.allocated == 512
        again = [alloc.alloc(FrameKind.FILE) for _ in range(4)]
        assert sorted(again) == sorted(first)
        assert alloc.allocated == 516
        assert alloc.count(FrameKind.FILE) == 4
        assert alloc.peak_allocated == 516
        alloc.decref(block)
        assert alloc.allocated == sum(alloc.allocated_by_kind.values()) == 4


class TestPickleRoundTrip:
    """Pool workers ship kernel state across processes by pickle; the
    per-kind counts are keyed by ``FrameKind`` members, whose hash is the
    identity hash and so differs between processes."""

    @staticmethod
    def _allocator():
        alloc = FrameAllocator()
        data = [alloc.alloc(FrameKind.DATA) for _ in range(3)]
        alloc.alloc(FrameKind.PAGE_TABLE)
        alloc.alloc(FrameKind.FILE, pages=512)
        alloc.decref(data[0])
        return alloc

    def test_counts_survive_round_trip(self):
        alloc = pickle.loads(pickle.dumps(self._allocator()))
        assert alloc.count(FrameKind.DATA) == 2
        assert alloc.count(FrameKind.PAGE_TABLE) == 1
        assert alloc.count(FrameKind.FILE) == 512
        assert alloc.count(FrameKind.MASK_PAGE) == 0
        reused = alloc.alloc(FrameKind.MASK_PAGE)  # from the free list
        assert alloc.count(FrameKind.MASK_PAGE) == 1
        assert alloc.decref(reused) == 0
        assert alloc.count(FrameKind.MASK_PAGE) == 0
        assert alloc.allocated == sum(alloc.allocated_by_kind.values()) == 515

    def test_counts_survive_another_process(self):
        script = (
            "import pickle, sys\n"
            "from repro.kernel.frames import FrameKind\n"
            "alloc = pickle.loads(sys.stdin.buffer.read())\n"
            "alloc.decref(alloc.alloc(FrameKind.DATA))\n"
            "alloc.alloc(FrameKind.DATA)\n"
            "print(*(alloc.count(kind) for kind in FrameKind))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(self._allocator()), capture_output=True,
            check=True, env=env).stdout.decode()
        assert out.split() == ["3", "512", "1", "0", "0"]
