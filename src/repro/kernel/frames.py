"""Physical frame allocator with per-kind accounting and refcounts.

Every 4KB of simulated physical memory — data pages, page-cache pages,
page-table pages, MaskPages — comes from here, so the physical addresses
the page walker sends to the cache hierarchy are globally consistent and
sharing (same PPN in two processes) is real sharing.
"""

import collections
import enum

from repro.kernel.errors import OutOfMemoryError


class FrameKind(enum.Enum):
    DATA = "data"               # anonymous pages
    FILE = "file"               # page-cache pages
    PAGE_TABLE = "page_table"   # PGD/PUD/PMD/PTE table pages
    MASK_PAGE = "mask_page"     # BabelFish MaskPages (Appendix)
    KERNEL = "kernel"           # misc kernel metadata

    # Every allocation bumps a per-kind counter; Enum's own hash runs
    # Python code (it hashes the member name). Members are singletons
    # and compare by identity, so the identity hash is equivalent.
    __hash__ = object.__hash__


class FrameAllocator:
    def __init__(self, total_frames=8 * 1024 * 1024):
        self.total_frames = total_frames
        self._next = 1  # frame 0 reserved (null)
        self._free = collections.deque()
        self._kind = {}
        self._refcount = {}
        #: Contiguous huge-page blocks: base PPN -> page count. Refcounted
        #: through the base PPN; freed as a unit.
        self._block_pages = {}
        self.allocated_by_kind = collections.Counter()
        #: Frames currently allocated: a running total kept equal to
        #: ``sum(allocated_by_kind.values())``.
        self.allocated = 0
        self.peak_allocated = 0

    def alloc(self, kind=FrameKind.DATA, pages=1):
        """Allocate ``pages`` contiguous frames; returns the first PPN.

        Multi-page allocations (huge pages) are tracked as a block: the
        base PPN carries the refcount and ``decref(base)`` releases the
        whole block.
        """
        if pages > 1:
            # Huge pages need contiguity; carve from the bump pointer.
            if self._next + pages > self.total_frames:
                raise OutOfMemoryError("no contiguous range of %d frames" % pages)
            base = self._next
            self._next += pages
            self._kind[base] = kind
            self._refcount[base] = 1
            self._block_pages[base] = pages
            self.allocated_by_kind[kind] += pages
            self.allocated += pages
            if self.allocated > self.peak_allocated:
                self.peak_allocated = self.allocated
            return base
        if self._free:
            ppn = self._free.popleft()
        else:
            if self._next >= self.total_frames:
                raise OutOfMemoryError("out of physical frames")
            ppn = self._next
            self._next += 1
        self._register(ppn, kind)
        return ppn

    def _register(self, ppn, kind):
        self._kind[ppn] = kind
        self._refcount[ppn] = 1
        self.allocated_by_kind[kind] += 1
        self.allocated += 1
        if self.allocated > self.peak_allocated:
            self.peak_allocated = self.allocated

    def incref(self, ppn):
        if ppn not in self._refcount:
            raise ValueError("incref on unallocated frame %#x" % ppn)
        self._refcount[ppn] += 1
        return self._refcount[ppn]

    def decref(self, ppn):
        """Drop a reference; frees the frame when the count reaches zero."""
        count = self._refcount.get(ppn)
        if count is None:
            raise ValueError("decref on unallocated frame %#x" % ppn)
        if count == 1:
            kind = self._kind.pop(ppn)
            del self._refcount[ppn]
            pages = self._block_pages.pop(ppn, 1)
            self.allocated_by_kind[kind] -= pages
            self.allocated -= pages
            if pages == 1:
                self._free.append(ppn)
            return 0
        self._refcount[ppn] = count - 1
        return count - 1

    def refcount(self, ppn):
        return self._refcount.get(ppn, 0)

    def kind(self, ppn):
        return self._kind.get(ppn)

    def count(self, kind):
        return self.allocated_by_kind[kind]
