"""Virtual memory areas and the per-process memory descriptor (mm).

A container process's address space is a handful of VMAs: binary code and
data, heap, stack, shared libraries (the middleware the paper notes is
shared across containers), and file mappings of mounted data sets.
"""

import bisect
import enum


class SegmentKind(enum.Enum):
    """The 7 ASLR-randomized segments of a Linux process (Section IV-D)."""

    CODE = "code"
    DATA = "data"
    HEAP = "heap"
    STACK = "stack"
    LIBS = "libs"
    MMAP = "mmap"
    VDSO = "vdso"

    # Members key the layout bases and the L0 memo: an identity hash
    # (members are singletons compared by identity) instead of Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__


class VMAKind(enum.Enum):
    #: MAP_SHARED file mapping: all mappers see one physical page, writes
    #: go to the shared page (data sets mounted into containers).
    FILE_SHARED = "file_shared"
    #: MAP_PRIVATE file mapping: read-shared through the page cache, CoW on
    #: write (binaries, libraries, image layers).
    FILE_PRIVATE = "file_private"
    #: Anonymous memory: private zero-fill, CoW across fork (heap, stack,
    #: internal buffers).
    ANON = "anon"

    @property
    def file_backed(self):
        return self is not VMAKind.ANON


class VMA:
    __slots__ = ("start_vpn", "npages", "segment", "kind", "file",
                 "file_offset", "writable", "executable", "huge_ok", "name")

    def __init__(self, start_vpn, npages, segment, kind, file=None,
                 file_offset=0, writable=True, executable=False,
                 huge_ok=False, name=""):
        if kind.file_backed and file is None:
            raise ValueError("file-backed VMA requires a file")
        self.start_vpn = start_vpn
        self.npages = npages
        self.segment = segment
        self.kind = kind
        self.file = file
        self.file_offset = file_offset
        self.writable = writable
        self.executable = executable
        self.huge_ok = huge_ok
        self.name = name

    @property
    def end_vpn(self):
        return self.start_vpn + self.npages

    def contains(self, vpn):
        return self.start_vpn <= vpn < self.end_vpn

    def file_index(self, vpn):
        """File page index backing ``vpn``."""
        return self.file_offset + (vpn - self.start_vpn)

    @property
    def shareable(self):
        """Could translations in this VMA be identical across the group?

        File-backed mappings (shared data sets, binaries, libraries) are;
        private anonymous memory is shareable only through fork-CoW, which
        is handled by table inheritance, not by fault-time attachment.
        """
        return self.kind.file_backed

    def __repr__(self):
        return "<VMA %s %s [%#x..%#x) %s%s>" % (
            self.name or self.segment.value, self.kind.value,
            self.start_vpn, self.end_vpn,
            "W" if self.writable else "R",
            "X" if self.executable else "")


class MM:
    """Per-process memory descriptor: a sorted, non-overlapping VMA list."""

    def __init__(self):
        self._vmas = []
        self._starts = []

    def add(self, vma):
        index = bisect.bisect_left(self._starts, vma.start_vpn)
        prev_vma = self._vmas[index - 1] if index > 0 else None
        next_vma = self._vmas[index] if index < len(self._vmas) else None
        if prev_vma is not None and prev_vma.end_vpn > vma.start_vpn:
            raise ValueError("VMA overlap: %r / %r" % (prev_vma, vma))
        if next_vma is not None and vma.end_vpn > next_vma.start_vpn:
            raise ValueError("VMA overlap: %r / %r" % (vma, next_vma))
        self._vmas.insert(index, vma)
        self._starts.insert(index, vma.start_vpn)
        return vma

    def remove(self, vma):
        index = self._vmas.index(vma)
        del self._vmas[index]
        del self._starts[index]

    def find(self, vpn):
        """The VMA containing ``vpn``, or None."""
        index = bisect.bisect_right(self._starts, vpn) - 1
        if index < 0:
            return None
        vma = self._vmas[index]
        # bisect already guarantees ``vma.start_vpn <= vpn``.
        return vma if vpn < vma.start_vpn + vma.npages else None

    def clone_into(self, other):
        """fork(): child gets copies of all VMAs (same files/offsets)."""
        for vma in self._vmas:
            other.add(VMA(vma.start_vpn, vma.npages, vma.segment, vma.kind,
                          vma.file, vma.file_offset, vma.writable,
                          vma.executable, vma.huge_ok, vma.name))

    def __iter__(self):
        return iter(self._vmas)

    def __len__(self):
        return len(self._vmas)

    @property
    def total_pages(self):
        return sum(vma.npages for vma in self._vmas)
