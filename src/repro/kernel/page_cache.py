"""Files and the page cache.

The Linux page cache is why containers share physical pages: a library or
data file mapped by many processes is backed by a single page-cache frame
per file page. BabelFish then additionally shares the *translations* to
those frames.
"""

import itertools

from repro.kernel.frames import FrameKind


class FileObject:
    """A file that can be mmap'ed: container image layer, library, dataset."""

    _ids = itertools.count(1)

    def __init__(self, name, npages):
        self.fid = next(FileObject._ids)
        self.name = name
        self.npages = npages

    def __repr__(self):
        return "<File %d %r %d pages>" % (self.fid, self.name, self.npages)


class PageCache:
    def __init__(self, allocator):
        self.allocator = allocator
        self._pages = {}

    def lookup(self, file, index):
        """PPN of a cached file page, or None (caller takes a major fault)."""
        return self._pages.get((file.fid, index))

    def fill(self, file, index):
        """Bring a file page into the cache (disk read); returns its PPN."""
        key = (file.fid, index)
        if key in self._pages:
            return self._pages[key]
        if index >= file.npages:
            raise ValueError("page %d beyond EOF of %r" % (index, file))
        ppn = self.allocator.alloc(FrameKind.FILE)
        self._pages[key] = ppn
        return ppn

    def populate(self, file, start=0, npages=None):
        """Warm the cache with a file range (the paper's OS warm-up phase):
        :meth:`fill` each page in index order, in one loop."""
        end = file.npages if npages is None else start + npages
        pages = self._pages
        alloc = self.allocator.alloc
        fid = file.fid
        for index in range(start, min(end, file.npages)):
            key = (fid, index)
            if key not in pages:
                pages[key] = alloc(FrameKind.FILE)
        if end > file.npages:
            raise ValueError("page %d beyond EOF of %r" % (file.npages, file))

    def cached_pages(self, file):
        return sum(1 for fid, _ in self._pages if fid == file.fid)

    @property
    def total_pages(self):
        return len(self._pages)
