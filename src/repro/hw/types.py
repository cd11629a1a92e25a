"""Common low-level types shared by the hardware models."""

import enum

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
CACHE_LINE_SIZE = 64
PTE_BYTES = 8
ENTRIES_PER_TABLE = 512


class AccessKind(enum.Enum):
    """What a memory access is, from the core's point of view."""

    IFETCH = "ifetch"
    LOAD = "load"
    STORE = "store"

    @property
    def is_instruction(self):
        return self is AccessKind.IFETCH

    @property
    def is_write(self):
        return self is AccessKind.STORE


class MemoryLevel(enum.Enum):
    """Which level of the memory hierarchy served an access."""

    L1 = 1
    L2 = 2
    L3 = 3
    DRAM = 4


class PageSize(enum.Enum):
    """Page sizes supported by the TLBs (Table I)."""

    SIZE_4K = 12
    SIZE_2M = 21
    SIZE_1G = 30

    # Members key the per-size TLB dicts and every memo key; Enum's own
    # hash runs Python code (it hashes the member name). Members are
    # singletons and compare by identity, so the identity hash is
    # equivalent.
    __hash__ = object.__hash__

    @property
    def shift(self):
        return self.value

    @property
    def bytes(self):
        return 1 << self.value

    @property
    def base_pages(self):
        """Number of 4KB pages this page size covers."""
        return 1 << (self.value - PAGE_SHIFT)


# Hot-path constants precomputed as plain member attributes: the
# ``shift``/``base_pages`` properties cost a descriptor dispatch plus an
# enum ``.value`` access per call, which shows up when the simulator's
# fast path does them per translation. ``shift4k`` is the right-shift
# from a 4K VPN to this size's VPN; ``base_mask`` selects the 4K page
# within a larger page (``base_pages - 1``). ``coalesced`` marks
# synthetic multi-frame spans (:class:`repro.core.policy.CoalescedSpan`)
# — always False for real architectural page sizes, so size-generic
# consumers can branch without type checks.
for _size in PageSize:
    _size.shift4k = _size.value - PAGE_SHIFT
    _size.base_mask = (1 << (_size.value - PAGE_SHIFT)) - 1
    _size.coalesced = False
del _size


def vpn_for(vaddr, page_size=PageSize.SIZE_4K):
    """Virtual page number of ``vaddr`` for the given page size."""
    return vaddr >> page_size.shift


def line_addr(paddr):
    """Cache-line-aligned address of ``paddr``."""
    return paddr & ~(CACHE_LINE_SIZE - 1)
