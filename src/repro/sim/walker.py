"""The hardware page walker (Section II-B, Figure 2).

Walks a process's software page tables level by level. PGD/PUD/PMD entry
reads probe the page walk cache first; on a PWC miss (and always for the
leaf pte_t) the walker issues a request to the cache hierarchy at the
entry's *physical* address — so walks by different containers over shared
tables hit the same cache lines (Figure 7's BabelFish timeline).

The walk runs once per TLB miss, so it is written as one pass: the table
index, the entry's physical address and the PWC probe are inlined into
the level loop, and memory references go through
:meth:`~repro.hw.cache.CacheHierarchy.walk_access`, the cycles-only form
of the hierarchy's skip-L1 load.
"""

from repro.hw.types import ENTRIES_PER_TABLE, PAGE_SHIFT, PTE_BYTES
from repro.kernel.page_table import LEVEL_SHIFT, PGD, PTE, PTE_LEVEL, TableRef

#: Index shift per level (``LEVEL_SHIFT`` as a tuple indexed by level).
_SHIFTS = tuple(LEVEL_SHIFT.get(level, 0) for level in range(PGD + 1))
_INDEX_MASK = ENTRIES_PER_TABLE - 1
#: An entry's PWC key is its physical address >> _PTE_SHIFT, so entry
#: ``index`` of the table in ``frame`` has key
#: ``(frame << _FRAME_TO_KEY) + index``.
_PTE_SHIFT = PTE_BYTES.bit_length() - 1
_FRAME_TO_KEY = PAGE_SHIFT - _PTE_SHIFT


class WalkResult:
    """One walk's outcome. ``pte`` is None on a fault; ``leaf_table`` is
    the table holding the leaf (None when the walk ran off the tables)."""

    __slots__ = ("pte", "leaf_table", "leaf_level", "cycles", "fault")

    def __init__(self, pte, leaf_table, leaf_level, cycles, fault):
        self.pte = pte
        self.leaf_table = leaf_table
        self.leaf_level = leaf_level
        self.cycles = cycles
        self.fault = fault

    @property
    def page_size(self):
        return self.pte.page_size if self.pte is not None else None

    def __repr__(self):
        return "WalkResult(%s)" % ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__)


class PageWalker:
    def __init__(self, core_id, hierarchy, pwc):
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.pwc = pwc
        self.walks = 0
        self.total_cycles = 0
        #: Optional event tracer (:mod:`repro.obs`); set by the simulator
        #: when tracing is enabled.
        self.tracer = None

    def walk(self, proc, vpn):
        """Translate a 4K VPN through ``proc``'s tables with timing."""
        self.walks += 1
        core_id = self.core_id
        walk_access = self.hierarchy.walk_access
        pwc = self.pwc
        pwc_levels = pwc._levels
        pwc_entries = pwc.params.entries_per_level
        cycles = 0
        table = proc.tables.pgd
        level = PGD
        # Per-level PWC/memory outcomes, root first ("p"/"m"), collected
        # only when tracing so the hot path stays allocation-free.
        outcomes = None if self.tracer is None else []
        while True:
            index = (vpn >> _SHIFTS[level]) & _INDEX_MASK
            key = (table.frame << _FRAME_TO_KEY) + index
            if level > PTE_LEVEL:
                # PageWalkCache.lookup, then PageWalkCache.insert on a
                # miss (the key is absent, so only the eviction remains).
                cache = pwc_levels[level]
                if key in cache:
                    del cache[key]
                    cache[key] = None
                    pwc.hits += 1
                    cycles += pwc.access_cycles
                    if outcomes is not None:
                        outcomes.append("p")
                else:
                    pwc.misses += 1
                    cycles += walk_access(core_id, key << _PTE_SHIFT)
                    if len(cache) >= pwc_entries:
                        del cache[next(iter(cache))]
                    cache[key] = None
                    if outcomes is not None:
                        outcomes.append("m")
            else:
                cycles += walk_access(core_id, key << _PTE_SHIFT)
                if outcomes is not None:
                    outcomes.append("m")
            entry = table.entries.get(index)
            if entry is None:
                result = WalkResult(None, None, level, cycles, True)
                break
            if entry.__class__ is PTE:
                if not entry.present:
                    result = WalkResult(None, table, level, cycles, True)
                else:
                    entry.accessed = True
                    result = WalkResult(entry, table, level, cycles, False)
                break
            if entry.__class__ is not TableRef:
                raise TypeError("level-%d entry at vpn %#x is neither PTE "
                                "nor TableRef: %r" % (level, vpn, entry))
            table = entry.table
            level -= 1
        self.total_cycles += cycles
        if outcomes is not None:
            self.tracer.page_walk(self.core_id, proc.pid, vpn, cycles,
                                  result.fault, "".join(outcomes))
        return result
