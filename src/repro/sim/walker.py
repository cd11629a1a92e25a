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
of the hierarchy's skip-L1 load. It returns a plain tuple, because a
walk's result is read once, right where it is made.
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


class PageWalker:
    def __init__(self, core_id, hierarchy, pwc):
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.pwc = pwc
        #: Optional event tracer (:mod:`repro.obs`); set by the simulator
        #: when tracing is enabled.
        self.tracer = None

    def walk(self, proc, vpn):
        """Translate a 4K VPN through ``proc``'s tables with timing.

        Returns ``(pte, leaf_table, cycles)``. ``pte`` is the present
        leaf, or None on a fault; ``leaf_table`` is the table holding the
        leaf slot (None when the walk ran off the tables)."""
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
                    cycles += pwc.access_cycles
                    if outcomes is not None:
                        outcomes.append("p")
                else:
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
                pte = leaf_table = None
                break
            if entry.__class__ is PTE:
                leaf_table = table
                if entry.present:
                    entry.accessed = True
                    pte = entry
                else:
                    pte = None
                break
            if entry.__class__ is not TableRef:
                raise TypeError("level-%d entry at vpn %#x is neither PTE "
                                "nor TableRef: %r" % (level, vpn, entry))
            table = entry.table
            level -= 1
        if outcomes is not None:
            self.tracer.page_walk(self.core_id, proc.pid, vpn, cycles,
                                  pte is None, "".join(outcomes))
        return pte, leaf_table, cycles
