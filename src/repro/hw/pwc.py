"""Page Walk Cache (Section II-B).

Caches recently used entries of the first three page-table levels (PGD,
PUD, PMD). Tagged by the physical address of the table entry, so two
processes that share a page-table page (BabelFish) naturally share PWC
entries on the same core, while private tables do not — exactly the effect
Figure 7 relies on.
"""

from repro.hw.types import PTE_BYTES

#: Levels cached by the PWC: 4 = PGD, 3 = PUD, 2 = PMD. The leaf PTE level
#: is what the TLB itself caches, so the PWC does not store it.
PWC_LEVELS = (4, 3, 2)


class PageWalkCache:
    def __init__(self, params):
        self.params = params
        self.access_cycles = params.access_cycles
        #: Per level, a recency dict of entry keys (oldest first; hits
        #: delete + reinsert), so the LRU victim is the first key. The
        #: page walker probes these dicts inline.
        self._levels = {level: {} for level in PWC_LEVELS}

    def _key(self, entry_paddr):
        return entry_paddr // PTE_BYTES

    def lookup(self, level, entry_paddr):
        """Probe the PWC for a table entry at ``level``; True on hit."""
        if level not in self._levels:
            return False
        cache = self._levels[level]
        key = self._key(entry_paddr)
        if key in cache:
            del cache[key]
            cache[key] = None
            return True
        return False

    def insert(self, level, entry_paddr):
        if level not in self._levels:
            return
        cache = self._levels[level]
        key = self._key(entry_paddr)
        if key in cache:
            del cache[key]
        elif len(cache) >= self.params.entries_per_level:
            del cache[next(iter(cache))]
        cache[key] = None

    def invalidate_entry(self, level, entry_paddr):
        if level in self._levels:
            self._levels[level].pop(self._key(entry_paddr), None)

    def flush(self):
        for cache in self._levels.values():
            cache.clear()

    def occupancy(self, level):
        return len(self._levels.get(level, {}))
