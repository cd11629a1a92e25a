"""Page Walk Cache (Section II-B).

Caches recently used entries of the first three page-table levels (PGD,
PUD, PMD). Tagged by the physical address of the table entry, so two
processes that share a page-table page (BabelFish) naturally share PWC
entries on the same core, while private tables do not — exactly the effect
Figure 7 relies on.
"""

#: Levels cached by the PWC: 4 = PGD, 3 = PUD, 2 = PMD. The leaf PTE level
#: is what the TLB itself caches, so the PWC does not store it.
PWC_LEVELS = (4, 3, 2)


class PageWalkCache:
    def __init__(self, params):
        self.params = params
        self.access_cycles = params.access_cycles
        #: Per level, a recency dict of entry keys (an entry's physical
        #: address // ``PTE_BYTES``; oldest first, hits delete +
        #: reinsert), so the LRU victim is the first key. The page
        #: walker probes and fills these dicts inline; the level-by-level
        #: reference probe lives in the test oracle
        #: (``tests/structure_oracle.py``).
        self._levels = {level: {} for level in PWC_LEVELS}
