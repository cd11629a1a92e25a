"""Set-associative write-back caches and the 3-level hierarchy of Table I.

The timing model is sequential-lookup: an access probes L1, then L2, then
the shared L3, then DRAM, accumulating each level's access time. Fills
propagate to every level on the way back (non-inclusive, fill-on-miss).
This is the level of fidelity the paper's translation study needs: what
matters is *which level* a page-walk request or data access hits in, which
is determined by sharing of physical lines across containers.
"""

from repro.hw.types import AccessKind, MemoryLevel


class SetAssociativeCache:
    """A single set-associative, write-back, LRU cache."""

    def __init__(self, params):
        self.params = params
        self.name = params.name
        self.line_bits = params.line_size.bit_length() - 1
        self.num_sets = params.num_sets
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two: %d" % self.num_sets)
        self.set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        self.access_cycles = params.access_cycles
        self.ways = params.ways
        # One dict per set: tag -> last-use stamp. Dicts keep us O(1) on
        # lookup; LRU victim search is O(ways), ways <= 16.
        self._sets = [dict() for _ in range(self.num_sets)]
        self._dirty = set()
        self._stamp = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        #: Monotonic change counter: bumped on insert and on any
        #: invalidate/flush that removed a line. Hits re-stamp LRU state
        #: but do not change residency, so they leave it alone; the
        #: hierarchy's same-line memo relies on exactly that contract.
        self.epoch = 0

    def _index_tag(self, paddr):
        line = paddr >> self.line_bits
        return line & self.set_mask, line >> self._tag_shift

    def lookup(self, paddr, is_write=False):
        """Probe the cache; returns True on hit and updates LRU/dirty state."""
        index, tag = self._index_tag(paddr)
        cset = self._sets[index]
        if tag in cset:
            self._stamp += 1
            cset[tag] = self._stamp
            if is_write:
                self._dirty.add((index, tag))
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, paddr, is_write=False):
        """Fill a line, evicting the LRU way if the set is full."""
        index, tag = self._index_tag(paddr)
        cset = self._sets[index]
        if tag not in cset and len(cset) >= self.ways:
            victim = min(cset, key=cset.get)
            del cset[victim]
            self.evictions += 1
            if (index, victim) in self._dirty:
                self._dirty.discard((index, victim))
                self.writebacks += 1
        self._stamp += 1
        cset[tag] = self._stamp
        if is_write:
            self._dirty.add((index, tag))
        self.epoch += 1

    def invalidate(self, paddr):
        index, tag = self._index_tag(paddr)
        cset = self._sets[index]
        # Membership, not pop-default: the fast backing stores None as
        # the per-tag value, which a pop-is-None test would misread as
        # "absent" and skip the epoch bump.
        if tag in cset:
            del cset[tag]
            self.epoch += 1
        self._dirty.discard((index, tag))

    def flush(self):
        for cset in self._sets:
            cset.clear()
        self._dirty.clear()
        self.epoch += 1

    @property
    def occupancy(self):
        return sum(len(s) for s in self._sets)

    def __repr__(self):
        return "<%s %dB %d-way hits=%d misses=%d>" % (
            self.name, self.params.size_bytes, self.ways, self.hits, self.misses)


class FastSetAssociativeCache(SetAssociativeCache):
    """Recency-dict :class:`SetAssociativeCache` with identical observable
    behaviour, selected by ``SimConfig.fastpath``.

    The reference keeps ``tag -> stamp`` per set and scans for the
    minimum stamp to evict; stamps are unique and monotonic, so their
    order is exactly recency order. This backing stores the same tags in
    a recency-ordered dict (oldest first; hits delete + reinsert), making
    eviction ``next(iter(set))`` instead of an O(ways) ``min`` — the same
    victim, without the scan. Hit/miss/eviction/writeback counters,
    dirty-line state, ``occupancy``, and the ``epoch`` contract all match
    the reference bit for bit (tests/test_fastpath.py drives both against
    random access streams).
    """

    def lookup(self, paddr, is_write=False):
        line = paddr >> self.line_bits
        index = line & self.set_mask
        tag = line >> self._tag_shift
        cset = self._sets[index]
        if tag in cset:
            del cset[tag]
            cset[tag] = None
            if is_write:
                self._dirty.add((index, tag))
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, paddr, is_write=False):
        line = paddr >> self.line_bits
        index = line & self.set_mask
        tag = line >> self._tag_shift
        cset = self._sets[index]
        if tag in cset:
            del cset[tag]
        elif len(cset) >= self.ways:
            victim = next(iter(cset))
            del cset[victim]
            self.evictions += 1
            if (index, victim) in self._dirty:
                self._dirty.discard((index, victim))
                self.writebacks += 1
        cset[tag] = None
        if is_write:
            self._dirty.add((index, tag))
        self.epoch += 1


class CacheHierarchy:
    """Per-core L1I/L1D + private L2, shared L3, and DRAM behind it."""

    def __init__(self, machine, dram, fastpath=False):
        self.machine = machine
        self.dram = dram
        cache_cls = FastSetAssociativeCache if fastpath else SetAssociativeCache
        self.l1i = [cache_cls(machine.l1i) for _ in range(machine.cores)]
        self.l1d = [cache_cls(machine.l1d) for _ in range(machine.cores)]
        self.l2 = [cache_cls(machine.l2) for _ in range(machine.cores)]
        self.l3 = cache_cls(machine.l3)
        #: Same-line memo for :meth:`data_access`: per core, per L1
        #: structure (0=ifetch, 1=data), the last line that hit in L1 as
        #: ``(line, epoch-at-hit)``. A repeat access to the same line
        #: while the L1's epoch is unchanged (line still resident)
        #: replays the hit path (recency, dirty, hit counter) without the
        #: lookup call chain.
        self._line_memo = [[None, None] for _ in range(machine.cores)]

    def access(self, core_id, paddr, kind=AccessKind.LOAD, skip_l1=False):
        """Run one access through the hierarchy.

        Returns ``(cycles, level)`` where ``level`` is the
        :class:`MemoryLevel` that served the access. ``skip_l1`` models
        page-walker requests, which in x86 go directly to the L2 cache
        (the walker does not consult the L1 data cache in our model,
        matching the paper's Figure 7 where walk requests are shown
        probing L2 then L3 then memory).
        """
        is_write = kind is AccessKind.STORE
        cycles = 0
        l1 = None
        if not skip_l1:
            l1 = (self.l1i[core_id] if kind is AccessKind.IFETCH
                  else self.l1d[core_id])
            cycles += l1.access_cycles
            if l1.lookup(paddr, is_write):
                return cycles, MemoryLevel.L1

        l2 = self.l2[core_id]
        cycles += l2.access_cycles
        if l2.lookup(paddr, is_write):
            if not skip_l1:
                l1.insert(paddr, is_write)
            return cycles, MemoryLevel.L2

        cycles += self.l3.access_cycles
        if self.l3.lookup(paddr, is_write):
            level = MemoryLevel.L3
        else:
            cycles += self.dram.access(paddr)
            self.l3.insert(paddr, is_write)
            level = MemoryLevel.DRAM

        l2.insert(paddr, is_write)
        if not skip_l1:
            l1.insert(paddr, is_write)
        return cycles, level

    def walk_access(self, core_id, paddr):
        """:meth:`access` for a page-walker reference (a ``skip_l1``
        LOAD): the same state changes, the cycles alone returned."""
        l2 = self.l2[core_id]
        if l2.lookup(paddr):
            return l2.access_cycles
        l3 = self.l3
        cycles = l2.access_cycles + l3.access_cycles
        if not l3.lookup(paddr):
            cycles += self.dram.access(paddr)
            l3.insert(paddr)
        l2.insert(paddr)
        return cycles

    def data_access(self, core_id, paddr, kind_code):
        """:meth:`access` specialized for the fast trace loop: demand
        accesses only (never ``skip_l1``), trace-record kind codes
        (0=ifetch, 1=load, 2=store) instead of :class:`AccessKind`, the
        L1 probe and same-line memo inlined, and a plain cycle count
        returned instead of a ``(cycles, level)`` tuple. State changes
        are identical to :meth:`access`; only called on a hierarchy
        built with ``fastpath=True``, and the only user of the line
        memo."""
        is_write = kind_code == 2
        ifetch = kind_code == 0
        l1 = self.l1i[core_id] if ifetch else self.l1d[core_id]
        line = paddr >> l1.line_bits
        index = line & l1.set_mask
        tag = line >> l1._tag_shift
        cset = l1._sets[index]
        slot = self._line_memo[core_id]
        way = 0 if ifetch else 1
        cached = slot[way]
        if cached is not None and cached[0] == line \
                and cached[1] == l1.epoch:
            del cset[tag]
            cset[tag] = None
            if is_write:
                l1._dirty.add((index, tag))
            l1.hits += 1
            return l1.access_cycles
        cycles = l1.access_cycles
        if tag in cset:
            # Inline FastSetAssociativeCache.lookup hit.
            del cset[tag]
            cset[tag] = None
            if is_write:
                l1._dirty.add((index, tag))
            l1.hits += 1
            slot[way] = (line, l1.epoch)
            return cycles
        l1.misses += 1

        l2 = self.l2[core_id]
        cycles += l2.access_cycles
        if l2.lookup(paddr, is_write):
            l1.insert(paddr, is_write)
            slot[way] = (line, l1.epoch)
            return cycles

        cycles += self.l3.access_cycles
        if not self.l3.lookup(paddr, is_write):
            cycles += self.dram.access(paddr)
            self.l3.insert(paddr, is_write)

        l2.insert(paddr, is_write)
        l1.insert(paddr, is_write)
        slot[way] = (line, l1.epoch)
        return cycles

    def invalidate_line(self, paddr):
        """Drop a line everywhere (used when the kernel rewrites a pte page)."""
        for core_id in range(self.machine.cores):
            self.l1i[core_id].invalidate(paddr)
            self.l1d[core_id].invalidate(paddr)
            self.l2[core_id].invalidate(paddr)
        self.l3.invalidate(paddr)

    def stats(self):
        return {
            "l1d_hits": sum(c.hits for c in self.l1d),
            "l1d_misses": sum(c.misses for c in self.l1d),
            "l1i_hits": sum(c.hits for c in self.l1i),
            "l1i_misses": sum(c.misses for c in self.l1i),
            "l2_hits": sum(c.hits for c in self.l2),
            "l2_misses": sum(c.misses for c in self.l2),
            "l3_hits": self.l3.hits,
            "l3_misses": self.l3.misses,
        }
