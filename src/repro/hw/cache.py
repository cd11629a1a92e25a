"""Set-associative caches and the 3-level hierarchy of Table I.

The timing model is sequential-lookup: an access probes L1, then L2, then
the shared L3, then DRAM, accumulating each level's access time. Fills
propagate to every level on the way back (non-inclusive, fill-on-miss).
This is the level of fidelity the paper's translation study needs: what
matters is *which level* a page-walk request or data access hits in, which
is determined by sharing of physical lines across containers.

Each set is one recency-ordered dict mapping ``tag -> None``: the model
keeps which lines a level holds and their LRU order, nothing more (no
dirty bit: write-backs cost no cycles here). :meth:`CacheHierarchy.access`,
built from :meth:`SetAssociativeCache.lookup` and
:meth:`~SetAssociativeCache.insert`, is the reference formulation of an
access. The simulator's hot paths inline the same state changes:
:meth:`CacheHierarchy.walk_access` is the one L2 -> L3 -> DRAM probe and
fill (Figure 7's walk path), and :meth:`CacheHierarchy.data_access`
probes L1 and calls it on a miss.
"""

from repro.hw.types import AccessKind, MemoryLevel


class SetAssociativeCache:
    """A single set-associative LRU cache."""

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
        # One recency-ordered dict per set (tag -> None, oldest first;
        # hits delete + reinsert), so the LRU victim is the first key.
        self._sets = [dict() for _ in range(self.num_sets)]
        #: Monotonic change counter: bumped on insert and on any
        #: invalidate/flush that removed a line. Hits reorder LRU state
        #: but do not change residency, so they leave it alone; the
        #: hierarchy's same-line memo relies on exactly that contract.
        self.epoch = 0

    def _index_tag(self, paddr):
        line = paddr >> self.line_bits
        return line & self.set_mask, line >> self._tag_shift

    def lookup(self, paddr):
        """Probe the cache; returns True on hit and updates LRU state."""
        line = paddr >> self.line_bits
        cset = self._sets[line & self.set_mask]
        tag = line >> self._tag_shift
        if tag in cset:
            del cset[tag]
            cset[tag] = None
            return True
        return False

    def insert(self, paddr):
        """Fill a line, evicting the LRU way if the set is full."""
        line = paddr >> self.line_bits
        cset = self._sets[line & self.set_mask]
        tag = line >> self._tag_shift
        if tag in cset:
            del cset[tag]
        elif len(cset) >= self.ways:
            del cset[next(iter(cset))]
        cset[tag] = None
        self.epoch += 1

    def invalidate(self, paddr):
        index, tag = self._index_tag(paddr)
        cset = self._sets[index]
        if tag in cset:
            del cset[tag]
            self.epoch += 1

    def flush(self):
        for cset in self._sets:
            cset.clear()
        self.epoch += 1

    @property
    def occupancy(self):
        return sum(len(s) for s in self._sets)

    def __repr__(self):
        return "<%s %dB %d-way>" % (
            self.name, self.params.size_bytes, self.ways)


class CacheHierarchy:
    """Per-core L1I/L1D + private L2, shared L3, and DRAM behind it."""

    def __init__(self, machine, dram):
        self.machine = machine
        self.dram = dram
        levels = (machine.l1i, machine.l1d, machine.l2, machine.l3)
        line_sizes = {params.line_size for params in levels}
        if len(line_sizes) != 1:
            raise ValueError(
                "cache levels must share one line size: %s" % ", ".join(
                    "%s %dB" % (params.name, params.line_size)
                    for params in levels))
        #: Shared by every level, so the hot paths compute ``line`` once.
        self.line_bits = machine.l1d.line_size.bit_length() - 1
        cores = range(machine.cores)
        self.l1i = [SetAssociativeCache(machine.l1i) for _ in cores]
        self.l1d = [SetAssociativeCache(machine.l1d) for _ in cores]
        self.l2 = [SetAssociativeCache(machine.l2) for _ in cores]
        self.l3 = SetAssociativeCache(machine.l3)
        #: Same-line memo for :meth:`data_access`: per core, per L1
        #: structure (0=ifetch, 1=data), the last line that hit in L1 as
        #: ``(line, epoch-at-hit)``. A repeat access to the same line
        #: while the L1's epoch is unchanged (line still resident)
        #: replays the hit path (the recency touch) without the lookup
        #: call chain.
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
        cycles = 0
        l1 = None
        if not skip_l1:
            l1 = (self.l1i[core_id] if kind is AccessKind.IFETCH
                  else self.l1d[core_id])
            cycles += l1.access_cycles
            if l1.lookup(paddr):
                return cycles, MemoryLevel.L1

        l2 = self.l2[core_id]
        cycles += l2.access_cycles
        if l2.lookup(paddr):
            if not skip_l1:
                l1.insert(paddr)
            return cycles, MemoryLevel.L2

        cycles += self.l3.access_cycles
        if self.l3.lookup(paddr):
            level = MemoryLevel.L3
        else:
            cycles += self.dram.access(paddr)
            self.l3.insert(paddr)
            level = MemoryLevel.DRAM

        l2.insert(paddr)
        if not skip_l1:
            l1.insert(paddr)
        return cycles, level

    def walk_access(self, core_id, paddr):
        """:meth:`access` below L1 (``skip_l1``), with the cycles alone
        returned: the one inlined L2 -> L3 -> DRAM probe and fill. The
        page walker calls it for each memory reference (a load), and
        :meth:`data_access` for each L1 miss. State changes are
        identical to :meth:`access`."""
        line = paddr >> self.line_bits
        l2 = self.l2[core_id]
        tag = line >> l2._tag_shift
        cset = l2._sets[line & l2.set_mask]
        if tag in cset:
            del cset[tag]
            cset[tag] = None
            return l2.access_cycles
        l3 = self.l3
        cycles = l2.access_cycles + l3.access_cycles
        tag3 = line >> l3._tag_shift
        cset3 = l3._sets[line & l3.set_mask]
        if tag3 in cset3:
            del cset3[tag3]
        else:
            cycles += self.dram.access(paddr)
            # SetAssociativeCache.insert of an absent tag.
            if len(cset3) >= l3.ways:
                del cset3[next(iter(cset3))]
            l3.epoch += 1
        cset3[tag3] = None
        # The tag missed in this core's private L2 above, so it is still
        # absent: the fill only has to make room.
        if len(cset) >= l2.ways:
            del cset[next(iter(cset))]
        cset[tag] = None
        l2.epoch += 1
        return cycles

    def data_access(self, core_id, paddr, kind_code):
        """:meth:`access` specialized for the trace loop: demand
        accesses only (never ``skip_l1``), trace-record kind codes
        (0=ifetch, 1=load, 2=store) instead of :class:`AccessKind`, the
        L1 probe, L1 fill and same-line memo inlined, :meth:`walk_access`
        below L1, and a plain cycle count returned instead of a
        ``(cycles, level)`` tuple. State changes are identical to
        :meth:`access`; the only user of the line memo."""
        ifetch = kind_code == 0
        l1 = self.l1i[core_id] if ifetch else self.l1d[core_id]
        line = paddr >> self.line_bits
        tag = line >> l1._tag_shift
        cset = l1._sets[line & l1.set_mask]
        slot = self._line_memo[core_id]
        way = 0 if ifetch else 1
        cached = slot[way]
        if cached is not None and cached[0] == line \
                and cached[1] == l1.epoch:
            del cset[tag]
            cset[tag] = None
            return l1.access_cycles
        if tag in cset:
            # Inline SetAssociativeCache.lookup hit.
            del cset[tag]
            cset[tag] = None
            slot[way] = (line, l1.epoch)
            return l1.access_cycles
        cycles = l1.access_cycles + self.walk_access(core_id, paddr)
        # SetAssociativeCache.insert of the absent tag, after the levels
        # below have filled (the order access() fills in).
        if len(cset) >= l1.ways:
            del cset[next(iter(cset))]
        cset[tag] = None
        l1.epoch += 1
        slot[way] = (line, l1.epoch)
        return cycles

    def invalidate_line(self, paddr):
        """Drop a line everywhere (used when the kernel rewrites a pte page)."""
        for core_id in range(self.machine.cores):
            self.l1i[core_id].invalidate(paddr)
            self.l1d[core_id].invalidate(paddr)
            self.l2[core_id].invalidate(paddr)
        self.l3.invalidate(paddr)
