"""Generic set-associative TLB structures (Figure 1 / Figure 3).

A :class:`SetAssocTLB` stores :class:`TLBEntry` objects and is policy-free:
``lookup(vpn, match)`` returns the first valid way in the set whose VPN
matches and that the caller's ``match`` predicate accepts. The conventional
per-process policy (VPN + PCID match) lives here as
:func:`conventional_match`; the BabelFish policy (Figure 8) lives in
:mod:`repro.core.babelfish_tlb`.

Two interchangeable backings exist for each structure:

- :class:`SetAssocTLB` / :class:`MultiSizeTLB` — the reference
  implementations: linear scans over per-set lists, ``id()``-keyed LRU
  stamps. Simple enough to audit against the paper's figures.
- :class:`FastSetAssocTLB` / :class:`FastMultiSizeTLB` — dict-backed
  drop-ins selected by ``SimConfig.fastpath`` and used by every run that
  leaves it on, sanitize and trace runs included: per-set ``{vpn:
  [entries]}`` buckets make lookup O(matching ways), and a move-to-end
  recency dict replaces the stamp scan. They produce bit-identical
  hit/miss/eviction/iteration behaviour (tests/test_fastpath.py drives
  both against random operation streams), and additionally maintain the
  per-set epoch counters the L0 translation memo
  (:mod:`repro.sim.fastpath`) validates against. The simulator reads
  them through the inlined lookups in :mod:`repro.core.babelfish_tlb`.

Every structure carries a monotonic ``epoch`` counter bumped whenever
its contents change (insert / effective invalidate / effective flush);
``MultiSizeTLB`` aggregates its children's bumps. Epochs never reset,
are never exported in results, and exist solely so cached lookups can
prove "nothing changed since I was recorded".
"""

from repro.hw.types import PageSize


class TLBEntry:
    """One TLB entry: Figure 1's fields plus BabelFish's CCID and O-PC.

    ``pc_mask`` is the 32-bit PrivateCopy bitmask; ``orpc`` is the OR of
    its bits as stored in the pmd_t (the TLB keeps it explicitly because,
    when ORPC lets the hardware skip loading the bitmask, the stored mask
    is cleared — Section III-A).
    """

    __slots__ = (
        "vpn", "ppn", "page_size", "pcid", "ccid", "writable", "user",
        "cow", "o_bit", "orpc", "pc_mask", "inserted_by", "valid",
    )

    def __init__(self, vpn, ppn, page_size=PageSize.SIZE_4K, pcid=0, ccid=0,
                 writable=True, user=True, cow=False, o_bit=False,
                 orpc=False, pc_mask=0, inserted_by=None):
        self.vpn = vpn
        self.ppn = ppn
        self.page_size = page_size
        self.pcid = pcid
        self.ccid = ccid
        self.writable = writable
        self.user = user
        self.cow = cow
        self.o_bit = o_bit
        self.orpc = orpc
        self.pc_mask = pc_mask
        self.inserted_by = inserted_by
        self.valid = True

    def __repr__(self):
        return ("<TLBEntry vpn=%#x ppn=%#x pcid=%d ccid=%d o=%d orpc=%d>"
                % (self.vpn, self.ppn, self.pcid, self.ccid,
                   self.o_bit, self.orpc))


def conventional_match(entry, vpn, pcid, ccid=None):
    """Conventional TLB hit rule: VPN and PCID must both match (Figure 1)."""
    return entry.vpn == vpn and entry.pcid == pcid


class SetAssocTLB:
    """A set-associative TLB for one page size, with true-LRU replacement."""

    def __init__(self, params):
        self.params = params
        self.num_sets = params.num_sets
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("TLB sets must be a power of two: %d" % self.num_sets)
        self.set_mask = self.num_sets - 1
        self.ways = params.ways
        self._sets = [[] for _ in range(self.num_sets)]
        self._stamps = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.invalidations = 0
        #: Monotonic change counter: bumped on insert and on any
        #: invalidate/flush that actually removed something. Lookups do
        #: not bump it (recency is not part of the guarded contract).
        self.epoch = 0
        #: Back-reference set by :class:`MultiSizeTLB` so child bumps
        #: propagate to the level's aggregate epoch.
        self.owner = None

    def _bump_epoch(self):
        self.epoch += 1
        owner = self.owner
        if owner is not None:
            owner.epoch += 1

    def _set_for(self, vpn):
        return vpn & self.set_mask

    def lookup(self, vpn, match, record=True):
        """Find a hit using predicate ``match(entry)``; updates LRU and stats."""
        tset = self._sets[self._set_for(vpn)]
        for entry in tset:
            if entry.valid and entry.vpn == vpn and match(entry):
                self._touch(entry)
                if record:
                    self.hits += 1
                return entry
        if record:
            self.misses += 1
        return None

    def _touch(self, entry):
        self._stamp += 1
        self._stamps[self._set_for(entry.vpn)][id(entry)] = self._stamp

    def insert(self, entry, replace=None):
        """Insert ``entry``; evict LRU if the set is full.

        ``replace`` is an optional predicate: an existing entry matching it
        is overwritten in place instead of allocating a new way (used to
        refresh a stale copy of the same translation).
        """
        index = self._set_for(entry.vpn)
        tset = self._sets[index]
        stamps = self._stamps[index]
        if replace is not None:
            for i, old in enumerate(tset):
                if old.valid and old.vpn == entry.vpn and replace(old):
                    stamps.pop(id(old), None)
                    tset[i] = entry
                    self._touch(entry)
                    self.insertions += 1
                    self._bump_epoch()
                    return old
        evicted = None
        # invalidate()/flush() remove entries as they mark them invalid,
        # so every resident entry is live.
        if len(tset) >= self.ways:
            evicted = min(tset, key=lambda e: stamps.get(id(e), 0))
            tset.remove(evicted)
            stamps.pop(id(evicted), None)
        tset.append(entry)
        self._touch(entry)
        self.insertions += 1
        self._bump_epoch()
        return evicted

    def invalidate(self, vpn, pred=None):
        """Invalidate entries for ``vpn`` (optionally filtered by ``pred``)."""
        index = self._set_for(vpn)
        tset = self._sets[index]
        removed = 0
        for entry in list(tset):
            if entry.valid and entry.vpn == vpn and (pred is None or pred(entry)):
                entry.valid = False
                tset.remove(entry)
                self._stamps[index].pop(id(entry), None)
                removed += 1
        self.invalidations += removed
        if removed:
            self._bump_epoch()
        return removed

    def flush(self, pred=None):
        """Flush everything (or everything matching ``pred``)."""
        removed = 0
        for index, tset in enumerate(self._sets):
            keep = []
            dropped = 0
            for entry in tset:
                if pred is None or pred(entry):
                    entry.valid = False
                    self._stamps[index].pop(id(entry), None)
                    dropped += 1
                else:
                    keep.append(entry)
            if dropped:
                self._sets[index] = keep
                removed += dropped
        self.invalidations += removed
        if removed:
            self._bump_epoch()
        return removed

    def entries(self):
        for tset in self._sets:
            for entry in tset:
                if entry.valid:
                    yield entry

    @property
    def occupancy(self):
        return sum(1 for _ in self.entries())

    def __repr__(self):
        return "<%s %d entries %d-way hits=%d misses=%d>" % (
            self.params.name, self.params.entries, self.ways,
            self.hits, self.misses)


class MultiSizeTLB:
    """A TLB level holding several page sizes in parallel structures.

    Table I's L1 has separate 4K/2M/1G arrays; the L2 TLB likewise. A
    lookup probes the structure for each size the level supports, using the
    VPN computed at that size.
    """

    def __init__(self, params_by_size, tlb_cls=None):
        tlb_cls = tlb_cls or SetAssocTLB
        self.tlbs = {p.page_size: tlb_cls(p) for p in params_by_size}
        #: Aggregate change counter: bumped whenever any child bumps.
        self.epoch = 0
        for tlb in self.tlbs.values():
            tlb.owner = self

    def lookup(self, vaddr_vpn4k, match, page_size=None):
        """Probe by a 4K VPN; ``page_size`` restricts to one structure.

        Returns ``(entry, page_size)`` or ``(None, None)``.
        """
        sizes = [page_size] if page_size else list(self.tlbs)
        for size in sizes:
            tlb = self.tlbs.get(size)
            if tlb is None:
                continue
            vpn = vaddr_vpn4k >> (size.shift - PageSize.SIZE_4K.shift)
            entry = tlb.lookup(vpn, match)
            if entry is not None:
                return entry, size
        return None, None

    def insert(self, entry, replace=None):
        return self.tlbs[entry.page_size].insert(entry, replace=replace)

    def invalidate(self, vpn4k, pred=None):
        removed = 0
        for size, tlb in self.tlbs.items():
            vpn = vpn4k >> (size.shift - PageSize.SIZE_4K.shift)
            removed += tlb.invalidate(vpn, pred)
        return removed

    def flush(self, pred=None):
        return sum(tlb.flush(pred) for tlb in self.tlbs.values())

    @property
    def hits(self):
        return sum(t.hits for t in self.tlbs.values())

    @property
    def misses(self):
        return sum(t.misses for t in self.tlbs.values())

    def entries(self):
        for tlb in self.tlbs.values():
            for entry in tlb.entries():
                yield entry


class FastSetAssocTLB(SetAssocTLB):
    """Dict-backed :class:`SetAssocTLB` with identical observable behaviour.

    - ``_buckets[set][vpn]`` lists same-VPN entries in insertion order, so
      a lookup touches only the ways that could match; the reference's
      linear scan visits non-matching VPNs only to reject them, so
      first-match order is preserved exactly.
    - ``_lru[set]`` is a recency dict (oldest key first; hits delete +
      reinsert). Its first key is the entry with the minimum reference
      stamp, so eviction picks the same victim.
    - ``_sets`` is still maintained as the per-set insertion-order list,
      keeping ``entries()`` iteration order — and
      therefore sanitizer scans and flush order — bit-identical.
    - ``_set_epochs[set]`` counts content changes per set; the L0
      translation memo (:mod:`repro.sim.fastpath`) records an entry's
      set epoch and trusts a hit only while it is unchanged.
    """

    def __init__(self, params):
        super().__init__(params)
        self._buckets = [dict() for _ in range(self.num_sets)]
        self._lru = [dict() for _ in range(self.num_sets)]
        self._set_epochs = [0] * self.num_sets

    def lookup(self, vpn, match, record=True):
        index = vpn & self.set_mask
        bucket = self._buckets[index].get(vpn)
        if bucket:
            for entry in bucket:
                if match(entry):
                    lru = self._lru[index]
                    del lru[entry]
                    lru[entry] = None
                    if record:
                        self.hits += 1
                    return entry
        if record:
            self.misses += 1
        return None

    def _touch(self, entry):
        lru = self._lru[entry.vpn & self.set_mask]
        if entry in lru:
            del lru[entry]
        lru[entry] = None

    def insert(self, entry, replace=None):
        index = entry.vpn & self.set_mask
        buckets = self._buckets[index]
        lru = self._lru[index]
        tset = self._sets[index]
        if replace is not None:
            bucket = buckets.get(entry.vpn)
            if bucket:
                for i, old in enumerate(bucket):
                    if replace(old):
                        bucket[i] = entry
                        tset[tset.index(old)] = entry
                        del lru[old]
                        lru[entry] = None
                        self.insertions += 1
                        self._set_epochs[index] += 1
                        self._bump_epoch()
                        return old
        evicted = None
        if len(lru) >= self.ways:
            evicted = next(iter(lru))
            del lru[evicted]
            bucket = self._buckets[index][evicted.vpn]
            bucket.remove(evicted)
            if not bucket:
                del self._buckets[index][evicted.vpn]
            tset.remove(evicted)
        bucket = buckets.get(entry.vpn)
        if bucket is None:
            buckets[entry.vpn] = [entry]
        else:
            bucket.append(entry)
        lru[entry] = None
        tset.append(entry)
        self.insertions += 1
        self._set_epochs[index] += 1
        self._bump_epoch()
        return evicted

    def invalidate(self, vpn, pred=None):
        index = vpn & self.set_mask
        bucket = self._buckets[index].get(vpn)
        if not bucket:
            return 0
        removed = 0
        lru = self._lru[index]
        tset = self._sets[index]
        for entry in list(bucket):
            if pred is None or pred(entry):
                entry.valid = False
                bucket.remove(entry)
                del lru[entry]
                tset.remove(entry)
                removed += 1
        if not bucket:
            del self._buckets[index][vpn]
        self.invalidations += removed
        if removed:
            self._set_epochs[index] += 1
            self._bump_epoch()
        return removed

    def flush(self, pred=None):
        removed = 0
        for index in range(self.num_sets):
            tset = self._sets[index]
            if not tset:
                continue
            if pred is None:
                # Whole-set wipe: tset is non-empty, so the bump is
                # unconditional and sits in the same block as the wipe.
                here = len(tset)
                for entry in tset:
                    entry.valid = False
                tset.clear()
                self._buckets[index].clear()
                self._lru[index].clear()
                self._set_epochs[index] += 1
                removed += here
                continue
            here = 0
            buckets = self._buckets[index]
            lru = self._lru[index]
            for entry in list(tset):
                if pred(entry):
                    entry.valid = False
                    tset.remove(entry)
                    here += 1
                    bucket = buckets[entry.vpn]
                    bucket.remove(entry)
                    if not bucket:
                        del buckets[entry.vpn]
                    del lru[entry]
            if here:
                self._set_epochs[index] += 1
                removed += here
        self.invalidations += removed
        if removed:
            self._bump_epoch()
        return removed


class FastMultiSizeTLB(MultiSizeTLB):
    """:class:`MultiSizeTLB` over :class:`FastSetAssocTLB` children, with
    the per-size probe sequence (size, 4K-shift, structure) precomputed
    for the inlined lookups in :mod:`repro.core.babelfish_tlb` and the L0
    memo, which do no dict/list building per call."""

    def __init__(self, params_by_size):
        super().__init__(params_by_size, tlb_cls=FastSetAssocTLB)
        self._probe = tuple(
            (size, size.shift - PageSize.SIZE_4K.shift, tlb)
            for size, tlb in self.tlbs.items())
