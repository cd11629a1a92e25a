"""Generic set-associative TLB structures (Figure 1 / Figure 3).

A :class:`SetAssocTLB` stores :class:`TLBEntry` objects and is policy-free:
``lookup(vpn, match)`` returns the first valid way in the set whose VPN
matches and that the caller's ``match`` predicate accepts. The conventional
per-process policy (VPN + PCID match) lives here as
:func:`conventional_match`; the BabelFish policy (Figure 8) lives in
:mod:`repro.core.babelfish_tlb`.

A fill names which resident same-VPN entry it may overwrite in place with
one of two replace rules, :data:`REPLACE_SAME_PCID` (Figure 1) and
:data:`REPLACE_SHARED` (Figure 8). They are plain constants, so a fill
builds no closure; ``insert`` also still takes any one-argument predicate.

Two interchangeable backings exist for each structure:

- :class:`SetAssocTLB` / :class:`MultiSizeTLB` — the reference
  implementations: linear scans over per-set lists, ``id()``-keyed LRU
  stamps. Simple enough to audit against the paper's figures.
- :class:`FastSetAssocTLB` / :class:`FastMultiSizeTLB` — dict-backed
  drop-ins selected by ``SimConfig.fastpath`` and used by every run that
  leaves it on, sanitize and trace runs included. Each set has two views:
  ``_buckets`` (``{vpn: [entries]}``) serves lookups in O(matching ways),
  and ``_lru`` (a recency dict, oldest first) is the set's membership and
  recency store, so eviction is its first key and no operation scans a
  list. Both backings produce bit-identical hit/miss/eviction behaviour
  and yield ``entries()`` per set in recency order (tests/test_fastpath.py
  drives both against random operation streams). The simulator reads the
  fast one through the inlined lookups in :mod:`repro.core.babelfish_tlb`.

The fast backing also keeps per-set epoch counters (``_set_epochs``),
bumped whenever a set's contents change (insert / effective invalidate /
effective flush). They never reset, are never exported in results, and
exist solely so the L0 translation memo (:mod:`repro.sim.fastpath`) can
prove "nothing changed in this set since I was recorded".
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


class ReplaceRule:
    """A named fill replace rule (see :func:`replaces`)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "<ReplaceRule %s>" % self.name


#: Figure 1's refresh: a fill overwrites a resident same-VPN entry with
#: the same PCID (conventional fills, victim-level fills and refills).
REPLACE_SAME_PCID = ReplaceRule("same-pcid")
#: Figure 8's refresh: same CCID and O bit, and the same PCID too when
#: the fill is owned (O set). BabelFish L2 fills and shared L1 fills.
REPLACE_SHARED = ReplaceRule("shared")


def replaces(rule, old, new):
    """Does inserting ``new`` overwrite the resident same-VPN entry
    ``old`` under ``rule``? ``rule`` is one of the two named rules or a
    one-argument predicate over ``old``."""
    if rule is REPLACE_SAME_PCID:
        return old.pcid == new.pcid
    if rule is REPLACE_SHARED:
        return (old.ccid == new.ccid and old.o_bit == new.o_bit
                and (not new.o_bit or old.pcid == new.pcid))
    return rule(old)


class SetAssocTLB:
    """A set-associative TLB for one page size, with true-LRU replacement."""

    def __init__(self, params):
        self._init_geometry(params)
        self._sets = [[] for _ in range(self.num_sets)]
        self._stamps = [dict() for _ in range(self.num_sets)]
        self._stamp = 0

    def _init_geometry(self, params):
        """Geometry and counters shared by both backings."""
        self.params = params
        self.num_sets = params.num_sets
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("TLB sets must be a power of two: %d" % self.num_sets)
        self.set_mask = self.num_sets - 1
        self.ways = params.ways
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.invalidations = 0

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

        ``replace`` is an optional replace rule (:data:`REPLACE_SAME_PCID`,
        :data:`REPLACE_SHARED`, or a one-argument predicate): an existing
        same-VPN entry it accepts is overwritten in place instead of
        allocating a new way (used to refresh a stale copy of the same
        translation).
        """
        index = self._set_for(entry.vpn)
        tset = self._sets[index]
        stamps = self._stamps[index]
        if replace is not None:
            for i, old in enumerate(tset):
                if old.valid and old.vpn == entry.vpn \
                        and replaces(replace, old, entry):
                    stamps.pop(id(old), None)
                    tset[i] = entry
                    self._touch(entry)
                    self.insertions += 1
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
        return removed

    def entries(self):
        """Every resident entry, set by set, each set least recently
        used first (the order the fast backing's ``_lru`` keeps)."""
        for tset, stamps in zip(self._sets, self._stamps):
            yield from sorted(tset, key=lambda e: stamps[id(e)])

    @property
    def occupancy(self):
        return sum(len(tset) for tset in self._sets)

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

    def lookup(self, vaddr_vpn4k, match, page_size=None):
        """Probe by a 4K VPN; ``page_size`` restricts to one structure.

        Returns ``(entry, page_size)`` or ``(None, None)``.
        """
        sizes = [page_size] if page_size else list(self.tlbs)
        for size in sizes:
            tlb = self.tlbs.get(size)
            if tlb is None:
                continue
            entry = tlb.lookup(vaddr_vpn4k >> size.shift4k, match)
            if entry is not None:
                return entry, size
        return None, None

    def insert(self, entry, replace=None):
        return self.tlbs[entry.page_size].insert(entry, replace=replace)

    def invalidate(self, vpn4k, pred=None):
        removed = 0
        for size, tlb in self.tlbs.items():
            removed += tlb.invalidate(vpn4k >> size.shift4k, pred)
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

    Each set has two views of the same entries:

    - ``_buckets[set][vpn]`` lists same-VPN entries in insertion order, so
      a lookup touches only the ways that could match; the reference's
      linear scan visits non-matching VPNs only to reject them, so
      first-match order is preserved exactly.
    - ``_lru[set]`` is the set's membership and recency store (oldest key
      first; hits delete + reinsert). Its first key is the entry with the
      minimum reference stamp, so eviction picks the same victim, and
      ``entries()`` walks it in the reference's stamp order.
    - ``_set_epochs[set]`` counts content changes per set; the L0
      translation memo (:mod:`repro.sim.fastpath`) records an entry's
      set epoch and trusts a hit only while it is unchanged.
    """

    def __init__(self, params):
        self._init_geometry(params)
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

    def insert(self, entry, replace=None):
        vpn = entry.vpn
        index = vpn & self.set_mask
        buckets = self._buckets[index]
        lru = self._lru[index]
        bucket = buckets.get(vpn)
        if bucket is not None and replace is not None:
            for i, old in enumerate(bucket):
                if replace is REPLACE_SAME_PCID:
                    if old.pcid != entry.pcid:
                        continue
                elif not replaces(replace, old, entry):
                    continue
                bucket[i] = entry
                del lru[old]
                lru[entry] = None
                self.insertions += 1
                self._set_epochs[index] += 1
                return old
        evicted = None
        if len(lru) >= self.ways:
            evicted = next(iter(lru))
            del lru[evicted]
            victims = buckets[evicted.vpn]
            victims.remove(evicted)
            if not victims:
                del buckets[evicted.vpn]
                if victims is bucket:
                    bucket = None
        if bucket is None:
            buckets[vpn] = [entry]
        else:
            bucket.append(entry)
        lru[entry] = None
        self.insertions += 1
        self._set_epochs[index] += 1
        return evicted

    def invalidate(self, vpn, pred=None):
        index = vpn & self.set_mask
        bucket = self._buckets[index].get(vpn)
        if not bucket:
            return 0
        removed = 0
        lru = self._lru[index]
        for entry in list(bucket):
            if pred is None or pred(entry):
                entry.valid = False
                bucket.remove(entry)
                del lru[entry]
                removed += 1
        if not bucket:
            del self._buckets[index][vpn]
        self.invalidations += removed
        if removed:
            self._set_epochs[index] += 1
        return removed

    def flush(self, pred=None):
        removed = 0
        for index in range(self.num_sets):
            lru = self._lru[index]
            if not lru:
                continue
            if pred is None:
                # Whole-set wipe: the set is non-empty, so the bump is
                # unconditional and sits in the same block as the wipe.
                here = len(lru)
                for entry in lru:
                    entry.valid = False
                lru.clear()
                self._buckets[index].clear()
                self._set_epochs[index] += 1
                removed += here
                continue
            here = 0
            buckets = self._buckets[index]
            for entry in list(lru):
                if pred(entry):
                    entry.valid = False
                    del lru[entry]
                    here += 1
                    bucket = buckets[entry.vpn]
                    bucket.remove(entry)
                    if not bucket:
                        del buckets[entry.vpn]
            if here:
                self._set_epochs[index] += 1
                removed += here
        self.invalidations += removed
        return removed

    def entries(self):
        for lru in self._lru:
            yield from lru

    @property
    def occupancy(self):
        return sum(len(lru) for lru in self._lru)


class FastMultiSizeTLB(MultiSizeTLB):
    """:class:`MultiSizeTLB` over :class:`FastSetAssocTLB` children, with
    the per-size probe sequence (size, 4K-shift, structure) precomputed
    for the inlined lookups in :mod:`repro.core.babelfish_tlb` and the L0
    memo, which do no dict/list building per call."""

    def __init__(self, params_by_size):
        super().__init__(params_by_size, tlb_cls=FastSetAssocTLB)
        self._probe = tuple(
            (size, size.shift4k, tlb) for size, tlb in self.tlbs.items())
