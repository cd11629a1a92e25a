"""Generic set-associative TLB structures (Figure 1 / Figure 3).

A :class:`SetAssocTLB` stores :class:`TLBEntry` objects and is policy-free:
``lookup(vpn, match)`` returns the first valid way in the set whose VPN
matches and that the caller's ``match`` predicate accepts. The
conventional (Figure 1) and BabelFish (Figure 8) lookups the simulator
runs live in :mod:`repro.core.babelfish_tlb`, inlined over these
structures' internals.

A fill names which resident same-VPN entry it may overwrite in place with
one of two replace rules, :data:`REPLACE_SAME_PCID` (Figure 1) and
:data:`REPLACE_SHARED` (Figure 8). They are plain constants, so a fill
builds no closure.

A set keeps a lookup view, a recency view and an epoch counter for the
L0 translation memo (see :class:`SetAssocTLB`). The linear-scan twins
these structures were derived from are kept as a test oracle
(``tests/structure_oracle.py``).
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


class ReplaceRule:
    """A named fill replace rule (see :meth:`SetAssocTLB.insert`)."""

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


class SetAssocTLB:
    """A set-associative TLB for one page size, with true-LRU replacement.

    Each set has two views of the same entries:

    - ``_buckets[set][vpn]`` lists same-VPN entries in insertion order, so
      a lookup touches only the ways that could match, in first-match
      order.
    - ``_lru[set]`` is the set's membership and recency store (oldest key
      first; hits delete + reinsert). Its first key is the eviction
      victim, and ``entries()`` walks it.
    - ``_set_epochs[set]`` counts content changes per set and is never
      exported; the L0 translation memo (:mod:`repro.sim.fastpath`)
      trusts a recorded hit only while its set epoch is unchanged.
    """

    def __init__(self, params):
        self.params = params
        self.num_sets = params.num_sets
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("TLB sets must be a power of two: %d" % self.num_sets)
        self.set_mask = self.num_sets - 1
        self.ways = params.ways
        self._buckets = [dict() for _ in range(self.num_sets)]
        self._lru = [dict() for _ in range(self.num_sets)]
        self._set_epochs = [0] * self.num_sets

    def lookup(self, vpn, match):
        """Find a hit using predicate ``match(entry)``; updates LRU."""
        index = vpn & self.set_mask
        bucket = self._buckets[index].get(vpn)
        if bucket:
            for entry in bucket:
                if match(entry):
                    lru = self._lru[index]
                    del lru[entry]
                    lru[entry] = None
                    return entry
        return None

    def insert(self, entry, replace=None):
        """Insert ``entry``; evict LRU if the set is full.

        ``replace`` is an optional replace rule (:data:`REPLACE_SAME_PCID`
        or :data:`REPLACE_SHARED`): an existing same-VPN entry it accepts
        is overwritten in place (and returned) instead of allocating a
        new way (used to refresh a stale copy of the same translation).
        Otherwise returns the evicted entry, or None.
        """
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
                elif (old.ccid != entry.ccid or old.o_bit != entry.o_bit
                      or (entry.o_bit and old.pcid != entry.pcid)):
                    continue                        # REPLACE_SHARED
                bucket[i] = entry
                del lru[old]
                lru[entry] = None
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
        self._set_epochs[index] += 1
        return evicted

    def invalidate(self, vpn, pred=None):
        """Invalidate entries for ``vpn`` (optionally filtered by ``pred``)."""
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
        if removed:
            self._set_epochs[index] += 1
        return removed

    def flush(self, pred=None):
        """Flush everything (or everything matching ``pred``)."""
        removed = 0
        for index in range(self.num_sets):
            lru = self._lru[index]
            if not lru:
                continue
            here = 0
            buckets = self._buckets[index]
            for entry in list(lru):
                if pred is None or pred(entry):
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
        return removed

    def entries(self):
        """Every resident entry, set by set, each set least recently
        used first."""
        for lru in self._lru:
            yield from lru

    def __repr__(self):
        return "<%s %d entries %d-way>" % (
            self.params.name, self.params.entries, self.ways)


#: Old name, kept because perfbench/design.json wraps
#: ``repro.hw.tlb:FastSetAssocTLB.insert`` for its ``hw.tlb_insert`` layer.
FastSetAssocTLB = SetAssocTLB


class MultiSizeTLB:
    """A TLB level holding several page sizes in parallel structures.

    Table I's L1 has separate 4K/2M/1G arrays; the L2 TLB likewise. A
    lookup (:mod:`repro.core.babelfish_tlb`) probes the structure for
    each size the level supports, using the VPN computed at that size,
    in the order ``_probe`` lists them: ``(size, 4K-shift, structure)``
    per size, precomputed so the lookups and the L0 memo build no
    dicts or lists per call.
    """

    def __init__(self, params_by_size):
        self.tlbs = {p.page_size: SetAssocTLB(p) for p in params_by_size}
        self._probe = tuple(
            (size, size.shift4k, tlb) for size, tlb in self.tlbs.items())

    def insert(self, entry, replace=None):
        return self.tlbs[entry.page_size].insert(entry, replace)

    def invalidate(self, vpn4k, pred=None):
        return sum(tlb.invalidate(vpn4k >> shift, pred)
                   for _size, shift, tlb in self._probe)

    def flush(self, pred=None):
        return sum(tlb.flush(pred) for tlb in self.tlbs.values())

    def entries(self):
        for tlb in self.tlbs.values():
            yield from tlb.entries()
