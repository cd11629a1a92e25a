"""Test-only oracle for the simulator's TLB and cache structures.

These are the linear-scan implementations the dict-backed structures in
``repro.hw`` were derived from, kept simple enough to audit against the
paper's figures:

- :class:`LinearSetAssocTLB` / :class:`LinearMultiSizeTLB`: per-set lists
  scanned in insertion order, LRU by ``id()``-keyed use stamps, and a
  ``MultiSizeTLB.lookup(vpn4k, match)`` that takes a match predicate.
- :class:`LinearSetAssociativeCache`: ``tag -> stamp`` per set, the
  victim found by a ``min()`` over the stamps.
- :class:`LinearCacheHierarchy`: the hierarchy with walker references
  routed through ``access`` and so through the oracle caches'
  ``lookup``/``insert``.
- :func:`pwc_lookup` / :func:`pwc_insert`: the page walk cache's probe
  and fill one level at a time, the reference for the walker's inlined
  PWC probe.
- :func:`babelfish_lookup` / :func:`conventional_lookup`: Figure 8's and
  Figure 1's lookups as closures handed to ``LinearMultiSizeTLB.lookup``.
- :func:`reference_run_quantum`: the trace loop with one ``translate``
  and one ``CacheHierarchy.access`` per record and no memo of either.

Each exposes the interface the simulator uses, so the ``linear_structures``
fixture in ``conftest.py`` can swap them into ``repro.sim.mmu`` and
``repro.sim.simulator`` and a whole run can serve as the reference leg
of a differential test. They keep no set epochs, so
such a run must leave the L0 memo off (the fixture sees to it).
"""

from repro.hw.cache import CacheHierarchy, SetAssociativeCache
from repro.hw.tlb import REPLACE_SAME_PCID, REPLACE_SHARED
from repro.hw.types import PTE_BYTES, AccessKind
from repro.sim.simulator import K_IFETCH, K_LOAD, K_STORE

_KIND = {K_IFETCH: AccessKind.IFETCH, K_LOAD: AccessKind.LOAD,
         K_STORE: AccessKind.STORE}


def replaces(rule, old, new):
    """Does inserting ``new`` overwrite the resident same-VPN entry
    ``old`` under ``rule``: one of the two named rules of
    ``repro.hw.tlb``, or any one-argument predicate over ``old``?"""
    if rule is REPLACE_SAME_PCID:
        return old.pcid == new.pcid
    if rule is REPLACE_SHARED:
        return (old.ccid == new.ccid and old.o_bit == new.o_bit
                and (not new.o_bit or old.pcid == new.pcid))
    return rule(old)


class LinearSetAssocTLB:
    """A set-associative TLB for one page size, with true-LRU replacement
    by use stamps."""

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

    def _set_for(self, vpn):
        return vpn & self.set_mask

    def lookup(self, vpn, match):
        """Find a hit using predicate ``match(entry)``; updates LRU."""
        tset = self._sets[self._set_for(vpn)]
        for entry in tset:
            if entry.valid and entry.vpn == vpn and match(entry):
                self._touch(entry)
                return entry
        return None

    def _touch(self, entry):
        self._stamp += 1
        self._stamps[self._set_for(entry.vpn)][id(entry)] = self._stamp

    def insert(self, entry, replace=None):
        """Insert ``entry``; evict LRU if the set is full. An existing
        same-VPN entry that ``replace`` (a named rule or a predicate)
        accepts is overwritten in place instead."""
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
        return removed

    def entries(self):
        """Every resident entry, set by set, each set least recently
        used first."""
        for tset, stamps in zip(self._sets, self._stamps):
            yield from sorted(tset, key=lambda e: stamps[id(e)])


class LinearMultiSizeTLB:
    """A TLB level holding one :class:`LinearSetAssocTLB` per page size."""

    def __init__(self, params_by_size):
        self.tlbs = {p.page_size: LinearSetAssocTLB(p) for p in params_by_size}

    def lookup(self, vaddr_vpn4k, match):
        """Probe every size by a 4K VPN; returns ``(entry, page_size)``
        or ``(None, None)``."""
        for size, tlb in self.tlbs.items():
            entry = tlb.lookup(vaddr_vpn4k >> size.shift4k, match)
            if entry is not None:
                return entry, size
        return None, None

    def insert(self, entry, replace=None):
        return self.tlbs[entry.page_size].insert(entry, replace)

    def invalidate(self, vpn4k, pred=None):
        removed = 0
        for size, tlb in self.tlbs.items():
            removed += tlb.invalidate(vpn4k >> size.shift4k, pred)
        return removed

    def flush(self, pred=None):
        return sum(tlb.flush(pred) for tlb in self.tlbs.values())

    def entries(self):
        for tlb in self.tlbs.values():
            yield from tlb.entries()


class LinearSetAssociativeCache(SetAssociativeCache):
    """:class:`~repro.hw.cache.SetAssociativeCache` with each set a
    ``tag -> last-use stamp`` dict and the LRU victim found by a scan for
    the minimum stamp."""

    def __init__(self, params):
        super().__init__(params)
        self._stamp = 0

    def _index_tag(self, paddr):
        line = paddr >> self.line_bits
        return line & self.set_mask, line >> self._tag_shift

    def lookup(self, paddr):
        index, tag = self._index_tag(paddr)
        cset = self._sets[index]
        if tag in cset:
            self._stamp += 1
            cset[tag] = self._stamp
            return True
        return False

    def insert(self, paddr):
        index, tag = self._index_tag(paddr)
        cset = self._sets[index]
        if tag not in cset and len(cset) >= self.ways:
            del cset[min(cset, key=cset.get)]
        self._stamp += 1
        cset[tag] = self._stamp


def recency(cache):
    """Each set's resident tags, least recently used first, for either
    backing: the oracle's stamp order, or the production dict order."""
    if isinstance(cache, LinearSetAssociativeCache):
        return [sorted(cset, key=cset.get) for cset in cache._sets]
    return [list(cset) for cset in cache._sets]


class LinearCacheHierarchy(CacheHierarchy):
    """:class:`~repro.hw.cache.CacheHierarchy` on
    :class:`LinearSetAssociativeCache` levels, whose walker references
    run through :meth:`access`, and so through the caches' own
    ``lookup``/``insert``, as :func:`reference_run_quantum`'s demand
    accesses do. The levels are built here, not by patching
    ``repro.hw.cache``, so an oracle cache never sits under the
    production ``walk_access``, which edits the set dicts inline and
    would overwrite its stamps."""

    def __init__(self, machine, dram):
        super().__init__(machine, dram)
        cores = range(machine.cores)
        self.l1i = [LinearSetAssociativeCache(machine.l1i) for _ in cores]
        self.l1d = [LinearSetAssociativeCache(machine.l1d) for _ in cores]
        self.l2 = [LinearSetAssociativeCache(machine.l2) for _ in cores]
        self.l3 = LinearSetAssociativeCache(machine.l3)

    def walk_access(self, core_id, paddr):
        return self.access(core_id, paddr, AccessKind.LOAD, skip_l1=True)[0]


def pwc_lookup(pwc, level, entry_paddr):
    """Probe a :class:`~repro.hw.pwc.PageWalkCache` for the table entry
    at ``entry_paddr`` on ``level``; True on a hit, which makes the
    entry the level's most recent. The leaf level is never cached."""
    cache = pwc._levels.get(level)
    key = entry_paddr // PTE_BYTES
    if cache is None or key not in cache:
        return False
    del cache[key]
    cache[key] = None
    return True


def pwc_insert(pwc, level, entry_paddr):
    """Fill the entry at ``entry_paddr`` into ``level`` as its most
    recent, evicting the level's LRU entry when it is full."""
    cache = pwc._levels.get(level)
    if cache is None:
        return
    key = entry_paddr // PTE_BYTES
    if key in cache:
        del cache[key]
    elif len(cache) >= pwc.params.entries_per_level:
        del cache[next(iter(cache))]
    cache[key] = None


def babelfish_lookup(multi, vpn4k, proc, is_write, domain_fn):
    """Figure 8's lookup over a :class:`LinearMultiSizeTLB`, as a match
    closure; returns the same ``(entry, page_size, consulted_bitmask,
    cow_fault)`` as :func:`repro.core.babelfish_tlb.babelfish_lookup`."""
    consulted = [False]
    pcid, ccid = proc.pcid, proc.ccid
    pc_bits = proc.pc_bits

    def match(entry):
        if entry.ccid != ccid:
            return False                            # box 1: no CCID match
        if entry.o_bit:
            return entry.pcid == pcid               # boxes 2, 9
        if entry.orpc:
            consulted[0] = True                     # box 3 (long access)
            bit = pc_bits.get(domain_fn(entry))
            if bit is not None and (entry.pc_mask >> bit) & 1:
                return False                        # process has private copy
        if is_write and not entry.writable and not entry.cow:
            return False                            # permission miss
        return True

    entry, size = multi.lookup(vpn4k, match)
    return (entry, size, consulted[0],
            entry is not None and is_write and entry.cow)   # box 5/6


def conventional_lookup(multi, vpn4k, pcid, is_write):
    """Figure 1's lookup over a :class:`LinearMultiSizeTLB`: VPN + PCID,
    permission-checked. Returns ``(entry, page_size, cow_fault)``."""

    def match(entry):
        if entry.pcid != pcid:
            return False
        if is_write and not entry.writable and not entry.cow:
            return False
        return True

    entry, size = multi.lookup(vpn4k, match)
    return entry, size, entry is not None and is_write and entry.cow


def reference_run_quantum(sim, core_id, proc):
    """The simulator's trace loop in its plain form: per record one
    ``mmu.translate`` (a fresh result, no L0 memo), one
    ``CacheHierarchy.access``, and the stats and tracer hooks applied
    record by record. The ``linear_structures`` fixture patches it over
    ``repro.sim.simulator.run_quantum``, so a reference leg shares no
    trace loop code with the production run it is compared against."""
    mmu = sim.mmus[core_id]
    stats = mmu.stats
    trace = sim._traces.get(proc.pid)
    quantum = sim.scheduler.quantum_instructions
    hierarchy_access = sim.hierarchy.access
    base_cpi = sim.base_cpi
    tracer = sim.tracer
    quantum_start = sim.core_cycles[core_id]
    cycles = 0
    insts = 0
    finished = False
    if trace is not None:
        while insts < quantum:
            rec = next(trace, None)
            if rec is None:
                finished = True
                break
            kind_code, segment, page_off, line, gap, req_id = rec
            kind = _KIND[kind_code]
            if tracer is not None:
                tracer.tick(core_id, quantum_start + cycles)
            tr = mmu.translate(proc, segment, page_off, kind,
                               is_write=kind_code == K_STORE)
            paddr = (tr.ppn4k << 12) | (line << 6)
            mem_cycles, _level = hierarchy_access(core_id, paddr, kind)
            record_cycles = int(gap * base_cpi) + tr.cycles + mem_cycles
            cycles += record_cycles
            insts += gap + 1
            stats.translation_cycles += tr.cycles
            stats.memory_cycles += mem_cycles
            if req_id is not None:
                sim._request_latency[req_id] = (
                    sim._request_latency.get(req_id, 0) + record_cycles)
    else:
        finished = True
    stats.instructions += insts
    sim.core_cycles[core_id] += cycles
    if tracer is not None:
        tracer.quantum(core_id, proc.pid, quantum_start,
                       sim.core_cycles[core_id], insts)
    sim._proc_cycles[proc.pid] = sim._proc_cycles.get(proc.pid, 0) + cycles
    if finished:
        sim._completion[proc.pid] = sim.core_cycles[core_id]
        sim._traces.pop(proc.pid, None)
        sim.scheduler.remove(proc)
    nxt = sim.scheduler.rotate(core_id)
    if nxt is not None and nxt is not proc:
        sim.core_cycles[core_id] += sim.switch_cost
    return insts
