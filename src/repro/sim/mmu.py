"""Per-core MMU: L1 TLBs, unified L2 TLB, PWC, walker, fault retry loop.

The translation path (Section VI's timing rules):

1. L1 TLB (1 cycle). Entries are per-process (PCID) except under
   BabelFish + ASLR-SW, where the whole group shares them.
2. On an L1 miss with BabelFish + ASLR-HW, the address transformation
   module adds 2 cycles and converts the process-space VA to the group's
   shared VA (Section IV-D).
3. L2 TLB (10 cycles; 12 when the PC bitmask must be consulted —
   Figure 5b / Table I).
4. Page walk through the PWC and cache hierarchy; faults invoke the
   kernel and retry.

:meth:`MMU._try_translate` is the one pass over these steps, over the
same TLB structures in every run, called by the one trace loop
(:func:`repro.sim.fastpath.run_quantum`). ``SimConfig.fastpath`` (and
``REPRO_FASTPATH=0``) decides only whether the L0 translation memo sits
in front of it. Sanitizer and tracer hooks are read once per pass and
fire only when wired, and wiring either turns the L0 memo off.
"""

from repro.hw.pwc import PageWalkCache
from repro.hw.tlb import (
    REPLACE_SAME_PCID,
    REPLACE_SHARED,
    MultiSizeTLB,
    TLBEntry,
)
from repro.hw.types import AccessKind, PageSize
from repro.core.babelfish_tlb import (
    babelfish_lookup,
    conventional_lookup,
    entry_region,
    hit_provenance,
)
from repro.core.mask_page import region_of
from repro.kernel.errors import TranslationDidNotConverge
from repro.kernel.fault import FaultType, InvalidationScope, trace_outcome
from repro.sim.fastpath import TranslationMemo, fastpath_active
from repro.sim.stats import MMUStats
from repro.sim.walker import PageWalker

_MAX_FAULT_RETRIES = 6


class TranslationResult:
    """One translated access (reused per core by the trace loop, allocated
    per call by other callers of :meth:`MMU.translate` — hence a mutable
    slotted class rather than a dataclass)."""

    __slots__ = ("cycles", "ppn4k", "page_size")

    def __init__(self, cycles=0, ppn4k=0, page_size=PageSize.SIZE_4K):
        self.cycles = cycles
        self.ppn4k = ppn4k
        self.page_size = page_size

    def __repr__(self):
        return ("TranslationResult(cycles=%r, ppn4k=%r, page_size=%r)"
                % (self.cycles, self.ppn4k, self.page_size))


class MMU:
    def __init__(self, core_id, machine, config, hierarchy, kernel):
        self.core_id = core_id
        self.config = config
        self.kernel = kernel
        mmu = machine.mmu
        #: The translation policy (repro.core.policy): structure
        #: geometry, fill rule, and capability flags all come from here.
        self.policy = policy = config.translation_policy
        #: The L0 memo is on unless the config or the environment turns
        #: it off (repro.sim.fastpath).
        self.fast = fast = fastpath_active(config)
        self.l1d = MultiSizeTLB([mmu.l1d_4k, mmu.l1d_2m, mmu.l1d_1g])
        self.l1i = MultiSizeTLB([mmu.l1i_4k])
        self.l2 = MultiSizeTLB(list(policy.l2_tlb_params(mmu)))
        victim = policy.victim_tlb_params(machine)
        #: Optional L3 victim TLB level (Victima-style policies): probed
        #: between an L2 TLB miss and the page walk.
        self.l3 = (MultiSizeTLB(list(victim[0])) if victim is not None
                   else None)
        self.l3_cycles = victim[1] if victim is not None else 0
        self.pwc = PageWalkCache(mmu.pwc)
        self.walker = PageWalker(core_id, hierarchy, self.pwc)
        self.l2_short_cycles = mmu.l2_4k.access_cycles
        self.l2_long_cycles = mmu.l2_4k.long_access_cycles or mmu.l2_4k.access_cycles
        self.l1_cycles = mmu.l1d_4k.access_cycles
        self.aslr_cycles = mmu.aslr_transform_cycles
        self.stats = MMUStats()
        #: The Figure 8 (BabelFish) and Figure 1 (conventional) lookups
        #: (repro.core.babelfish_tlb).
        self._bf_lookup = babelfish_lookup
        self._conv_lookup = conventional_lookup
        #: MaskPage scope of an entry's PC bit: the 1GB region, or the
        #: 2MB range under the per-range indirection extension.
        self._domain_fn = (getattr(kernel.policy, "entry_mask_domain", None)
                           or entry_region)
        #: Callback set by the simulator: applies kernel-requested TLB
        #: invalidations to every core.
        self.invalidation_sink = self._local_invalidation_sink
        #: L0 translation memo (repro.sim.fastpath). ``_memo_store`` is
        #: the instance (or None with the memo off); ``_memo`` is what
        #: the translate pass seeds and the trace loop serves from, and
        #: goes None whenever a sanitizer or tracer is wired (their
        #: per-event hooks must see every lookup). The sanitizer/tracer
        #: properties below keep the two in sync for any wiring order.
        self._memo_store = (
            TranslationMemo(config.share_l1_tlb, self._domain_fn)
            if fast else None)
        self._memo = self._memo_store
        #: Reused result for the trace loop (one per core; the public
        #: translate() still allocates unless ``into`` is passed).
        self._tr_scratch = TranslationResult()
        # Per-config constants prebound for the translate pass (none of
        # these can change over a run), all from the policy registry.
        self._share_l1 = config.share_l1_tlb
        self._bf_tlb = policy.uses_ccid
        self._aslr_transform = (policy.uses_ccid
                                and not config.aslr_mode.shares_l1)
        self._orpc = config.orpc_enabled
        #: Accessed-bit harvesting: L2-TLB-level activity drives the
        #: kernel's page LRU (Figure 9's active list).
        self._lru_touch = kernel.lru.touch
        self._tlb_levels = tuple(
            pair for pair in (("L1D", self.l1d), ("L1I", self.l1i),
                              ("L2", self.l2), ("L3", self.l3))
            if pair[1] is not None)
        self._sanitizer = None
        self._tracer = None

    #: Optional translation-coherence sanitizer (shadow MMU); set by
    #: the simulator when ``config.sanitize`` is enabled.
    @property
    def sanitizer(self):
        return self._sanitizer

    @sanitizer.setter
    def sanitizer(self, value):
        self._sanitizer = value
        self._sync_memo()

    #: Optional event tracer (:mod:`repro.obs`); set by the simulator
    #: when ``config.trace`` is enabled. None keeps every hook to a
    #: single ``is not None`` test.
    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value):
        self._tracer = value
        self._sync_memo()

    def _sync_memo(self):
        self._memo = (self._memo_store
                      if self._sanitizer is None and self._tracer is None
                      else None)

    def tlb_levels(self):
        """``(name, structure)`` pairs, L1s first, including the victim
        level when the policy declares one. The invalidation sweep and
        the sanitizer iterate this, so a policy adding a level is
        covered automatically."""
        return self._tlb_levels

    # -- main entry point --------------------------------------------------------

    def translate(self, proc, segment, page_off, kind, is_write=False,
                  into=None):
        """Translate one access; returns a :class:`TranslationResult`
        (``into``, updated in place, when the caller passes one). The
        trace loop serves L0 memo hits itself and calls this only for
        the accesses the memo refuses."""
        stats = self.stats
        instr = kind is AccessKind.IFETCH
        is_write = is_write or kind is AccessKind.STORE
        if instr:
            stats.accesses_i += 1
        else:
            stats.accesses_d += 1
        # Process.vpn_proc / vpn_group, inlined (a layout VPN is the
        # segment base plus the page offset).
        vpn_proc = proc.layout_proc.bases[segment] + page_off
        vpn_group = proc.layout_group.bases[segment] + page_off
        cycles = 0
        for _ in range(_MAX_FAULT_RETRIES):
            result = self._try_translate(proc, segment, page_off, vpn_proc,
                                         vpn_group, instr, is_write)
            cycles += result[0]
            if result[1] is not None:
                if into is None:
                    return TranslationResult(cycles, result[1], result[2])
                into.cycles = cycles
                into.ppn4k = result[1]
                into.page_size = result[2]
                return into
            # A CoW fault (from a TLB hit or walk) was serviced; retry.
        raise TranslationDidNotConverge(proc.pid, vpn_group)

    def _try_translate(self, proc, segment, page_off, vpn_proc, vpn_group,
                       instr, is_write):
        """One pass through L1 -> L2 -> (L3) -> walk. Returns (cycles,
        ppn4k|None, page_size|None); ppn4k None means a fault was
        serviced and the access must retry. The sanitizer and tracer
        hooks fire only when wired."""
        stats = self.stats
        sanitizer = self._sanitizer
        tracer = self._tracer
        cycles = self.l1_cycles
        l1_multi = self.l1i if instr else self.l1d

        if self._share_l1:
            lookup_vpn = vpn_group
            entry, _size, _consulted, cow_fault = self._bf_lookup(
                l1_multi, vpn_group, proc, is_write, self._domain_fn)
        else:
            lookup_vpn = vpn_proc
            entry, _size, cow_fault = self._conv_lookup(
                l1_multi, vpn_proc, proc.pcid, is_write)
        if cow_fault:
            cycles += self._service_fault(proc, vpn_group, is_write)
            return cycles, None, None
        if entry is not None:
            if instr:
                stats.l1_hits_i += 1
            else:
                stats.l1_hits_d += 1
            if sanitizer is not None:
                sanitizer.check_hit("L1I" if instr else "L1D", proc, entry,
                                    vpn_group)
            if tracer is not None:
                tracer.tlb_hit(self.core_id, proc.pid,
                               "L1I" if instr else "L1D", vpn_group,
                               hit_provenance(entry, proc))
            ppn4k = entry.ppn + (lookup_vpn & entry.page_size.base_mask)
            memo = self._memo
            if memo is not None:
                memo.seed(proc, segment, page_off, instr, is_write,
                          lookup_vpn, entry, l1_multi, ppn4k)
            return cycles, ppn4k, entry.page_size
        if instr:
            stats.l1_misses_i += 1
        else:
            stats.l1_misses_d += 1
        if tracer is not None:
            tracer.tlb_miss(self.core_id, proc.pid,
                            "L1I" if instr else "L1D", vpn_group, instr)

        if self._aslr_transform:
            # ASLR-HW transformation between L1 and L2 (Section IV-D).
            cycles += self.aslr_cycles
            stats.aslr_transforms += 1

        if self._bf_tlb:
            entry, _size, consulted, cow_fault = self._bf_lookup(
                self.l2, vpn_group, proc, is_write, self._domain_fn)
            long_access = consulted
            if not self._orpc and entry is not None and not entry.o_bit:
                # Without the ORPC filter every shared-entry access must
                # read the PC bitmask (Figure 5b's saving, ablated).
                long_access = True
            if long_access:
                cycles += self.l2_long_cycles
                stats.l2_long_accesses += 1
            else:
                cycles += self.l2_short_cycles
        else:
            entry, _size, cow_fault = self._conv_lookup(
                self.l2, vpn_group, proc.pcid, is_write)
            cycles += self.l2_short_cycles
        if cow_fault:
            cycles += self._service_fault(proc, vpn_group, is_write)
            return cycles, None, None
        if entry is not None:
            if sanitizer is not None:
                sanitizer.check_hit("L2", proc, entry, vpn_group)
            if tracer is not None:
                tracer.tlb_hit(self.core_id, proc.pid, "L2", vpn_group,
                               hit_provenance(entry, proc))
            if instr:
                stats.l2_hits_i += 1
                if entry.inserted_by != proc.pid:
                    stats.l2_shared_hits_i += 1
            else:
                stats.l2_hits_d += 1
                if entry.inserted_by != proc.pid:
                    stats.l2_shared_hits_d += 1
            self._fill_l1(proc, vpn_proc, vpn_group, entry, instr)
            self._lru_touch(entry.ppn)
            ppn4k = entry.ppn + (vpn_group & entry.page_size.base_mask)
            return cycles, ppn4k, entry.page_size
        if instr:
            stats.l2_misses_i += 1
        else:
            stats.l2_misses_d += 1
        if tracer is not None:
            tracer.tlb_miss(self.core_id, proc.pid, "L2", vpn_group, instr)

        if self.l3 is not None:
            cycles += self.l3_cycles
            entry, _size, cow_fault = self._conv_lookup(
                self.l3, vpn_group, proc.pcid, is_write)
            if cow_fault:
                cycles += self._service_fault(proc, vpn_group, is_write)
                return cycles, None, None
            if entry is not None:
                if instr:
                    stats.l3_hits_i += 1
                else:
                    stats.l3_hits_d += 1
                if sanitizer is not None:
                    sanitizer.check_hit("L3", proc, entry, vpn_group)
                if tracer is not None:
                    tracer.tlb_hit(self.core_id, proc.pid, "L3", vpn_group,
                                   hit_provenance(entry, proc))
                l2_entry = self._refill_from_l3(proc, entry, vpn_group)
                self._fill_l1(proc, vpn_proc, vpn_group, l2_entry, instr)
                self._lru_touch(entry.ppn)
                ppn4k = entry.ppn + (vpn_group & entry.page_size.base_mask)
                return cycles, ppn4k, entry.page_size
            if instr:
                stats.l3_misses_i += 1
            else:
                stats.l3_misses_d += 1
            if tracer is not None:
                tracer.tlb_miss(self.core_id, proc.pid, "L3", vpn_group,
                                instr)

        pte, leaf_table, walk_cycles = self.walker.walk(proc, vpn_group)
        stats.walks += 1
        stats.walk_cycles += walk_cycles
        cycles += walk_cycles
        if pte is None or (is_write and (pte.cow or not pte.writable)):
            cycles += self._service_fault(proc, vpn_group, is_write)
            return cycles, None, None

        entry = self._fill_l2(proc, vpn_group, pte, leaf_table)
        self._fill_l1(proc, vpn_proc, vpn_group, entry, instr)
        self._lru_touch(pte.ppn)
        ppn4k = pte.ppn + (vpn_group & pte.page_size.base_mask)
        return cycles, ppn4k, pte.page_size

    # -- fills -----------------------------------------------------------------------

    def _fill_l2(self, proc, vpn_group, pte, leaf_table):
        entry, rule = self.policy.fill_l2(self.kernel, proc, vpn_group,
                                          pte, leaf_table)
        self.l2.tlbs[entry.page_size].insert(entry, rule)
        if self._sanitizer is not None:
            self._sanitizer.check_fill("L2", proc, entry, vpn_group)
        if self.l3 is not None and entry.page_size in self.l3.tlbs:
            # Inclusive victim fill. Always a clone: one entry object
            # must never live in two structures (each set's recency dict
            # keys on it, and an invalidation clears its valid bit).
            clone = self._clone_entry(entry)
            self.l3.tlbs[entry.page_size].insert(clone, REPLACE_SAME_PCID)
            if self._sanitizer is not None:
                self._sanitizer.check_fill("L3", proc, clone, vpn_group)
        return entry

    def _refill_from_l3(self, proc, l3_entry, vpn_group):
        """An L3 victim hit refills the L2 TLB (and the caller refills
        the L1) with a clone of the victim entry."""
        entry = self._clone_entry(l3_entry)
        self.l2.tlbs[entry.page_size].insert(entry, REPLACE_SAME_PCID)
        if self._sanitizer is not None:
            self._sanitizer.check_fill("L2", proc, entry, vpn_group)
        return entry

    @staticmethod
    def _clone_entry(entry):
        return TLBEntry(entry.vpn, entry.ppn, entry.page_size, entry.pcid,
                        entry.ccid, entry.writable, entry.user, entry.cow,
                        entry.o_bit, entry.orpc, entry.pc_mask,
                        entry.inserted_by)

    def _fill_l1(self, proc, vpn_proc, vpn_group, l2_entry, instr):
        size = l2_entry.page_size
        ppn = l2_entry.ppn
        if size.coalesced:
            # The L1s hold only architectural sizes: project the covered
            # 4K slice out of the span (frames are contiguous from the
            # span base, so the slice's frame is ppn + offset).
            ppn += vpn_group & size.base_mask
            size = PageSize.SIZE_4K
        tlb = (self.l1i if instr else self.l1d).tlbs.get(size)
        if tlb is None:
            return
        # L1 entries keep the default user bit; the L2 entry's is not
        # copied.
        if self._share_l1:
            entry = TLBEntry(vpn_group >> size.shift4k, ppn, size,
                             proc.pcid, proc.ccid, l2_entry.writable, True,
                             l2_entry.cow, l2_entry.o_bit, l2_entry.orpc,
                             l2_entry.pc_mask, proc.pid)
            tlb.insert(entry, REPLACE_SHARED)
        else:
            entry = TLBEntry(vpn_proc >> size.shift4k, ppn, size,
                             proc.pcid, proc.ccid, l2_entry.writable, True,
                             l2_entry.cow, True, False, 0, proc.pid)
            tlb.insert(entry, REPLACE_SAME_PCID)
        if self._sanitizer is not None:
            self._sanitizer.check_fill("L1I" if instr else "L1D",
                                       proc, entry, vpn_group)

    # -- faults and invalidations --------------------------------------------------------

    def _service_fault(self, proc, vpn_group, is_write):
        outcome = self.kernel.handle_fault(proc, vpn_group, is_write)
        stats = self.stats
        stats.fault_cycles += outcome.cycles
        if self._tracer is not None:
            trace_outcome(self._tracer, self.core_id, proc.pid, vpn_group,
                          outcome)
        if outcome.fault_type is FaultType.MINOR:
            stats.minor_faults += 1
        elif outcome.fault_type is FaultType.MAJOR:
            stats.major_faults += 1
        elif outcome.fault_type is FaultType.COW:
            stats.cow_faults += 1
        else:
            stats.spurious_faults += 1
        if outcome.invalidations:
            self.invalidation_sink(proc, outcome.invalidations)
        return outcome.cycles

    def _local_invalidation_sink(self, proc, invalidations):
        for inv in invalidations:
            self.apply_invalidation(proc, inv)

    def apply_invalidation(self, proc, inv):
        """Apply one kernel-requested invalidation to this core's TLBs."""
        if self._tracer is not None:
            self._tracer.invalidation(self.core_id, proc.pid, inv.vpn,
                                     inv.scope.value)
        if inv.scope is InvalidationScope.PROCESS:
            pred = lambda e: e.pcid == inv.pcid
            vpns = {inv.vpn}
            vpn_proc = self._to_proc_space(proc, inv.vpn)
            if vpn_proc is not None:
                vpns.add(vpn_proc)
            for _name, tlb in self._tlb_levels:
                for vpn in vpns:
                    tlb.invalidate(vpn, pred)
        elif inv.scope is InvalidationScope.SHARED_ENTRY:
            pred = lambda e: (not e.o_bit) and e.ccid == inv.ccid
            for _name, tlb in self._tlb_levels:
                tlb.invalidate(inv.vpn, pred)
        elif inv.scope is InvalidationScope.REGION_SHARED:
            region = region_of(inv.vpn)

            def pred(entry):
                if entry.o_bit or entry.ccid != inv.ccid:
                    return False
                vpn4k = entry.vpn << (entry.page_size.shift
                                      - PageSize.SIZE_4K.shift)
                return region_of(vpn4k) == region

            for _name, tlb in self._tlb_levels:
                tlb.flush(pred)
        elif inv.scope is InvalidationScope.PCID_FLUSH:
            # Process exit / PCID recycle: every entry tagged with the
            # PCID goes, whatever its VPN (inv.vpn is 0 and ignored).
            pred = lambda e: e.pcid == inv.pcid
            for _name, tlb in self._tlb_levels:
                tlb.flush(pred)
        elif inv.scope is InvalidationScope.CCID_SHARED:
            # Teardown freed shared tables: every group-shared (O=0)
            # entry of the CCID goes (no PCID flush covers them).
            pred = lambda e: (not e.o_bit) and e.ccid == inv.ccid
            for _name, tlb in self._tlb_levels:
                tlb.flush(pred)
        if self._sanitizer is not None:
            self._sanitizer.check_invalidation(self, proc, inv)

    @staticmethod
    def _to_proc_space(proc, vpn_group):
        """Translate a group-space VPN to the process's own layout (for
        invalidating per-process L1 entries under ASLR-HW)."""
        if proc.layout_proc is proc.layout_group:
            return vpn_group
        segment = proc.layout_group.segment_of(vpn_group)
        if segment is None:
            return None
        offset = vpn_group - proc.layout_group.base(segment)
        return proc.layout_proc.base(segment) + offset
