"""The simulator's trace loop and its exact L0 translation memo.

Every experiment funnels millions of trace records through
:func:`run_quantum` -> ``MMU.translate`` -> TLB lookups -> the cache
hierarchy; per-access interpreter overhead dominates end-to-end latency.
Mirroring the fast/slow split of Utopia (PAPERS.md) — and exploiting the
same page-level locality BabelFish itself banks on — this module
short-circuits the *repeat* case while provably preserving every
architectural observable:

- :func:`run_quantum` is the simulator's only trace loop, for every run
  (sanitized, traced and memo-off ones included): prebound locals, a
  tuple-indexed kind table, a per-core reused
  :class:`~repro.sim.mmu.TranslationResult`, batched stats counters,
  ``CacheHierarchy.data_access`` for the data side, and the L0 memo's
  guard-and-replay inlined. A record is served from the memo
  only when it proves the translate pass would return the same entry
  with the same side effects (see DESIGN.md §11 for the exactness
  argument); otherwise the access goes to ``MMU.translate``, which
  reseeds.
- :func:`fastpath_active` gates the L0 memo alone on
  ``SimConfig.fastpath`` (default on) and the ``REPRO_FASTPATH=0``
  environment escape hatch. Sanitize/trace runs also run without it,
  because their per-lookup hooks live in the translate pass; the loop
  then sees empty memo tables and sends every record there.
- :class:`TranslationMemo` caches, per (pid, segment, page) and per
  access space (ifetch/data), the L1 TLB entry that hit last time plus
  everything needed to *replay* the reference hit: the precomputed
  ppn4k, the entry's set and set-epoch in its TLB structure, the
  set-epochs of any structures probed before it, and the ORPC bitmask
  scope for re-checking ``proc.pc_bits`` live. The memo is seeded by
  ``MMU._try_translate`` on an L1 hit.

Nothing here is ever exported into a :class:`~repro.sim.stats.RunResult`
— epochs and memo state are internal, so ``RunResult.as_dict()`` of a
memo-on run is bit-identical to a memo-off run (tests/test_fastpath.py
asserts this for every stock config).
"""

import os

from repro.hw.types import AccessKind

#: Environment escape hatch: ``REPRO_FASTPATH=0`` turns the L0 memo off
#: regardless of ``SimConfig.fastpath``.
FASTPATH_ENV = "REPRO_FASTPATH"

#: Trace-record kind codes index this directly (0=IFETCH 1=LOAD 2=STORE).
_KINDS = (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)

#: Records per memo table; a full table is cleared before the next seed.
MEMO_LIMIT = 8192


def fastpath_active(config):
    """True when ``config`` and the environment both allow the L0 memo."""
    if not getattr(config, "fastpath", True):
        return False
    return os.environ.get(FASTPATH_ENV, "1") != "0"


class TranslationMemo:
    """Per-core L0 memo over the L1 TLB hit path.

    Record layout (one tuple per (pid, segment, page_off) key, separate
    tables for ifetch and data)::

        (entry, tlb, set_idx, set_epoch, ppn4k,
         write_ok, write_seeded, mask_domain, pc_mask, pre)

    where ``tlb`` is the :class:`~repro.hw.tlb.SetAssocTLB` holding
    ``entry``, ``pre`` lists ``(tlb, set_idx, set_epoch)`` for every
    structure the multi-size lookup probed (and missed) before the hit,
    ``write_ok`` is ``entry.writable and not entry.cow``, and
    ``mask_domain`` is the ORPC bitmask scope to re-check against
    ``proc.pc_bits`` (None when the reference match does no mask check).

    :func:`run_quantum` serves a record only while every guard
    holds (the entry's set and each pre-probed set unchanged, the
    write/read seeding compatible, the live ORPC bit clear) and then
    replays the reference side effects exactly: the access and L1-hit
    counters and the entry's move-to-end LRU touch. The pre-probed sets'
    epochs are a guard only: a reference miss there changes no state.
    """

    __slots__ = ("i", "d", "share_l1", "domain_fn")

    def __init__(self, share_l1, domain_fn):
        self.i = {}
        self.d = {}
        self.share_l1 = share_l1
        self.domain_fn = domain_fn

    def seed(self, proc, segment, page_off, instr, is_write, lookup_vpn,
             entry, multi, ppn4k):
        """Record an L1 hit so the next access to the same page can be
        served by :func:`run_quantum`."""
        size = entry.page_size
        pre = []
        tlb = None
        set_idx = 0
        for probe_size, shift, probe_tlb in multi._probe:
            idx = (lookup_vpn >> shift) & probe_tlb.set_mask
            if probe_size is size:
                tlb = probe_tlb
                set_idx = idx
                break
            pre.append((probe_tlb, idx, probe_tlb._set_epochs[idx]))
        if self.share_l1 and not entry.o_bit and entry.orpc:
            mask_domain = self.domain_fn(entry)
            pc_mask = entry.pc_mask
        else:
            mask_domain = None
            pc_mask = 0
        table = self.i if instr else self.d
        if len(table) >= MEMO_LIMIT:
            table.clear()
        table[(proc.pid, segment, page_off)] = (
            entry, tlb, set_idx, tlb._set_epochs[set_idx], ppn4k,
            entry.writable and not entry.cow, is_write,
            mask_domain, pc_mask, tuple(pre))


def run_quantum(sim, core_id, proc):
    """Run ``proc`` on ``core_id`` for one scheduler quantum (or until its
    trace ends); returns the instructions consumed. The L0 memo's
    guard-and-replay is inlined here (its only copy: a record failing a
    guard falls through to ``mmu.translate``, which runs the full pass).
    With a tracer wired the memo is off, so every record reaches the
    clock tick before ``translate``, where every traced event is
    emitted."""
    mmu = sim.mmus[core_id]
    stats = mmu.stats
    trace = sim._traces.get(proc.pid)
    quantum = sim.scheduler.quantum_instructions
    translate = mmu.translate
    data_access = sim.hierarchy.data_access
    base_cpi = sim.base_cpi
    request_latency = sim._request_latency
    rl_get = request_latency.get
    kinds = _KINDS
    scratch = mmu._tr_scratch
    memo = mmu._memo
    # An empty table never hits, turning the inline replay into a plain
    # dict miss when the memo is off (fastpath=False, sanitizer, tracer).
    memo_i = memo.i if memo is not None else {}
    memo_d = memo.d if memo is not None else {}
    pid = proc.pid
    pc_bits = proc.pc_bits
    l1_cycles = mmu.l1_cycles
    tracer = sim.tracer
    quantum_start = sim.core_cycles[core_id]
    cycles = 0
    insts = 0
    t_cycles = 0
    m_cycles = 0
    # Memo-hit counter deltas, flushed to ``stats`` after the loop. All
    # increments commute with the ones ``translate`` applies directly,
    # and no hook reads ``stats`` mid-quantum.
    acc_i = hits_i = acc_d = hits_d = 0
    finished = False
    if trace is not None:
        while insts < quantum:
            rec = next(trace, None)
            if rec is None:
                finished = True
                break
            kind_code, segment, page_off, line, gap, req_id = rec
            # -- L0 translation memo, inlined ---------------------------
            instr = kind_code == 0
            is_write = kind_code == 2
            table = memo_i if instr else memo_d
            key = (pid, segment, page_off)
            rec_m = table.get(key)
            tr_cycles = -1
            if rec_m is not None:
                (entry, tlb, set_idx, set_epoch, ppn4k, write_ok,
                 write_seeded, mask_domain, pc_mask, pre) = rec_m
                if tlb._set_epochs[set_idx] != set_epoch:
                    # The entry's set changed (fill/invalidate/flush):
                    # the recorded outcome can no longer be trusted.
                    del table[key]
                # A write needs a writable, non-CoW entry (a permission
                # miss or CoW fault is the translate pass's job). A
                # write-seeded record proves nothing about reads: an
                # earlier same-bucket entry rejected only by the write-
                # permission clause would match a read first.
                elif write_ok if is_write else not write_seeded:
                    ok = True
                    if mask_domain is not None:
                        # Live ORPC re-check: the process may have
                        # privatized a page in this scope since the seed
                        # (pc_bits only ever gains bits, so the match can
                        # only flip hit -> miss).
                        bit = pc_bits.get(mask_domain)
                        if bit is not None and (pc_mask >> bit) & 1:
                            ok = False
                    if ok:
                        # Every structure probed before the hit must be
                        # unchanged: a new entry there could shadow this.
                        for pre_tlb, pre_idx, pre_epoch in pre:
                            if pre_tlb._set_epochs[pre_idx] != pre_epoch:
                                ok = False
                                break
                    if ok:
                        # Exact replay of the L1-hit effects.
                        if instr:
                            acc_i += 1
                            hits_i += 1
                        else:
                            acc_d += 1
                            hits_d += 1
                        lru = tlb._lru[set_idx]
                        del lru[entry]
                        lru[entry] = None
                        tr_cycles = l1_cycles
            if tr_cycles < 0:
                if tracer is not None:
                    tracer.tick(core_id, quantum_start + cycles)
                tr = translate(proc, segment, page_off, kinds[kind_code],
                               is_write, scratch)
                tr_cycles = tr.cycles
                ppn4k = tr.ppn4k
            mem_cycles = data_access(
                core_id, (ppn4k << 12) | (line << 6), kind_code)
            record_cycles = int(gap * base_cpi) + tr_cycles + mem_cycles
            cycles += record_cycles
            insts += gap + 1
            t_cycles += tr_cycles
            m_cycles += mem_cycles
            if req_id is not None:
                request_latency[req_id] = rl_get(req_id, 0) + record_cycles
    else:
        finished = True
    stats.accesses_i += acc_i
    stats.l1_hits_i += hits_i
    stats.accesses_d += acc_d
    stats.l1_hits_d += hits_d
    stats.translation_cycles += t_cycles
    stats.memory_cycles += m_cycles
    stats.instructions += insts
    sim.core_cycles[core_id] += cycles
    if tracer is not None:
        tracer.quantum(core_id, pid, quantum_start, sim.core_cycles[core_id],
                       insts)
    sim._proc_cycles[pid] = sim._proc_cycles.get(pid, 0) + cycles
    if finished:
        sim._completion[pid] = sim.core_cycles[core_id]
        sim._traces.pop(pid, None)
        sim.scheduler.remove(proc)
    nxt = sim.scheduler.rotate(core_id)
    if nxt is not None and nxt is not proc:
        sim.core_cycles[core_id] += sim.switch_cost
    return insts
