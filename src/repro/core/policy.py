"""The translation-policy registry: every TLB policy the simulator knows.

BabelFish is one point in a wide translation-architecture design space.
Policy selection used to be a pair of booleans (``babelfish_tlb`` /
``babelfish_pt``) checked ad hoc across the MMU and experiment layers —
a dispatch pattern in which "not BabelFish" silently meant
"conventional", which breaks the moment a third policy exists. This
module replaces it with an explicit registry: a
:class:`TranslationPolicy` object per named policy, carrying

- **capability queries** (``uses_ccid``, ``coalesces``,
  ``has_victim_level``) the MMU, sanitizer, and experiments branch on
  instead of raw config flags (lint rule BF701 forbids the flags outside
  ``sim/config.py`` and this module);
- **structure geometry** (:meth:`TranslationPolicy.l2_tlb_params`,
  :meth:`TranslationPolicy.victim_tlb_params`) — how the policy carves
  the Table I L2 TLB budget, and whether it backs it with a
  cache-resident victim level;
- the **fill rule** (:meth:`TranslationPolicy.fill_l2`): what TLB entry
  a completed page walk installs, and which resident entries it may
  replace.

The *lookup* rules stay where they were: Figure 8's CCID lookup in
:mod:`repro.core.babelfish_tlb` and the conventional PCID lookup next
to it. A policy only chooses between them (``uses_ccid``); both lookups
are already generic over every structure geometry a policy can declare,
which is what keeps the reference and fastpath tiers bit-identical for
free (DESIGN.md §17).

Registered policies:

``conventional``
    Per-process entries, private tables — the paper's Baseline.
``conventional_2x``
    The same lookup over a scaled L2 TLB ("larger conventional TLB",
    Section VII-C); the scale factor itself stays a config knob
    (``l2_tlb_scale``) so area sweeps remain one config away.
``babelfish``
    CCID-tagged entry sharing (Section III-A). The page-table half
    (Section III-B) stays an orthogonal config knob (``babelfish_pt``)
    because it is a kernel policy, not a TLB policy.
``babelfish_tlb`` / ``babelfish_pt``
    The two Table II ablations, registered under their own names so the
    ablation grid, run-cache keys, and serve requests name them
    explicitly (``babelfish_pt`` has a conventional TLB).
``victima``
    Victima-style cache-backed TLB reach (PAPERS.md): conventional
    L1/L2 semantics plus a large L3 victim level carved out of the L2
    cache's SRAM, probed between an L2 TLB miss and the page walk.
``coalesced``
    CoLT-style coalescing (PAPERS.md): walks that land in a run of
    contiguous 4K translations install one entry covering the whole
    aligned block, quadrupling reach per entry on contiguity-friendly
    layouts.
"""

import dataclasses

from repro.hw.params import TLBParams
from repro.hw.tlb import REPLACE_SAME_PCID, REPLACE_SHARED, TLBEntry
from repro.hw.types import PAGE_SHIFT, PageSize
from repro.kernel.page_table import PTE, table_index
from repro.core.babelfish_tlb import make_entry


class CoalescedSpan:
    """A synthetic page-size-like object for coalesced TLB entries.

    The generic TLB structures (:class:`repro.hw.tlb.MultiSizeTLB`), the
    lookup functions, invalidation, and the
    sanitizer's coverage math only ever use ``shift``/``shift4k``/
    ``base_pages``/``base_mask`` — the same interface
    :class:`repro.hw.types.PageSize` members expose. A span of
    ``degree`` contiguous 4K pages therefore slots in as just another
    "page size", with ``coalesced`` marking the one semantic
    difference: the frames are only *contiguous*, not one larger page,
    so consumers that compare against architectural PTEs resolve
    per-4K-page (``ppn + offset``) instead of expecting a matching
    large-page PTE.
    """

    coalesced = True

    def __init__(self, degree):
        if degree < 2 or degree & (degree - 1):
            raise ValueError("coalescing degree must be a power of two "
                             ">= 2, got %r" % (degree,))
        self.shift4k = degree.bit_length() - 1
        self.shift = PAGE_SHIFT + self.shift4k
        self.value = self.shift
        self.base_pages = degree
        self.base_mask = degree - 1
        self.bytes = 1 << self.shift
        self.name = "COALESCED_%dK" % (4 * degree)

    def __repr__(self):
        return "<CoalescedSpan %s>" % self.name


#: The stock coalescing degree: 4 contiguous 4K pages per entry (CoLT's
#: sweet spot — deeper runs exist but 4 captures most buddy-allocator
#: contiguity). One module-level instance: TLB structures key their
#: per-size sub-TLBs by this object, and fills must use the same key.
COALESCED_SPAN_4 = CoalescedSpan(4)


class TranslationPolicy:
    """Interface every registered policy implements.

    Policies are stateless singletons: all run state lives in the TLB
    structures and the config, so one instance serves every MMU (and
    survives pickling config round-trips by name).
    """

    #: Registry name (the ``SimConfig.policy`` field value).
    name = None
    #: Entries are CCID-tagged and looked up with Figure 8's shared-entry
    #: rules (BabelFish); False means conventional VPN+PCID matching.
    uses_ccid = False
    #: Fills may install entries spanning several contiguous 4K vpns.
    coalesces = False
    #: An L3 victim TLB level sits between the L2 TLB and the walker.
    has_victim_level = False

    def l2_tlb_params(self, mmu_params):
        """How this policy carves the L2 TLB budget: a tuple of
        :class:`~repro.hw.params.TLBParams`, one per page-size
        structure, probed in order."""
        return (mmu_params.l2_4k, mmu_params.l2_2m, mmu_params.l2_1g)

    def victim_tlb_params(self, machine):
        """``(params_tuple, probe_cycles)`` for an L3 victim TLB level
        probed on an L2 TLB miss, or None for no victim level."""
        return None

    def fill_l2(self, kernel, proc, vpn_group, pte, leaf_table):
        """The L2 TLB entry a completed walk installs for ``proc`` at
        ``vpn_group``, plus the replace rule saying which resident
        same-VPN entry the insert may overwrite
        (:data:`~repro.hw.tlb.REPLACE_SAME_PCID` or
        :data:`~repro.hw.tlb.REPLACE_SHARED`). Returns ``(entry, rule)``."""
        raise NotImplementedError


def _conventional_entry(proc, vpn_group, pte):
    size = pte.page_size
    return TLBEntry(vpn_group >> size.shift4k, pte.ppn, size, proc.pcid,
                    proc.ccid, pte.writable, True, pte.cow, True, False, 0,
                    proc.pid)


class ConventionalPolicy(TranslationPolicy):
    """Per-process TLB entries over private tables (the Baseline)."""

    def __init__(self, name="conventional"):
        self.name = name

    def fill_l2(self, kernel, proc, vpn_group, pte, leaf_table):
        return _conventional_entry(proc, vpn_group, pte), REPLACE_SAME_PCID


class BabelFishPolicy(TranslationPolicy):
    """CCID-tagged entry sharing (Section III-A / Figure 8)."""

    uses_ccid = True

    def __init__(self, name="babelfish"):
        self.name = name

    def fill_l2(self, kernel, proc, vpn_group, pte, leaf_table):
        size = pte.page_size
        fill_info = kernel.policy.fill_info(proc, leaf_table, vpn_group)
        entry = make_entry(vpn_group >> size.shift4k, pte, proc, fill_info,
                           size)
        return entry, REPLACE_SHARED


class VictimaPolicy(ConventionalPolicy):
    """Cache-backed TLB reach: conventional L1/L2 plus a large victim
    level resident in the L2 cache's SRAM (PAPERS.md's Victima).

    Modeling choices (DESIGN.md §17): the victim level is filled
    inclusively on every walk (rather than only on L2 TLB eviction) and
    probed at the L2 *cache's* access time — both deterministic
    simplifications that preserve the mechanism's reach/latency
    trade-off without modeling cache-block repurposing.
    """

    has_victim_level = True

    def __init__(self, name="victima"):
        super().__init__(name)

    def victim_tlb_params(self, machine):
        cache = machine.l2
        lines = cache.size_bytes // cache.line_size      # 4096 blocks
        entries_4k = lines // 2                          # 2048, 8-way: 256 sets
        entries_2m = lines // 16                         # 256, 8-way: 32 sets
        params = (
            TLBParams("L3 victim 4K", entries_4k, cache.ways,
                      PageSize.SIZE_4K, cache.access_cycles),
            TLBParams("L3 victim 2M", entries_2m, cache.ways,
                      PageSize.SIZE_2M, cache.access_cycles),
        )
        return params, cache.access_cycles


class CoalescedPolicy(TranslationPolicy):
    """CoLT-style contiguity exploitation: one entry per aligned run of
    ``span.base_pages`` contiguous 4K translations.

    The L2's 4K budget is split evenly between a coalesced structure
    (probed first) and a plain 4K structure for runs that do not
    coalesce; both keep the Table I associativity, so the area is the
    baseline's plus the span bookkeeping bits
    (:func:`repro.hw.cacti.coalesced_l2_geometries` prices them).

    A walk coalesces iff the whole aligned block, read from the leaf
    PTE table the walk traversed, is present, 4K, physically contiguous
    from the block base, and permission-uniform (writable/user/CoW).
    CoW pages may coalesce: a write hit CoW-faults exactly like a 4K
    entry would, and the break's invalidation drops the whole span (the
    refill then no longer coalesces, since the block's frames diverged).
    """

    coalesces = True

    def __init__(self, name="coalesced", span=COALESCED_SPAN_4):
        self.name = name
        self.span = span

    def l2_tlb_params(self, mmu_params):
        base = mmu_params.l2_4k
        half = max(1, base.num_sets // 2) * base.ways
        coalesced = dataclasses.replace(base, name="L2 TLB coalesced",
                                        entries=half, page_size=self.span)
        single = dataclasses.replace(base, entries=half)
        return (coalesced, single, mmu_params.l2_2m, mmu_params.l2_1g)

    def fill_l2(self, kernel, proc, vpn_group, pte, leaf_table):
        if pte.page_size is PageSize.SIZE_4K and leaf_table is not None:
            entry = self._coalesced_entry(proc, vpn_group, pte, leaf_table)
            if entry is not None:
                return entry, REPLACE_SAME_PCID
        return _conventional_entry(proc, vpn_group, pte), REPLACE_SAME_PCID

    def _coalesced_entry(self, proc, vpn_group, pte, leaf_table):
        span = self.span
        base_vpn = vpn_group & ~span.base_mask
        # A span-aligned block never crosses a 512-entry PTE table, so
        # every member PTE lives in the leaf table the walk reached.
        base_index = table_index(base_vpn, leaf_table.level)
        head = leaf_table.entries.get(base_index)
        if not (isinstance(head, PTE) and head.present
                and head.page_size is PageSize.SIZE_4K):
            return None
        for off in range(1, span.base_pages):
            member = leaf_table.entries.get(base_index + off)
            if not (isinstance(member, PTE) and member.present
                    and member.page_size is PageSize.SIZE_4K
                    and member.ppn == head.ppn + off
                    and member.writable == head.writable
                    and member.user == head.user
                    and member.cow == head.cow):
                return None
        return TLBEntry(base_vpn >> span.shift4k, head.ppn, span, proc.pcid,
                        proc.ccid, head.writable, head.user, head.cow, True,
                        False, 0, proc.pid)


#: name -> policy singleton. The two ablation aliases are registered as
#: first-class names so ``SimConfig.policy`` (and with it every
#: run-cache key and serve wire request) says exactly which arm of the
#: Table II ablation a run belongs to.
_REGISTRY = {}


def register_policy(policy):
    if policy.name in _REGISTRY:
        raise ValueError("policy %r is already registered" % policy.name)
    _REGISTRY[policy.name] = policy
    return policy


register_policy(ConventionalPolicy("conventional"))
register_policy(ConventionalPolicy("conventional_2x"))
register_policy(ConventionalPolicy("babelfish_pt"))
register_policy(BabelFishPolicy("babelfish"))
register_policy(BabelFishPolicy("babelfish_tlb"))
register_policy(VictimaPolicy("victima"))
register_policy(CoalescedPolicy("coalesced"))


def known_policies():
    """Sorted registered policy names (the valid ``SimConfig.policy``
    values; serve's wire validation rejects anything else)."""
    return sorted(_REGISTRY)


def get_policy(name):
    """The policy singleton for ``name``; raises ``ValueError`` (naming
    the field and the valid names) for anything unregistered."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown policy %r for field 'policy' (known: %s)"
            % (name, ", ".join(known_policies())))
