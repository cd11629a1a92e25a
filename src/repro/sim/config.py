"""Simulation configurations: Baseline, BabelFish, ablations, BigTLB.

A :class:`SimConfig` names the design it runs — a translation-policy
registry entry (:mod:`repro.core.policy`), which alone says whether TLB
entries and page tables are shared (Section VII separates "L2 TLB
effects" from "page table effects" in Table II) and how big the L2 TLB
is — plus the ASLR mode and ablation knobs.
"""

import dataclasses

from repro.core.aslr import ASLRMode
from repro.core.policy import get_policy, known_policies
from repro.kernel.costs import KernelCosts


@dataclasses.dataclass(frozen=True)
class SimConfig:
    name: str
    #: Translation-policy registry name (:mod:`repro.core.policy`): the
    #: design the kernel and MMUs run. It flows into
    #: ``dataclasses.asdict`` and therefore into every run-cache key and
    #: serve wire request.
    policy: str = "conventional"
    aslr_mode: ASLRMode = ASLRMode.INHERITED
    thp_enabled: bool = True
    #: The ORPC optimization (Figure 5b): when disabled, every shared-entry
    #: L2 TLB access pays the long (PC-bitmask) access time. Ablation knob.
    orpc_enabled: bool = True
    #: PC bitmask width: maximum CoW writers per PMD table set before the
    #: group reverts to non-shared translations (Appendix). Ablation knob.
    pc_bitmask_bits: int = 32
    #: Merge PMD tables for 2MB huge pages (Section IV-C). Ablation knob.
    share_huge: bool = True
    #: Appendix extension: per-2MB-range pid lists ("an extra
    #: indirection could support more writing processes"). Raises the CoW
    #: writer limit from 32 per 1GB region to 32 per 2MB range.
    pc_overflow_indirection: bool = False
    #: Scheduler quantum in instructions (Table I's 10ms scaled down with
    #: the measurement slice; see DESIGN.md Section 4).
    quantum_instructions: int = 20_000
    #: Enable the per-core L0 translation memo (:mod:`repro.sim.fastpath`).
    #: Bit-identical to the memo-off path by construction (DESIGN.md §11;
    #: tests/test_fastpath.py verifies every stock config both ways), so
    #: it defaults on. ``False`` — or ``REPRO_FASTPATH=0`` — sends every
    #: access through the full translate pass; ``sanitize`` and ``trace``
    #: runs do the same, so their hooks see every lookup. The trace loop
    #: and the same-line cache memo are the same in every run.
    fastpath: bool = True
    #: Enable the translation-coherence sanitizer: a shadow MMU that
    #: cross-checks every TLB fill/hit/invalidation against an independent
    #: architectural walk of the kernel page tables
    #: (:mod:`repro.analysis.sanitizer`). Debug/CI knob — adds a software
    #: walk per TLB event, so keep it off for performance numbers.
    sanitize: bool = False
    #: Enable event tracing (:mod:`repro.obs`): ``None`` (default) keeps
    #: every hook a no-op ``is not None`` test; ``True`` traces with
    #: default options; a :class:`repro.obs.TraceOptions` (or its field
    #: dict) sets the ring size and the streaming ``sink`` — a
    #: ``.jsonl``/``.jsonl.gz`` path the ring drains to at every wrap
    #: (flight-recorder mode: constant memory, no drop-oldest;
    #: published atomically by ``Tracer.finalize()``). The
    #: measured-phase snapshot lands on ``RunResult.obs``.
    trace: object = None
    costs: KernelCosts = dataclasses.field(default_factory=KernelCosts)

    #: Not a field: perfbench/worker.py reads it for its tier record.
    batch = False

    def __post_init__(self):
        get_policy(self.policy)  # unknown names raise ValueError

    @property
    def translation_policy(self):
        """The :class:`repro.core.policy.TranslationPolicy` singleton —
        the one dispatch point; everything below branches on its
        capability queries."""
        return get_policy(self.policy)

    @property
    def shared_tlb_entries(self):
        """TLB entries are CCID-tagged and group-shared (Figure 8 lookup
        rules apply). Capability query — true exactly for the BabelFish
        TLB policies, false for conventional/victima/coalesced."""
        return self.translation_policy.uses_ccid

    @property
    def shares_page_tables(self):
        """The kernel runs BabelFish's shared page tables
        (:class:`repro.core.shared_pt.SharedPTManager`)."""
        return self.translation_policy.shares_page_tables

    @property
    def share_l1_tlb(self):
        """L1 sharing is only possible when the L1 sees group addresses
        (ASLR-SW / inherited layouts); under ASLR-HW the transform sits
        between L1 and L2 (Section IV-D)."""
        return self.shared_tlb_entries and self.aslr_mode.shares_l1


def baseline_config(**overrides):
    """Conventional server: per-process TLB entries and page tables. The
    one builder that takes any ``policy`` override."""
    return SimConfig(name="Baseline", **overrides)


def _design_config(name, policy, /, **fields):
    """A config named for one design. Its ``policy`` field may only
    repeat that design's policy: an override naming another would run a
    different design under this one's name."""
    chosen = fields.setdefault("policy", policy)
    if chosen != policy:
        raise ValueError("field 'policy' is %r, but config %r runs policy "
                         "%r" % (chosen, name, policy))
    return SimConfig(name=name, **fields)


def babelfish_config(aslr_mode=ASLRMode.HW, **overrides):
    """Full BabelFish; ASLR-HW by default, as in the paper's evaluation."""
    return _design_config("BabelFish", "babelfish", aslr_mode=aslr_mode,
                          **overrides)


def babelfish_pt_only_config(**overrides):
    """Ablation: page-table sharing without TLB entry sharing (used to
    attribute Table II's 'fraction from L2 TLB effects')."""
    return _design_config("BabelFish-PT", "babelfish_pt",
                          aslr_mode=ASLRMode.HW, **overrides)


def babelfish_tlb_only_config(**overrides):
    """Ablation: TLB entry sharing with conventional private page tables."""
    return _design_config("BabelFish-TLB", "babelfish_tlb",
                          aslr_mode=ASLRMode.HW, **overrides)


def bigtlb_config(**overrides):
    """Section VII-C: spend BabelFish's extra TLB bits on a larger
    conventional L2 TLB instead (the CCID+O-PC bits roughly double the
    array, so ``conventional_2x`` has a 2x-entries conventional TLB;
    ``repro.hw.cacti.same_area_conventional_scale`` prices the honest
    factor, which the power-of-two set snap rounds back to 2x)."""
    return _design_config("BigTLB", "conventional_2x", **overrides)


def victima_config(**overrides):
    """Policy-zoo arm: Victima-style cache-backed TLB reach — a large L3
    victim TLB level carved from the L2 cache, probed before the walk."""
    return _design_config("Victima", "victima", **overrides)


def coalesced_config(**overrides):
    """Policy-zoo arm: CoLT-style coalesced TLB — one L2 entry per
    aligned run of 4 contiguous 4K translations."""
    return _design_config("Coalesced", "coalesced", **overrides)


#: Re-exported for layers (serve) that may import ``sim`` but not
#: ``core``: the valid ``policy`` field values.
KNOWN_POLICIES = tuple(known_policies())
