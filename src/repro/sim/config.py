"""Simulation configurations: Baseline, BabelFish, ablations, BigTLB.

A :class:`SimConfig` selects which of BabelFish's two mechanisms are
enabled (Section VII separates "L2 TLB effects" from "page table effects"
in Table II), the ASLR mode, and scaling knobs.
"""

import dataclasses

from repro.core.aslr import ASLRMode
from repro.core.policy import get_policy, known_policies
from repro.kernel.costs import KernelCosts


@dataclasses.dataclass(frozen=True)
class SimConfig:
    name: str
    #: CCID-tagged TLB entry sharing (Section III-A).
    babelfish_tlb: bool = False
    #: Shared page tables (Section III-B).
    babelfish_pt: bool = False
    #: Translation-policy registry name (:mod:`repro.core.policy`): which
    #: TLB policy the MMUs run. ``""`` (the default) derives the legacy
    #: mapping from the flags above — ``babelfish`` when
    #: ``babelfish_tlb`` is set, else ``conventional`` — so existing
    #: configs keep meaning what they meant. The normalized name is a
    #: real field: it flows into ``dataclasses.astuple``/``asdict`` and
    #: therefore into every run-cache key and serve wire request.
    policy: str = ""
    aslr_mode: ASLRMode = ASLRMode.INHERITED
    thp_enabled: bool = True
    #: Scale factor on L2 TLB entries ("larger conventional TLB" study).
    l2_tlb_scale: float = 1.0
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
    #: dict) tunes ring size, event families, and the streaming ``sink``
    #: — a ``.jsonl``/``.jsonl.gz``/``.jsonl.zst`` path the ring drains
    #: to at every wrap (flight-recorder mode: constant memory, no
    #: drop-oldest; published atomically by ``Tracer.finalize()``). The
    #: measured-phase snapshot lands on ``RunResult.obs``.
    trace: object = None
    costs: KernelCosts = dataclasses.field(default_factory=KernelCosts)

    #: Not a field: perfbench/worker.py reads it for its tier record.
    batch = False

    def __post_init__(self):
        if not self.policy:
            derived = "babelfish" if self.babelfish_tlb else "conventional"
            object.__setattr__(self, "policy", derived)
        policy = get_policy(self.policy)  # unknown names raise ValueError
        if policy.uses_ccid != bool(self.babelfish_tlb):
            raise ValueError(
                "inconsistent config: policy %r %s CCID-shared entries but "
                "babelfish_tlb=%r — set both through one builder"
                % (self.policy,
                   "uses" if policy.uses_ccid else "does not use",
                   self.babelfish_tlb))

    @property
    def translation_policy(self):
        """The :class:`repro.core.policy.TranslationPolicy` singleton —
        the one dispatch point; everything below branches on its
        capability queries, never on the raw flags."""
        return get_policy(self.policy)

    @property
    def is_babelfish(self):
        return self.babelfish_tlb or self.babelfish_pt

    @property
    def shared_tlb_entries(self):
        """TLB entries are CCID-tagged and group-shared (Figure 8 lookup
        rules apply). Capability query — true exactly for the BabelFish
        TLB policies, false for conventional/victima/coalesced."""
        return self.translation_policy.uses_ccid

    @property
    def shares_page_tables(self):
        """The kernel runs BabelFish's shared page tables
        (:class:`repro.core.shared_pt.SharedPTManager`). A kernel-policy
        capability, deliberately not part of the TLB-policy registry."""
        return self.babelfish_pt

    @property
    def share_l1_tlb(self):
        """L1 sharing is only possible when the L1 sees group addresses
        (ASLR-SW / inherited layouts); under ASLR-HW the transform sits
        between L1 and L2 (Section IV-D)."""
        return self.shared_tlb_entries and self.aslr_mode.shares_l1


def baseline_config(**overrides):
    """Conventional server: per-process TLB entries and page tables."""
    overrides.setdefault("policy", "conventional")
    return SimConfig(name="Baseline", **overrides)


def babelfish_config(aslr_mode=ASLRMode.HW, **overrides):
    """Full BabelFish; ASLR-HW by default, as in the paper's evaluation."""
    overrides.setdefault("policy", "babelfish")
    return SimConfig(name="BabelFish", babelfish_tlb=True, babelfish_pt=True,
                     aslr_mode=aslr_mode, **overrides)


def babelfish_pt_only_config(**overrides):
    """Ablation: page-table sharing without TLB entry sharing (used to
    attribute Table II's 'fraction from L2 TLB effects')."""
    overrides.setdefault("policy", "babelfish_pt")
    return SimConfig(name="BabelFish-PT", babelfish_pt=True,
                     aslr_mode=ASLRMode.HW, **overrides)


def babelfish_tlb_only_config(**overrides):
    """Ablation: TLB entry sharing with conventional private page tables."""
    overrides.setdefault("policy", "babelfish_tlb")
    return SimConfig(name="BabelFish-TLB", babelfish_tlb=True,
                     aslr_mode=ASLRMode.HW, **overrides)


def bigtlb_config(scale=2.0, **overrides):
    """Section VII-C: spend BabelFish's extra TLB bits on a larger
    conventional L2 TLB instead (the CCID+O-PC bits roughly double the
    array, so the default is a 2x-entries conventional TLB;
    ``repro.hw.cacti.same_area_conventional_scale`` prices the honest
    factor, which the power-of-two set snap rounds back to 2x)."""
    overrides.setdefault("policy", "conventional_2x")
    return SimConfig(name="BigTLB", l2_tlb_scale=scale, **overrides)


def victima_config(**overrides):
    """Policy-zoo arm: Victima-style cache-backed TLB reach — a large L3
    victim TLB level carved from the L2 cache, probed before the walk."""
    overrides.setdefault("policy", "victima")
    return SimConfig(name="Victima", **overrides)


def coalesced_config(**overrides):
    """Policy-zoo arm: CoLT-style coalesced TLB — one L2 entry per
    aligned run of 4 contiguous 4K translations."""
    overrides.setdefault("policy", "coalesced")
    return SimConfig(name="Coalesced", **overrides)


#: Re-exported for layers (serve) that may import ``sim`` but not
#: ``core``: the valid ``policy`` field values.
KNOWN_POLICIES = tuple(known_policies())
