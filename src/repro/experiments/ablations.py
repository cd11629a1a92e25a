"""Design-choice ablations (beyond the paper's explicit studies).

DESIGN.md calls these out: ASLR-SW vs ASLR-HW (Section IV-D discusses
both; the paper conservatively evaluates HW), the ORPC filter
(Figure 5b), PC-bitmask width (Appendix: reverts past 32 writers), and
huge-page PMD-table merging (Section IV-C).
"""

from repro.core.aslr import ASLRMode
from repro.kernel.frames import FrameKind
from repro.experiments.common import (
    config_by_name,
    pct_reduction,
    run_app,
)
from repro.experiments.runner import RunRequest, execute, request_overrides
from repro.sim.config import babelfish_config


def _measure(config, app, cores, scale):
    """The result of one measured run through the (correctly keyed) run
    cache: ablation configs share ``config.name`` with the stock configs
    but differ in field values, which the full-field cache key
    distinguishes."""
    return run_app(app, config, cores=cores, scale=scale).result


def run_aslr_ablation(app="mongodb", cores=4, scale=0.5, jobs=1):
    """ASLR-SW avoids the 2-cycle transform and shares at the L1 TLB too;
    ASLR-HW (paper default) gives per-process layouts."""
    if jobs > 1:
        execute([RunRequest(kind="app", app=app, cores=cores, scale=scale)]
                + [RunRequest(kind="app", app=app, config_name="BabelFish",
                              overrides=request_overrides(aslr_mode=mode),
                              cores=cores, scale=scale)
                   for mode in (ASLRMode.SW, ASLRMode.HW)], jobs=jobs)
    base = _measure(config_by_name("Baseline"), app, cores, scale)
    rows = []
    for mode in (ASLRMode.SW, ASLRMode.HW):
        result = _measure(babelfish_config(aslr_mode=mode), app,
                          cores, scale)
        rows.append({
            "mode": mode.value,
            "mean_reduction_pct": round(pct_reduction(
                base.mean_latency, result.mean_latency), 2),
            "aslr_transforms": result.stats.aslr_transforms,
            "l1_shared": mode.shares_l1,
        })
    return rows


def run_orpc_ablation(app="mongodb", cores=4, scale=0.5, jobs=1):
    """Without ORPC, every shared-entry L2 TLB access pays the long
    (PC-bitmask) access time."""
    if jobs > 1:
        execute([RunRequest(kind="app", app=app, cores=cores, scale=scale)]
                + [RunRequest(kind="app", app=app, config_name="BabelFish",
                              overrides=request_overrides(orpc_enabled=orpc),
                              cores=cores, scale=scale)
                   for orpc in (True, False)], jobs=jobs)
    base = _measure(config_by_name("Baseline"), app, cores, scale)
    rows = []
    for orpc in (True, False):
        result = _measure(babelfish_config(orpc_enabled=orpc), app,
                          cores, scale)
        rows.append({
            "orpc_enabled": orpc,
            "mean_reduction_pct": round(pct_reduction(
                base.mean_latency, result.mean_latency), 2),
            "l2_long_accesses": result.stats.l2_long_accesses,
        })
    return rows


def run_bitmask_width_ablation(writers=12, widths=(4, 8, 32), pages=4096,
                               include_indirection=True):
    """A narrower PC bitmask exhausts the MaskPage sooner, forcing the
    whole CCID group to revert to non-shared translations (Appendix).

    Scenario: a CoW storm — ``writers`` containers forked from a zygote
    each write fork-inherited heap pages. With a 32-bit mask every writer
    gets a private pte-page copy and the rest keep sharing; with narrow
    masks the region reverts and every sharer is privatized.
    """
    from repro.core.mask_page import MaskPageDirectory
    from repro.core.shared_pt import SharedPTManager
    from repro.core.ccid import CCIDRegistry
    from repro.core.aslr import ASLRMode, group_layout_for
    from repro.kernel.kernel import Kernel, KernelConfig
    from repro.kernel.vma import SegmentKind, VMAKind

    rows = []
    variants = [(width, False) for width in widths]
    if include_indirection:
        # Appendix extension: per-range pid lists via an extra indirection.
        variants.append((widths[0], True))
    for width, per_range in variants:
        registry = CCIDRegistry()
        group = registry.group_for("tenant", "storm")
        kernel = Kernel(KernelConfig(),
                        policy=SharedPTManager(
                            MaskPageDirectory(max_writers=width,
                                              per_range_lists=per_range)))
        kernel.policy.mask_dir.allocator = kernel.allocator
        layout = group_layout_for(group, ASLRMode.SW)
        zygote = kernel.spawn(group.ccid, layout, name="zygote")
        kernel.mmap(zygote, SegmentKind.HEAP, 0, pages, VMAKind.ANON,
                    name="heap")
        for i in range(writers):
            page = (i * 340) % pages
            kernel.touch(zygote, zygote.vpn_group(SegmentKind.HEAP, page),
                         is_write=True)
        children = []
        for i in range(writers):
            child, _cycles = kernel.fork(zygote, name="w%d" % i)
            group.add(child)
            children.append(child)
        cow_cycles = 0
        for i, child in enumerate(children):
            # Writers spread over several 2MB ranges of one region: with
            # per-range lists each range sees only 1-2 of them, while the
            # single region list sees all 12.
            page = (i * 340) % pages
            outcome = kernel.handle_fault(
                child, child.vpn_group(SegmentKind.HEAP, page),
                is_write=True)
            cow_cycles += outcome.cycles
        rows.append({
            "pc_bits": width,
            "indirection": per_range,
            "reverts": kernel.policy.reverts,
            "pte_pages_copied": kernel.pte_pages_copied,
            "cow_cycles": cow_cycles,
        })
    return rows


def run_share_huge_ablation(blocks=4, sharers=6):
    """PMD-table merging for 2MB pages on/off (Section IV-C).

    Scenario: a zygote touches ``blocks`` 2MB huge pages before forking
    ``sharers`` containers. With merging on, the PMD tables (and their
    huge leaves) are shared; with it off, every fork clones the huge
    leaves CoW-style into private PMD tables.
    """
    from repro.core.mask_page import MaskPageDirectory
    from repro.core.shared_pt import SharedPTManager
    from repro.core.ccid import CCIDRegistry
    from repro.core.aslr import ASLRMode, group_layout_for
    from repro.kernel.kernel import Kernel, KernelConfig
    from repro.kernel.vma import SegmentKind, VMAKind

    rows = []
    for share in (True, False):
        registry = CCIDRegistry()
        group = registry.group_for("tenant", "huge")
        kernel = Kernel(KernelConfig(thp_enabled=True),
                        policy=SharedPTManager(MaskPageDirectory(),
                                               share_huge=share))
        kernel.policy.mask_dir.allocator = kernel.allocator
        layout = group_layout_for(group, ASLRMode.SW)
        zygote = kernel.spawn(group.ccid, layout, name="zygote")
        kernel.mmap(zygote, SegmentKind.HEAP, 0, blocks * 512, VMAKind.ANON,
                    huge_ok=True, name="huge")
        for block in range(blocks):
            kernel.touch(zygote, zygote.vpn_group(SegmentKind.HEAP,
                                                  block * 512),
                         is_write=True)
        fork_cycles = 0
        for i in range(sharers):
            child, cycles = kernel.fork(zygote, name="h%d" % i)
            group.add(child)
            fork_cycles += cycles
        rows.append({
            "share_huge": share,
            "table_pages": kernel.allocator.count(FrameKind.PAGE_TABLE),
            "fork_cycles": fork_cycles,
        })
    return rows


def run_quantum_ablation(app="mongodb", cores=4, scale=0.5,
                         quanta=(5_000, 20_000, 80_000), jobs=1):
    """Scheduler quantum sensitivity: shorter quanta mean more
    cross-container TLB interleaving, which sharing turns from interference
    into prefetching."""
    if jobs > 1:
        execute([RunRequest(kind="app", app=app, config_name=name,
                            overrides=request_overrides(
                                quantum_instructions=quantum),
                            cores=cores, scale=scale)
                 for quantum in quanta
                 for name in ("Baseline", "BabelFish")], jobs=jobs)
    rows = []
    for quantum in quanta:
        base = _measure(config_by_name(
            "Baseline", quantum_instructions=quantum), app, cores, scale)
        bf = _measure(babelfish_config(quantum_instructions=quantum),
                      app, cores, scale)
        rows.append({
            "quantum_instructions": quantum,
            "mean_reduction_pct": round(pct_reduction(
                base.mean_latency, bf.mean_latency), 2),
        })
    return rows
