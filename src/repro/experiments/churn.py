"""Container churn: correctness under FaaS-style start/stop/restart storms.

Unlike the figure experiments, which measure steady-state translation
performance, this one stresses the *lifecycle* path: a rolling pool of
containers is launched and torn down hundreds of times, some of them
killed mid-bring-up, and at the end every kernel resource is checked
against a pre-churn baseline. It exists to pin down three failure modes
the teardown subsystem (``repro.kernel.lifecycle``) closes:

1. **Stale translations on exit** — exits issue PCID/CCID-scoped TLB
   shootdowns *before* frames are decref'd, and the sanitizer
   quarantines freed frames so any surviving entry that resolves to one
   is a recorded violation, not a silent wrong translation.
2. **PCID aliasing** — the allocator recycles released PCIDs (with a
   scoped flush on reuse) instead of deriving them from the pid, which
   aliases two live processes once pids wrap the PCID space. The run
   defaults to a shrunken PCID namespace so recycling actually happens
   within 500 cycles.
3. **O-PC writer-slot leaks** — MaskPage slots freed on exit are
   refilled by later writers, so a long churn never exhausts the 32-slot
   bitmask or accumulates MaskPage frames.

The leak check is exact equality of resource snapshots (frames by kind,
MaskPage count and writer slots, live PCIDs, live processes) taken after
an identical warm launch+stop round and after the churn storm.

``summary()`` is deterministic and pid-free, so a fastpath run and a
reference run of the same seed must produce bit-identical summaries
(tests/test_fastpath.py relies on this).
"""

import dataclasses
import random

from repro.experiments.common import build_environment, config_by_name
from repro.kernel.audit import audit_kernel
from repro.kernel.frames import FrameKind
from repro.kernel.lifecycle import PCIDAllocator
from repro.sim.stats import MMUStats
from repro.workloads.profiles import FAAS_BASE_IMAGE

#: Default PCID namespace width for churn runs: capacity 2^8 - 1 = 255
#: live PCIDs, so a 500-cycle storm recycles a few hundred of them.
CHURN_PCID_BITS = 8

#: How many containers stay live at any moment (FaaS keep-warm pool).
LIVE_POOL = 3


def resource_snapshot(env):
    """Every kernel-owned resource a clean teardown must return.

    Keys are stable and values are plain ints so two snapshots can be
    compared with ``==`` and diffed key-by-key.
    """
    kernel = env.kernel
    allocator = kernel.allocator
    snap = {
        "frames_total": allocator.allocated,
        "frames_data": allocator.count(FrameKind.DATA),
        "frames_file": allocator.count(FrameKind.FILE),
        "frames_page_table": allocator.count(FrameKind.PAGE_TABLE),
        "frames_mask_page": allocator.count(FrameKind.MASK_PAGE),
        "pcids_live": kernel.pcids.live,
        "processes": len(kernel.processes),
    }
    mask_dir = getattr(kernel.policy, "mask_dir", None)
    if mask_dir is not None:
        snap["mask_pages"] = mask_dir.total_pages
        snap["mask_writer_slots"] = sum(page.writers for page in mask_dir)
    return snap


def snapshot_diff(baseline, final):
    """Leaked (or vanished) resources: key -> (baseline, final)."""
    return {key: (baseline[key], final.get(key))
            for key in baseline if final.get(key) != baseline[key]}


@dataclasses.dataclass
class ChurnResult:
    config_name: str
    cycles: int
    launches: int
    stops: int
    kills: int
    pcid_recycles: int
    baseline: dict
    final: dict
    leaks: dict
    violations: list
    audit_findings: list
    stats: object  # merged MMUStats of the whole storm
    kernel_counters: dict
    core_cycles: int

    @property
    def clean(self):
        return not self.leaks and not self.violations \
            and not self.audit_findings

    def summary(self):
        """Deterministic, pid-free digest: bit-identical across the
        fastpath and reference simulator paths for the same seed."""
        return {
            "config": self.config_name,
            "cycles": self.cycles,
            "launches": self.launches,
            "stops": self.stops,
            "kills": self.kills,
            "pcid_recycles": self.pcid_recycles,
            "baseline": dict(self.baseline),
            "final": dict(self.final),
            "leaks": {k: list(v) for k, v in self.leaks.items()},
            "kernel": dict(self.kernel_counters),
            "stats": self.stats.as_dict(),
            "core_cycles": self.core_cycles,
        }


def _kill_launch(env, rng, core):
    """Fault injection: a container killed mid-bring-up.

    The truncated trace leaves whatever TLB/cache state the partial
    bring-up built for the exit path to clean up; ``detach`` models the
    scheduler yanking the task before ``docker rm``.
    """
    engine, sim = env.engine, env.sim
    container, _fork_cycles = engine.launch(FAAS_BASE_IMAGE)
    records = engine.bringup_records(container)
    cut = rng.randrange(4, max(5, len(records) // 2))
    sim.attach(container.proc, records[:cut], core)
    sim.run()
    sim.detach(container.proc)
    return container


def run_churn(cycles=500, config_name="BabelFish", sanitize=True,
              fastpath=True, cores=2, live_pool=LIVE_POOL,
              kill_rate=0.1, pcid_bits=CHURN_PCID_BITS, seed=1234,
              progress=None):
    """Run the start/stop/restart storm and check it leaked nothing.

    Each cycle launches one container (with probability ``kill_rate`` it
    is killed mid-bring-up instead of completing) and, once the
    keep-warm pool is full, stops a random live one. The baseline
    snapshot is taken after one warm launch+stop round so image files,
    the zygote, and allocator warm state are excluded from the leak
    accounting.

    ``progress`` (a :class:`repro.obs.live.ProgressMonitor`) is advanced
    once per storm cycle with launch/kill/stop counters, so long storms
    show live cycles/sec lines without touching the simulated state.
    """
    config = config_by_name(config_name, sanitize=sanitize,
                            fastpath=fastpath)
    env = build_environment(config, cores=cores)
    if pcid_bits is not None:
        # Shrink the namespace before any process exists so the whole
        # run — zygote included — lives under it and recycling happens
        # within a few hundred cycles.
        if env.kernel.processes:
            raise RuntimeError("PCID namespace must be reseated before "
                               "any process is spawned")
        env.kernel.pcids = PCIDAllocator(pcid_bits)
    engine, sim, kernel = env.engine, env.sim, env.kernel
    rng = random.Random(seed)

    # Warm round: create the zygote and one pool's worth of containers,
    # tear them down, and snapshot. Everything the round leaves behind
    # (image page-cache frames, the zygote's tables, one MaskPage round)
    # is steady state, not a leak.
    warm = [engine.launch_timed(FAAS_BASE_IMAGE, sim,
                                core_id=i % cores)[0]
            for i in range(live_pool)]
    for container in warm:
        engine.stop(container)
    baseline = resource_snapshot(env)

    if progress is not None and progress.total is None:
        progress.total = cycles
    launches = stops = kills = 0
    pool = []
    for cycle in range(cycles):
        core = cycle % cores
        if rng.random() < kill_rate:
            pool.append(_kill_launch(env, rng, core))
            kills += 1
            if progress is not None:
                progress.count("kills")
        else:
            container, _cycles = engine.launch_timed(
                FAAS_BASE_IMAGE, sim, core_id=core)
            pool.append(container)
        launches += 1
        if len(pool) > live_pool:
            victim = pool.pop(rng.randrange(len(pool)))
            engine.stop(victim)
            stops += 1
            if progress is not None:
                progress.count("stops")
        if progress is not None:
            progress.count("launches")
            progress.advance(1)

    # Drain the pool: the storm must end exactly where it began.
    while pool:
        engine.stop(pool.pop())
        stops += 1
        if progress is not None:
            progress.count("stops")
    if progress is not None:
        progress.finish()

    final = resource_snapshot(env)
    leaks = snapshot_diff(baseline, final)
    violations = (list(sim.sanitizer.violations)
                  if sim.sanitizer is not None else [])
    findings = audit_kernel(kernel, raise_on_failure=False)
    return ChurnResult(
        config_name=config_name,
        cycles=cycles,
        launches=launches,
        stops=stops,
        kills=kills,
        pcid_recycles=kernel.pcids.recycles,
        baseline=baseline,
        final=final,
        leaks=leaks,
        violations=violations,
        audit_findings=[str(f) for f in findings],
        stats=MMUStats.merged([m.stats for m in sim.mmus]),
        kernel_counters={
            "forks": kernel.forks,
            "pte_pages_copied": kernel.pte_pages_copied,
            "shootdowns": kernel.shootdowns,
        },
        core_cycles=sum(sim.core_cycles),
    )


def format_churn(result):
    lines = [
        "churn: %s, %d cycles (%d launches, %d stops, %d mid-bringup kills)"
        % (result.config_name, result.cycles, result.launches,
           result.stops, result.kills),
        "  pcid recycles: %d   kernel shootdowns: %d   forks: %d"
        % (result.pcid_recycles, result.kernel_counters["shootdowns"],
           result.kernel_counters["forks"]),
        "  sanitizer violations: %d   audit findings: %d"
        % (len(result.violations), len(result.audit_findings)),
    ]
    if result.leaks:
        lines.append("  LEAKS (baseline -> final):")
        for key, (before, after) in sorted(result.leaks.items()):
            lines.append("    %-18s %6s -> %s" % (key, before, after))
    else:
        lines.append("  resources returned to baseline: %s"
                     % ", ".join("%s=%d" % (k, v)
                                 for k, v in sorted(result.baseline.items())))
    for violation in result.violations[:5]:
        lines.append("  violation: %r" % (violation,))
    for finding in result.audit_findings[:5]:
        lines.append("  audit: %s" % finding)
    lines.append("  verdict: %s" % ("CLEAN" if result.clean else "DIRTY"))
    return "\n".join(lines)
