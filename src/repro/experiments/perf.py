"""Hot-path perf harness: L0 memo on vs off, on a hot trace.

The L0 translation memo (:mod:`repro.sim.fastpath`) accelerates the
*repeat* case — the L1-TLB-hit stream that dominates once an application
reaches steady state. The stock synthetic workloads deliberately sweep
large working sets (their point is to miss), so at benchmark scale they
spend most records on compulsory misses and understate what the fast
path buys real experiment runs. This harness therefore measures a
*steady-state hot-locality* trace over a deployed mongodb environment: a
small code/heap/dataset working set that is TLB-resident after warm-up
(the same page-level locality BabelFish itself exploits), plus a cold
tail so the slow path stays exercised.

Each tier runs the identical workload twice — ``fastpath=True`` and
``fastpath=False`` (the same trace loop and structures with the L0 memo
off) — asserts the two ``RunResult.as_dict()`` are bit-identical, and
reports the accesses/sec ratio, which thus measures the memo alone. The
trajectory file ``BENCH_hotpath.json`` (repo root) is machine-normalized:
the tracked metric is the fast/reference *ratio*; the raw accesses/sec
figures ride along for local context only and are expected to differ
across machines.

Entry point: ``python -m repro.experiments perf [--smoke]`` calls
:func:`run_harness`.
"""

import random
import time

from repro.experiments.common import (build_environment, config_by_name,
                                      deploy_app)
from repro.kernel.vma import SegmentKind
from repro.obs.perfwatch import repo_baseline_path, write_trajectory
from repro.workloads.profiles import APP_PROFILES

#: Application deployed under the hot trace (working set comfortably
#: larger than the hot sets below: 64 binary pages, 1536 private pages,
#: 6144 dataset pages).
HOT_APP = "mongodb"

#: Hot working-set sizes (pages), all warmed by ``deploy_app`` and small
#: enough that the per-container data set (heap + hot dataset slice)
#: stays resident in the 64-entry L1 DTLB even with two containers
#: co-located per core.
HOT_CODE_PAGES = 12
HOT_HEAP_PAGES = 20
HOT_MMAP_PAGES = 10
#: Cold dataset tail: 3% of records roam this, keeping walks/misses in
#: the measured stream so the comparison is not a pure-memo microbench.
COLD_MMAP_PAGES = 2000

#: Tier definitions: (cores, trace records per container, timing repeats).
TIERS = {
    "smoke": {"cores": 1, "records": 4_000, "repeats": 1},
    "medium": {"cores": 2, "records": 60_000, "repeats": 2},
}


def hot_trace(container_index, records, seed_offset=0):
    """Steady-state trace: 45% ifetch over a hot code set, 35% heap
    (30% writes), 17% hot dataset reads, 3% cold dataset tail."""
    rng = random.Random(1000 + container_index + seed_offset)
    rand = rng.random
    randrange = rng.randrange
    out = []
    append = out.append
    for _ in range(records):
        r = rand()
        gap = randrange(2, 5)
        if r < 0.45:
            append((0, SegmentKind.CODE, randrange(HOT_CODE_PAGES),
                    randrange(64), gap, None))
        elif r < 0.80:
            kind = 2 if rand() < 0.30 else 1
            append((kind, SegmentKind.HEAP, randrange(HOT_HEAP_PAGES),
                    randrange(64), gap, None))
        elif r < 0.97:
            append((1, SegmentKind.MMAP, randrange(HOT_MMAP_PAGES),
                    randrange(64), gap, None))
        else:
            append((1, SegmentKind.MMAP, randrange(COLD_MMAP_PAGES),
                    randrange(64), gap, None))
    return out


def run_hot(config, cores, records, monitor=None):
    """Deploy, warm (quarter-length trace + reset), then time the
    measured trace. Returns ``(as_dict, total_accesses, seconds)``.

    ``monitor`` (a :class:`repro.obs.live.ProgressMonitor`) is attached
    to the simulator for the measured run only — the run loop advances
    it once per quantum with the instructions consumed.
    """
    env = build_environment(config, cores=cores)
    deployment = deploy_app(env, APP_PROFILES[HOT_APP])
    sim = env.sim
    warm = max(1, records // 4)
    for container in deployment.containers:
        sim.attach(container.proc,
                   hot_trace(container.index, warm, seed_offset=500_000),
                   container.core)
    sim.run()
    sim.reset_measurement()
    env.kernel.reset_fault_counters()
    env.kernel.clear_accessed_bits()
    sim.progress = monitor

    # Traces are materialized and attached before the clock starts so
    # record generation is not part of the measurement.
    traces = [(c, hot_trace(c.index, records)) for c in deployment.containers]
    for container, trace in traces:
        sim.attach(container.proc, trace, container.core)
    started = time.perf_counter()
    result = sim.run()
    seconds = time.perf_counter() - started
    return result.as_dict(), records * len(deployment.containers), seconds


def measure_tier(tier, config_name="BabelFish", repeats=None, monitor=None):
    """One tier, both ways; raises if the results are not bit-identical."""
    spec = TIERS[tier]
    repeats = repeats or spec["repeats"]
    cores, records = spec["cores"], spec["records"]
    fast_config = config_by_name(config_name)
    reference_config = config_by_name(config_name, fastpath=False)

    fast_seconds = []
    reference_seconds = []
    accesses = None
    for _ in range(repeats):
        fast_dict, accesses, seconds = run_hot(fast_config, cores, records,
                                               monitor=monitor)
        fast_seconds.append(seconds)
        reference_dict, _, seconds = run_hot(reference_config, cores,
                                             records, monitor=monitor)
        reference_seconds.append(seconds)
        if fast_dict != reference_dict:
            raise AssertionError(
                "fast path diverged from reference on tier %r (%s)"
                % (tier, config_name))
    fast_best = min(fast_seconds)
    reference_best = min(reference_seconds)
    return {
        "config": config_name,
        "cores": cores,
        "records_per_container": records,
        "accesses": accesses,
        "identical": True,
        "speedup": round(reference_best / fast_best, 3),
        "fast_accesses_per_sec": round(accesses / fast_best),
        "reference_accesses_per_sec": round(accesses / reference_best),
    }


def run_harness(smoke=False, out=None, repeats=None, progress=print,
                live=False):
    """Run the tier set (smoke: smoke only; full: all tiers), merge
    the new entries into the trajectory JSON, and return the payload.

    ``live=True`` attaches a per-tier
    :class:`~repro.obs.live.ProgressMonitor` to every timed run, so
    long tiers show throughput lines on stderr while they measure
    (the monitor rides the simulator's per-quantum hook; it is part of
    the timed region, which is exactly the overhead the obs benchmark
    bounds).

    The file (``out``, default ``BENCH_hotpath.json`` at the repo root)
    is written by :func:`repro.obs.perfwatch.write_trajectory`, which
    keeps the tiers this invocation did not run.
    """
    tiers = ["smoke"] if smoke else ["smoke", "medium"]
    path = out or repo_baseline_path("BENCH_hotpath.json")
    payload = {"bench": "hotpath", "app": HOT_APP, "tiers": {}}
    for tier in tiers:
        progress("hotpath %s: cores=%d records=%d ..."
                 % (tier, TIERS[tier]["cores"], TIERS[tier]["records"]))
        monitor = None
        if live:
            from repro.obs.live import ProgressMonitor
            monitor = ProgressMonitor(unit="instructions",
                                      label="perf:%s" % tier, interval=2.0)
        entry = measure_tier(tier, repeats=repeats, monitor=monitor)
        payload["tiers"][tier] = entry
        progress("hotpath %s: %.2fx (%d vs %d accesses/sec, identical=%s)"
                 % (tier, entry["speedup"], entry["fast_accesses_per_sec"],
                    entry["reference_accesses_per_sec"], entry["identical"]))
    payload = write_trajectory(path, payload)
    progress("wrote %s" % path)
    return payload
