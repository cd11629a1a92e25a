"""Shared experiment machinery.

Builds the Table I machine, a kernel with the policy matching the
configuration, the container engine, and the simulator; deploys an
application per the paper's co-location rules (2 containers per core for
serving/compute, 3 function containers per core); and runs the two-phase
"warm up, then measure" methodology of Section VI.

Runs are memoized because several figures/tables are computed from the
same runs (Figures 9-11 and Table II all share the serving/compute
runs).  The memo key is the key data the persistent layer
(:mod:`repro.experiments.runcache`, installed with
:func:`set_disk_cache`) hashes: the run kind and parameters plus *every*
``SimConfig`` field — not ``config.name`` — so configs built via
``config_by_name(name, **overrides)`` (the ablation and larger-TLB
sweeps) never collide with the stock config of the same name.  The disk
layer memoizes run *summaries* (:func:`summarize_run`) across processes
and invocations, keyed additionally by a fingerprint of the simulator
sources.  Every run carries its kernel accounting as a plain dict
(``kernel_snapshot``), so a run rehydrated from a summary answers the
same questions as a live one.  The memo holds only such summary-shaped
runs (``env`` is None): a cached run's environment is dropped as soon as
it is summarized, and reference counting frees it there.
"""

import dataclasses

from repro.containers.engine import ContainerEngine
from repro.containers.faas import FaaSPlatform
from repro.core.ccid import CCIDRegistry
from repro.core.mask_page import MaskPageDirectory
from repro.core.shared_pt import SharedPTManager
from repro.hw.params import baseline_machine
from repro.kernel.frames import FrameAllocator
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.vma import SegmentKind, VMAKind
from repro.containers.image import align_pages
from repro.workloads.compute import compute_trace
from repro.workloads.dataserving import serving_trace
from repro.workloads.functions import function_input_pages, function_trace
from repro.workloads.profiles import (
    APP_PROFILES,
    FAAS_BASE_IMAGE,
    FUNCTION_NAMES,
    FUNCTION_PROFILES,
)
from repro.sim.config import (
    babelfish_config,
    babelfish_pt_only_config,
    babelfish_tlb_only_config,
    baseline_config,
    bigtlb_config,
    coalesced_config,
    victima_config,
)
from repro.sim.simulator import Simulator
from repro.experiments import runcache

#: Fraction of the measured request count used for architectural warm-up
#: (the paper warms 500M instructions before measuring 4B).
WARM_SLICE = 0.25


@dataclasses.dataclass
class Environment:
    config: object
    machine: object
    kernel: object
    registry: object
    engine: object
    sim: object


@dataclasses.dataclass
class Deployment:
    profile: object
    group: object
    containers: list
    dataset_file: object


@dataclasses.dataclass
class AppRun:
    app: str
    config: object
    env: Environment
    deployment: Deployment
    result: object  # RunResult of the measured phase
    #: kernel accounting at the end of the run (runcache.kernel_snapshot)
    kernel_snapshot: dict


def experiment_machine(cores=8):
    """The machine every experiment runs on: exactly Table I."""
    return baseline_machine(cores=cores)


def build_environment(config, cores=8):
    machine = experiment_machine(cores=cores)
    allocator = FrameAllocator()
    policy = None
    if config.shares_page_tables:
        policy = SharedPTManager(
            mask_dir=MaskPageDirectory(
                allocator, max_writers=config.pc_bitmask_bits,
                per_range_lists=config.pc_overflow_indirection),
            share_huge=config.share_huge)
    kernel = Kernel(KernelConfig(thp_enabled=config.thp_enabled,
                                 costs=config.costs), policy=policy,
                    allocator=allocator)
    registry = CCIDRegistry()
    engine = ContainerEngine(kernel, registry, config.aslr_mode)
    sim = Simulator(machine, config, kernel)
    return Environment(config, machine, kernel, registry, engine, sim)


# -- serving / compute deployments ---------------------------------------------

def deploy_app(env, profile, containers_per_core=None):
    """Deploy an application per the paper's co-location: N containers per
    core, all in one CCID group, forked from the image zygote."""
    kernel = env.kernel
    engine = env.engine
    per_core = containers_per_core or profile.containers_per_core

    state = engine.zygote_for(profile.image)
    dataset = kernel.create_file("%s/dataset" % profile.name,
                                 profile.dataset_pages)
    kernel.page_cache.populate(dataset)
    kernel.mmap(state.proc, SegmentKind.MMAP, 0, profile.dataset_pages,
                VMAKind.FILE_SHARED, file=dataset,
                writable=profile.dataset_writes, name="dataset")

    containers = []
    for core in range(env.machine.cores):
        for _slot in range(per_core):
            container, _cycles = engine.launch(profile.image)
            container.core = core
            self_thp_off = align_pages(profile.image.heap_pages)
            if profile.thp_blocks:
                kernel.mmap(container.proc, SegmentKind.HEAP, self_thp_off,
                            profile.thp_blocks * 512, VMAKind.ANON,
                            huge_ok=True, name="thp-buffer")
                container.thp_offset = self_thp_off
            containers.append(container)
    deployment = Deployment(profile, state.group, containers, dataset)
    _os_warmup(env, deployment)
    return deployment


def _os_warmup(env, deployment):
    """Phase 1 (Section VI): bring the OS state to steady state.

    The paper runs each application for minutes before measuring; in
    steady state essentially the whole working set is resident and its
    pte_ts populated (Figure 9's Active bars are large fractions of the
    Total bars). We therefore touch each container's full private working
    set and its share of the data set, plus the code path, without
    architectural timing. ``warm_fraction`` limits how much of the data
    set each container actually visits (GraphChi containers, e.g., only
    traverse part of the graph).

    The sequential loops go through ``Kernel.touch_range``, which leaves
    the same kernel state as touching their pages one by one; the THP
    block touches and the warm-trace replay stay per-page.
    """
    kernel = env.kernel
    touch = kernel.touch
    touch_range = kernel.touch_range
    profile = deployment.profile
    for container in deployment.containers:
        proc = container.proc
        layout = proc.layout_group
        heap = layout.base(SegmentKind.HEAP)
        touch_range(proc, heap, profile.private_pages, is_write=True)
        if profile.thp_blocks:
            for block in range(profile.thp_blocks):
                touch(proc, heap + container.thp_offset + block * 512,
                      is_write=True)
        # Steady-state data set coverage: every container has visited the
        # hot head plus its own slice of the tail.
        touch_range(proc, layout.base(SegmentKind.MMAP),
                    int(profile.dataset_pages * profile.warm_coverage))
        # Custom images may have no binary or library pages at all (e.g.
        # a pure-heap microbenchmark image); there is then no code/lib
        # working set to warm, so skip rather than divide by zero. The
        # hot path wraps around the segment: one range per lap.
        for segment, hot, pages in (
                (SegmentKind.CODE, profile.code_hot,
                 profile.image.binary_pages),
                (SegmentKind.LIBS, profile.lib_hot, profile.image.lib_pages)):
            if pages:
                base = layout.base(segment)
                for lap in range(0, hot, pages):
                    touch_range(proc, base, min(pages, hot - lap))
        warm_trace = _make_trace(profile, container.index,
                                 requests=max(
                                     1, int(profile.requests * profile.warm_fraction)),
                                 tag=False, seed_offset=900_000)
        vpn = layout.vpn
        for kind, segment, page, _line, _gap, _rid in warm_trace:
            touch(proc, vpn(segment, page), is_write=kind == 2)


def _make_trace(profile, container_index, requests, tag, seed_offset=0,
                request_base=0):
    if profile.kind == "serving":
        return serving_trace(profile, container_index, requests=requests,
                             request_base=request_base, tag_requests=tag,
                             seed_offset=seed_offset)
    return compute_trace(profile, container_index, iterations=requests,
                         seed_offset=seed_offset)


def measure_app(env, deployment, scale=1.0):
    """Phase 2: architectural warm-up slice, reset, measured slice."""
    sim = env.sim
    profile = deployment.profile
    requests = max(2, int(profile.requests * scale))
    warm = max(1, int(requests * WARM_SLICE))

    for container in deployment.containers:
        sim.attach(container.proc,
                   _make_trace(profile, container.index, warm, tag=False,
                               seed_offset=500_000),
                   container.core)
    sim.run()
    sim.reset_measurement()
    env.kernel.reset_fault_counters()
    env.kernel.clear_accessed_bits()

    for container in deployment.containers:
        sim.attach(container.proc,
                   _make_trace(profile, container.index, requests, tag=True,
                               request_base=container.index * 1_000_000),
                   container.core)
    return sim.run()


_RUN_CACHE = {}

#: Optional persistent layer (a :class:`repro.experiments.runcache
#: .DiskRunCache`); None keeps memoization process-local.
_DISK_CACHE = None

#: Count of actual simulations executed in this process (cache hits do
#: not increment it) — lets tests assert that a cache hit skipped the
#: simulator entirely.
_SIMULATION_RUNS = 0


def simulation_run_count():
    return _SIMULATION_RUNS


def clear_run_cache():
    """Clear the in-memory memo (the disk layer, if any, is untouched)."""
    _RUN_CACHE.clear()


def set_disk_cache(cache):
    """Install (or with None, remove) the persistent run cache; returns
    the previously installed one."""
    global _DISK_CACHE
    previous = _DISK_CACHE
    _DISK_CACHE = cache
    return previous


def disk_cache():
    return _DISK_CACHE


def config_by_name(name, **overrides):
    builders = {
        "Baseline": baseline_config,
        "BabelFish": babelfish_config,
        "BabelFish-PT": babelfish_pt_only_config,
        "BabelFish-TLB": babelfish_tlb_only_config,
        "BigTLB": bigtlb_config,
        "Victima": victima_config,
        "Coalesced": coalesced_config,
    }
    return builders[name](**overrides)


def summarize_run(key_data, run):
    """The JSON-ready summary of a finished run (what the disk cache
    stores and pool workers ship back to the parent): ``key_data`` plus
    the result and kernel accounting, and for functions runs the
    bring-up and per-function execution means."""
    summary = dict(key_data)
    if key_data["kind"] == "functions":
        summary["bringup_cycles"] = run.bringup_cycles
        summary["exec_cycles"] = dict(run.exec_cycles)
    summary["result"] = run.result.as_dict()
    summary["kernel"] = run.kernel_snapshot
    return summary


def remember_run(key_data, summary):
    """Seed the in-memory memo with the run a summary describes (one
    just simulated here, loaded from disk or shipped back by a pool
    worker) and return it.

    The run carries no live environment (``env``, ``deployment`` and
    ``containers`` are None); use ``use_cache=False`` for page-table
    introspection.
    """
    config = runcache.config_from_fields(summary["config"])
    result = runcache.result_from_dict(summary["result"])
    if summary["kind"] == "functions":
        run = FunctionsRun(config, summary["dense"], None, None,
                           summary["bringup_cycles"],
                           dict(summary["exec_cycles"]), result,
                           summary["kernel"])
    else:
        run = AppRun(summary["app"], config, None, None, result,
                     summary["kernel"])
    _RUN_CACHE[runcache.canonical_json(key_data)] = run
    return run


def cached_run(key_data):
    """The memoized or disk-cached run for ``key_data``, or None."""
    run = _RUN_CACHE.get(runcache.canonical_json(key_data))
    if run is not None or _DISK_CACHE is None:
        return run
    payload = _DISK_CACHE.load(key_data)
    if payload is None:
        return None
    return remember_run(key_data, payload)


def _run_cached(key_data, simulate, use_cache):
    """Memory, then disk, then ``simulate()``.

    With ``use_cache`` a simulated run is summarized once, stored on
    disk when it is coherent, and memoized and returned in the summary
    shape of :func:`remember_run`, so nothing keeps its live
    environment.
    Its sanitizer violations ride along on the memoized result (the
    summary keeps only their count).  Without ``use_cache`` the live run
    is returned.
    """
    global _SIMULATION_RUNS
    if use_cache:
        run = cached_run(key_data)
        if run is not None:
            return run
    _SIMULATION_RUNS += 1
    run = simulate()
    if not use_cache:
        return run
    summary = summarize_run(key_data, run)
    violations = run.result.coherence_violations
    if _DISK_CACHE is not None and not violations:
        _DISK_CACHE.store(key_data, summary)
    run = remember_run(key_data, summary)
    run.result.coherence_violations = violations
    return run


def run_app(app_name, config, cores=8, scale=1.0, containers_per_core=None,
            use_cache=True, monitor=None):
    """Deploy + warm + measure one application under one configuration.

    With ``use_cache`` (the default) the run comes from, or goes into,
    the memo and the disk cache in summary form: ``env`` and
    ``deployment`` are None.  ``use_cache=False`` simulates afresh and
    returns the live run.

    ``monitor`` (a :class:`repro.obs.live.ProgressMonitor`) is attached
    to the simulator's per-quantum progress hook for the duration of the
    run; cache hits never advance it (nothing simulates).
    """
    key_data = runcache.app_key_data(app_name, config, cores, scale,
                                     containers_per_core)
    return _run_cached(
        key_data,
        lambda: _simulate_app(app_name, config, cores, scale,
                              containers_per_core, monitor),
        use_cache)


def _simulate_app(app_name, config, cores, scale, containers_per_core,
                  monitor):
    env = build_environment(config, cores=cores)
    if monitor is not None:
        env.sim.progress = monitor
    deployment = deploy_app(env, APP_PROFILES[app_name], containers_per_core)
    result = measure_app(env, deployment, scale=scale)
    return AppRun(app_name, config, env, deployment, result,
                  runcache.kernel_snapshot(env.kernel))


# -- functions (FaaS) -------------------------------------------------------------


@dataclasses.dataclass
class FunctionsRun:
    config: object
    dense: bool
    env: Environment
    #: wave-2 (measured) containers per function name
    containers: dict
    #: mean bring-up cycles of the measured wave
    bringup_cycles: float
    #: mean execution cycles per function name
    exec_cycles: dict
    result: object
    #: kernel accounting at the end of the run (runcache.kernel_snapshot)
    kernel_snapshot: dict


def run_functions(config, dense=True, cores=8, scale=1.0, use_cache=True,
                  monitor=None):
    """The FaaS experiment: 3 function containers per core (Section VI).

    Two waves per core: the leading wave takes the cold-start costs the
    paper excludes; the second wave is measured (bring-up and execution).
    As in :func:`run_app`, a cached run (``use_cache=True``) has ``env``
    and ``containers`` set to None; ``use_cache=False`` returns the live
    run.  ``monitor`` rides the simulator's per-quantum hook as in
    :func:`run_app`.
    """
    key_data = runcache.functions_key_data(config, dense, cores, scale)
    return _run_cached(
        key_data,
        lambda: _simulate_functions(config, dense, cores, scale, monitor),
        use_cache)


def _simulate_functions(config, dense, cores, scale, monitor):
    env = build_environment(config, cores=cores)
    if monitor is not None:
        env.sim.progress = monitor
    platform = FaaSPlatform(env.engine, FAAS_BASE_IMAGE)
    sim = env.sim
    passes = max(1, int(FUNCTION_PROFILES["parse"].passes * scale))

    def start(name, core):
        profile = FUNCTION_PROFILES[name]
        pages = function_input_pages(profile, dense)
        fn = platform.start_function(
            name, sim, core_id=core, input_pages=pages,
            scratch_pages=profile.scratch_pages,
            input_name="payload-%s" % ("dense" if dense else "sparse"),
            code_pages=profile.code_pages)
        return fn

    def exec_trace(fn, seed_offset):
        profile = dataclasses.replace(FUNCTION_PROFILES[fn.function],
                                      passes=passes)
        return function_trace(profile, dense, fn.container.index,
                              fn.container.code_offset,
                              fn.container.scratch_offset,
                              seed_offset=seed_offset)

    # Wave 1: leading functions (cold start; excluded from measurement).
    leaders = []
    for core in range(env.machine.cores):
        for name in FUNCTION_NAMES:
            leaders.append((start(name, core), core))
    for fn, core in leaders:
        sim.attach(fn.container.proc, exec_trace(fn, seed_offset=1), core)
    sim.run()

    sim.reset_measurement()
    env.kernel.reset_fault_counters()
    env.kernel.clear_accessed_bits()

    # Wave 2: measured bring-up + execution.
    measured = []
    for core in range(env.machine.cores):
        for name in FUNCTION_NAMES:
            measured.append((start(name, core), core))
    for fn, core in measured:
        sim.attach(fn.container.proc, exec_trace(fn, seed_offset=2), core)
    result = sim.run()

    containers = {}
    exec_cycles = {}
    bringups = []
    for fn, _core in measured:
        containers.setdefault(fn.function, []).append(fn.container)
        pid = fn.container.pid
        own = result.process_cycles.get(pid, 0)
        own -= getattr(fn.container, "bringup_trace_cycles", 0)
        exec_cycles.setdefault(fn.function, []).append(own)
        bringups.append(fn.bringup_cycles)
    exec_mean = {name: sum(vals) / len(vals)
                 for name, vals in exec_cycles.items()}
    return FunctionsRun(config, dense, env, containers,
                        sum(bringups) / len(bringups), exec_mean, result,
                        runcache.kernel_snapshot(env.kernel))


# -- formatting helpers -----------------------------------------------------------


def pct_reduction(base, other):
    """Percent reduction of ``other`` relative to ``base``."""
    return 100.0 * (base - other) / base if base else 0.0


def format_table(rows, columns, title=""):
    """Render a list of dict rows as a fixed-width text table."""
    widths = {col: max(len(col), *(len(_fmt(r.get(col))) for r in rows))
              for col in columns}
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(
            _fmt(row.get(col)).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def paper_vs_measured(pairs):
    """Render [(label, paper, measured), ...] rows."""
    width = max(len(label) for label, _p, _m in pairs)
    lines = ["%s  %10s  %10s" % ("metric".ljust(width), "paper", "measured"),
             "-" * (width + 26)]
    for label, paper, measured in pairs:
        lines.append("%s  %10s  %10s" % (
            label.ljust(width), _fmt(paper), _fmt(measured)))
    return "\n".join(lines)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.2f" % value
    return str(value)
