"""Shared experiment machinery.

Builds the Table I machine, a kernel with the policy matching the
configuration, the container engine, and the simulator; deploys an
application per the paper's co-location rules (2 containers per core for
serving/compute, 3 function containers per core); and runs the two-phase
"warm up, then measure" methodology of Section VI.

Runs are memoized on (app, full config field tuple, cores, scale)
because several figures/tables are computed from the same runs
(Figures 9-11 and Table II all share the serving/compute runs).  The key
canonicalizes *every* ``SimConfig`` field — not ``config.name`` — so
configs built via ``config_by_name(name, **overrides)`` (the ablation
and larger-TLB sweeps) never collide with the stock config of the same
name.  An optional persistent layer (:mod:`repro.experiments.runcache`,
installed with :func:`set_disk_cache`) memoizes run *summaries* across
processes and invocations, keyed additionally by a fingerprint of the
simulator sources.
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


def _count_simulation():
    global _SIMULATION_RUNS
    _SIMULATION_RUNS += 1


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


def config_cache_key(config):
    """The full field tuple of a config — the memoization key component.

    ``dataclasses.astuple`` recurses into ``costs``, so *any* field
    difference (an ablation override, a costs tweak) yields a distinct
    key even when ``config.name`` matches the stock config's.
    """
    return dataclasses.astuple(config)


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


def summarize_app_run(run, cores, scale, containers_per_core):
    """The JSON-ready summary artifacts of an :class:`AppRun` (what the
    disk cache stores and pool workers ship back to the parent)."""
    return {
        "kind": "app",
        "app": run.app,
        "config": runcache.config_field_dict(run.config),
        "cores": cores,
        "scale": scale,
        "containers_per_core": containers_per_core,
        "result": runcache.result_to_dict(run.result),
        "kernel": runcache.kernel_snapshot(run.env.kernel),
    }


def rehydrate_app_run(summary):
    """An :class:`AppRun` carrying the summarized result and a
    :class:`~repro.experiments.runcache.CachedKernel` snapshot (no live
    deployment; use ``use_cache=False`` for page-table introspection)."""
    config = runcache.config_from_fields(summary["config"])
    env = Environment(config, None, runcache.CachedKernel(summary["kernel"]),
                      None, None, None)
    return AppRun(summary["app"], config, env, None,
                  runcache.result_from_dict(summary["result"]))


def remember_app_run(run, cores, scale, containers_per_core=None):
    """Seed the in-memory memo with an externally produced run (e.g. one
    rehydrated from a pool worker's summary)."""
    key = ("app", run.app, config_cache_key(run.config), cores, scale,
           containers_per_core)
    _RUN_CACHE[key] = run
    return run


def run_app(app_name, config, cores=8, scale=1.0, containers_per_core=None,
            use_cache=True, monitor=None):
    """Deploy + warm + measure one application under one configuration.

    ``monitor`` (a :class:`repro.obs.live.ProgressMonitor`) is attached
    to the simulator's per-quantum progress hook for the duration of the
    run; cache hits never advance it (nothing simulates).
    """
    key = ("app", app_name, config_cache_key(config), cores, scale,
           containers_per_core)
    if use_cache and key in _RUN_CACHE:
        return _RUN_CACHE[key]
    key_data = None
    if use_cache and _DISK_CACHE is not None:
        key_data = runcache.app_key_data(app_name, config, cores, scale,
                                         containers_per_core)
        payload = _DISK_CACHE.load(key_data)
        if payload is not None:
            run = rehydrate_app_run(payload)
            _RUN_CACHE[key] = run
            return run
    _count_simulation()
    profile = APP_PROFILES[app_name]
    env = build_environment(config, cores=cores)
    if monitor is not None:
        env.sim.progress = monitor
    deployment = deploy_app(env, profile, containers_per_core)
    result = measure_app(env, deployment, scale=scale)
    run = AppRun(app_name, config, env, deployment, result)
    if use_cache:
        _RUN_CACHE[key] = run
        if _DISK_CACHE is not None and not result.coherence_violations:
            _DISK_CACHE.store(key_data, summarize_app_run(
                run, cores, scale, containers_per_core))
    return run


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


def summarize_functions_run(run, cores, scale):
    """JSON-ready summary artifacts of a :class:`FunctionsRun`."""
    return {
        "kind": "functions",
        "config": runcache.config_field_dict(run.config),
        "dense": run.dense,
        "cores": cores,
        "scale": scale,
        "bringup_cycles": run.bringup_cycles,
        "exec_cycles": dict(run.exec_cycles),
        "result": runcache.result_to_dict(run.result),
        "kernel": runcache.kernel_snapshot(run.env.kernel),
    }


def rehydrate_functions_run(summary):
    config = runcache.config_from_fields(summary["config"])
    env = Environment(config, None, runcache.CachedKernel(summary["kernel"]),
                      None, None, None)
    return FunctionsRun(config, summary["dense"], env, None,
                        summary["bringup_cycles"],
                        dict(summary["exec_cycles"]),
                        runcache.result_from_dict(summary["result"]))


def remember_functions_run(run, cores, scale):
    key = ("functions", config_cache_key(run.config), run.dense, cores,
           scale)
    _RUN_CACHE[key] = run
    return run


def run_functions(config, dense=True, cores=8, scale=1.0, use_cache=True,
                  monitor=None):
    """The FaaS experiment: 3 function containers per core (Section VI).

    Two waves per core: the leading wave takes the cold-start costs the
    paper excludes; the second wave is measured (bring-up and execution).
    ``monitor`` rides the simulator's per-quantum hook as in
    :func:`run_app`.
    """
    key = ("functions", config_cache_key(config), dense, cores, scale)
    if use_cache and key in _RUN_CACHE:
        return _RUN_CACHE[key]
    key_data = None
    if use_cache and _DISK_CACHE is not None:
        key_data = runcache.functions_key_data(config, dense, cores, scale)
        payload = _DISK_CACHE.load(key_data)
        if payload is not None:
            run = rehydrate_functions_run(payload)
            _RUN_CACHE[key] = run
            return run
    _count_simulation()
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
    run = FunctionsRun(config, dense, env, containers,
                       sum(bringups) / len(bringups), exec_mean, result)
    if use_cache:
        _RUN_CACHE[key] = run
        if _DISK_CACHE is not None and not result.coherence_violations:
            _DISK_CACHE.store(key_data, summarize_functions_run(
                run, cores, scale))
    return run


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


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.2f" % value
    return str(value)
