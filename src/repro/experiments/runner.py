"""Parallel experiment runner: fan independent runs out across workers.

The reproduction's figures and tables are computed from ~a dozen
independent ``run_app``/``run_functions`` invocations.  Each run builds
its own kernel/simulator and draws all randomness from seeds derived
from the request itself (container index, profile, seed offsets), so
runs are pure functions of their :class:`RunRequest` — executing them in
a ``ProcessPoolExecutor`` is bit-identical to executing them
sequentially, in any order.

``execute(requests, jobs=N)`` resolves each request against the
in-memory memo and the persistent disk cache first, ships only the
misses to workers, seeds both caches with the returned summaries and
returns the runs in request order.  Every experiment harness declares
its run set once as a request list and reads its rows from that one
call (at ``jobs=1`` it is a plain in-process loop).  ``parallel_map``
is the same machinery for experiment helpers that are not
``run_app``-shaped but still pure and picklable (Figure 9 rows,
mixed-colocation scenarios).

Worker processes install the parent's disk cache (same directory, same
code fingerprint) before running, so a parallel sweep persists its
results exactly like a sequential one.  What a run's cache key is and
what its summary holds is :mod:`repro.experiments.common`'s business;
this module only maps a :class:`RunRequest` to that key data
(:func:`request_key_data`).  Live progress under ``--jobs N`` is counted
here in the parent, one step per completed future.
"""

import concurrent.futures
import dataclasses
import time

from repro.experiments import common, runcache
from repro.experiments.runcache import DiskRunCache


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """One cacheable unit of simulation work.

    ``kind`` is ``"app"`` (serving/compute, needs ``app``) or
    ``"functions"`` (the FaaS experiment, uses ``dense``).  ``overrides``
    are ``SimConfig`` field overrides applied on top of the named config
    builder, as a sorted tuple of pairs so requests stay hashable.
    """

    kind: str
    app: str = None
    config_name: str = "Baseline"
    overrides: tuple = ()
    cores: int = 8
    scale: float = 1.0
    containers_per_core: int = None
    dense: bool = True

    @property
    def workload(self):
        """The app name, or ``functions-dense``/``functions-sparse``."""
        if self.kind == "functions":
            return "functions-dense" if self.dense else "functions-sparse"
        return self.app

    def config(self):
        return common.config_by_name(self.config_name,
                                     **dict(self.overrides))

    def label(self):
        parts = ["functions" if self.kind == "functions" else self.app,
                 self.config_name]
        if self.overrides:
            parts.append(",".join("%s=%s" % (k, v)
                                  for k, v in self.overrides))
        if self.kind == "functions":
            parts.append("dense" if self.dense else "sparse")
        parts.append("cores=%d" % self.cores)
        parts.append("scale=%g" % self.scale)
        if self.containers_per_core is not None:
            parts.append("cpc=%d" % self.containers_per_core)
        return " ".join(parts)


def request_overrides(**overrides):
    """Overrides dict -> canonical tuple for :class:`RunRequest`."""
    return tuple(sorted(overrides.items()))


# -- run grids ----------------------------------------------------------------------


#: The FaaS experiment's two workloads, as :attr:`RunRequest.workload`
#: names them.
FUNCTION_WORKLOADS = ("functions-dense", "functions-sparse")


def grid_requests(workloads, config_names, cores, scale,
                  containers_per_core=None):
    """One request per workload x config, workload-major.

    ``workloads`` are app names or entries of :data:`FUNCTION_WORKLOADS`.
    """
    requests = []
    for workload in workloads:
        for name in config_names:
            if workload in FUNCTION_WORKLOADS:
                requests.append(RunRequest(
                    kind="functions", config_name=name,
                    dense=workload == "functions-dense", cores=cores,
                    scale=scale))
            else:
                requests.append(RunRequest(
                    kind="app", app=workload, config_name=name, cores=cores,
                    scale=scale, containers_per_core=containers_per_core))
    return requests


def run_grid(requests, jobs=1):
    """Execute ``requests``; returns ``{(workload, config_name): run}``."""
    return {(request.workload, request.config_name): run
            for request, run in zip(requests, execute(requests, jobs=jobs))}


# -- execution ----------------------------------------------------------------------


def request_key_data(request, config=None):
    """The disk-cache key data for ``request`` (what
    :class:`~repro.experiments.runcache.DiskRunCache` hashes).

    The serving daemon builds this to answer repeat requests straight
    from the store without touching the worker pool.
    """
    config = request.config() if config is None else config
    if request.kind == "functions":
        return runcache.functions_key_data(config, request.dense,
                                           request.cores, request.scale)
    return runcache.app_key_data(request.app, config, request.cores,
                                 request.scale, request.containers_per_core)


def run_request(request, monitor=None, use_cache=True):
    """Execute one request in this process (through both cache layers).

    ``monitor`` (a :class:`repro.obs.live.ProgressMonitor`) rides the
    simulator's per-quantum hook for the measured phases — the serving
    daemon's pool workers stream its snapshots back to clients mid-run.
    ``use_cache=False`` forces a fresh simulation (the loadgen's warm-
    class requests, which must exercise the simulator, not the caches).
    """
    if request.kind == "functions":
        return common.run_functions(request.config(), dense=request.dense,
                                    cores=request.cores, scale=request.scale,
                                    monitor=monitor, use_cache=use_cache)
    return common.run_app(request.app, request.config(), cores=request.cores,
                          scale=request.scale,
                          containers_per_core=request.containers_per_core,
                          monitor=monitor, use_cache=use_cache)


def request_summary(request, run):
    """The picklable summary artifacts of a finished request (the shape
    pool workers ship to the parent and the daemon serves to clients)."""
    return common.summarize_run(request_key_data(request), run)


def _init_worker(cache_root, fingerprint):
    """Pool initializer: give the worker the parent's disk cache (workers
    must not inherit in-memory state assumptions; with the ``spawn``
    start method they inherit nothing at all)."""
    if cache_root is not None:
        common.set_disk_cache(DiskRunCache(cache_root,
                                           fingerprint=fingerprint))


def _worker_execute(request):
    """Run a request in a worker and return its picklable summary."""
    return request_summary(request, run_request(request))


def _pool(jobs):
    cache = common.disk_cache()
    root = str(cache.root) if cache is not None else None
    fingerprint = cache.fingerprint if cache is not None else None
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker,
        initargs=(root, fingerprint))


def execute(requests, jobs=1, progress=None, monitor=None):
    """Resolve ``requests`` through the caches, simulating each distinct
    miss once with ``jobs`` workers.

    Returns the list of runs aligned with ``requests`` (duplicates get
    the same run object).  Every run is in the summary shape of
    :func:`repro.experiments.common.remember_run` (``env`` is None), so
    the returned list holds no live environment.  Every summary is left
    seeded in the in-memory memo (and, when a disk cache is installed,
    persisted), so a later harness that declares the same runs finds
    them cached.

    ``progress`` (a line callback) gets one line per cache hit, one per
    simulated request with its wall time, and a last line with the
    simulated and cached counts.

    ``monitor`` (a :class:`repro.obs.live.ProgressMonitor`) counts
    cache hits under ``cached`` and advances by one per simulated
    request — as each finishes in this process, or as each parallel
    future completes.
    """
    unique = list(dict.fromkeys(requests))
    keys = {}
    runs = {}
    pending = []
    for request in unique:
        keys[request] = request_key_data(request)
        run = common.cached_run(keys[request])
        if run is not None:
            runs[request] = run
            if monitor is not None:
                monitor.count("cached")
            if progress:
                progress("[cached] %s" % request.label())
        else:
            pending.append(request)

    total = len(pending)
    if total and monitor is not None and monitor.total is None:
        monitor.total = total
    if total and (jobs <= 1 or total == 1):
        for index, request in enumerate(pending):
            start = time.perf_counter()
            runs[request] = run_request(request)
            if monitor is not None:
                monitor.advance(1)
            if progress:
                progress("[%d/%d] %s  %.1fs"
                         % (index + 1, total, request.label(),
                            time.perf_counter() - start))
    elif total:
        with _pool(jobs) as pool:
            submitted = time.perf_counter()
            futures = {pool.submit(_worker_execute, request): request
                       for request in pending}
            completed = concurrent.futures.as_completed(futures)
            for done, future in enumerate(completed, 1):
                request = futures[future]
                runs[request] = common.remember_run(keys[request],
                                                    future.result())
                if monitor is not None:
                    monitor.advance(1)
                if progress:
                    # Submit-to-completion wall time (the pool submits
                    # everything up front, so queueing is included).
                    progress("[%d/%d] %s  %.1fs"
                             % (done, total, request.label(),
                                time.perf_counter() - submitted))
    if monitor is not None:
        monitor.finish()
    if progress:
        progress("runs: %d simulated, %d cached"
                 % (total, len(unique) - total))
    return [runs[request] for request in requests]


def parallel_map(fn, items, jobs=1):
    """Order-preserving map over pure, picklable work items.

    ``fn`` must be a module-level function.  With ``jobs <= 1`` this is a
    plain loop; otherwise items run across a process pool whose workers
    share the parent's disk cache.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with _pool(jobs) as pool:
        return list(pool.map(fn, items))
