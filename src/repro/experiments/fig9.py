"""Figure 9: page-table entry sharing characterization (Section VII-A).

For each application: the total pte_ts mapped by the containers, the
active pte_ts (recently referenced), and the active pte_ts once BabelFish
de-duplicates shared translations — each broken into shareable /
unshareable / THP.

The paper measured this natively with Linux Pagemap on 2 containers per
app (3 function containers); we inspect the simulated kernel's page
tables the same way: a pte_t is *shareable* when another container in the
CCID group maps the identical {VPN, PPN} pair with identical permission
bits; THP entries count as the 4KB pte_ts they replace.
"""

import collections
import dataclasses

from repro.hw.types import PageSize
from repro.experiments.common import (
    _make_trace,
    build_environment,
    config_by_name,
    deploy_app,
    disk_cache,
    run_functions,
)
from repro.experiments.runner import parallel_map
from repro.workloads.profiles import APP_PROFILES, SERVING_APPS, COMPUTE_APPS


@dataclasses.dataclass
class Fig9Row:
    app: str
    total: int
    total_shareable: int
    total_unshareable: int
    total_thp: int
    active: int
    active_shareable: int
    active_unshareable: int
    active_thp: int
    active_babelfish: int

    @property
    def shareable_fraction(self):
        return self.total_shareable / self.total if self.total else 0.0

    @property
    def active_reduction(self):
        """Reduction in active pte_ts when BabelFish de-duplicates."""
        if not self.active:
            return 0.0
        return 1.0 - self.active_babelfish / self.active

    def as_dict(self):
        d = dataclasses.asdict(self)
        d["shareable_frac"] = round(self.shareable_fraction, 3)
        d["active_reduction"] = round(self.active_reduction, 3)
        return d


def classify_processes(procs, lru):
    """Shareability analysis over a set of container processes.

    ``lru`` is the kernel's active/inactive list: a pte_t is *active* when
    its physical page is on the active list (promoted by a second touch),
    which is how Linux's LRU — and the paper's Figure 9 — defines it.
    Init-only pages (e.g. THP buffers touched once) stay inactive.
    Returns a :class:`Fig9Row`-shaped dict of counts (without the app
    name); counts are in 4KB pte_t equivalents.
    """
    # One walk per process; each present leaf's key is built once and
    # serves both the population count and the classification below.
    # The page size enters the key as its plain-int ``shift4k`` (unique
    # per size), which hashes without a Python-level Enum hash.
    population = collections.Counter()
    leaves = []
    for proc in procs:
        keyed = [((vpn, pte.ppn, pte.perm_key(), pte.page_size.shift4k), pte)
                 for vpn, _level, _table, _index, pte
                 in proc.tables.iter_leaves() if pte.present]
        population.update(key for key, _pte in keyed)
        leaves.append(keyed)

    counts = dict(total=0, total_shareable=0, total_unshareable=0,
                  total_thp=0, active=0, active_shareable=0,
                  active_unshareable=0, active_thp=0, active_babelfish=0)
    seen_active_shared = set()
    for keyed in leaves:
        for key, pte in keyed:
            pages = pte.page_size.base_pages
            is_thp = pte.page_size is not PageSize.SIZE_4K
            shareable = population[key] >= 2 and not is_thp
            counts["total"] += pages
            if is_thp:
                counts["total_thp"] += pages
            elif shareable:
                counts["total_shareable"] += pages
            else:
                counts["total_unshareable"] += pages
            if not lru.is_active(pte.ppn):
                continue
            counts["active"] += pages
            if is_thp:
                counts["active_thp"] += pages
                counts["active_babelfish"] += pages
            elif shareable:
                counts["active_shareable"] += pages
                if key not in seen_active_shared:
                    seen_active_shared.add(key)
                    counts["active_babelfish"] += pages
            else:
                counts["active_unshareable"] += pages
                counts["active_babelfish"] += pages
    return counts


def _cached_row(key_data, compute):
    """Figure 9 rows are pure (app, scale) functions of plain counts, so
    they persist in the disk run cache like measured runs do."""
    cache = disk_cache()
    if cache is not None:
        payload = cache.load(key_data)
        if payload is not None:
            return Fig9Row(**payload)
    row = compute()
    if cache is not None:
        cache.store(key_data, dataclasses.asdict(row))
    return row


def run_fig9_app(app_name, scale=1.0):
    """Figure 9 for one serving/compute app: 2 containers on one core.

    Unlike the timing experiments, nothing is reset between warm-up and
    measurement: the paper's native 5-minute Pagemap measurement sees the
    whole run, so the LRU state accumulates across both phases.
    """
    def compute():
        profile = APP_PROFILES[app_name]
        env = build_environment(config_by_name("Baseline"), cores=1)
        deployment = deploy_app(env, profile)
        requests = max(2, int(profile.requests * scale))
        for container in deployment.containers:
            env.sim.attach(container.proc,
                           _make_trace(profile, container.index, requests,
                                       tag=False),
                           container.core)
        env.sim.run()
        procs = [c.proc for c in deployment.containers]
        return Fig9Row(app=app_name,
                       **classify_processes(procs, env.kernel.lru))

    return _cached_row({"kind": "fig9-app", "app": app_name, "scale": scale},
                       compute)


def run_fig9_functions(scale=1.0):
    """Figure 9 for the three function containers (one core)."""
    def compute():
        run = run_functions(config_by_name("Baseline"), dense=True, cores=1,
                            scale=scale, use_cache=False)
        procs = [containers[0].proc
                 for containers in run.containers.values()]
        return Fig9Row(app="functions",
                       **classify_processes(procs, run.env.kernel.lru))

    return _cached_row({"kind": "fig9-functions", "scale": scale}, compute)


def _fig9_task(task):
    app, scale = task
    if app == "functions":
        return run_fig9_functions(scale=scale)
    return run_fig9_app(app, scale=scale)


def run_fig9(scale=1.0, apps=None, jobs=1):
    apps = apps or (SERVING_APPS + COMPUTE_APPS)
    tasks = [(app, scale) for app in apps] + [("functions", scale)]
    return parallel_map(_fig9_task, tasks, jobs=jobs)


def summarize(rows):
    """Aggregate numbers matching the paper's text claims."""
    sc = [r for r in rows if r.app != "functions"]
    fn = [r for r in rows if r.app == "functions"]
    out = {}
    if sc:
        out["avg_shareable_fraction"] = (
            sum(r.shareable_fraction for r in sc) / len(sc))
        out["active_reduction_serving_compute"] = (
            sum(r.active_reduction for r in sc) / len(sc))
        out["thp_fraction_of_total"] = (
            sum(r.total_thp for r in sc) / max(1, sum(r.total for r in sc)))
    if fn:
        out["functions_shareable_fraction"] = fn[0].shareable_fraction
        out["active_reduction_functions"] = fn[0].active_reduction
        out["functions_unshareable_fraction"] = (
            fn[0].total_unshareable / max(1, fn[0].total))
    return out
