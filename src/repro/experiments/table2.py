"""Table II: fraction of each improvement due to L2 TLB effects.

Measured by ablation: ``BabelFish-PT`` enables page-table sharing only,
so the extra improvement the full configuration adds on top of it is the
L2 TLB entry-sharing contribution::

    fraction_tlb = (metric_pt_only - metric_full) / (metric_base - metric_full)

Note (EXPERIMENTS.md discusses this): in our scaled-down system the
pte_t cache-line reuse that page-table sharing gives is relatively
stronger than in the paper's full-size testbed, so the absolute fractions
come out lower; the *ordering* across applications (HTTPd/MongoDB highest,
ArangoDB/FIO lower, GraphChi and sparse functions near zero) is the
reproduced shape.
"""

from repro.experiments.runner import FUNCTION_WORKLOADS, grid_requests, run_grid
from repro.workloads.profiles import COMPUTE_APPS, FUNCTION_NAMES, SERVING_APPS

CONFIGS = ("Baseline", "BabelFish-PT", "BabelFish")


def _fraction(base, pt_only, full):
    total = base - full
    if not total:
        return 0.0
    return max(-1.0, min(1.0, (pt_only - full) / total))


def run_table2(cores=8, scale=1.0, jobs=1):
    runs = run_grid(grid_requests(
        SERVING_APPS + COMPUTE_APPS + FUNCTION_WORKLOADS, CONFIGS, cores,
        scale), jobs)
    rows = []
    for app in SERVING_APPS + COMPUTE_APPS:
        results = {name: runs[app, name].result for name in CONFIGS}
        if app in SERVING_APPS:
            metric = {k: r.mean_latency for k, r in results.items()}
        else:
            metric = {k: sum(r.process_cycles.values())
                      for k, r in results.items()}
        rows.append({
            "app": app,
            "tlb_fraction": round(_fraction(metric["Baseline"],
                                            metric["BabelFish-PT"],
                                            metric["BabelFish"]), 3),
        })
    for workload in FUNCTION_WORKLOADS:
        cycles = {name: runs[workload, name].exec_cycles for name in CONFIGS}
        density = workload.partition("-")[2]
        for fn in FUNCTION_NAMES:
            rows.append({
                "app": "%s-%s" % (fn, density),
                "tlb_fraction": round(_fraction(
                    cycles["Baseline"][fn], cycles["BabelFish-PT"][fn],
                    cycles["BabelFish"][fn]), 3),
            })
    return rows


def summarize(rows):
    by_app = {r["app"]: r["tlb_fraction"] for r in rows}

    def avg(names):
        vals = [by_app[n] for n in names if n in by_app]
        return sum(vals) / len(vals) if vals else 0.0

    return {
        "mongodb": by_app.get("mongodb"),
        "arangodb": by_app.get("arangodb"),
        "httpd": by_app.get("httpd"),
        "serving_average": avg(SERVING_APPS),
        "graphchi": by_app.get("graphchi"),
        "fio": by_app.get("fio"),
        "compute_average": avg(COMPUTE_APPS),
        "dense_average": avg(["%s-dense" % f for f in FUNCTION_NAMES]),
        "sparse_average": avg(["%s-sparse" % f for f in FUNCTION_NAMES]),
    }
