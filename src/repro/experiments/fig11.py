"""Figure 11: latency / execution time reduction (Section VII-C).

- Data serving: reduction in mean and 95th-percentile request latency.
- Compute: reduction in execution time.
- Functions: reduction in execution time of the non-leading functions,
  dense and sparse inputs.
"""

from repro.experiments.common import pct_reduction
from repro.experiments.runner import FUNCTION_WORKLOADS, grid_requests, run_grid
from repro.workloads.profiles import COMPUTE_APPS, FUNCTION_NAMES, SERVING_APPS


def requests(cores=8, scale=1.0, config_name="BabelFish"):
    """Baseline + ``config_name`` for every workload: the run set behind
    Figures 10/11, bring-up and ``python -m repro.report``."""
    return grid_requests(SERVING_APPS + COMPUTE_APPS + FUNCTION_WORKLOADS,
                         ("Baseline", config_name), cores, scale)


def run_fig11(cores=8, scale=1.0, config_name="BabelFish", jobs=1):
    runs = run_grid(requests(cores, scale, config_name), jobs)
    serving, compute, functions = [], [], []
    for app in SERVING_APPS:
        base = runs[app, "Baseline"].result
        other = runs[app, config_name].result
        serving.append({
            "app": app,
            "mean_reduction_pct": round(pct_reduction(
                base.mean_latency, other.mean_latency), 1),
            "tail_reduction_pct": round(pct_reduction(
                base.tail_latency(), other.tail_latency()), 1),
        })
    for app in COMPUTE_APPS:
        base = runs[app, "Baseline"].result
        other = runs[app, config_name].result
        compute.append({
            "app": app,
            "exec_reduction_pct": round(pct_reduction(
                sum(base.process_cycles.values()),
                sum(other.process_cycles.values())), 1),
        })
    for workload in FUNCTION_WORKLOADS:
        base = runs[workload, "Baseline"]
        other = runs[workload, config_name]
        density = workload.partition("-")[2]
        for name in FUNCTION_NAMES:
            functions.append({
                "app": "%s-%s" % (name, density),
                "exec_reduction_pct": round(pct_reduction(
                    base.exec_cycles[name], other.exec_cycles[name]), 1),
            })
    return {"serving": serving, "compute": compute, "functions": functions}


def summarize(results):
    serving = results["serving"]
    compute = results["compute"]
    functions = results["functions"]
    dense = [r for r in functions if r["app"].endswith("dense")]
    sparse = [r for r in functions if r["app"].endswith("sparse")]

    def avg(rows, key):
        return sum(r[key] for r in rows) / len(rows) if rows else 0.0

    return {
        "serving_mean_pct": avg(serving, "mean_reduction_pct"),
        "serving_tail_pct": avg(serving, "tail_reduction_pct"),
        "compute_exec_pct": avg(compute, "exec_reduction_pct"),
        "functions_dense_pct": avg(dense, "exec_reduction_pct"),
        "functions_sparse_pct": avg(sparse, "exec_reduction_pct"),
    }
