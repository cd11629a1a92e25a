"""Section VII-C, "BabelFish vs Larger TLB".

The area BabelFish spends on CCID + O-PC bits could instead buy a larger
conventional L2 TLB (~2x entries per Table III's area ratio). The paper
finds this recovers only a small fraction of BabelFish's gains because
it neither shares page-table state nor lets one process prefetch
translations for another.
"""

from repro.experiments.fig11 import run_fig11, summarize


def run_comparison(cores=8, scale=1.0, jobs=1):
    """Side-by-side Figure-11 reductions: BigTLB vs full BabelFish (both
    vs Baseline)."""
    bigtlb = summarize(run_fig11(cores, scale, config_name="BigTLB",
                                 jobs=jobs))
    babelfish = summarize(run_fig11(cores, scale, jobs=jobs))
    rows = []
    for key in ("serving_mean_pct", "compute_exec_pct",
                "functions_dense_pct", "functions_sparse_pct"):
        rows.append({"metric": key,
                     "bigtlb_reduction_pct": round(bigtlb[key], 1),
                     "babelfish_reduction_pct": round(babelfish[key], 1)})
    return rows
