"""Extension experiment: container density (oversubscription) sweep.

The paper's introduction motivates BabelFish with providers that "run
hundreds of containers on a few cores", yet its evaluation conservatively
co-locates only 2-3 per core and notes the speedups come "even in our
conservative environment". This sweep raises the per-core container count
and measures how BabelFish's advantage scales: every added same-app
container multiplies the baseline's replicated TLB entries and page
tables, while BabelFish keeps a single copy.
"""

from repro.experiments.common import config_by_name, pct_reduction, run_app
from repro.experiments.runner import density_matrix, execute


def run_density_sweep(app="mongodb", cores=2, scale=0.35,
                      densities=(2, 4, 6), jobs=1):
    if jobs > 1:
        execute(density_matrix(app=app, cores=cores, scale=scale,
                               densities=densities), jobs=jobs)
    rows = []
    for per_core in densities:
        base = run_app(app, config_by_name("Baseline"), cores=cores,
                       scale=scale, containers_per_core=per_core)
        bf = run_app(app, config_by_name("BabelFish"), cores=cores,
                     scale=scale, containers_per_core=per_core)
        rb, rf = base.result, bf.result
        rows.append({
            "containers_per_core": per_core,
            "mean_reduction_pct": round(pct_reduction(
                rb.mean_latency, rf.mean_latency), 2),
            "mpki_d_reduction_pct": round(pct_reduction(
                rb.stats.mpki("d"), rf.stats.mpki("d")), 1),
            "shared_hits": round(rf.stats.shared_hit_fraction(), 3),
            "baseline_table_pages":
                base.kernel_snapshot["frame_counts"]["PAGE_TABLE"],
            "babelfish_table_pages":
                bf.kernel_snapshot["frame_counts"]["PAGE_TABLE"],
        })
    return rows
