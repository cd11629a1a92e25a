"""Figure 10: L2 TLB entry sharing characterization (Section VII-B).

(a) L2 TLB MPKI reduction of BabelFish over Baseline, instruction and
data entries separately; (b) Shared Hits — hits on L2 TLB entries brought
in by a different process — as a fraction of all L2 TLB hits.
"""

from repro.experiments.runner import FUNCTION_WORKLOADS, grid_requests, run_grid
from repro.workloads.profiles import COMPUTE_APPS, SERVING_APPS


def _mpki_row(app, base_stats, bf_stats):
    def red(kind):
        base = base_stats.mpki(kind)
        return 100.0 * (base - bf_stats.mpki(kind)) / base if base else 0.0

    return {
        "app": app,
        "mpki_d_base": round(base_stats.mpki("d"), 3),
        "mpki_d_babelfish": round(bf_stats.mpki("d"), 3),
        "mpki_d_reduction_pct": round(red("d"), 1),
        "mpki_i_base": round(base_stats.mpki("i"), 3),
        "mpki_i_babelfish": round(bf_stats.mpki("i"), 3),
        "mpki_i_reduction_pct": round(red("i"), 1),
        "shared_hits_d": round(bf_stats.shared_hit_fraction("d"), 3),
        "shared_hits_i": round(bf_stats.shared_hit_fraction("i"), 3),
    }


def run_fig10(cores=8, scale=1.0, apps=None, jobs=1):
    """Rows for Figures 10a and 10b (one row per workload)."""
    workloads = tuple(apps or SERVING_APPS + COMPUTE_APPS) + FUNCTION_WORKLOADS
    runs = run_grid(grid_requests(workloads, ("Baseline", "BabelFish"),
                                  cores, scale), jobs)
    return [_mpki_row(workload, runs[workload, "Baseline"].result.stats,
                      runs[workload, "BabelFish"].result.stats)
            for workload in workloads]


def summarize(rows):
    serving = [r for r in rows if r["app"] in SERVING_APPS]
    out = {}
    if serving:
        out["serving_data_mpki_reduction_pct"] = sum(
            r["mpki_d_reduction_pct"] for r in serving) / len(serving)
        out["serving_instr_mpki_reduction_pct"] = sum(
            r["mpki_i_reduction_pct"] for r in serving) / len(serving)
    graphchi = [r for r in rows if r["app"] == "graphchi"]
    if graphchi:
        out["graphchi_instr_shared_hits"] = graphchi[0]["shared_hits_i"]
        out["graphchi_data_shared_hits"] = graphchi[0]["shared_hits_d"]
    return out
