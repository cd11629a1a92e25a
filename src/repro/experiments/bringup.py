"""Section VII-C: serverless function bring-up time (docker start).

Bring-up is measured as the time to start a function container from a
pre-created image: Docker engine overhead + fork (page-table replication
under Baseline; sharing under BabelFish) + the runtime's bring-up page
touches (redundant minor faults under Baseline; mostly resolved
translations under BabelFish). The paper reports an 8% reduction.
"""

from repro.experiments.common import pct_reduction
from repro.experiments.runner import execute, grid_requests


def run_bringup(cores=8, scale=1.0, jobs=1):
    base, bf = execute(grid_requests(("functions-dense",),
                                     ("Baseline", "BabelFish"), cores, scale),
                       jobs=jobs)
    return {
        "baseline_cycles": base.bringup_cycles,
        "babelfish_cycles": bf.bringup_cycles,
        "reduction_pct": round(pct_reduction(base.bringup_cycles,
                                             bf.bringup_cycles), 1),
        # Where the paging work went: faults taken during bring-up.
        "baseline_minor_faults": base.result.stats.minor_faults,
        "babelfish_minor_faults": bf.result.stats.minor_faults,
    }
