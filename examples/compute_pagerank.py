#!/usr/bin/env python3
"""Compute workloads: GraphChi PageRank and FIO, Baseline vs BabelFish.

GraphChi traverses a shared graph with low locality while streaming
through large private edge buffers — which is why the paper finds its
gains are small and come almost entirely from page-table (not TLB)
sharing. FIO's regular accesses over a shared data set show the opposite
profile. This example reproduces that contrast.

Run:  python examples/compute_pagerank.py [cores]
"""

import sys

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.common import (
    build_environment,
    config_by_name,
    deploy_app,
    measure_app,
    pct_reduction,
)
from repro.workloads.profiles import APP_PROFILES, COMPUTE_APPS


def run(app, config_name, cores):
    env = build_environment(config_by_name(config_name), cores=cores)
    deployment = deploy_app(env, APP_PROFILES[app])
    result = measure_app(env, deployment, scale=0.6)
    return sum(result.process_cycles.values()), result


def main():
    cores = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    paper_exec = ARTIFACTS["fig11_latency"].paper["compute_exec_pct"]
    paper_fraction = ARTIFACTS["table2_tlb_fraction"].paper
    for app in COMPUTE_APPS:
        base_cycles, base = run(app, "Baseline", cores)
        bf_cycles, bf = run(app, "BabelFish", cores)
        pt_cycles, _pt = run(app, "BabelFish-PT", cores)
        total = base_cycles - bf_cycles
        tlb_fraction = (pt_cycles - bf_cycles) / total if total else 0.0
        print("%s (%d containers):" % (app, 2 * cores))
        print("  execution time  -%.1f%%  (paper compute average: ~%.0f%%)"
              % (pct_reduction(base_cycles, bf_cycles), paper_exec))
        print("  data MPKI       -%.1f%% | instr MPKI -%.1f%%"
              % (pct_reduction(base.stats.mpki("d"), bf.stats.mpki("d")),
                 pct_reduction(base.stats.mpki("i"), bf.stats.mpki("i"))))
        print("  fraction of gain from L2 TLB sharing: %.2f "
              "(paper: graphchi %.2f, fio %.2f)"
              % (tlb_fraction, paper_fraction["graphchi"],
                 paper_fraction["fio"]))
        print("  shared hits: data %.0f%%, instr %.0f%%\n"
              % (100 * bf.stats.shared_hit_fraction("d"),
                 100 * bf.stats.shared_hit_fraction("i")))


if __name__ == "__main__":
    main()
