#!/usr/bin/env python3
"""Data-serving latency study: MongoDB under YCSB, Baseline vs BabelFish.

Reproduces the Figure 11 serving experiment for one application at a
configurable scale: 2 containers per core driven by distinct YCSB
clients over a shared memory-mapped data set, reporting mean and
95th-percentile request latency plus the TLB-level reasons for the
difference.

Run:  python examples/data_serving_latency.py [app] [cores]
      app in {mongodb, arangodb, httpd}; defaults: mongodb, 4 cores.
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
from repro.workloads.profiles import APP_PROFILES, SERVING_APPS


def main():
    app = sys.argv[1] if len(sys.argv) > 1 else "mongodb"
    cores = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    if app not in SERVING_APPS:
        raise SystemExit("app must be one of %s" % (SERVING_APPS,))
    profile = APP_PROFILES[app]
    print("%s: %d containers on %d cores, %d-page shared dataset\n"
          % (app, 2 * cores, cores, profile.dataset_pages))

    results = {}
    for name in ("Baseline", "BabelFish"):
        env = build_environment(config_by_name(name), cores=cores)
        deployment = deploy_app(env, profile)
        result = measure_app(env, deployment, scale=0.6)
        results[name] = result
        stats = result.stats
        print("%-10s mean %6.0f cyc | p95 %6.0f | MPKI D %5.2f I %5.2f | "
              "walks %6d | minor faults %4d"
              % (name, result.mean_latency, result.tail_latency(),
                 stats.mpki("d"), stats.mpki("i"), stats.walks,
                 stats.minor_faults))

    base, bf = results["Baseline"], results["BabelFish"]
    paper = ARTIFACTS["fig11_latency"].paper
    print("\nBabelFish vs Baseline:")
    print("  mean latency  -%.1f%%   (paper: ~%.0f%% serving average)"
          % (pct_reduction(base.mean_latency, bf.mean_latency),
             paper["serving_mean_pct"]))
    print("  p95 latency   -%.1f%%   (paper: ~%.0f%% serving average)"
          % (pct_reduction(base.tail_latency(), bf.tail_latency()),
             paper["serving_tail_pct"]))
    print("  data MPKI     -%.1f%%"
          % pct_reduction(base.stats.mpki("d"), bf.stats.mpki("d")))
    print("  instr MPKI    -%.1f%%"
          % pct_reduction(base.stats.mpki("i"), bf.stats.mpki("i")))
    print("  %d%% of BabelFish's L2 TLB hits were on entries brought in "
          "by another container" % (100 * bf.stats.shared_hit_fraction()))


if __name__ == "__main__":
    main()
