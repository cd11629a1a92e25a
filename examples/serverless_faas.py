#!/usr/bin/env python3
"""Serverless functions: bring-up and execution under BabelFish.

Reproduces the paper's FaaS experiment structure: three C/C++ functions
(Parse, Hash, Marshal) on a shared GCC base image, three containers per
core. The first wave takes the cold-start costs; the measured second wave
shows where BabelFish wins — shared infrastructure translations remove
most bring-up and execution page faults, dramatically so for sparse
inputs.

Run:  python examples/serverless_faas.py [dense|sparse]
"""

import sys

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.common import (
    config_by_name,
    pct_reduction,
    run_functions,
)
from repro.workloads.profiles import FUNCTION_NAMES


def main():
    dense = (sys.argv[1] if len(sys.argv) > 1 else "dense") != "sparse"
    label = "dense" if dense else "sparse"
    print("FaaS experiment (%s inputs): parse+hash+marshal per core\n"
          % label)

    runs = {}
    for name in ("Baseline", "BabelFish"):
        run = run_functions(config_by_name(name), dense=dense, cores=2,
                            scale=0.6, use_cache=False)
        runs[name] = run
        print("%-10s bring-up %8.0f cyc | %s"
              % (name, run.bringup_cycles,
                 " | ".join("%s %8.0f cyc" % (fn, run.exec_cycles[fn])
                            for fn in FUNCTION_NAMES)))

    base, bf = runs["Baseline"], runs["BabelFish"]
    paper_exec = ARTIFACTS["fig11_latency"].paper["functions_%s_pct" % label]
    print("\nBabelFish vs Baseline (%s):" % label)
    print("  bring-up time  -%.1f%%  (paper: ~%.0f%%)"
          % (pct_reduction(base.bringup_cycles, bf.bringup_cycles),
             ARTIFACTS["bringup"].paper["reduction_pct"]))
    for fn in FUNCTION_NAMES:
        print("  %-8s exec  -%.1f%%  (paper: ~%.0f%%)"
              % (fn, pct_reduction(base.exec_cycles[fn], bf.exec_cycles[fn]),
                 paper_exec))
    print("\n%d%% of BabelFish's translations were shared hits; "
          "minor faults fell from %d to %d."
          % (100 * bf.result.stats.shared_hit_fraction(),
             base.result.stats.minor_faults, bf.result.stats.minor_faults))
    print("(this example runs at reduced scale, which shortens the compute "
          "phase and\n inflates fault-dominated reductions; the calibrated "
          "numbers come from\n pytest benchmarks/bench_artifacts.py -k fig11_latency)")


if __name__ == "__main__":
    main()
