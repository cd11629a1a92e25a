"""Hot-path perf trajectory: fast path vs reference, bit-identity enforced.

Unlike the figure/table benchmarks, this one measures the *simulator*,
not the paper: :mod:`repro.experiments.perf` runs a steady-state
hot-locality workload under ``fastpath=True`` and ``fastpath=False``,
raises if the two ``RunResult.as_dict()`` ever diverge, and writes the
fast/reference accesses-per-second ratio per tier to
``BENCH_hotpath.json`` at the repo root (ratios are the tracked,
machine-normalized trajectory; the raw rates ride along for context).

    python benchmarks/bench_hotpath.py           # smoke + medium tiers
    python benchmarks/bench_hotpath.py --smoke   # smoke tier only (CI)

Tiers not run (``medium`` under ``--smoke``) are preserved from the
existing trajectory file rather than erased. Equivalent to
``python -m repro.experiments perf``.
"""

import argparse
import json
import sys

from bench_common import report
from repro.experiments.perf import run_harness


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smoke tier only (tiny config; CI)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_hotpath.json "
                             "at the repo root)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per tier")
    args = parser.parse_args(argv)
    payload = run_harness(smoke=args.smoke, out=args.out,
                          repeats=args.repeats)
    report("hotpath", json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
