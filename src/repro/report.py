"""One-shot reproduction report: ``python -m repro.report [--quick]``.

Runs a compact version of every experiment and prints a single-page
paper-vs-measured summary. ``--quick`` shrinks cores and scale for a
~1-minute pass; the default takes a few minutes (the full benchmark
harness under ``benchmarks/`` remains the canonical reproduction).

``--jobs N`` fans each section's independent runs out across N worker
processes: Figure 9's rows, and Figure 11's run set, which bring-up then
reads back from the memo (the output is byte-identical to ``--jobs 1``).
Runs are memoized on disk under ``benchmarks/out/runcache/`` so a
repeated invocation at the same cores/scale reuses every measurement
(``--no-disk-cache`` opts out).
"""

import argparse
import sys
import time

from repro.experiments import clear_run_cache
from repro.experiments.__main__ import resolve_scale_args
from repro.experiments.bringup import run_bringup
from repro.experiments.common import set_disk_cache
from repro.experiments.fig9 import run_fig9, summarize as fig9_summary
from repro.experiments.fig11 import run_fig11, summarize as fig11_summary
from repro.experiments.paper_values import FIG9, FIG11, HEADLINE, RESOURCES
from repro.experiments.resources import run_resources
from repro.experiments.runcache import DiskRunCache
from repro.experiments.table3 import run_table3


def _row(label, paper, measured, unit="%"):
    return "  %-44s paper %8s   measured %8s" % (
        label,
        "-" if paper is None else ("%.1f%s" % (paper, unit)),
        "-" if measured is None else ("%.1f%s" % (measured, unit)))


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small cores/scale (~1 minute)")
    parser.add_argument("--cores", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent runs "
                             "(default 1; results are identical)")
    parser.add_argument("--cache-dir", default=None,
                        help="disk run-cache directory (default "
                             "benchmarks/out/runcache)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="do not persist/reuse run summaries on disk")
    return parser


def parse_args(argv=None):
    """Parsed + validated args; explicit ``--cores 0``/``--scale 0`` are
    argparse errors rather than silent fallbacks to the defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be a positive integer (got %d)" % args.jobs)
    args.cores, args.scale = resolve_scale_args(parser, args)
    return args


def main(argv=None):
    args = parse_args(argv)
    cores, scale = args.cores, args.scale

    started = time.time()
    clear_run_cache()
    previous_cache = None
    if not args.no_disk_cache:
        previous_cache = set_disk_cache(DiskRunCache(args.cache_dir))
    try:
        return _report(args, cores, scale, started)
    finally:
        # Restore for in-process callers (tests); a no-op for the CLI.
        if not args.no_disk_cache:
            set_disk_cache(previous_cache)


def _report(args, cores, scale, started):
    print("BabelFish reproduction report (cores=%d, scale=%.2f)"
          % (cores, scale))
    if scale < 1.0:
        print("note: sub-unit scale shortens the measured window, which "
              "inflates\nfault-dominated reductions (especially the "
              "functions); use scale=1\nfor the calibrated numbers.")
    print()

    print("Figure 9 — translation shareability")
    fig9 = fig9_summary(run_fig9(scale=scale, jobs=args.jobs))
    print(_row("shareable fraction, containerized",
               100 * FIG9["avg_shareable_fraction"],
               100 * fig9["avg_shareable_fraction"]))
    print(_row("shareable fraction, serverless",
               100 * FIG9["functions_shareable_fraction"],
               100 * fig9["functions_shareable_fraction"]))

    print("\nFigure 11 — performance")
    fig11 = fig11_summary(run_fig11(cores=cores, scale=scale,
                                     jobs=args.jobs))
    print(_row("serving mean latency reduction",
               FIG11["serving_mean_pct"], fig11["serving_mean_pct"]))
    print(_row("serving tail latency reduction",
               FIG11["serving_tail_pct"], fig11["serving_tail_pct"]))
    print(_row("compute execution reduction",
               FIG11["compute_exec_pct"], fig11["compute_exec_pct"]))
    print(_row("functions execution reduction (dense)",
               FIG11["functions_dense_pct"], fig11["functions_dense_pct"]))
    print(_row("functions execution reduction (sparse)",
               FIG11["functions_sparse_pct"], fig11["functions_sparse_pct"]))

    print("\nBring-up")
    bringup = run_bringup(cores=cores, scale=scale)
    print(_row("function bring-up reduction",
               HEADLINE["function_bringup_reduction_pct"],
               bringup["reduction_pct"]))

    print("\nTable III — L2 TLB at 22nm (CACTI model)")
    for row in run_table3():
        print("  %-10s area %.3f mm2 (paper %.3f)   access %3.0f ps "
              "(paper %3.0f)" % (row["config"], row["area_mm2"],
                                 row["paper_area_mm2"],
                                 row["access_time_ps"],
                                 row["paper_access_time_ps"]))

    print("\nSection VII-D — resources")
    resources = run_resources(include_measured=False)
    print(_row("core area overhead",
               RESOURCES["core_area_overhead_pct"],
               resources["core_area_overhead_pct"]))
    print(_row("memory space overhead",
               RESOURCES["total_space_overhead_pct"],
               resources["total_space_overhead_pct"]))

    print("\ndone in %.0fs" % (time.time() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
