"""One-shot reproduction report: ``python -m repro.report [--quick]``.

Runs a compact version of the paper's evaluation and prints a single-page
paper-vs-measured summary: one section per
:data:`repro.experiments.artifacts.ARTIFACTS` entry that carries a
:class:`~repro.experiments.artifacts.ReportSection` (Figures 9 and 11,
bring-up, Table III and the Section VII-D resources), with the paper's
values read from the same entries the benchmarks render. ``--quick``
shrinks cores and scale for a ~1-minute pass; the default takes a few
minutes (the full benchmark harness under ``benchmarks/`` remains the
canonical reproduction).

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
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.common import set_disk_cache
from repro.experiments.runcache import DiskRunCache


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

    reported = [artifact for artifact in ARTIFACTS.values()
                if artifact.report is not None]
    for index, artifact in enumerate(reported):
        section = artifact.report
        print(("\n" if index else "") + section.title)
        rows = (section.run or artifact.run)(cores, scale, args.jobs)
        if section.lines is not None:
            for line in section.lines(rows):
                print(line)
        summary = artifact.summary(rows)
        for label, key, factor in section.rows:
            print(_row(label, factor * artifact.paper[key],
                       factor * summary[key]))

    print("\ndone in %.0fs" % (time.time() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
