"""Shared benchmark configuration and reporting.

Each item of ``bench_artifacts.py`` regenerates one table or figure of
the paper and prints its paper-vs-measured report (also written under
``benchmarks/out/``). Run with ``pytest benchmarks/ --benchmark-only -s``
to see the tables inline.

Scale: ``REPRO_BENCH_SCALE`` (default 1.0) multiplies the measured
request/iteration counts; ``REPRO_BENCH_CORES`` (default 8) sets the core
count. The defaults reproduce the paper's 8-core co-location.

Runs are memoized on disk under ``benchmarks/out/runcache/`` (keyed by
the full config and a source fingerprint), so re-running a figure after
an unrelated edit — or running several figures that share runs — skips
finished simulations.  ``REPRO_BENCH_DISK_CACHE=0`` opts out;
``REPRO_BENCH_JOBS`` (default 1) fans independent runs out across worker
processes.
"""

import os
import pathlib

from repro.experiments import DiskRunCache, set_disk_cache

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_CORES = int(os.environ.get("REPRO_BENCH_CORES", "8"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

if os.environ.get("REPRO_BENCH_DISK_CACHE", "1") != "0":
    set_disk_cache(DiskRunCache())

OUT_DIR = pathlib.Path(__file__).parent / "out"


def report(name, text):
    """Print a result table and persist it under benchmarks/out/."""
    banner = "\n" + "=" * 72 + "\n%s\n" % name + "=" * 72
    print(banner)
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / ("%s.txt" % name)).write_text(text + "\n")

