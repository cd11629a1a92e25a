"""Shared benchmark configuration and reporting.

Each item of ``bench_artifacts.py`` regenerates one table or figure of
the paper and prints its paper-vs-measured report (also written under
``benchmarks/out/`` at the default scale and core count). Run with
``pytest benchmarks/ --benchmark-only -s`` to see the tables inline.

Scale: ``REPRO_BENCH_SCALE`` (default 1.0) multiplies the measured
request/iteration counts; ``REPRO_BENCH_CORES`` (default 8) sets the core
count. The defaults reproduce the paper's 8-core co-location, and only a
run at both defaults writes ``benchmarks/out/<name>.txt``: the tracked
files hold the calibrated numbers, which a quicker pass must not
overwrite.

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


#: Only a run at the paper's scale and core count writes benchmarks/out/.
WRITES_OUTPUT = BENCH_SCALE == 1.0 and BENCH_CORES == 8


def report(name, text):
    """Print a result table; at the default scale and core count, also
    persist it under benchmarks/out/."""
    banner = "\n" + "=" * 72 + "\n%s\n" % name + "=" * 72
    print(banner)
    print(text)
    if not WRITES_OUTPUT:
        print("(scale %g, %d cores: benchmarks/out/%s.txt not written; "
              "only scale 1.0 on 8 cores writes it)"
              % (BENCH_SCALE, BENCH_CORES, name))
        return
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / ("%s.txt" % name)).write_text(text + "\n")

