"""Every table and figure of the paper, one item per registry entry.

Each item runs one :data:`repro.experiments.artifacts.ARTIFACTS` entry
at the benchmark scale, writes its rendered table to
``benchmarks/out/<name>.txt`` and fails on any shape check it misses.
Run one with ``pytest benchmarks/bench_artifacts.py -k fig11_latency
--benchmark-only -s``.
"""

import pytest

from bench_common import BENCH_CORES, BENCH_JOBS, BENCH_SCALE, report
from repro.experiments.artifacts import ARTIFACTS


@pytest.mark.parametrize("artifact", ARTIFACTS.values(),
                         ids=lambda artifact: artifact.name)
def bench_artifact(benchmark, artifact):
    rows = benchmark.pedantic(artifact.run,
                              args=(BENCH_CORES, BENCH_SCALE, BENCH_JOBS),
                              rounds=1, iterations=1)
    report(artifact.name, artifact.text(rows))
    failed = artifact.failed_checks(rows)
    assert not failed, "%s failed: %s" % (artifact.name, ", ".join(failed))
