"""Experiment harnesses: one module per table/figure of Section VII,
plus the extension studies (ablations, density, churn, policy zoo).

Every harness exposes a ``run_*`` function returning plain dict rows;
Figures 9-11 and Table II add a ``summarize`` that reduces them to the
numbers the paper quotes. A harness that reads stock simulation runs
declares them once, as a :class:`~repro.experiments.runner.RunRequest`
list, and computes its rows from the runs one
:func:`~repro.experiments.runner.execute` call returns.
:mod:`repro.experiments.artifacts` declares each table and figure once
on top of these: its run, the paper's values, its rendering and its
shape checks. ``python -m repro.report`` and ``benchmarks/`` both read
that registry.
"""

from repro.experiments.common import (
    AppRun,
    build_environment,
    deploy_app,
    run_app,
    run_functions,
    clear_run_cache,
    disk_cache,
    set_disk_cache,
    simulation_run_count,
)
from repro.experiments.runcache import DiskRunCache
from repro.experiments.runner import (
    RunRequest,
    execute,
    parallel_map,
)

__all__ = [
    "AppRun",
    "DiskRunCache",
    "RunRequest",
    "build_environment",
    "deploy_app",
    "run_app",
    "run_functions",
    "clear_run_cache",
    "disk_cache",
    "execute",
    "parallel_map",
    "set_disk_cache",
    "simulation_run_count",
]
