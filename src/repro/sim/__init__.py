"""Trace-driven multi-core simulator with full translation-path timing."""

from repro.sim.config import (
    SimConfig,
    babelfish_config,
    babelfish_pt_only_config,
    babelfish_tlb_only_config,
    baseline_config,
    bigtlb_config,
)
from repro.sim.stats import MMUStats, RunResult, percentile
from repro.sim.walker import PageWalker
from repro.sim.mmu import MMU
from repro.sim.simulator import Simulator

__all__ = [
    "SimConfig",
    "baseline_config",
    "babelfish_config",
    "babelfish_pt_only_config",
    "babelfish_tlb_only_config",
    "bigtlb_config",
    "MMUStats",
    "RunResult",
    "percentile",
    "PageWalker",
    "MMU",
    "Simulator",
]
