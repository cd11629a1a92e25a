"""Simulation statistics: per-MMU counters and run-level results."""

import math

from repro.obs.metrics import map_label


class MMUStats:
    """Counters for one core's MMU (instruction/data kept separate, as
    Figure 10 reports them separately)."""

    __slots__ = (
        "accesses_i", "accesses_d",
        "l1_hits_i", "l1_hits_d", "l1_misses_i", "l1_misses_d",
        "l2_hits_i", "l2_hits_d", "l2_misses_i", "l2_misses_d",
        "l2_shared_hits_i", "l2_shared_hits_d",
        "l2_long_accesses",
        "l3_hits_i", "l3_hits_d", "l3_misses_i", "l3_misses_d",
        "walks", "walk_cycles",
        "minor_faults", "major_faults", "cow_faults", "spurious_faults",
        "fault_cycles", "translation_cycles", "memory_cycles",
        "instructions", "aslr_transforms",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def merge(self, other):
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    @classmethod
    def merged(cls, stats_list):
        total = cls()
        for stats in stats_list:
            total.merge(stats)
        return total

    # -- derived metrics ------------------------------------------------------

    @property
    def l2_misses(self):
        return self.l2_misses_i + self.l2_misses_d

    @property
    def l2_hits(self):
        return self.l2_hits_i + self.l2_hits_d

    def mpki(self, kind="all"):
        """L2 TLB misses per kilo-instruction (Figure 10a's metric)."""
        if not self.instructions:
            return 0.0
        misses = {"i": self.l2_misses_i, "d": self.l2_misses_d,
                  "all": self.l2_misses}[kind]
        return 1000.0 * misses / self.instructions

    def shared_hit_fraction(self, kind="all"):
        """Fraction of L2 TLB hits on entries inserted by another process
        (Figure 10b's metric)."""
        hits = {"i": self.l2_hits_i, "d": self.l2_hits_d,
                "all": self.l2_hits}[kind]
        shared = {"i": self.l2_shared_hits_i, "d": self.l2_shared_hits_d,
                  "all": self.l2_shared_hits_i + self.l2_shared_hits_d}[kind]
        return shared / hits if hits else 0.0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


def percentile(values, pct):
    """Nearest-rank percentile (pct in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if pct >= 100:
        return float(ordered[-1])
    rank = math.ceil(pct / 100.0 * len(ordered)) - 1
    return float(ordered[max(0, min(len(ordered) - 1, rank))])


def _pairs(mapping):
    """Dict -> sorted [key, value] pairs (deterministic JSON lists)."""
    return sorted([k, v] for k, v in mapping.items())


class RunResult:
    """Outcome of one simulation run."""

    def __init__(self, config_name):
        self.config_name = config_name
        self.stats = MMUStats()
        self.core_cycles = {}
        #: request id -> accumulated cycles (data-serving latency metric)
        self.request_latency = {}
        self.context_switches = 0
        #: per-process completion time in that core's local cycles
        self.completion_cycles = {}
        #: per-process cycles actually spent executing (excludes time the
        #: process was descheduled) — the function execution-time metric
        self.process_cycles = {}
        #: CoherenceViolation records from the translation sanitizer
        #: (empty unless the run had ``SimConfig(sanitize=True)``)
        self.coherence_violations = []
        #: Observability snapshot (:meth:`repro.obs.Tracer.snapshot`);
        #: None unless the run had ``SimConfig(trace=...)`` enabled.
        self.obs = None

    @property
    def total_cycles(self):
        return max(self.core_cycles.values()) if self.core_cycles else 0

    @property
    def mean_latency(self):
        lats = list(self.request_latency.values())
        return sum(lats) / len(lats) if lats else 0.0

    def tail_latency(self, pct=95):
        return percentile(list(self.request_latency.values()), pct)

    def as_dict(self):
        """The canonical JSON-ready run summary (what the disk run cache
        stores and pool workers ship back to the parent).

        Pids come from a process-global counter, so the same simulation
        in a fresh worker process yields different pids than in the
        parent. Pid-keyed maps — and the ``pid`` labels inside the obs
        snapshot — are renumbered to dense creation-order indices so
        summaries are bit-identical regardless of which process ran
        them.
        """
        pids = sorted(set(self.completion_cycles) | set(self.process_cycles))
        index = {pid: i for i, pid in enumerate(pids)}
        lats = list(self.request_latency.values())
        data = {
            "config_name": self.config_name,
            "stats": self.stats.as_dict(),
            "core_cycles": _pairs(self.core_cycles),
            "request_latency": _pairs(self.request_latency),
            "completion_cycles": _pairs(
                {index[k]: v for k, v in self.completion_cycles.items()}),
            "process_cycles": _pairs(
                {index[k]: v for k, v in self.process_cycles.items()}),
            "context_switches": self.context_switches,
            "total_cycles": self.total_cycles,
            "latency": {"mean": self.mean_latency,
                        "p50": percentile(lats, 50),
                        "p95": percentile(lats, 95),
                        "p99": percentile(lats, 99)},
            "coherence_violations": len(self.coherence_violations),
        }
        if self.obs is not None:
            data["obs"] = dict(self.obs,
                               metrics=map_label(self.obs["metrics"],
                                                 "pid", index))
        return data

    def __repr__(self):
        return "<RunResult %s cycles=%d requests=%d>" % (
            self.config_name, self.total_cycles, len(self.request_latency))
