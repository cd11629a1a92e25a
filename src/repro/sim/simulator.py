"""The top-level trace-driven simulator.

Processes (container workloads) are attached to cores together with their
memory-access traces; the scheduler multiplexes 2-3 of them per core with
the Table I quantum. Every trace record is one memory access plus a gap of
non-memory instructions; the access runs through the per-core MMU (full
translation timing) and then the cache hierarchy. The one trace loop
that does this, for every run, is :func:`repro.sim.fastpath.run_quantum`.

Trace record format (plain tuples for speed)::

    (kind, segment, page_offset, line, gap, request_id)

where ``kind`` is 0=IFETCH, 1=LOAD, 2=STORE, ``segment`` is a
:class:`repro.kernel.vma.SegmentKind`, ``page_offset`` is the
segment-relative page, ``line`` the cache line within the page (0..63),
``gap`` the non-memory instructions preceding the access, and
``request_id`` an optional request tag for latency accounting.
"""

import weakref

from repro.analysis.sanitizer import TranslationSanitizer
from repro.hw.cache import CacheHierarchy
from repro.hw.dram import DRAMModel
from repro.kernel.scheduler import Scheduler
from repro.obs.tracer import Tracer, resolve_trace_options
from repro.sim.fastpath import run_quantum
from repro.sim.mmu import MMU
from repro.sim.stats import MMUStats, RunResult

#: Trace record "kind" codes.
K_IFETCH, K_LOAD, K_STORE = 0, 1, 2


def _weak_sink(method):
    """A callback calling ``method`` through a weak reference; once its
    owner is gone it is a no-op (no MMU is left to invalidate, no
    sanitizer to quarantine frames)."""
    ref = weakref.WeakMethod(method)

    def sink(*args):
        target = ref()
        if target is not None:
            target(*args)
    return sink


class Simulator:
    def __init__(self, machine, config, kernel):
        scale = config.translation_policy.l2_tlb_scale
        if scale != 1.0:
            machine = machine.scale_l2_tlb(scale)
        self.machine = machine
        self.config = config
        self.kernel = kernel
        self.dram = DRAMModel(machine.dram)
        #: Optional :class:`repro.obs.live.ProgressMonitor`; the run loop
        #: advances it once per quantum with the instructions consumed.
        #: Stays None unless a harness attaches one — the hot loop then
        #: pays a single ``is not None`` test per quantum.
        self.progress = None
        self.hierarchy = CacheHierarchy(machine, self.dram)
        self.sanitizer = (TranslationSanitizer(kernel, config)
                          if config.sanitize else None)
        trace_options = resolve_trace_options(config.trace)
        self.tracer = Tracer(trace_options) if trace_options else None
        self.mmus = [MMU(core, machine, config, self.hierarchy, kernel)
                     for core in range(machine.cores)]
        # The kernel and the MMUs hold the broadcast (and the kernel the
        # sanitizer's quarantine) weakly: a strong bound method would
        # close a cycle through the kernel, and a finished environment
        # would then wait for a full GC instead of dying with its last
        # reference.
        broadcast = _weak_sink(self._broadcast_invalidations)
        for mmu in self.mmus:
            mmu.invalidation_sink = broadcast
            mmu.sanitizer = self.sanitizer
            mmu.tracer = self.tracer
            mmu.walker.tracer = self.tracer
        # Kernel-initiated shootdowns (process exit, PCID recycling)
        # reach every core the same way fault-time ones do, and teardown
        # reports freed frames into the sanitizer's quarantine.
        kernel.invalidation_sink = broadcast
        kernel.tracer = self.tracer
        if self.sanitizer is not None:
            kernel.on_frames_freed = _weak_sink(
                self.sanitizer.quarantine_frames)
        self.scheduler = Scheduler(machine.cores, config.quantum_instructions)
        self.scheduler.tracer = self.tracer
        self.core_cycles = [0] * machine.cores
        self._traces = {}
        self._request_latency = {}
        self._completion = {}
        self._proc_cycles = {}
        self.base_cpi = machine.core.base_cpi
        self.switch_cost = config.costs.context_switch

    # -- workload attachment -------------------------------------------------

    def attach(self, proc, trace, core_id):
        """Attach a process and its trace iterator to a core's run queue."""
        self._traces[proc.pid] = iter(trace)
        self.scheduler.assign(proc, core_id)

    def detach(self, proc):
        """Yank a process mid-run (random-kill fault injection in the
        churn experiment): its trace and run-queue slot are dropped
        without completing, leaving whatever TLB/cache state it built for
        the exit path to clean up."""
        self._traces.pop(proc.pid, None)
        self.scheduler.remove(proc)

    def _broadcast_invalidations(self, proc, invalidations):
        for inv in invalidations:
            for mmu in self.mmus:
                mmu.apply_invalidation(proc, inv)

    # -- execution -------------------------------------------------------------

    def run(self, max_instructions=None):
        """Run until every attached trace is exhausted (or the optional
        per-run instruction budget is spent). Returns a RunResult."""
        budget = max_instructions
        while self._traces:
            progressed = False
            for core_id in range(self.machine.cores):
                proc = self.scheduler.current(core_id)
                if proc is None:
                    continue
                progressed = True
                consumed = run_quantum(self, core_id, proc)
                if self.progress is not None:
                    self.progress.advance(consumed)
                if budget is not None:
                    budget -= consumed
                    if budget <= 0:
                        return self._finish()
            if not progressed:
                break
        return self._finish()

    def _finish(self):
        result = RunResult(self.config.name)
        result.stats = MMUStats.merged([m.stats for m in self.mmus])
        if self.sanitizer is not None:
            # End-of-run sweep: every surviving TLB entry must still agree
            # with the architectural page tables.
            for mmu in self.mmus:
                self.sanitizer.scan(mmu)
            result.coherence_violations = list(self.sanitizer.violations)
        result.core_cycles = {i: c for i, c in enumerate(self.core_cycles)}
        result.request_latency = dict(self._request_latency)
        result.context_switches = self.scheduler.context_switches
        result.completion_cycles = dict(self._completion)
        result.process_cycles = dict(self._proc_cycles)
        if self.tracer is not None:
            # With a streaming sink, drain the ring so the staging file
            # holds the complete stream after every run() (the harness
            # publishes it with tracer.finalize() when the whole
            # experiment is done).
            self.tracer.flush()
            result.obs = self.tracer.snapshot()
        return result

    # -- utilities ------------------------------------------------------------------

    def run_single(self, proc, trace, core_id=0):
        """Run one trace to completion on one core, returning the cycles it
        took (used for bring-up and function-execution measurements)."""
        before = self.core_cycles[core_id]
        self.attach(proc, trace, core_id)
        self.run()
        return self.core_cycles[core_id] - before

    def reset_measurement(self):
        """Clear timing counters while keeping all architectural state warm
        (the paper's 'warm up, then measure' methodology)."""
        for mmu in self.mmus:
            mmu.stats = MMUStats()
        self.core_cycles = [0] * self.machine.cores
        self._request_latency = {}
        self._completion = {}
        self._proc_cycles = {}
        self.scheduler.context_switches = 0
        if self.tracer is not None:
            # Warm-up events must not leak into the measured snapshot.
            self.tracer.reset()
