"""The event tracer: a bounded ring of typed events + online metrics.

Tracing is configured through ``SimConfig(trace=...)`` exactly like the
translation sanitizer: ``None``/``False`` (the default) disables it and
the simulator leaves every ``tracer`` attribute ``None``, so the hot
path pays only an ``is not None`` test — no calls, no allocations. Any
truthy value enables it: ``True`` for defaults, a :class:`TraceOptions`
(or its field dict, as rehydrated from a cache entry) to set the ring
size or stream to a sink. Every event family is always recorded.

The ring is a ``deque(maxlen=...)``: long runs keep the freshest events
(the interesting tail) while the registry — which every event is folded
into as it is emitted — keeps exact whole-run aggregates. That is why
``summarize`` can cross-check the :class:`~repro.sim.stats.MMUStats`
counters even when the ring has wrapped.

With ``TraceOptions(sink=...)`` the ring becomes a write-behind buffer
instead of a lossy window: when it fills, the whole chunk is drained to
a :class:`~repro.obs.export.StreamingSink` (plain JSONL, or gzip for a
``.gz`` suffix) and cleared, so nothing is ever dropped and memory stays
O(buffer_size) no matter how long the run is. :func:`replay_events`
closes the loop — folding a streamed file back through the same
emitters reproduces the exact registry the live run built, which is how
the ring/stream equivalence is proven.
"""

import collections
import dataclasses

from repro.obs import events as ev
from repro.obs import export
from repro.obs.metrics import MetricsRegistry


@dataclasses.dataclass(frozen=True)
class TraceOptions:
    """How much of the event stream to keep, and where to stream it."""

    #: Ring capacity in events; older events are dropped (the registry
    #: still aggregates them) — unless ``sink`` is set, in which case a
    #: full ring is drained to the sink and nothing is lost.
    buffer_size: int = 1 << 16
    #: Streaming sink path (a plain string keeps the run-cache key JSON-
    #: serializable); a ``.gz`` suffix selects gzip. None keeps the
    #: classic drop-oldest ring.
    sink: str = None


def resolve_trace_options(trace):
    """``SimConfig.trace`` value -> :class:`TraceOptions` or None."""
    if not trace:
        return None
    if trace is True:
        return TraceOptions()
    if isinstance(trace, TraceOptions):
        return trace
    if isinstance(trace, dict):
        return TraceOptions(**trace)
    raise TypeError("SimConfig.trace must be None, True, TraceOptions, "
                    "or a TraceOptions field dict; got %r" % (trace,))


class Tracer:
    """Collects typed events and aggregates them into a registry.

    Emit methods take the emitting core and the acting process's pid;
    timestamps come from the per-core clock the simulator advances with
    :meth:`tick` (core-local cycles, the only time the simulation has).
    """

    def __init__(self, options=None):
        self.options = options or TraceOptions()
        self.events = collections.deque(maxlen=self.options.buffer_size)
        self.registry = MetricsRegistry()
        self.emitted = 0
        self.streamed = 0
        self.sink = (export.StreamingSink(self.options.sink)
                     if self.options.sink else None)
        self._clock = {}

    # -- clock -------------------------------------------------------------

    def tick(self, core, cycle):
        self._clock[core] = cycle

    def clock(self, core):
        return self._clock.get(core, 0)

    @property
    def dropped(self):
        """Events lost to ring wrap; always 0 with a sink attached (the
        ring drains instead of dropping)."""
        if self.sink is not None:
            return 0
        return self.emitted - len(self.events)

    def reset(self):
        """Forget everything (the simulator's ``reset_measurement``:
        warm-up events must not leak into the measured snapshot). With a
        sink attached, its staging file is truncated too."""
        self.events.clear()
        self.registry = MetricsRegistry()
        self.emitted = 0
        self.streamed = 0
        if self.sink is not None:
            self.sink.reset()
        self._clock = {}

    def _emit(self, event):
        events = self.events
        if self.sink is not None and len(events) == events.maxlen:
            self.flush()
        events.append(event)
        self.emitted += 1

    # -- streaming ---------------------------------------------------------

    def flush(self):
        """Drain the ring to the sink (chunked flush at ring-wrap, and
        at end-of-run so the staging file always holds the full stream).
        No-op without a sink; returns the number of events written."""
        if self.sink is None or self.sink.finalized or not self.events:
            return 0
        written = self.sink.write_events(self.events)
        self.events.clear()
        self.streamed += written
        return written

    def finalize(self):
        """Drain the tail and atomically publish the sink file; returns
        its path (None without a sink). Call once the whole experiment
        is done — the tracer stops streaming afterwards."""
        if self.sink is None:
            return None
        self.flush()
        return self.sink.close()

    # -- emitters ----------------------------------------------------------

    def tlb_hit(self, core, pid, level, vpn, shared):
        provenance = ev.PROVENANCE_SHARED if shared else ev.PROVENANCE_PRIVATE
        self._emit((ev.TLB_HIT, core, self._clock.get(core, 0), pid,
                    level, vpn, provenance))
        self.registry.counter("tlb_hits", level=level,
                              provenance=provenance, pid=pid).inc()
        if level != "L2":
            # One L1-level event per access (hit or miss), so this is the
            # per-VPN access heat behind ``summarize --top``.
            self.registry.counter("vpn_accesses", vpn=vpn).inc()

    def tlb_miss(self, core, pid, level, vpn, instr):
        self._emit((ev.TLB_MISS, core, self._clock.get(core, 0), pid,
                    level, vpn, instr))
        self.registry.counter("tlb_misses", level=level, pid=pid).inc()
        if level != "L2":
            self.registry.counter("vpn_accesses", vpn=vpn).inc()

    def page_walk(self, core, pid, vpn, cycles, fault, levels):
        self._emit((ev.PAGE_WALK, core, self._clock.get(core, 0), pid,
                    vpn, cycles, fault, levels))
        self.registry.counter("walks", pid=pid).inc()
        self.registry.histogram("walk_cycles").observe(cycles)
        self.registry.counter("walk_level_reads",
                              outcome="pwc").inc(levels.count("p"))
        self.registry.counter("walk_level_reads",
                              outcome="memory").inc(levels.count("m"))

    def fault(self, core, pid, vpn, kind, cycles, pte_page_copied,
              invalidations):
        self._emit((ev.FAULT, core, self._clock.get(core, 0), pid,
                    vpn, kind, cycles, pte_page_copied, invalidations))
        self.registry.counter("faults", kind=kind, pid=pid).inc()
        self.registry.counter("fault_cycles", kind=kind, pid=pid).inc(cycles)
        if pte_page_copied:
            self.registry.counter("pte_page_copies", pid=pid).inc()
        if invalidations:
            self.registry.counter("fault_invalidations", pid=pid).inc(
                invalidations)

    def sched_switch(self, core, prev_pid, next_pid):
        self._emit((ev.SCHED_SWITCH, core, self._clock.get(core, 0),
                    prev_pid, prev_pid, next_pid))
        self.registry.counter("sched_switches", core=core).inc()

    def invalidation(self, core, pid, vpn, scope):
        self._emit((ev.INVALIDATION, core, self._clock.get(core, 0), pid,
                    vpn, scope))
        self.registry.counter("invalidations", scope=scope).inc()

    def process_spawn(self, core, pid, pcid, ccid, recycled):
        self._emit((ev.PROCESS_SPAWN, core, self._clock.get(core, 0), pid,
                    pcid, ccid, recycled))
        self.registry.counter("process_spawns").inc()
        if recycled:
            self.registry.counter("pcid_recycles").inc()

    def process_exit(self, core, pid, pcid, ccid, invalidations):
        self._emit((ev.PROCESS_EXIT, core, self._clock.get(core, 0), pid,
                    pcid, ccid, invalidations))
        self.registry.counter("process_exits").inc()
        if invalidations:
            self.registry.counter("exit_invalidations").inc(invalidations)

    def quantum(self, core, pid, start_cycle, end_cycle, instructions):
        self._emit((ev.QUANTUM, core, start_cycle, pid, end_cycle,
                    instructions))
        self.registry.histogram("quantum_instructions").observe(instructions)
        self.registry.counter("quantum_cycles", core=core).inc(
            end_cycle - start_cycle)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self):
        """The JSON-ready whole-run aggregate (``RunResult.obs``)."""
        snap = {
            "options": dataclasses.asdict(self.options),
            "events_emitted": self.emitted,
            "events_kept": len(self.events),
            "events_dropped": self.dropped,
            "metrics": self.registry.snapshot(),
        }
        if self.sink is not None:
            snap["events_streamed"] = self.streamed
            snap["sink"] = self.sink.snapshot()
        return snap


def replay_events(event_dicts, options=None):
    """Fold a streamed/exported event sequence back through a fresh
    tracer; returns that tracer (ring + registry populated).

    Replaying a sink file rebuilds the *exact* registry the live run
    had — the equivalence ``python -m repro.obs summarize`` relies on
    when pointed at a ``.jsonl``/``.gz`` event stream instead of a
    summary.
    """
    tracer = Tracer(options)
    for data in event_dicts:
        etype = ev.CODES[data["event"]]
        core, cycle, pid = data["core"], data["cycle"], data["pid"]
        tracer.tick(core, cycle)
        if etype == ev.TLB_HIT:
            tracer.tlb_hit(core, pid, data["level"], data["vpn"],
                           data["provenance"] == ev.PROVENANCE_SHARED)
        elif etype == ev.TLB_MISS:
            tracer.tlb_miss(core, pid, data["level"], data["vpn"],
                            data["instr"])
        elif etype == ev.PAGE_WALK:
            tracer.page_walk(core, pid, data["vpn"], data["cycles"],
                             data["fault"], data["levels"])
        elif etype == ev.FAULT:
            tracer.fault(core, pid, data["vpn"], data["kind"],
                         data["cycles"], data["pte_page_copied"],
                         data["invalidations"])
        elif etype == ev.SCHED_SWITCH:
            tracer.sched_switch(core, data["prev_pid"], data["next_pid"])
        elif etype == ev.INVALIDATION:
            tracer.invalidation(core, pid, data["vpn"], data["scope"])
        elif etype == ev.QUANTUM:
            tracer.quantum(core, pid, cycle, data["end_cycle"],
                           data["instructions"])
        elif etype == ev.PROCESS_SPAWN:
            tracer.process_spawn(core, pid, data["pcid"], data["ccid"],
                                 data["recycled"])
        elif etype == ev.PROCESS_EXIT:
            tracer.process_exit(core, pid, data["pcid"], data["ccid"],
                                data["invalidations"])
    return tracer
