"""The pool worker process: prewarm once, then serve requests forever.

A worker is spawned by :class:`repro.serve.pool.WarmPool` with one end
of a pipe. On start it pays the whole bring-up bill exactly once —
interpreter start, ``repro`` imports, stock workload trace generation,
and one micro end-to-end simulation that touches kernel bring-up, the
fast-path structures, and the cache hierarchy — then reports ``ready``
and enters a recv/run/reply loop. Requests recycle the process instead
of killing it, so the steady-state cost of a served simulation is the
simulation alone; that amortization is the daemon's whole reason to
exist (BabelFish's keep-warm discipline, applied to our own harness).

Workers also keep the runner's two cache layers warm *in-process*: the
in-memory memo (:mod:`repro.experiments.common`) survives between
requests, and the parent's disk cache is installed at start with the
parent's code fingerprint, so anything a worker simulates is persisted
exactly like a direct ``--jobs N`` run would persist it.

Messages (pickled tuples over the pipe):

- parent -> worker: ``("run", payload)``, ``("ping",)``, ``("exit",)``
- worker -> parent: ``("ready", info)`` once, then per run any number
  of ``("progress", snapshot)`` followed by exactly one of
  ``("result", body)`` / ``("error", body)``; ``("pong", info)`` for
  pings and ``("bye", {})`` before a clean exit.

A ``payload["chaos"] == "exit"`` request makes the worker die with
``os._exit`` before touching the simulator — the fault-injection hook
the crash-recovery tests and the loadgen smoke use to prove a dead
worker's request is retried on a fresh one.
"""

import os
import time
import traceback

from repro.experiments import common, runner
from repro.experiments.runcache import DiskRunCache
from repro.obs.live import ProgressMonitor
from repro.serve import protocol

#: Exit status of a chaos-killed worker (distinguishable from crashes
#: the tests did not ask for).
CHAOS_EXIT_STATUS = 17

#: These entry points are dispatched from outside this module (the pool
#: spawns ``worker_main`` as a child-process target), so the BF601/602
#: parallel-safety reachability scan must seed from them explicitly.
DISPATCH_ROOTS = ("worker_main",)


def prewarm():
    """Pay the bring-up bill: compile stock traces, run a micro sim.

    Generating (and materializing) one small trace per stock profile
    warms every workload generator; the micro ``run_app`` drives kernel
    bring-up, page-table construction, the TLB/cache structures, and the
    fast-path memo end to end, so the first real request meets fully
    warmed code paths. Returns accounting for the ``ready`` message.
    """
    from repro.workloads.compute import compute_trace
    from repro.workloads.dataserving import serving_trace
    from repro.workloads.profiles import APP_PROFILES as profiles
    started = time.perf_counter()
    records = 0
    for name in sorted(profiles):
        profile = profiles[name]
        if profile.kind == "serving":
            trace = serving_trace(profile, 0, requests=2,
                                  tag_requests=False, seed_offset=1)
        else:
            trace = compute_trace(profile, 0, iterations=1, seed_offset=1)
        records += sum(1 for _ in trace)
    config = common.config_by_name("BabelFish")
    common.run_app("mongodb", config, cores=1, scale=0.02, use_cache=False)
    return {"prewarm_seconds": time.perf_counter() - started,
            "prewarm_trace_records": records}


def worker_main(conn, cache_root=None, fingerprint=None, warm=True):
    """Child-process entry point: prewarm, announce ready, serve."""
    info = {"pid": os.getpid(), "prewarm_seconds": 0.0,
            "prewarm_trace_records": 0}
    if warm:
        info.update(prewarm())
    if cache_root is not None:
        common.set_disk_cache(DiskRunCache(cache_root,
                                           fingerprint=fingerprint))
    conn.send(("ready", info))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "exit":
            _send(conn, ("bye", {}))
            break
        if op == "ping":
            _send(conn, ("pong", {"pid": os.getpid(),
                                  "served": info.get("served", 0)}))
            continue
        if op == "run":
            _serve_one(conn, message[1])
            info["served"] = info.get("served", 0) + 1
        else:
            _send(conn, ("error", {"code": "bad_op",
                                   "type": "ValueError",
                                   "message": "unknown op %r" % (op,)}))
    conn.close()


def _send(conn, message):
    """Best-effort send: a parent that died mid-run must not wedge the
    worker in a broken-pipe traceback loop."""
    try:
        conn.send(message)
        return True
    except (OSError, ValueError):
        return False


def _serve_one(conn, payload):
    """Run one request payload and reply with its summary (or error)."""
    if payload.get("chaos") == "exit":
        # Fault injection: die hard, mid-request, without replying.
        os._exit(CHAOS_EXIT_STATUS)
    try:
        request = protocol.wire_to_request(payload.get("request") or {})
    except protocol.ProtocolError as exc:
        _send(conn, ("error", protocol.error_body(exc)))
        return
    monitor = None
    if payload.get("stream"):
        monitor = _streaming_monitor(conn, payload)
    started = time.perf_counter()
    simulated_before = common.simulation_run_count()
    try:
        run = runner.run_request(request, monitor=monitor,
                                 use_cache=payload.get("use_cache", True))
        summary = runner.request_summary(request, run)
    except Exception as exc:  # every failure becomes a typed reply
        _send(conn, ("error", {"code": "run_failed",
                               "type": type(exc).__name__,
                               "message": str(exc),
                               "traceback": traceback.format_exc()}))
        return
    _send(conn, ("result", {
        "summary": summary,
        "sim_seconds": time.perf_counter() - started,
        "simulated": common.simulation_run_count() > simulated_before,
        "pid": os.getpid(),
    }))


def _streaming_monitor(conn, payload):
    """A ProgressMonitor whose snapshot lines ship over the pipe.

    The monitor advances on the simulator's per-quantum hook; every
    emitted line becomes a ``("progress", snapshot)`` message carrying
    the structured :meth:`~repro.obs.live.ProgressMonitor.as_dict` form
    next to the human-readable line.
    """
    holder = {}

    def _emit(line):
        monitor = holder["monitor"]
        _send(conn, ("progress", dict(monitor.as_dict(), line=line)))

    monitor = ProgressMonitor(
        unit="instructions", label="sim",
        interval=payload.get("progress_interval", 0.5), emit=_emit)
    holder["monitor"] = monitor
    return monitor
