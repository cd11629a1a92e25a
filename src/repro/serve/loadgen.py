"""Open-loop load generator and SLO reporter for the serving daemon.

Drives a running daemon through the whole serving story and writes the
``BENCH_serve.json`` trajectory the perf watchdog gates on:

1. **Cold baseline** — N single-shot runs, each a fresh subprocess
   (``python -m repro.serve coldrun``) paying interpreter start, the
   ``repro`` imports, and the simulation. This is the cost the warm
   pool exists to amortize, measured honestly (wall clock around the
   whole process, not just the sim).
2. **Prime + burst** — one request primes the run cache, then ≥8
   concurrent connections all ask for it again; every one must come
   back ``served: cache`` with a bit-identical summary.
3. **Open loop** — Poisson arrivals for ``duration`` seconds at
   ``rate``/s, each on its own connection (open-loop: arrivals never
   wait for completions, so queueing shows up in the latency numbers
   instead of being hidden by back-pressure). The mix is warm-class
   requests (``use_cache: false`` with a per-arrival scale jitter, so
   each one really simulates) and cache-class repeats, across both
   priority classes; uniform extra arrivals pad a sparse draw to
   :data:`WARM_FLOOR` warm-class ones.
4. **Chaos** — one request carries ``chaos: "exit"``; the worker dies
   mid-request and the reply must come back ``served: warm-retry`` with
   the same bytes an undisturbed run produces.

The report splits latency percentiles cold / cache / warm (nearest-rank
:func:`repro.sim.stats.percentile` — the same helper behind
``RunResult.as_dict``) and distills the two watched ratios:
``warm_speedup`` (cold single-shot p50 wall over warm-pool *service*
p95) and ``cache_speedup`` (cold p50 over cache-hit p95). The warm
ratio uses the daemon's per-request service time, not the end-to-end
client latency: queueing under an open-loop burst is a property of the
offered load, not of bring-up amortization, and the cold baseline it is
compared against never queues. End-to-end warm percentiles are still
reported (``latency.warm``) so queueing stays visible.
"""

import asyncio
import json
import os
import random
import subprocess
import sys
import time

from repro.serve import protocol
from repro.sim.stats import percentile

#: Keys of the default loadgen workload (a micro mongodb run: large
#: enough to exercise the full sim stack, small enough that a smoke
#: sweep finishes in seconds).
DEFAULT_WORKLOAD = {"app": "mongodb", "config_name": "BabelFish",
                    "cores": 1, "scale": 0.05}


class ServeClient:
    """Minimal asyncio client for the serve wire protocol."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._next_id = 0

    @classmethod
    async def connect(cls, socket_path=None, host="127.0.0.1", port=0):
        if socket_path is not None:
            reader, writer = await asyncio.open_unix_connection(
                str(socket_path))
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self):
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def call(self, body):
        """One request frame -> its first reply frame (simple ops)."""
        await protocol.write_frame(self._writer, body)
        reply = await protocol.read_frame(self._reader)
        if reply is None:
            raise ConnectionError("server closed the connection")
        return reply

    async def run(self, request, priority="interactive", use_cache=True,
                  stream=False, chaos=None, progress_interval=None,
                  on_progress=None):
        """Submit one run and collect its terminal reply.

        Progress frames (when ``stream``) are counted and optionally
        forwarded to ``on_progress``; the terminal ``result``/``error``
        frame comes back annotated with ``progress_frames``.
        """
        self._next_id += 1
        frame = {"op": "run", "id": self._next_id, "request": request,
                 "priority": priority, "use_cache": use_cache}
        if stream:
            frame["stream"] = True
            if progress_interval is not None:
                frame["progress_interval"] = progress_interval
        if chaos is not None:
            frame["chaos"] = chaos
        await protocol.write_frame(self._writer, frame)
        seen = 0
        while True:
            reply = await protocol.read_frame(self._reader)
            if reply is None:
                raise ConnectionError("server closed mid-request")
            if reply.get("kind") == "progress":
                seen += 1
                if on_progress is not None:
                    on_progress(reply.get("progress"))
                continue
            reply["progress_frames"] = seen
            return reply

    async def ping(self):
        return await self.call({"op": "ping"})

    async def stats(self):
        return (await self.call({"op": "stats"})).get("stats", {})

    async def shutdown(self):
        return await self.call({"op": "shutdown"})


def canonical(summary):
    """Canonical JSON of a summary — the bit-identity comparator (a
    summary that crossed the wire compares equal to the in-process one
    iff they serialize to the same bytes)."""
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))


def _coldrun_once(workload):
    """One cold single-shot: a fresh interpreter runs the workload
    uncached; returns the end-to-end wall seconds."""
    command = [sys.executable, "-m", "repro.serve", "coldrun",
               "--app", workload["app"],
               "--config", workload["config_name"],
               "--cores", str(workload["cores"]),
               "--scale", "%g" % workload["scale"]]
    started = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True,
                          env=dict(os.environ))
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError("coldrun failed (rc=%d): %s"
                           % (proc.returncode, proc.stderr.strip()[-500:]))
    return wall


def _latency_block(values):
    if not values:
        return {"count": 0}
    values = sorted(values)
    return {"count": len(values),
            "mean_s": sum(values) / len(values),
            "p50_s": percentile(values, 50),
            "p95_s": percentile(values, 95),
            "p99_s": percentile(values, 99),
            "max_s": values[-1]}


def poisson_arrivals(rng, rate, duration):
    """Open-loop arrival offsets (seconds) for a Poisson process."""
    arrivals = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return arrivals
        arrivals.append(t)


#: Floor on warm-class arrivals in every open loop. The warm service p95
#: the amortization check reads is a nearest-rank percentile, which over
#: fewer than 20 samples is the slowest single request, so one slow
#: request would decide ``warm_speedup``. Twenty warm-class arrivals also
#: bring both classes and both priorities into every plan.
WARM_FLOOR = 20


def arrival_plan(rng, rate, duration):
    """The open loop's ``(index, offset, class, priority)`` arrivals.

    Arrival *times* are Poisson; the class/priority mix is a fixed
    round-robin (three warm-class arrivals in every five, every third
    one batch priority) so every run exercises both classes and both
    priorities. Uniform extra arrivals over the same window pad the
    plan until it holds :data:`WARM_FLOOR` warm-class arrivals."""
    arrivals = poisson_arrivals(rng, rate, duration)
    while _warm_count(len(arrivals)) < WARM_FLOOR:
        arrivals.append(rng.uniform(0.0, duration))
    arrivals.sort()
    return [(index, offset, "warm" if index % 5 < 3 else "cache",
             "batch" if index % 3 == 2 else "interactive")
            for index, offset in enumerate(arrivals)]


def _warm_count(arrivals):
    """Warm-class arrivals among the first ``arrivals`` of a plan."""
    return 3 * (arrivals // 5) + min(arrivals % 5, 3)


async def run_loadgen(socket_path=None, host="127.0.0.1", port=0,
                      rate=4.0, duration=4.0, clients=8, seed=1234,
                      workload=None, cold_runs=3, verify_direct=False,
                      do_shutdown=False, emit=None):
    """Drive the daemon through every serving phase; returns
    ``(report, failures)`` where a non-empty ``failures`` list means the
    SLO/identity contract was violated."""
    say = _announce if emit is None else emit
    workload = dict(DEFAULT_WORKLOAD, **(workload or {}))
    endpoint = {"socket_path": socket_path, "host": host, "port": port}
    rng = random.Random(seed)
    failures = []
    loop = asyncio.get_running_loop()

    # Phase 0: cold single-shot baseline (fresh process per run). One
    # discarded warmup run first: the very first subprocess pays
    # one-time OS costs (page cache, pyc stat storms) that belong to
    # neither side of the cold/warm comparison.
    say("loadgen: cold baseline — %d single-shot subprocess run(s)"
        % cold_runs)
    cold_warmup = await loop.run_in_executor(None, _coldrun_once, workload)
    say("loadgen: cold warmup (discarded): %.2fs" % cold_warmup)
    cold_walls = []
    for index in range(cold_runs):
        wall = await loop.run_in_executor(None, _coldrun_once, workload)
        cold_walls.append(wall)
        say("loadgen: cold %d/%d: %.2fs" % (index + 1, cold_runs, wall))

    fixed = {"kind": "app", "app": workload["app"],
             "config_name": workload["config_name"],
             "cores": workload["cores"], "scale": workload["scale"]}

    # Phase 1: prime the run cache with the fixed request.
    client = await ServeClient.connect(**endpoint)
    started = time.monotonic()
    reply = await client.run(fixed, priority="interactive")
    prime_latency = time.monotonic() - started
    await client.close()
    if reply.get("kind") != "result":
        raise RuntimeError("prime request failed: %r" % (reply,))
    prime_summary = canonical(reply["summary"])
    say("loadgen: primed (%s, %.2fs)" % (reply["served"], prime_latency))

    # Phase 2: burst — all connections open before any request is sent,
    # so the daemon provably multiplexes >= `clients` concurrent peers.
    say("loadgen: burst — %d concurrent clients on the cached request"
        % clients)
    conns = [await ServeClient.connect(**endpoint) for _ in range(clients)]
    burst = await asyncio.gather(
        *[_timed_run(conn, fixed, "interactive") for conn in conns])
    for conn in conns:
        await conn.close()
    cache_latencies = []
    for latency, result in burst:
        if result.get("kind") != "result":
            failures.append("burst request failed: %r" % (result,))
            continue
        if result.get("served") != "cache":
            failures.append("burst request served %r, expected 'cache'"
                            % result.get("served"))
        if canonical(result["summary"]) != prime_summary:
            failures.append("burst summary diverged from the primed one")
        cache_latencies.append(latency)

    # Phase 3: open-loop Poisson arrivals, mixed class and priority.
    plan = arrival_plan(rng, rate, duration)
    say("loadgen: open loop — %d arrival(s), %d warm-class (floor %d), "
        "over %.1fs: %.1f/s effective, Poisson rate %g/s"
        % (len(plan), sum(spec[2] == "warm" for spec in plan), WARM_FLOOR,
           duration, len(plan) / duration, rate))
    outcomes = await asyncio.gather(
        *[_one_arrival(endpoint, fixed, workload, spec) for spec in plan],
        return_exceptions=True)
    warm_latencies, warm_service, dropped, streamed_frames = [], [], 0, 0
    by_served = {}
    by_priority = {"interactive": 0, "batch": 0}
    for spec, outcome in zip(plan, outcomes):
        if isinstance(outcome, BaseException):
            dropped += 1
            failures.append("arrival %d dropped: %s" % (spec[0], outcome))
            continue
        latency, result = outcome
        if result.get("kind") != "result":
            dropped += 1
            failures.append("arrival %d errored: %r"
                            % (spec[0], result.get("error")))
            continue
        served = result.get("served")
        by_served[served] = by_served.get(served, 0) + 1
        by_priority[spec[3]] += 1
        streamed_frames += result.get("progress_frames", 0)
        if spec[2] == "warm":
            warm_latencies.append(latency)
            warm_service.append(result["timings"]["service_s"])
            if served == "cache":
                failures.append("warm-class arrival %d was cache-served"
                                % spec[0])
        else:
            cache_latencies.append(latency)
            if canonical(result["summary"]) != prime_summary:
                failures.append("cache-class arrival %d summary diverged"
                                % spec[0])

    # Phase 4: chaos — kill a worker mid-request, require the retried
    # result to be byte-identical to the undisturbed one.
    say("loadgen: chaos — killing one worker mid-request")
    conn = await ServeClient.connect(**endpoint)
    started = time.monotonic()
    chaos_reply = await conn.run(fixed, priority="interactive",
                                 use_cache=False, chaos="exit")
    chaos_latency = time.monotonic() - started
    await conn.close()
    chaos_recovered = (chaos_reply.get("kind") == "result"
                       and chaos_reply.get("retried") is True
                       and chaos_reply.get("served") == "warm-retry")
    chaos_identical = (chaos_reply.get("kind") == "result"
                       and canonical(chaos_reply["summary"])
                       == prime_summary)
    if not chaos_recovered:
        failures.append("chaos request did not recover via retry: %r"
                        % {k: chaos_reply.get(k)
                           for k in ("kind", "served", "retried", "error")})
    if not chaos_identical:
        failures.append("chaos retry summary diverged from the "
                        "undisturbed result")

    # Phase 5 (optional): re-simulate in-process and compare bytes.
    direct_identical = None
    if verify_direct:
        say("loadgen: verifying served bytes against a direct run")
        direct_identical = await loop.run_in_executor(
            None, _direct_matches, fixed, prime_summary)
        if not direct_identical:
            failures.append("served summary diverged from a direct "
                            "runner.run_request execution")

    client = await ServeClient.connect(**endpoint)
    daemon_stats = await client.stats()
    if do_shutdown:
        await client.shutdown()
    await client.close()

    report = _build_report(workload, rate, duration, clients, seed,
                           cold_walls, cache_latencies, warm_latencies,
                           warm_service, prime_latency, chaos_latency,
                           chaos_recovered, chaos_identical,
                           direct_identical, by_served, by_priority,
                           dropped, streamed_frames, daemon_stats,
                           failures)
    report["latency"]["cold_warmup_s"] = cold_warmup
    ratios = report["tiers"]["serve"]
    if ratios["warm_speedup"] is None:
        failures.append("no warm-class samples; warm_speedup unmeasured")
    elif ratios["warm_speedup"] <= 1.0:
        failures.append("no amortization: warm service p95 %.2fs did not "
                        "beat cold p50 %.2fs"
                        % (report["latency"]["warm_service"]
                           .get("p95_s", -1.0),
                           report["latency"]["cold"].get("p50_s", -1.0)))
    report["ok"] = not failures
    report["failures"] = list(failures)
    return report, failures


def _announce(message):
    print(message, flush=True)


async def _timed_run(conn, request, priority):
    started = time.monotonic()
    reply = await conn.run(request, priority=priority)
    return time.monotonic() - started, reply


async def _one_arrival(endpoint, fixed, workload, spec):
    """One open-loop arrival: sleep to its offset, connect, run, close."""
    index, offset, cls, priority = spec
    await asyncio.sleep(offset)
    conn = await ServeClient.connect(**endpoint)
    try:
        started = time.monotonic()
        if cls == "warm":
            # Jitter makes every warm request a distinct cache key, so
            # it must really simulate (that is the class's whole point).
            request = dict(fixed,
                           scale=workload["scale"] + (index + 1) * 1e-4)
            reply = await conn.run(request, priority=priority,
                                   use_cache=False,
                                   stream=(index % 4 == 0),
                                   progress_interval=0.05)
        else:
            reply = await conn.run(fixed, priority=priority)
        return time.monotonic() - started, reply
    finally:
        await conn.close()


def _direct_matches(fixed, prime_summary):
    """Fresh in-process simulation of ``fixed`` == the served bytes?"""
    from repro.experiments import runner
    request = protocol.wire_to_request(fixed)
    run = runner.run_request(request, use_cache=False)
    summary = runner.request_summary(request, run)
    # The served summary crossed a JSON boundary; push the direct one
    # through the same encoding so tuples/lists compare canonically.
    return canonical(json.loads(canonical(summary))) == prime_summary


def _build_report(workload, rate, duration, clients, seed, cold_walls,
                  cache_latencies, warm_latencies, warm_service,
                  prime_latency, chaos_latency, chaos_recovered,
                  chaos_identical, direct_identical, by_served,
                  by_priority, dropped, streamed_frames, daemon_stats,
                  failures):
    cold = _latency_block(cold_walls)
    cache = _latency_block(cache_latencies)
    warm = _latency_block(warm_latencies)
    service = _latency_block(warm_service)

    def _ratio(numerator, denominator):
        if numerator is None or denominator is None or denominator <= 0:
            return None
        return numerator / denominator

    warm_speedup = _ratio(cold.get("p50_s"), service.get("p95_s"))
    cache_speedup = _ratio(cold.get("p50_s"), cache.get("p95_s"))
    identical = (chaos_identical
                 and (direct_identical is not False)
                 and not any("diverged" in f for f in failures))
    total = (cache["count"] + warm["count"] + 1  # + the prime request
             + (1 if chaos_recovered or chaos_latency else 0))
    return {
        "schema": "repro-serve-slo/1",
        "workload": dict(workload, rate=rate, duration=duration,
                         warm_floor=WARM_FLOOR, clients=clients,
                         seed=seed),
        "requests": {"total": total, "dropped": dropped,
                     "by_served": dict(sorted(by_served.items())),
                     "by_priority": by_priority,
                     "progress_frames": streamed_frames},
        "latency": {"cold": cold, "cache": cache, "warm": warm,
                    "warm_service": service,
                    "prime_s": prime_latency, "chaos_s": chaos_latency},
        "chaos": {"exercised": True, "recovered": chaos_recovered,
                  "identical": chaos_identical},
        "verify_direct": direct_identical,
        "daemon_stats": daemon_stats,
        "tiers": {"serve": {"warm_speedup": warm_speedup,
                            "cache_speedup": cache_speedup,
                            "identical": identical,
                            "cold_p50_s": cold.get("p50_s"),
                            "warm_service_p95_s": service.get("p95_s"),
                            "warm_e2e_p95_s": warm.get("p95_s"),
                            "cache_p95_s": cache.get("p95_s")}},
    }


def write_report(report, path):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
