"""``python -m repro.experiments``: run the report's experiment matrix.

``run`` executes every cacheable run behind ``python -m repro.report``
in parallel with progress lines, persisting summaries to the disk run
cache so subsequent report/benchmark invocations are warm.  ``cache``
inspects or clears that store.  ``trace`` captures one fully traced run
(:mod:`repro.obs`) into a directory of artifacts — ``trace.jsonl``,
``trace.chrome.json`` (load in Perfetto / ``chrome://tracing``), and
``summary.json`` — that ``python -m repro.obs`` summarizes and diffs.

``perf`` runs the hot-path harness (:mod:`repro.experiments.perf`): the
same steady-state workload under ``fastpath=True`` and ``fastpath=False``,
asserting bit-identical results and writing the accesses/sec ratio
trajectory to ``BENCH_hotpath.json`` at the repo root.

``churn`` runs the container lifecycle storm
(:mod:`repro.experiments.churn`): hundreds of start/stop/restart cycles
with mid-bring-up kills, the translation sanitizer on, and exact
resource-leak accounting; exits nonzero on any violation or leak.

``zoo`` runs the policy ablation grid (:mod:`repro.experiments.zoo`):
every registered translation policy x the stock workloads, both
execution tiers (L0 memo on and off) bit-identical per cell, MPKI/latency
grid and policy-gain ratios written to ``BENCH_zoo.json``; exits
nonzero if any cell's tiers diverge.

    python -m repro.experiments run --quick --jobs 4
    python -m repro.experiments trace --quick --out /tmp/obs-bf
    python -m repro.experiments cache --clear
    python -m repro.experiments perf --smoke
    python -m repro.experiments churn --smoke
    python -m repro.experiments zoo --smoke --jobs 4
"""

import argparse
import json
import pathlib
import sys
import time

from repro.experiments import fig11
from repro.experiments.common import config_by_name, run_app, set_disk_cache
from repro.experiments.runcache import DiskRunCache, default_cache_dir
from repro.experiments.runner import execute
from repro.obs import (event_from_dict, format_summary, replay_events,
                       summarize, write_chrome_trace, write_jsonl)
from repro.obs.export import codec_of, read_jsonl


def _add_scale_args(parser):
    parser.add_argument("--quick", action="store_true",
                        help="small cores/scale (~1 minute)")
    parser.add_argument("--cores", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)


def resolve_scale_args(parser, args):
    """Validated (cores, scale) with --quick defaults.

    Explicit zero/negative values are errors, not silent fallbacks to
    the defaults (``--cores 0`` must not mean ``--cores 8``).
    """
    if args.cores is not None and args.cores < 1:
        parser.error("--cores must be a positive integer (got %d)"
                     % args.cores)
    if args.scale is not None and args.scale <= 0:
        parser.error("--scale must be a positive number (got %g)"
                     % args.scale)
    cores = args.cores if args.cores is not None else (2 if args.quick else 8)
    scale = args.scale if args.scale is not None else (
        0.25 if args.quick else 1.0)
    return cores, scale


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m repro.experiments",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="execute the report's run matrix (parallel, cached)")
    _add_scale_args(run_parser)
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes (default 1)")
    run_parser.add_argument("--cache-dir", default=None,
                            help="disk cache directory (default "
                                 "benchmarks/out/runcache)")
    run_parser.add_argument("--no-disk-cache", action="store_true",
                            help="keep results in memory only")
    run_parser.add_argument("--live", action="store_true",
                            help="live progress lines (throughput/ETA), "
                                 "one step per finished run under --jobs")

    trace_parser = sub.add_parser(
        "trace", help="capture one traced run (JSONL + Chrome trace)")
    _add_scale_args(trace_parser)
    trace_parser.add_argument("--app", default="mongodb",
                              help="application to trace (default mongodb)")
    trace_parser.add_argument("--config", default="BabelFish",
                              help="config name (default BabelFish)")
    trace_parser.add_argument("--out", default=None,
                              help="capture directory (default "
                                   "benchmarks/out/trace/<app>-<config>)")
    trace_parser.add_argument("--top", type=int, default=10,
                              help="hottest VPNs in the summary (default 10)")
    trace_parser.add_argument("--sink", default=None, metavar="NAME",
                              help="stream events to NAME in the capture "
                                   "directory instead of keeping the ring "
                                   "(.jsonl or .jsonl.gz; the "
                                   "stream replaces trace.jsonl and is "
                                   "replay-verified against the live run)")

    cache_parser = sub.add_parser("cache", help="inspect/clear the run cache")
    cache_parser.add_argument("--dir", default=None,
                              help="cache directory (default "
                                   "benchmarks/out/runcache)")
    cache_parser.add_argument("--clear", action="store_true")

    perf_parser = sub.add_parser(
        "perf", help="hot-path perf harness: fast vs reference, "
                     "writes BENCH_hotpath.json")
    perf_parser.add_argument("--smoke", action="store_true",
                             help="smoke tier only (tiny config; CI)")
    perf_parser.add_argument("--out", default=None,
                             help="output JSON path (default "
                                  "BENCH_hotpath.json at the repo root)")
    perf_parser.add_argument("--repeats", type=int, default=None,
                             help="timing repeats per tier (default: "
                                  "the tier's own setting)")
    perf_parser.add_argument("--live", action="store_true",
                             help="per-tier live progress lines "
                                  "(instructions/sec)")

    churn_parser = sub.add_parser(
        "churn", help="container lifecycle storm: start/stop/restart "
                      "with leak + coherence checks")
    churn_parser.add_argument("--cycles", type=int, default=500,
                              help="launch/stop cycles (default 500)")
    churn_parser.add_argument("--smoke", action="store_true",
                              help="small CI tier (40 cycles)")
    churn_parser.add_argument("--config", default="BabelFish",
                              help="config name (default BabelFish)")
    churn_parser.add_argument("--no-sanitize", action="store_true",
                              help="skip the translation sanitizer "
                                   "(leak checks still run)")
    churn_parser.add_argument("--seed", type=int, default=1234)
    churn_parser.add_argument("--live", action="store_true",
                              help="live progress lines (cycles/sec, "
                                   "launch/stop/kill counters)")

    zoo_parser = sub.add_parser(
        "zoo", help="policy ablation grid: every registered policy x "
                    "stock workloads, tiers triangulated, writes "
                    "BENCH_zoo.json")
    zoo_parser.add_argument("--smoke", action="store_true",
                            help="smoke tier only (one app, tiny slice; CI)")
    zoo_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes (default 1)")
    zoo_parser.add_argument("--out", default=None,
                            help="output JSON path (default BENCH_zoo.json "
                                 "at the repo root)")
    zoo_parser.add_argument("--cache-dir", default=None,
                            help="disk cache directory (default "
                                 "benchmarks/out/runcache)")
    zoo_parser.add_argument("--no-disk-cache", action="store_true",
                            help="keep results in memory only")
    zoo_parser.add_argument("--live", action="store_true",
                            help="live progress lines, one step per "
                                 "finished run under --jobs")

    args = parser.parse_args(argv)
    if args.command == "cache":
        return _cache_command(args)
    if args.command == "trace":
        return _trace_command(trace_parser, args)
    if args.command == "perf":
        return _perf_command(perf_parser, args)
    if args.command == "churn":
        return _churn_command(churn_parser, args)
    if args.command == "zoo":
        return _zoo_command(zoo_parser, args)
    return _run_command(run_parser, args)


def _run_command(parser, args):
    if args.jobs < 1:
        parser.error("--jobs must be a positive integer (got %d)" % args.jobs)
    cores, scale = resolve_scale_args(parser, args)
    if not args.no_disk_cache:
        cache = DiskRunCache(args.cache_dir)
        set_disk_cache(cache)
        print("run cache: %s" % cache.root)
    matrix = fig11.requests(cores=cores, scale=scale)
    print("executing %d runs (cores=%d scale=%.2f jobs=%d)"
          % (len(matrix), cores, scale, args.jobs))
    monitor = None
    if args.live:
        from repro.obs.live import ProgressMonitor
        monitor = ProgressMonitor(unit="runs", label="matrix", interval=1.0)
    start = time.perf_counter()
    runs = execute(matrix, jobs=args.jobs, progress=print, monitor=monitor)
    print("done: %d runs in %.1fs" % (len(runs), time.perf_counter() - start))
    return 0


def _trace_command(parser, args):
    cores, scale = resolve_scale_args(parser, args)
    out = pathlib.Path(args.out) if args.out else (
        default_cache_dir().parent / "trace"
        / ("%s-%s" % (args.app, args.config)))
    sink_path = None
    if args.sink:
        sink_path = out / args.sink
        try:
            codec_of(sink_path)
        except ValueError as exc:
            parser.error(str(exc))
        config = config_by_name(args.config,
                                trace={"sink": str(sink_path)})
    else:
        config = config_by_name(args.config, trace=True)
    print("tracing %s under %s (cores=%d scale=%.2f) -> %s"
          % (args.app, args.config, cores, scale, out))
    # The cache stores only aggregate snapshots; the event ring lives on
    # the live simulator, so a capture always runs fresh.
    run = run_app(args.app, config, cores=cores, scale=scale,
                  use_cache=False)
    snapshot = run.result.obs
    tracer = run.env.sim.tracer
    if sink_path is not None:
        tracer.finalize()
        # Self-verify the stream: replaying the published file through
        # fresh emitters must rebuild the live run's metrics exactly
        # (the ring-equivalence property, checked on every capture
        # because it is cheap relative to the run).
        event_dicts = read_jsonl(sink_path)
        replayed = replay_events(event_dicts)
        if replayed.registry.snapshot() != tracer.registry.snapshot():
            print("stream replay DIVERGED from the live run: %s"
                  % sink_path, file=sys.stderr)
            return 1
        events = [event_from_dict(d) for d in event_dicts]
    else:
        events = list(tracer.events)
    out.mkdir(parents=True, exist_ok=True)
    if sink_path is None:
        kept = write_jsonl(events, out / "trace.jsonl")
    else:
        kept = len(events)
    write_chrome_trace(events, out / "trace.chrome.json",
                       metadata={"app": args.app, "config": args.config,
                                 "cores": cores, "scale": scale})
    # The summary carries the *dense-pid* snapshot (as_dict remaps
    # raw pids to creation-order indices) so ``python -m repro.obs
    # diff`` between two captures compares like with like; the raw
    # pids survive in trace.jsonl, next to the events that carry them.
    result_dict = run.result.as_dict()
    capture = {
        "app": args.app,
        "config": args.config,
        "cores": cores,
        "scale": scale,
        "obs": result_dict.pop("obs"),
        "result": result_dict,
    }
    (out / "summary.json").write_text(
        json.dumps(capture, indent=2, sort_keys=True) + "\n")
    print(format_summary(summarize(snapshot, top=args.top)))
    print("captured %d events (%d emitted, %d dropped) -> %s"
          % (kept, snapshot["events_emitted"], snapshot["events_dropped"],
             out))
    if sink_path is not None:
        print("streamed %d events -> %s (replay verified)"
              % (kept, sink_path))
    return 0


def _perf_command(parser, args):
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be a positive integer (got %d)"
                     % args.repeats)
    from repro.experiments.perf import run_harness
    run_harness(smoke=args.smoke, out=args.out, repeats=args.repeats,
                live=args.live)
    return 0


def _churn_command(parser, args):
    if args.cycles < 1:
        parser.error("--cycles must be a positive integer (got %d)"
                     % args.cycles)
    from repro.experiments.churn import format_churn, run_churn
    cycles = 40 if args.smoke else args.cycles
    monitor = None
    if args.live:
        from repro.obs.live import ProgressMonitor
        monitor = ProgressMonitor(total=cycles, unit="cycles",
                                  label="churn", interval=1.0)
    result = run_churn(cycles=cycles, config_name=args.config,
                       sanitize=not args.no_sanitize, seed=args.seed,
                       progress=monitor)
    print(format_churn(result))
    return 0 if result.clean else 1


def _zoo_command(parser, args):
    if args.jobs < 1:
        parser.error("--jobs must be a positive integer (got %d)" % args.jobs)
    from repro.experiments.zoo import run_zoo
    if not args.no_disk_cache:
        cache = DiskRunCache(args.cache_dir)
        set_disk_cache(cache)
        print("run cache: %s" % cache.root)
    monitor = None
    if args.live:
        from repro.obs.live import ProgressMonitor
        monitor = ProgressMonitor(unit="runs", label="zoo", interval=1.0)
    payload = run_zoo(smoke=args.smoke, jobs=args.jobs, out=args.out,
                      progress=print, monitor=monitor)
    ran = ("smoke",) if args.smoke else ("smoke", "full")
    divergent = [cell for name in ran
                 for cell in payload["tiers"][name].get("divergent", ())]
    if divergent:
        print("tier divergence in: %s" % ", ".join(sorted(set(divergent))),
              file=sys.stderr)
        return 1
    return 0


def _cache_command(args):
    cache = DiskRunCache(args.dir)
    entries = cache.entries()
    total = sum(path.stat().st_size for path in entries)
    print("cache dir:  %s" % cache.root)
    print("entries:    %d (%.1f KiB)" % (len(entries), total / 1024.0))
    print("code hash:  %s" % cache.fingerprint[:16])
    if args.clear:
        removed = cache.clear()
        print("cleared:    %d entries" % removed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
