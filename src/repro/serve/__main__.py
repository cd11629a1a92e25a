"""CLI for the serving daemon.

::

    python -m repro.serve daemon --socket /tmp/repro.sock --pool 2
    python -m repro.serve daemon --port 7421
    python -m repro.serve loadgen --socket /tmp/repro.sock \\
        --out BENCH_serve.json
    python -m repro.serve loadgen --socket /tmp/repro.sock --smoke
    python -m repro.serve coldrun --app mongodb --scale 0.05

``daemon`` runs until SIGTERM/SIGINT or a client ``shutdown`` frame,
then drains gracefully (in-flight and queued requests all finish).
``loadgen`` drives a running daemon through the SLO phases and writes
the ``BENCH_serve.json`` trajectory; it exits nonzero if any request
dropped, crash recovery failed, served bytes diverged, or the warm pool
showed no amortization. ``coldrun`` is the loadgen's cold-baseline
probe: one uncached simulation in this (fresh) interpreter.
"""

import argparse
import asyncio
import json
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="warm-pool simulation-serving daemon")
    sub = parser.add_subparsers(dest="command", required=True)

    daemon_parser = sub.add_parser(
        "daemon", help="run the serving daemon until SIGTERM/shutdown")
    _endpoint_arguments(daemon_parser)
    daemon_parser.add_argument("--pool", type=int, default=2,
                               help="warm worker count (default 2)")
    daemon_parser.add_argument("--cache-dir", default=None,
                               help="run-cache directory (default: the "
                               "repo's benchmarks/out/runcache)")
    daemon_parser.add_argument("--no-warm", action="store_true",
                               help="skip worker prewarm (tests only; "
                               "defeats the amortization)")
    daemon_parser.add_argument("--no-cache", action="store_true",
                               help="disable the daemon's cache-hit "
                               "fast path and worker disk cache")

    load_parser = sub.add_parser(
        "loadgen", help="drive a running daemon and write the SLO report")
    _endpoint_arguments(load_parser)
    load_parser.add_argument("--rate", type=float, default=4.0,
                             help="open-loop Poisson arrival rate per "
                             "second (default 4; uniform arrivals pad "
                             "the draw to 20 warm-class ones)")
    load_parser.add_argument("--duration", type=float, default=4.0,
                             help="open-loop phase length in seconds "
                             "(default 4)")
    load_parser.add_argument("--clients", type=int, default=8,
                             help="concurrent connections in the burst "
                             "phase (default 8)")
    load_parser.add_argument("--seed", type=int, default=1234)
    load_parser.add_argument("--cold-runs", type=int, default=3,
                             help="cold single-shot baseline runs "
                             "(default 3)")
    load_parser.add_argument("--scale", type=float, default=0.05,
                             help="workload scale of the fixed request")
    load_parser.add_argument("--app", default="mongodb")
    load_parser.add_argument("--config", default="BabelFish",
                             dest="config_name")
    load_parser.add_argument("--smoke", action="store_true",
                             help="short CI preset: a 2 s open loop, "
                             "2 cold runs, direct-run verification on")
    load_parser.add_argument("--verify-direct", action="store_true",
                             help="re-simulate the fixed request "
                             "in-process and require byte identity")
    load_parser.add_argument("--shutdown", action="store_true",
                             help="send a shutdown frame when done")
    load_parser.add_argument("--out", default="BENCH_serve.json",
                             help="SLO report path "
                             "(default BENCH_serve.json)")

    cold_parser = sub.add_parser(
        "coldrun", help="one uncached run in this interpreter (the "
        "loadgen's cold-baseline probe)")
    cold_parser.add_argument("--app", default="mongodb")
    cold_parser.add_argument("--config", default="BabelFish",
                             dest="config_name")
    cold_parser.add_argument("--cores", type=int, default=1)
    cold_parser.add_argument("--scale", type=float, default=0.05)

    args = parser.parse_args(argv)
    if args.command == "daemon":
        return _cmd_daemon(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    return _cmd_coldrun(args)


def _endpoint_arguments(parser):
    parser.add_argument("--socket", default=None,
                        help="unix socket path (preferred)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one; the ready "
                        "banner names it)")


def _cmd_daemon(args):
    from repro.serve.daemon import daemon_main
    try:
        asyncio.run(daemon_main(
            socket_path=args.socket, host=args.host, port=args.port,
            pool_size=args.pool, cache_root=args.cache_dir,
            warm=not args.no_warm, use_disk_cache=not args.no_cache))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_loadgen(args):
    from repro.serve.loadgen import run_loadgen, write_report
    rate, duration, cold_runs = args.rate, args.duration, args.cold_runs
    verify_direct = args.verify_direct
    if args.smoke:
        rate, duration, cold_runs = 3.0, 2.0, 2
        verify_direct = True
    workload = {"app": args.app, "config_name": args.config_name,
                "cores": 1, "scale": args.scale}
    report, failures = asyncio.run(run_loadgen(
        socket_path=args.socket, host=args.host, port=args.port,
        rate=rate, duration=duration, clients=args.clients,
        seed=args.seed, workload=workload, cold_runs=cold_runs,
        verify_direct=verify_direct, do_shutdown=args.shutdown))
    write_report(report, args.out)
    tiers = report["tiers"]["serve"]
    print("loadgen: wrote %s" % args.out, flush=True)
    print("loadgen: cold p50 %s  warm service p95 %s (e2e %s)  "
          "cache p95 %s"
          % (_fmt(tiers["cold_p50_s"]), _fmt(tiers["warm_service_p95_s"]),
             _fmt(tiers["warm_e2e_p95_s"]), _fmt(tiers["cache_p95_s"])),
          flush=True)
    print("loadgen: warm_speedup %s  cache_speedup %s  identical %s"
          % (_fmt(tiers["warm_speedup"]), _fmt(tiers["cache_speedup"]),
             tiers["identical"]), flush=True)
    if failures:
        for failure in failures:
            print("loadgen: FAIL: %s" % failure, file=sys.stderr,
                  flush=True)
        return 1
    print("loadgen: all SLO checks passed (%d requests, 0 dropped)"
          % report["requests"]["total"], flush=True)
    return 0


def _fmt(value):
    return "-" if value is None else "%.2f" % value


def _cmd_coldrun(args):
    from repro.experiments import runner
    request = runner.RunRequest(kind="app", app=args.app,
                                config_name=args.config_name,
                                cores=args.cores, scale=args.scale)
    started = time.perf_counter()
    run = runner.run_request(request, use_cache=False)
    summary = runner.request_summary(request, run)
    print(json.dumps({"ok": True,
                      "sim_seconds": time.perf_counter() - started,
                      "config_name": summary["result"]["config_name"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
