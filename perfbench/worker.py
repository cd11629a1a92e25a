"""One timed pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, one at a time, with the
repository's ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload faas-dense --variant 0 \\
        --cache-dir <empty dir> --out <result.json> [--trace]

The pass ends when the workload returns; the script then checks its
outputs, reloads every stored run from the disk run cache, and writes
one JSON object to ``--out``. Every time in it is read from a
:class:`speed.SpeedClock` started first thing, so it is in seconds at
reference speed. ``origin`` and ``done`` are ``time.monotonic()`` stamps
of that start and of the end of the timed pass, and ``scale0`` the
clock's first scale, so the parent can time the whole pass from process
start, interpreter import included.
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import resource
import sys
import time
import traceback

from layers import Patcher, Spans, Windows, install_seed_variant, install_spans
from speed import SpeedClock

DESIGN = pathlib.Path(__file__).resolve().parent / "design.json"


def digest(data):
    """SHA-256 of canonical JSON."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def stat_totals(results):
    """Exact modelled counts summed over the measured windows."""
    totals = {"stats.instructions": 0, "stats.l1_hits": 0,
              "stats.l2_hits": 0, "stats.l2_shared_hits": 0,
              "stats.walks": 0, "stats.faults": 0, "stats.cycles": 0}
    for result in results:
        s = result.stats
        totals["stats.instructions"] += s.instructions
        totals["stats.l1_hits"] += s.l1_hits_i + s.l1_hits_d
        totals["stats.l2_hits"] += s.l2_hits_i + s.l2_hits_d
        totals["stats.l2_shared_hits"] += (s.l2_shared_hits_i
                                           + s.l2_shared_hits_d)
        totals["stats.walks"] += s.walks
        totals["stats.faults"] += (s.minor_faults + s.major_faults
                                   + s.cow_faults)
        totals["stats.cycles"] += result.total_cycles
    return totals


def run_workload(spec, cache_dir):
    """The workload itself; returns the report's printed table (without
    its timing line) or None."""
    from repro.experiments import common
    from repro.experiments.runcache import DiskRunCache
    if spec["entry"] == "report":
        from repro import report
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = report.main(spec["argv"] + ["--cache-dir", cache_dir])
        if code != 0:
            raise RuntimeError("repro.report exited with %r" % code)
        return [line for line in out.getvalue().splitlines()
                if not line.startswith("done in")]
    previous = common.set_disk_cache(DiskRunCache(cache_dir))
    try:
        common.clear_run_cache()
        for name in spec["configs"]:
            common.run_functions(common.config_by_name(name),
                                 dense=spec["dense"], cores=spec["cores"],
                                 scale=spec["scale"])
    finally:
        common.set_disk_cache(previous)
    return None


def round_trip(stores, fresh_digests, clock):
    """Reload every stored entry with the in-memory memo cleared.

    Each reload must equal what was stored, and each stored run must
    rehydrate to the ``as_dict()`` of a run measured in this pass.
    Returns (seconds spent loading, total bytes, list of errors).
    """
    from repro.experiments import common, runcache
    common.clear_run_cache()
    load_s = 0.0
    errors = []
    for cache, key_data, payload, _path in stores:
        start = clock()
        loaded = cache.load(key_data)
        rehydrated = None
        if loaded is not None and "result" in loaded:
            rehydrated = runcache.result_from_dict(loaded["result"]).as_dict()
        load_s += clock() - start
        if loaded is None or digest(loaded) != digest(payload):
            errors.append("disk entry for %s did not reload intact"
                          % key_data.get("kind"))
        elif "result" in payload:
            if digest(rehydrated) != digest(payload["result"]):
                errors.append("rehydrated run differs from the stored one")
            elif digest(payload["result"]) not in fresh_digests:
                errors.append("stored run matches no measured run")
    total_bytes = sum(path.stat().st_size for _c, _k, _p, path in stores)
    return load_s, total_bytes, errors


def timed_pass(design, spec, args, clock):
    # Import the entry point first, so module-level function targets are
    # found in every module that imported them.
    if spec["entry"] == "report":
        import repro.report  # noqa: F401
    else:
        import repro.experiments.common  # noqa: F401
    from repro.experiments.runcache import DiskRunCache
    from repro.sim.config import SimConfig

    spans = Spans(clock=clock) if args.trace else None
    probe = (lambda: spans.count("sim.translate_calls")) if spans else None
    windows = Windows(clock=clock, probe=probe)
    stores = []

    def wrap_store(store):
        def recording_store(cache, key_data, payload):
            path = store(cache, key_data, payload)
            stores.append((cache, key_data, payload, path))
            return path
        return recording_store

    patcher = Patcher()
    with patcher:
        install_seed_variant(patcher, args.variant * design["seed_stride"])
        windows.install(patcher)
        patcher.patch(DiskRunCache, "store", wrap_store)
        if spans is not None:
            install_spans(patcher, spans, design["layers"])
        table = run_workload(spec, args.cache_dir)
        done_s = clock()
        done = time.monotonic()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    left = patcher.leftovers()
    if left:
        raise RuntimeError("wrapped methods not restored: %s" % ", ".join(
            "%s.%s" % (getattr(o, "__name__", o), n) for o, n in left))

    results = windows.results()
    digests = [digest(result.as_dict()) for result in results]
    load_s, total_bytes, errors = round_trip(stores, set(digests), clock)
    default = SimConfig(name="tier")
    out = {
        "ok": True,
        "done": done,
        "done_s": done_s,
        "window_s": windows.seconds(),
        "rss_kb": rss_kb,
        "digests": digests,
        "violations": [len(r.coherence_violations) for r in results],
        "stats": stat_totals(results),
        "table": table,
        "round_trip_errors": errors,
        "runcache": {"load_s": load_s, "bytes": total_bytes},
        "tier": {"fastpath": default.fastpath, "batch": default.batch,
                 "sanitize": default.sanitize, "trace": default.trace},
    }
    if spans is not None:
        accesses = sum(r.stats.accesses_i + r.stats.accesses_d
                       for r in results)
        out["spans"] = {"self_s": spans.self_s, "counts": spans.counts,
                        "window_translates": windows.probe_delta(),
                        "accesses": accesses}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    design = json.loads(DESIGN.read_text())
    clock = SpeedClock(**design["speed_probe"])
    origin = time.monotonic()
    clock.start()
    try:
        out = timed_pass(design, design["workloads"][args.workload], args,
                         clock)
    except Exception:  # reported to the parent, which counts the pass failed
        out = {"ok": False, "error": traceback.format_exc()}
    finally:
        clock.stop()
    out.update(origin=origin, scale0=clock.reference_s / clock.probes[0],
               probes=len(clock.probes))
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
