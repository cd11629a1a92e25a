"""Host-time benchmark of the BabelFish reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report-quick --seed 3 \\
        --seconds 35 --trace 0

Workloads, their scales and the layer table live in
``perfbench/design.json``; pinned outputs in ``perfbench/expected.json``
(regenerate with ``--pin`` after a deliberate change of simulated
behaviour). Each pass runs in a fresh interpreter started by
``worker.py``, one at a time, so one process carries the load.

``--seed`` picks one of ``design.json``'s input variants (``seed mod
variants``); variant 0 is the stock inputs. ``--trace 0`` runs at least
``min_passes`` passes, more if they fit in ``--seconds``, and reports
medians of the end-to-end metrics. ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer split. Times are read from
``speed.SpeedClock``: host seconds rescaled to a reference speed. Every
pass is checked against the pinned digests, counts and report table.
The last line of standard output is the JSON result.
"""

import argparse
import compileall
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DESIGN = HERE / "design.json"
EXPECTED = HERE / "expected.json"

#: Environment switches that change the execution tier; the benchmark
#: measures the default tier only.
TIER_VARIABLES = ("REPRO_FASTPATH", "REPRO_SANITIZE")
TIER_PREFIXES = ("REPRO_BATCH",)

#: Every pass of one run ends within this many seconds of its start; a
#: pass still going then is killed and counted failed.
RUN_DEADLINE_S = 165


class BenchmarkError(Exception):
    """The benchmark cannot run here (wrong tier or no source tree)."""


def tier_violations(environ):
    return sorted(name for name in environ
                  if name in TIER_VARIABLES or name.startswith(TIER_PREFIXES))


def check_environment(environ):
    bad = tier_violations(environ)
    if bad:
        raise BenchmarkError("refusing to run with %s set: the benchmark "
                             "measures the default tier" % ", ".join(bad))
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError("no source tree at %s" % (ROOT / "src"))


# -- passes ---------------------------------------------------------------------


def run_pass(workload, variant, workdir, deadline, trace=False):
    """One worker pass, killed at ``deadline`` (``time.monotonic()``);
    returns its result dict with ``wall_s`` added, or ``{"ok": False,
    "error": ...}``."""
    pass_dir = pathlib.Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    out = pass_dir / "result.json"
    log = pass_dir / "worker.log"
    # A fresh, empty run-cache directory per pass: a hit left by an
    # earlier pass would turn a fresh run into a disk load.
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--variant", str(variant), "--cache-dir", str(pass_dir / "runcache"),
           "--out", str(out)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        started = time.monotonic()
        with open(log, "w") as log_file:
            subprocess.run(cmd, env=env, stdout=log_file,
                           stderr=subprocess.STDOUT,
                           timeout=max(0.0, deadline - started))
        try:
            result = json.loads(out.read_text())
        except (OSError, ValueError):
            return {"ok": False, "error": log.read_text()[-2000:]}
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "pass killed at the run deadline"}
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    if result.get("ok"):
        # The interpreter's start, before the worker's clock ran, counts
        # at the clock's first scale.
        result["wall_s"] = ((result["origin"] - started) * result["scale0"]
                            + result["done_s"])
        result["raw_wall_s"] = result["done"] - started
    return result


def e2e_passes(workload, variant, seconds, min_passes, workdir, deadline):
    """At least ``min_passes`` passes, then more while the next one is
    expected to end within half a pass of ``seconds``; none started
    that would end after ``deadline``."""
    start = time.monotonic()
    passes = []
    while True:
        passes.append(run_pass(workload, variant, workdir, deadline))
        now = time.monotonic()
        per_pass = (now - start) / len(passes)
        if now + per_pass > deadline:
            break
        if len(passes) >= min_passes and now - start + per_pass / 2 > seconds:
            break
    return passes


# -- checks -------------------------------------------------------------------------


def check_pass(expected, result):
    """(runs attempted, runs failed, problems) for one pass against its
    pinned entry. Every pinned run is attempted; a pass that raised
    fails all of them, a run whose ``as_dict()`` digest differs or that
    saw coherence violations (recorded only under ``sanitize``) fails
    itself."""
    pinned = expected["digests"]
    if not result.get("ok"):
        return len(pinned), len(pinned), [result.get("error", "pass failed")]
    got = result["digests"]
    failed = sum(1 for i, want in enumerate(pinned)
                 if i >= len(got) or got[i] != want
                 or result["violations"][i])
    failed += max(0, len(got) - len(pinned))
    problems = []
    if failed:
        problems.append("%d of %d runs differ from the pinned digests"
                        % (failed, len(pinned)))
    if result["stats"] != expected["stats"]:
        problems.append("exact counts drifted: %s" % json.dumps(
            {k: (expected["stats"].get(k), v)
             for k, v in result["stats"].items()
             if expected["stats"].get(k) != v}))
    if expected.get("table") is not None and result["table"] != expected["table"]:
        problems.append("report table differs from the pinned one")
    problems.extend(result["round_trip_errors"])
    return max(len(pinned), len(got)), failed, problems


# -- metrics --------------------------------------------------------------------------


def e2e_metrics(passes):
    ok = [p for p in passes if p.get("ok")]
    median = statistics.median
    return {
        "wall_s": {"value": median(p["wall_s"] for p in ok), "unit": "s"},
        "setup_s": {"value": median(p["wall_s"] - p["window_s"] for p in ok),
                    "unit": "s"},
        "sim_mips": {"value": median(p["stats"]["stats.instructions"]
                                     / p["window_s"] / 1e6 for p in ok),
                     "unit": "Minstr/s"},
        "peak_rss_mb": {"value": median(p["rss_kb"] / 1024.0 for p in ok),
                        "unit": "MB"},
    }


def layer_metrics(design, untraced, traced):
    spans = traced["spans"]
    metrics = {}
    for layer in design["layers"]:
        name = layer["span"]
        metrics[name + "_s"] = {"value": spans["self_s"][name], "unit": "s"}
        if layer.get("count"):
            metrics[layer["count"]] = {"value": spans["counts"][layer["count"]],
                                       "unit": "count"}
    accesses = spans["accesses"]
    metrics["sim.memo_ratio"] = {
        "value": (1.0 - spans["window_translates"] / accesses
                  if accesses else 0.0),
        "unit": "ratio"}
    metrics["runcache.load_s"] = {"value": traced["runcache"]["load_s"],
                                  "unit": "s"}
    metrics["runcache.bytes"] = {"value": traced["runcache"]["bytes"],
                                 "unit": "B"}
    metrics["trace.overhead"] = {
        "value": traced["wall_s"] / untraced["wall_s"], "unit": "ratio"}
    for key, value in traced["stats"].items():
        metrics[key] = {"value": value, "unit": "count"}
    return metrics


# -- entry points -----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from one pass of every "
                             "workload and variant")
    args = parser.parse_args(argv)
    if not args.pin and not args.workload:
        parser.error("--workload is required")
    return args


def pin(design, workdir):
    expected = {}
    for workload in design["workloads"]:
        expected[workload] = []
        for variant in range(design["variants"]):
            result = run_pass(workload, variant, workdir,
                              time.monotonic() + RUN_DEADLINE_S)
            if not result.get("ok"):
                raise BenchmarkError("%s variant %d failed:\n%s"
                                     % (workload, variant, result["error"]))
            if any(result["violations"]) or result["round_trip_errors"]:
                raise BenchmarkError("%s variant %d: violations or a broken "
                                     "run-cache round trip" % (workload, variant))
            expected[workload].append({"digests": result["digests"],
                                       "stats": result["stats"],
                                       "table": result["table"]})
            print("pinned %s variant %d (%d runs, %.1f s)"
                  % (workload, variant, len(result["digests"]),
                     result["wall_s"]), flush=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def benchmark(args, design, workdir):
    spec = design["workloads"].get(args.workload)
    if spec is None:
        raise BenchmarkError("unknown workload %r (known: %s)"
                             % (args.workload, ", ".join(design["workloads"])))
    variant = args.seed % design["variants"]
    expected = json.loads(EXPECTED.read_text())[args.workload][variant]
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        passes = [run_pass(args.workload, variant, workdir, deadline),
                  run_pass(args.workload, variant, workdir, deadline,
                           trace=True)]
    else:
        passes = e2e_passes(args.workload, variant, args.seconds,
                            design["min_passes"], workdir, deadline)

    attempted = failed = 0
    problems = []
    for index, result in enumerate(passes):
        runs, bad, found = check_pass(expected, result)
        attempted += runs
        failed += bad
        problems.extend("pass %d: %s" % (index + 1, p) for p in found)
        if result.get("ok"):
            print("pass %d%s: wall %.3f s (host %.3f s), window %.3f s, "
                  "%d runs, rss %.1f MB, %d probes"
                  % (index + 1, " (traced)" if "spans" in result else "",
                     result["wall_s"], result["raw_wall_s"],
                     result["window_s"], len(result["digests"]),
                     result["rss_kb"] / 1024.0, result["probes"]))
    for problem in problems:
        print(problem, file=sys.stderr)

    ok = [p for p in passes if p.get("ok")]
    if args.trace:
        metrics = (layer_metrics(design, *passes) if len(ok) == 2 else {})
    else:
        metrics = e2e_metrics(passes) if ok else {}
    tier = dict(ok[0]["tier"], jobs=1) if ok else None
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "scale": spec["scale"], "cores": spec["cores"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "tier": tier, "passes": len(passes),
        "host_wall_s": (statistics.median(p["raw_wall_s"] for p in ok)
                        if ok else None),
        "runs": attempted, "runs_failed": failed}}))
    correct = not problems and len(ok) == len(passes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    try:
        check_environment(os.environ)
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    design = json.loads(DESIGN.read_text())
    # Byte-compile up front so no pass pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        if args.pin:
            pin(design, workdir)
            return 0
        return benchmark(args, design, workdir)
    except BenchmarkError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run's workdir is still there


if __name__ == "__main__":
    sys.exit(main())
