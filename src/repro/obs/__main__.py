"""``python -m repro.obs``: summarize, diff, and watch captured runs.

Works on the artifacts ``python -m repro.experiments trace`` writes (a
capture directory with ``summary.json``, ``trace.jsonl`` and
``trace.chrome.json``), directly on a summary/snapshot JSON file, or on
a raw event stream (``trace.jsonl``, or the ``.gz`` files the streaming
sink produces) — event streams are replayed through the
tracer's fold, so their summary is exactly the live run's registry.

    python -m repro.experiments trace --quick --out /tmp/obs-bf
    python -m repro.obs summarize /tmp/obs-bf
    python -m repro.obs diff /tmp/obs-bf /tmp/obs-base
    python -m repro.obs summarize /tmp/long-run/trace.jsonl.gz
    python -m repro.obs perfwatch /tmp/BENCH_fresh.json

``summarize`` prints per-container fault breakdowns, the shared/private
TLB hit matrix, walk latency, and the hottest VPNs. ``diff`` prints
per-metric deltas between two runs — regression triage: only metrics a
change actually affected show nonzero deltas. ``perfwatch`` diffs a
fresh BENCH_hotpath.json against the committed trajectory and exits
nonzero on regression (the CI watchdog).
"""

import argparse
import json
import pathlib
import sys

from repro.obs import export, perfwatch
from repro.obs.summary import diff, format_diff, format_summary, summarize
from repro.obs.tracer import replay_events


def _looks_like_event_stream(path):
    """True when the file's first non-blank line is a single event dict
    (JSONL stream) rather than a snapshot/summary JSON document."""
    try:
        with export.open_text(path) as source:
            for line in source:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                return isinstance(data, dict) and "event" in data
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False
    return False


def load_snapshot(path):
    """An obs snapshot from a capture dir, a capture summary.json, a
    bare snapshot JSON file, or a (possibly compressed) event stream.

    Unreadable input — a missing file, a corrupt ``.gz``, malformed JSON,
    a snapshot whose ``metrics`` is not an object, an event line that is
    not an object, lacks a field or names an unknown event — exits with a
    one-line message naming the path."""
    path = pathlib.Path(path)
    if path.is_dir():
        path = path / "summary.json"
    try:
        if _looks_like_event_stream(path):
            return replay_events(export.read_jsonl(path)).snapshot()
        with export.open_text(path) as source:
            data = json.load(source)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit("%s holds no obs snapshot (%s: %s)"
                         % (path, type(exc).__name__, exc))
    if isinstance(data, dict):
        snapshot = data if "metrics" in data else data.get("obs")
        if (isinstance(snapshot, dict)
                and isinstance(snapshot.get("metrics"), dict)):
            return snapshot
    raise SystemExit("%s holds no obs snapshot (expected a 'metrics' "
                     "object, or an 'obs' object holding one)" % path)


def _parse_tolerance(spec):
    tier, _, value = spec.partition("=")
    if not tier or not value:
        raise argparse.ArgumentTypeError(
            "expected TIER=FRACTION (e.g. smoke=0.35), got %r" % spec)
    try:
        return tier, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "tolerance for %r is not a number: %r" % (tier, value))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m repro.obs",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sum_parser = sub.add_parser(
        "summarize", help="triage summary of one captured run")
    sum_parser.add_argument("run", help="capture dir, summary JSON file, "
                            "or event stream (.jsonl/.gz)")
    sum_parser.add_argument("--top", type=int, default=10,
                            help="hottest VPNs to list (default 10)")
    sum_parser.add_argument("--json", action="store_true",
                            help="emit the structured summary as JSON")

    diff_parser = sub.add_parser(
        "diff", help="per-metric deltas between two captured runs")
    diff_parser.add_argument("run_a", help="capture dir, summary JSON, "
                             "or event stream")
    diff_parser.add_argument("run_b", help="capture dir, summary JSON, "
                             "or event stream")
    diff_parser.add_argument("--all", action="store_true",
                             help="also list unchanged metrics")

    watch_parser = sub.add_parser(
        "perfwatch", help="fail when a fresh perf trajectory regresses "
        "against the committed one")
    watch_parser.add_argument("fresh", nargs="?", default=None,
                              help="freshly measured trajectory file "
                              "(e.g. BENCH_hotpath.json)")
    watch_parser.add_argument("--bench", default=None, metavar="PATH",
                              help="alternative spelling of the fresh "
                              "trajectory file (e.g. BENCH_serve.json)")
    watch_parser.add_argument("--baseline", default=None,
                              help="committed trajectory to compare "
                              "against (default: the repo-root file "
                              "with the same basename as the fresh one)")
    watch_parser.add_argument("--ratio", action="append", default=[],
                              metavar="METRIC",
                              help="watched ratio to gate (repeatable; "
                              "default: speedup)")
    watch_parser.add_argument("--tolerance", action="append", default=[],
                              type=_parse_tolerance, metavar="TIER=FRAC",
                              help="per-tier regression band, e.g. "
                              "smoke=0.5; 0 demands exact equality "
                              "(repeatable)")
    watch_parser.add_argument("--default-tolerance", type=float,
                              default=None, metavar="FRAC",
                              help="band for tiers without an explicit "
                              "--tolerance")

    args = parser.parse_args(argv)
    if args.command == "summarize":
        summary = summarize(load_snapshot(args.run), top=args.top)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(format_summary(summary))
        return 0

    if args.command == "perfwatch":
        fresh = args.bench or args.fresh
        if fresh is None:
            watch_parser.error("a fresh trajectory is required "
                               "(positional FRESH or --bench PATH)")
        return perfwatch.watch(
            fresh, baseline_path=args.baseline,
            tolerances=dict(args.tolerance),
            default_tolerance=args.default_tolerance,
            watched=args.ratio or None)

    rows = diff(load_snapshot(args.run_a), load_snapshot(args.run_b))
    print(format_diff(rows, only_changed=not args.all))
    return 0


if __name__ == "__main__":
    sys.exit(main())
