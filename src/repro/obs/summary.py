"""Run summaries and diffs over observability snapshots.

A *snapshot* is what :meth:`repro.obs.tracer.Tracer.snapshot` returns
(and ``RunResult.obs`` stores): trace ring accounting plus the metrics
registry. ``summarize`` turns it into the triage views the paper's
evaluation reads off Figures 9-11 — per-container fault breakdown,
shared-vs-private TLB hit matrix, hottest VPNs, walk-latency
distribution. ``diff`` flattens two snapshots into per-metric scalars
and reports the deltas, which is how a perf regression is localized:
metrics untouched by a change diff to zero, so whatever is left *is*
the change.
"""


def _counters(snapshot, name):
    for entry in snapshot["metrics"].get("counters", []):
        if entry["name"] == name:
            yield entry["labels"], entry["value"]


def _histogram(snapshot, name):
    for entry in snapshot["metrics"].get("histograms", []):
        if entry["name"] == name and not entry["labels"]:
            return entry
    return None


def summarize(snapshot, top=10):
    """Structured triage summary of one snapshot."""
    faults_by_pid = {}
    fault_totals = {}
    for labels, value in _counters(snapshot, "faults"):
        pid, kind = labels.get("pid"), labels.get("kind")
        faults_by_pid.setdefault(pid, {})[kind] = value
        fault_totals[kind] = fault_totals.get(kind, 0) + value

    hit_matrix = {}
    for labels, value in _counters(snapshot, "tlb_hits"):
        level = labels.get("level")
        slot = hit_matrix.setdefault(level, {"shared": 0, "private": 0})
        slot[labels.get("provenance")] = \
            slot.get(labels.get("provenance"), 0) + value
    shared_fractions = {}
    for level, slot in sorted(hit_matrix.items()):
        total = slot["shared"] + slot["private"]
        shared_fractions[level] = slot["shared"] / total if total else 0.0

    heat = sorted(((labels["vpn"], value)
                   for labels, value in _counters(snapshot, "vpn_accesses")),
                  key=lambda item: (-item[1], item[0]))

    walk = _histogram(snapshot, "walk_cycles")
    walk_stats = None
    if walk is not None and walk["count"]:
        walk_stats = {"count": walk["count"],
                      "mean_cycles": walk["sum"] / walk["count"],
                      "min_cycles": walk["min"], "max_cycles": walk["max"]}

    return {
        "events": {"emitted": snapshot.get("events_emitted", 0),
                   "kept": snapshot.get("events_kept", 0),
                   "dropped": snapshot.get("events_dropped", 0)},
        "faults_by_container": {pid: dict(sorted(kinds.items()))
                                for pid, kinds in sorted(faults_by_pid.items())},
        "fault_totals": dict(sorted(fault_totals.items())),
        "tlb_hit_matrix": {level: dict(slot)
                           for level, slot in sorted(hit_matrix.items())},
        "shared_hit_fractions": shared_fractions,
        "hot_vpns": heat[:top],
        "walks": walk_stats,
    }


def format_summary(summary):
    lines = []
    events = summary["events"]
    lines.append("events: %d emitted, %d kept, %d dropped (ring bound)"
                 % (events["emitted"], events["kept"], events["dropped"]))

    lines.append("\nfaults per container (pid: kind=count)")
    if not summary["faults_by_container"]:
        lines.append("  (none)")
    for pid, kinds in summary["faults_by_container"].items():
        lines.append("  pid %-6s %s" % (
            pid, "  ".join("%s=%d" % (kind, count)
                           for kind, count in kinds.items())))

    lines.append("\nTLB hits, shared vs private provenance")
    for level, slot in summary["tlb_hit_matrix"].items():
        fraction = summary["shared_hit_fractions"].get(level, 0.0)
        lines.append("  %-4s shared %-10d private %-10d shared-fraction %.3f"
                     % (level, slot["shared"], slot["private"], fraction))

    if summary["walks"]:
        walks = summary["walks"]
        lines.append("\npage walks: %d, mean %.1f cycles (min %d, max %d)"
                     % (walks["count"], walks["mean_cycles"],
                        walks["min_cycles"], walks["max_cycles"]))

    lines.append("\nhottest VPNs (accesses)")
    if not summary["hot_vpns"]:
        lines.append("  (none)")
    for vpn, count in summary["hot_vpns"]:
        lines.append("  %#014x  %d" % (vpn, count))
    return "\n".join(lines)


# -- diffing ----------------------------------------------------------------


def flatten(snapshot):
    """Snapshot -> {metric key: scalar} for per-metric diffing.

    Counters flatten directly; histograms contribute their ``.count``
    and ``.sum`` (enough to localize both "how often" and "how
    expensive" regressions).
    """
    flat = {}
    metrics = snapshot["metrics"]
    for entry in metrics.get("counters", []):
        flat[_metric_key(entry)] = entry["value"]
    for entry in metrics.get("histograms", []):
        key = _metric_key(entry)
        flat[key + ".count"] = entry["count"]
        flat[key + ".sum"] = entry["sum"]
    return flat


def _metric_key(entry):
    labels = ",".join("%s=%s" % (k, v)
                      for k, v in sorted(entry["labels"].items()))
    return "%s{%s}" % (entry["name"], labels) if labels else entry["name"]


def diff(snapshot_a, snapshot_b):
    """Per-metric deltas (b - a) as rows ``(key, a, b, delta)`` over the
    union of both snapshots' metrics (missing side reads as 0)."""
    flat_a, flat_b = flatten(snapshot_a), flatten(snapshot_b)
    rows = []
    for key in sorted(set(flat_a) | set(flat_b)):
        a, b = flat_a.get(key, 0), flat_b.get(key, 0)
        rows.append((key, a, b, b - a))
    return rows


def format_diff(rows, only_changed=True):
    shown = [row for row in rows if row[3] != 0] if only_changed else rows
    if not shown:
        return "no metric deltas"
    width = max(len(row[0]) for row in shown)
    lines = ["%-*s  %12s  %12s  %+12s" % (width, "metric", "a", "b", "delta")]
    for key, a, b, delta in shown:
        lines.append("%-*s  %12d  %12d  %+12d" % (width, key, a, b, delta))
    unchanged = len(rows) - len(shown)
    if only_changed and unchanged:
        lines.append("(%d metrics unchanged)" % unchanged)
    return "\n".join(lines)
