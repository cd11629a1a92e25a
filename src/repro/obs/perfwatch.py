"""Perf-regression watchdog over benchmark trajectory files.

``python -m repro.obs perfwatch FRESH [--baseline COMMITTED]`` compares
a freshly measured trajectory against the committed one tier by tier
and exits nonzero when any watched metric falls below its per-tier
tolerance floor. The default watched metric is the machine-normalized
fast/reference speedup *ratio* — ratios transfer across machines far
better than absolute access rates, which is what makes a CI runner's
fresh measurement comparable to a trajectory recorded on a dev box at
all. Tolerances are therefore per-tier: the tiny smoke tier is
noise-dominated and gets a wide band, the medium tier is long enough to
hold a tighter one. A band of 0 means exact equality: any difference,
up or down, is reported as ``changed`` and fails the watch. That is the
gate for deterministic ratios (the zoo's pure-simulation gains), where
any movement is a behavior change rather than noise.

The watchdog is not married to BENCH_hotpath.json: any file with a
``tiers`` table works, and the watched-ratio list is configurable per
invocation — ``python -m repro.obs perfwatch --bench BENCH_serve.json
--ratio warm_speedup`` gates the serving daemon's amortization
trajectory on its own ratio.

A tier present in only one file is reported (``new`` / ``skipped``) but
never fails the watch — the smoke harness does not run the medium tier,
and that must not read as a regression. A fresh tier whose
``identical`` flag is False fails unconditionally: bit-identity of the
fast engines is the one metric with zero tolerance.
"""

import json
import os

#: Regression floor per tier, as a fraction of the baseline value
#: (0.35 = fail below 65% of baseline). Overridable per invocation.
DEFAULT_TOLERANCES = {"smoke": 0.35, "medium": 0.15}
DEFAULT_TOLERANCE = 0.15

#: Default tier-entry keys watched for regressions (higher is better).
WATCHED = ("speedup",)


def repo_baseline_path(name="BENCH_hotpath.json"):
    """The committed trajectory ``name`` at the repository root
    (resolved relative to this file, so it works from any CWD)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.abspath(os.path.join(here, "..", "..", "..", name))


def load_trajectory(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise SystemExit("perfwatch: trajectory file not found: %s" % path)
    except json.JSONDecodeError as exc:
        raise SystemExit("perfwatch: %s is not valid JSON (%s)"
                         % (path, exc))
    if not isinstance(data.get("tiers"), dict):
        raise SystemExit("perfwatch: %s has no 'tiers' table" % path)
    return data


def compare(fresh, baseline, tolerances=None, default_tolerance=None,
            watched=None):
    """Diff two trajectory payloads; returns ``(rows, regressions)``.

    Each row is a dict with tier/metric/baseline/fresh/floor/status;
    ``regressions`` is the subset that should fail the watch.
    ``watched`` overrides the ratio list (default :data:`WATCHED`).
    """
    watched = tuple(watched) if watched else WATCHED
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    fallback = (DEFAULT_TOLERANCE if default_tolerance is None
                else default_tolerance)
    fresh_tiers = fresh.get("tiers", {})
    base_tiers = baseline.get("tiers", {})
    rows, regressions = [], []
    for tier in sorted(fresh_tiers):
        entry = fresh_tiers[tier]
        if entry.get("identical") is False:
            row = {"tier": tier, "metric": "identical", "baseline": True,
                   "fresh": False, "floor": True, "status": "regression"}
            rows.append(row)
            regressions.append(row)
        base = base_tiers.get(tier)
        if base is None:
            rows.append({"tier": tier, "metric": "-", "baseline": None,
                         "fresh": None, "floor": None, "status": "new"})
            continue
        band = tol.get(tier, fallback)
        for metric in watched:
            if metric not in entry or metric not in base:
                continue
            floor = base[metric] * (1.0 - band)
            if band == 0 and entry[metric] != base[metric]:
                status = "changed"
            elif entry[metric] < floor:
                status = "regression"
            elif entry[metric] > base[metric] * (1.0 + band):
                status = "improved"
            else:
                status = "ok"
            row = {"tier": tier, "metric": metric,
                   "baseline": base[metric], "fresh": entry[metric],
                   "floor": floor, "status": status}
            rows.append(row)
            if status in ("regression", "changed"):
                regressions.append(row)
    for tier in sorted(set(base_tiers) - set(fresh_tiers)):
        rows.append({"tier": tier, "metric": "-", "baseline": None,
                     "fresh": None, "floor": None, "status": "skipped"})
    return rows, regressions


def format_report(rows, regressions):
    lines = ["%-8s %-18s %10s %10s %10s  %s"
             % ("tier", "metric", "baseline", "fresh", "floor", "status")]
    for row in rows:
        lines.append("%-8s %-18s %10s %10s %10s  %s"
                     % (row["tier"], row["metric"], _fmt(row["baseline"]),
                        _fmt(row["fresh"]), _fmt(row["floor"]),
                        row["status"]))
    if regressions:
        lines.append("")
        lines.append("PERF REGRESSION: %d watched metric(s) below the "
                     "tolerance floor or changed under an exact band"
                     % len(regressions))
    else:
        lines.append("")
        lines.append("perfwatch: all watched metrics within tolerance")
    return "\n".join(lines)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    return "%.3f" % value


def watch(fresh_path, baseline_path=None, tolerances=None,
          default_tolerance=None, watched=None):
    """Load, compare, print the report; returns the process exit code
    (0 clean, 1 regression). ``watched`` overrides the gated ratio
    list; the default baseline is the committed repo-root file with the
    same basename as ``fresh_path``."""
    if baseline_path is None:
        baseline_path = repo_baseline_path(
            os.path.basename(fresh_path) or "BENCH_hotpath.json")
    fresh = load_trajectory(fresh_path)
    baseline = load_trajectory(baseline_path)
    rows, regressions = compare(fresh, baseline, tolerances=tolerances,
                                default_tolerance=default_tolerance,
                                watched=watched)
    print("perfwatch: %s vs baseline %s" % (fresh_path, baseline_path))
    print(format_report(rows, regressions))
    return 1 if regressions else 0
