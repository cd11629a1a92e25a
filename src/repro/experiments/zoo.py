"""Policy-zoo ablation grid: every registered TLB policy, side by side.

The registry (:mod:`repro.core.policy`) turns the repo from "one paper
reproduced" into a translation-architecture lab; this experiment is the
lab bench. For every stock workload x zoo config it runs the simulation
twice — reference and fast path — asserts the two tiers bit-identical
(the same contract tests/test_fastpath.py pins per config), and
tabulates L2 TLB MPKI and translation latency (cycles per access) for
each policy against the Baseline and BabelFish arms.

Runs are sharded through :func:`repro.experiments.runner.execute`
(``--jobs N``), so the grid rides the same memo/disk caches as every
other experiment. ``run_zoo`` merges its tier into ``BENCH_zoo.json``
at the repo root; CI gates the file with ``python -m repro.obs
perfwatch`` on the policy-gain ratios below, which are deterministic
(pure simulation — no wall clock), so any drift is a real behavior
change, not noise.
"""

import json
import math
import os
import pathlib

from repro.experiments.runner import RunRequest, execute, request_overrides
from repro.workloads.profiles import COMPUTE_APPS, SERVING_APPS

#: Every config the grid compares: the paper's arms plus the two
#: related-work policies the registry added.
ZOO_CONFIGS = ("Baseline", "BigTLB", "BabelFish", "BabelFish-TLB",
               "BabelFish-PT", "Victima", "Coalesced")

#: The policies new in the zoo (what the acceptance gate counts).
NEW_POLICIES = ("Victima", "Coalesced")

#: Execution tiers compared per cell, as config overrides.
TIER_OVERRIDES = (
    ("reference", {"fastpath": False}),
    ("fastpath", {}),
)

#: Grid scales: smoke is the CI tier (one serving app, small slice);
#: full covers every stock workload.
SCALES = {
    "smoke": {"apps": ("mongodb",), "cores": 2, "scale": 0.05},
    "full": {"apps": SERVING_APPS + COMPUTE_APPS, "cores": 4, "scale": 0.3},
}

#: Ratios perfwatch gates on BENCH_zoo.json (higher is better; all are
#: geometric means over the tier's apps of Baseline/<policy> metrics).
WATCHED_RATIOS = ("babelfish_mpki_gain", "victima_walk_gain",
                  "coalesced_mpki_gain")


def zoo_matrix(apps, cores, scale):
    """The grid's run requests: apps x configs x execution tiers."""
    requests = []
    for app in apps:
        for name in ZOO_CONFIGS:
            for _tier, overrides in TIER_OVERRIDES:
                requests.append(RunRequest(
                    kind="app", app=app, config_name=name,
                    overrides=request_overrides(**overrides),
                    cores=cores, scale=scale))
    return requests


def _cell_metrics(result_dict):
    stats = result_dict["stats"]
    accesses = stats["accesses_i"] + stats["accesses_d"]
    instructions = stats["instructions"]
    l2_misses = stats["l2_misses_i"] + stats["l2_misses_d"]
    return {
        "mpki": round(1000.0 * l2_misses / instructions, 4)
        if instructions else 0.0,
        "translation_latency": round(
            stats["translation_cycles"] / accesses, 4) if accesses else 0.0,
        "l2_misses": l2_misses,
        "l3_hits": stats.get("l3_hits_i", 0) + stats.get("l3_hits_d", 0),
        "walks": stats["walks"],
    }


def _geomean(ratios):
    return round(math.exp(sum(math.log(r) for r in ratios) / len(ratios)), 4)


def _gain(grid, apps, config, metric):
    """Geomean over apps of Baseline's ``metric`` / ``config``'s (>1
    means the policy beats Baseline on it)."""
    eps = 1e-9
    return _geomean([
        max(grid[app]["Baseline"][metric], eps)
        / max(grid[app][config][metric], eps)
        for app in apps])


def measure_tier(apps, cores, scale, jobs=1, progress=None, monitor=None):
    """Run the grid at one scale; returns the BENCH tier entry."""
    runs = execute(zoo_matrix(apps, cores, scale), jobs=jobs,
                   progress=progress, monitor=monitor)
    # zoo_matrix is app-major, then config, then execution tier.
    results = iter(run.result.as_dict() for run in runs)

    grid = {}
    divergent = []
    for app in apps:
        grid[app] = {}
        for name in ZOO_CONFIGS:
            dicts = {tier: next(results)
                     for tier, _overrides in TIER_OVERRIDES}
            identical = dicts["reference"] == dicts["fastpath"]
            if not identical:
                divergent.append("%s/%s" % (app, name))
            cell = _cell_metrics(dicts["fastpath"])
            cell["identical"] = identical
            grid[app][name] = cell

    entry = {
        "identical": not divergent,
        "divergent": divergent,
        "apps": list(apps),
        "configs": list(ZOO_CONFIGS),
        "cores": cores,
        "scale": scale,
        "grid": grid,
        "babelfish_mpki_gain": _gain(grid, apps, "BabelFish", "mpki"),
        "victima_walk_gain": _gain(grid, apps, "Victima", "walks"),
        "coalesced_mpki_gain": _gain(grid, apps, "Coalesced", "mpki"),
    }
    return entry


def format_grid(entry):
    """Human-readable MPKI / latency table for one tier entry."""
    lines = []
    lines.append("%-10s %-14s %10s %10s %8s %8s %s"
                 % ("app", "config", "mpki", "latency", "walks",
                    "l3_hits", "identical"))
    for app in entry["apps"]:
        for name in entry["configs"]:
            cell = entry["grid"][app][name]
            lines.append("%-10s %-14s %10.4f %10.4f %8d %8d %s"
                         % (app, name, cell["mpki"],
                            cell["translation_latency"], cell["walks"],
                            cell["l3_hits"], cell["identical"]))
    lines.append("gains vs Baseline (geomean): "
                 + "  ".join("%s=%.3f" % (k, entry[k])
                             for k in WATCHED_RATIOS))
    return "\n".join(lines)


def default_output_path():
    """``BENCH_zoo.json`` at the repository root."""
    return pathlib.Path(__file__).resolve().parents[3] / "BENCH_zoo.json"


def run_zoo(smoke=False, jobs=1, out=None, progress=print, monitor=None):
    """Run the ablation grid and merge its tier into the trajectory.

    Smoke runs only the ``smoke`` tier; full runs both. As with the
    hot-path harness, the write is read-modify-write (tiers not run this
    invocation are preserved) via a same-directory temp file and
    ``os.replace``.
    """
    tiers = ("smoke",) if smoke else ("smoke", "full")
    path = pathlib.Path(out) if out else default_output_path()
    payload = {"bench": "zoo", "tiers": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = None
        if (isinstance(existing, dict)
                and isinstance(existing.get("tiers"), dict)):
            payload["tiers"].update(existing["tiers"])
    for tier in tiers:
        params = SCALES[tier]
        if progress:
            progress("zoo %s: %d apps x %d configs x %d tiers "
                     "(cores=%d scale=%g jobs=%d)"
                     % (tier, len(params["apps"]), len(ZOO_CONFIGS),
                        len(TIER_OVERRIDES), params["cores"],
                        params["scale"], jobs))
        entry = measure_tier(params["apps"], params["cores"],
                             params["scale"], jobs=jobs,
                             progress=progress, monitor=monitor)
        payload["tiers"][tier] = entry
        if progress:
            progress(format_grid(entry))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    if progress:
        progress("wrote %s" % path)
    return payload
