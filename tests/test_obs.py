"""The observability stack: metrics registry, tracer, exports, CLIs —
and the cross-validation guarantee that trace-derived aggregates exactly
match the simulator's own ``MMUStats`` counters."""

import json

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.common import (
    clear_run_cache,
    config_by_name,
    run_app,
    run_functions,
    set_disk_cache,
    simulation_run_count,
)
from repro.experiments.runner import RunRequest, execute
from repro.kernel.costs import KernelCosts
from repro.obs import events as ev_mod
from repro.obs.__main__ import main as obs_main
from repro.obs.events import event_to_dict
from repro.obs.metrics import MetricsRegistry, bucket_of, map_label
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.summary import diff, flatten, format_summary, summarize
from repro.obs.tracer import TraceOptions, Tracer, resolve_trace_options

SMALL = dict(cores=1, scale=0.08)


@pytest.fixture(autouse=True)
def _isolated_caches():
    previous = set_disk_cache(None)
    clear_run_cache()
    yield
    set_disk_cache(previous)
    clear_run_cache()


# -- metrics registry --------------------------------------------------------


class TestMetrics:
    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("faults", kind="minor").inc(2)
        registry.counter("faults", kind="cow").inc()
        registry.counter("faults", kind="minor").inc()
        snap = registry.snapshot()
        values = {tuple(sorted(e["labels"].items())): e["value"]
                  for e in snap["counters"]}
        assert values == {(("kind", "cow"),): 1, (("kind", "minor"),): 3}

    def test_log2_buckets(self):
        assert bucket_of(0) == 0
        assert bucket_of(1) == 1
        assert bucket_of(2) == 2
        assert bucket_of(3) == 2
        assert bucket_of(4) == 3
        hist = MetricsRegistry().histogram("h")
        for value in (0, 1, 3, 3, 100):
            hist.observe(value)
        assert hist.buckets == {0: 1, 1: 1, 2: 2, 7: 1}
        assert hist.count == 5
        assert hist.sum == 107
        assert (hist.min, hist.max) == (0, 100)
        assert hist.mean == 107 / 5

    def test_histogram_percentile_bounds(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.percentile(50) == 0.0
        for value in (1, 1, 1, 64):
            hist.observe(value)
        assert hist.percentile(50) == 1.0
        assert hist.percentile(100) == 127.0  # bucket upper bound

    def test_map_label_remaps_and_defaults(self):
        registry = MetricsRegistry()
        registry.counter("faults", pid=203).inc()
        registry.counter("faults", pid=999).inc()
        registry.counter("walk", core=0).inc()
        snap = map_label(registry.snapshot(), "pid", {203: 0})
        labels = sorted(json.dumps(e["labels"], sort_keys=True)
                        for e in snap["counters"])
        assert labels == ['{"core": 0}', '{"pid": -1}', '{"pid": 0}']


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_resolve_trace_options(self):
        assert resolve_trace_options(None) is None
        assert resolve_trace_options(False) is None
        assert resolve_trace_options(True) == TraceOptions()
        options = TraceOptions(buffer_size=8)
        assert resolve_trace_options(options) is options
        assert resolve_trace_options({"buffer_size": 8}) == options
        with pytest.raises(TypeError):
            resolve_trace_options("yes")

    def test_ring_bound_keeps_aggregates_exact(self):
        tracer = Tracer(TraceOptions(buffer_size=4))
        for i in range(10):
            tracer.tlb_hit(0, 1, "L1D", 100 + i, shared=False)
        assert len(tracer.events) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        snap = tracer.snapshot()
        assert snap["events_kept"] == 4
        assert snap["events_dropped"] == 6
        # The registry saw every event even though the ring wrapped.
        total = sum(e["value"] for e in snap["metrics"]["counters"]
                    if e["name"] == "tlb_hits")
        assert total == 10

    def test_clock_stamps_events(self):
        tracer = Tracer()
        tracer.tick(0, 1234)
        tracer.tlb_hit(0, 7, "L2", 42, shared=True)
        event = tracer.events[0]
        assert event[:4] == (ev_mod.TLB_HIT, 0, 1234, 7)
        assert event_to_dict(event) == {
            "event": "TLB_HIT", "core": 0, "cycle": 1234, "pid": 7,
            "level": "L2", "vpn": 42, "provenance": "shared"}

    def test_reset_forgets_everything(self):
        tracer = Tracer()
        tracer.tick(0, 50)
        tracer.page_walk(0, 1, 5, 40, False, "ppm")
        tracer.reset()
        assert tracer.emitted == 0
        assert not tracer.events
        assert tracer.clock(0) == 0
        assert tracer.snapshot()["metrics"] == MetricsRegistry().snapshot()

    def test_walk_level_outcomes_split(self):
        tracer = Tracer()
        tracer.page_walk(0, 1, 5, 40, False, "ppm")
        tracer.page_walk(0, 1, 6, 60, False, "mmm")
        counters = {e["labels"]["outcome"]: e["value"]
                    for e in tracer.snapshot()["metrics"]["counters"]
                    if e["name"] == "walk_level_reads"}
        assert counters == {"pwc": 2, "memory": 4}


# -- exporters ---------------------------------------------------------------


def _synthetic_events():
    tracer = Tracer()
    tracer.tick(0, 10)
    tracer.tlb_hit(0, 1, "L2", 42, shared=True)
    tracer.fault(0, 1, 42, "cow", 4400, True, 1)
    tracer.invalidation(1, 2, 42, "shared")
    tracer.quantum(0, 1, 0, 20_000, 10_000)
    return list(tracer.events)


def _validate_chrome(doc):
    assert set(doc) >= {"traceEvents", "displayTimeUnit"}
    for event in doc["traceEvents"]:
        assert event["ph"] in {"M", "X", "i"}
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] == "thread_name"
            continue
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        assert event["name"]
        assert isinstance(event["args"], dict)
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        events = _synthetic_events()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(events, path) == len(events)
        loaded = read_jsonl(path)
        assert loaded == [event_to_dict(event) for event in events]
        assert loaded[1]["kind"] == "cow"
        assert loaded[1]["pte_page_copied"] is True

    def test_chrome_trace_schema(self, tmp_path):
        doc = chrome_trace(_synthetic_events(), metadata={"config": "t"})
        _validate_chrome(doc)
        assert doc["otherData"] == {"config": "t"}
        kinds = {e["ph"] for e in doc["traceEvents"]}
        assert kinds == {"M", "X", "i"}
        quantum = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert quantum["dur"] == 20_000
        path = tmp_path / "trace.chrome.json"
        write_chrome_trace(_synthetic_events(), path)
        _validate_chrome(json.loads(path.read_text()))


# -- the tracer wired into real runs -----------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    clear_run_cache()
    run = run_app("mongodb", config_by_name("BabelFish", trace=True),
                  use_cache=False, **SMALL)
    yield run
    clear_run_cache()


class TestTracedRun:
    def test_default_config_has_no_tracer(self):
        run = run_app("mongodb", config_by_name("Baseline"),
                      use_cache=False, **SMALL)
        sim = run.env.sim
        assert sim.tracer is None
        assert run.result.obs is None
        for mmu in sim.mmus:
            assert mmu.tracer is None
            assert mmu.walker.tracer is None
        assert sim.scheduler.tracer is None

    def test_trace_counters_match_mmustats(self, traced_run):
        """The acceptance cross-check: summarize must agree exactly with
        the independently counted MMUStats."""
        stats = traced_run.result.stats
        summary = summarize(traced_run.result.obs)
        expected = {"minor": stats.minor_faults, "major": stats.major_faults,
                    "cow": stats.cow_faults, "spurious": stats.spurious_faults}
        expected = {k: v for k, v in expected.items() if v}
        assert summary["fault_totals"] == expected

        matrix = summary["tlb_hit_matrix"]
        assert matrix["L2"]["shared"] == (stats.l2_shared_hits_i
                                          + stats.l2_shared_hits_d)
        assert matrix["L2"]["shared"] + matrix["L2"]["private"] == stats.l2_hits
        assert matrix["L1I"]["shared"] + matrix["L1I"]["private"] == \
            stats.l1_hits_i
        assert matrix["L1D"]["shared"] + matrix["L1D"]["private"] == \
            stats.l1_hits_d
        assert summary["shared_hit_fractions"]["L2"] == \
            stats.shared_hit_fraction()

        misses = sum(value for labels, value
                     in _counter_items(traced_run.result.obs, "tlb_misses")
                     if labels["level"] == "L2")
        assert misses == stats.l2_misses
        assert summary["walks"]["count"] == stats.walks

    def test_snapshot_round_trips_through_json(self, traced_run):
        snapshot = traced_run.result.obs
        assert json.loads(json.dumps(snapshot)) == snapshot
        text = format_summary(summarize(snapshot))
        assert "events:" in text and "TLB hits" in text

    def test_warmup_events_do_not_leak(self, traced_run):
        # The warm-up phase faults far more than the measured phase; if
        # reset_measurement did not reset the tracer, fault totals could
        # not match the (measurement-only) MMUStats — but also the event
        # ring would start before cycle 0 of the measured phase.
        tracer = traced_run.env.sim.tracer
        assert tracer.emitted == len(tracer.events) + tracer.dropped

    def test_four_core_chrome_trace(self):
        run = run_app("mongodb", config_by_name("BabelFish", trace=True),
                      cores=4, scale=0.05, use_cache=False)
        doc = chrome_trace(list(run.env.sim.tracer.events))
        _validate_chrome(doc)
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert tids == {0, 1, 2, 3}


def _counter_items(snapshot, name):
    return [(e["labels"], e["value"])
            for e in snapshot["metrics"]["counters"] if e["name"] == name]


class TestDiffLocalizesChanges:
    def test_cost_change_only_moves_affected_metrics(self):
        """Doubling the minor-fault cost must shift fault/quantum cycle
        metrics and nothing else (same request stream, same TLB walk).

        Diffed over the dense-pid ``as_dict`` snapshots — raw pids come
        from a process-global counter, so two sequential runs would
        otherwise differ in every pid label."""
        base = run_functions(config_by_name("Baseline", trace=True),
                             **SMALL, use_cache=False)
        slow = run_functions(
            config_by_name("Baseline", trace=True,
                           costs=KernelCosts(minor_fault=4800)),
            **SMALL, use_cache=False)
        rows = diff(base.result.as_dict()["obs"],
                    slow.result.as_dict()["obs"])
        changed = [key for key, _a, _b, delta in rows if delta]
        assert changed, "cost change produced no metric deltas"
        allowed = {"fault_cycles", "quantum_cycles"}
        assert {key.split("{")[0].split(".")[0] for key in changed} <= allowed
        # And the unaffected families really are bit-identical.
        flat = flatten(base.result.obs)
        assert any(key.startswith("faults{") for key in flat)
        for key, a, b, _delta in rows:
            if key.split("{")[0] in ("faults", "tlb_hits", "tlb_misses",
                                     "walks", "vpn_accesses"):
                assert a == b, key


# -- runner integration ------------------------------------------------------


class TestRunnerProgress:
    def test_execute_counts_simulated_and_cached(self):
        request = RunRequest(kind="app", app="mongodb",
                             config_name="Baseline", **SMALL)
        lines = []
        execute([request], progress=lines.append)
        assert lines[0].startswith("[1/1] ")
        assert lines[-1] == "runs: 1 simulated, 0 cached"

        # Second execute over the same request: pure cache hit.
        before = simulation_run_count()
        lines = []
        execute([request], progress=lines.append)
        assert simulation_run_count() == before
        assert lines == ["[cached] %s" % request.label(),
                         "runs: 0 simulated, 1 cached"]


# -- the CLIs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def capture_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("captures")
    argv = ["trace", "--cores", "1", "--scale", "0.08", "--app", "mongodb"]
    assert experiments_main(argv + ["--config", "BabelFish",
                                    "--out", str(root / "bf")]) == 0
    assert experiments_main(argv + ["--config", "Baseline",
                                    "--out", str(root / "base")]) == 0
    return root / "bf", root / "base"


class TestCaptureAndCLIs:
    def test_capture_artifacts_parse(self, capture_dirs):
        bf, _base = capture_dirs
        events = read_jsonl(bf / "trace.jsonl")
        assert events
        assert {"event", "core", "cycle", "pid"} <= set(events[0])
        _validate_chrome(json.loads((bf / "trace.chrome.json").read_text()))
        capture = json.loads((bf / "summary.json").read_text())
        assert capture["app"] == "mongodb"
        assert capture["config"] == "BabelFish"
        assert capture["obs"]["events_emitted"] == len(events) + \
            capture["obs"]["events_dropped"]
        assert capture["result"]["stats"]["instructions"] > 0

    def test_obs_summarize_cli(self, capture_dirs, capsys):
        bf, _base = capture_dirs
        assert obs_main(["summarize", str(bf)]) == 0
        out = capsys.readouterr().out
        assert "TLB hits, shared vs private provenance" in out
        assert obs_main(["summarize", str(bf), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["tlb_hit_matrix"]["L2"]["shared"] >= 0

    def test_obs_diff_cli(self, capture_dirs, capsys):
        bf, base = capture_dirs
        assert obs_main(["diff", str(base), str(bf)]) == 0
        out = capsys.readouterr().out
        # BabelFish vs Baseline: shared-provenance L2 hits appear.
        assert "provenance=shared" in out

    def test_obs_cli_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            obs_main(["summarize", str(path)])


_UNREADABLE = [
    ("bad.jsonl.gz", "not gzip at all"),
    ("no_cycle.jsonl", '{"event": "TLB_HIT", "core": 0, "pid": 1, '
                       '"level": "L1D", "vpn": 5, "provenance": "private"}'),
    ("unknown.jsonl", '{"event": "NOPE", "core": 0, "cycle": 1, "pid": 1}'),
    ("list_line.jsonl", '{"event": "SCHED_SWITCH", "core": 0, "cycle": 1, '
                        '"pid": 1, "prev_pid": 1, "next_pid": 2}\n[1]\n'),
    ("multi.json", '{"metrics": {}}\n{"metrics": {}}\n'),
    ("no_summary_dir", None),
]


@pytest.mark.parametrize("name, text", _UNREADABLE,
                         ids=[name for name, _text in _UNREADABLE])
def test_obs_cli_unreadable_input_exits_naming_path(tmp_path, name, text):
    path = tmp_path / name
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    with pytest.raises(SystemExit) as excinfo:
        obs_main(["summarize", str(path)])
    message = str(excinfo.value.code)
    assert "\n" not in message
    assert str(path) in message
