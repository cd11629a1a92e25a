"""Streaming telemetry (repro.obs.live + friends): sink/ring
equivalence, constant-memory streaming, progress monitoring under a
fake clock, and the perf-regression watchdog."""

import gzip
import json

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.common import config_by_name, run_app
from repro.obs import export
from repro.obs import live
from repro.obs import perfwatch
from repro.obs.__main__ import main as obs_main
from repro.obs.events import event_from_dict, event_to_dict
from repro.obs.tracer import Tracer, TraceOptions, replay_events

SMALL = dict(cores=1, scale=0.08)

_PID_KEYS = ("pid", "prev_pid", "next_pid")


def _dense_pids(event_dicts):
    """Remap raw pids to first-appearance order. Pids are allocated from
    a process-global counter, so two in-process runs of the same workload
    see different raw pids; the dense form is what must match."""
    mapping, out = {}, []
    for data in event_dicts:
        data = dict(data)
        for key in _PID_KEYS:
            if key in data:
                data[key] = mapping.setdefault(data[key], len(mapping))
        out.append(data)
    return out


# -- streaming sinks: ring equivalence + constant memory ------------------------


class TestStreamingSink:
    def test_stream_equals_ring_on_bounded_run(self, tmp_path):
        """A tiny ring + sink must reproduce byte-for-byte the events an
        unbounded ring kept, and replaying the stream must rebuild the
        exact live registry."""
        stream = tmp_path / "trace.jsonl"
        streamed = run_app(
            "mongodb",
            config_by_name("BabelFish",
                           trace={"buffer_size": 64, "sink": str(stream)}),
            use_cache=False, **SMALL)
        tracer = streamed.env.sim.tracer
        assert len(tracer.events) <= 64
        assert tracer.dropped == 0
        path = tracer.finalize()
        assert path == str(stream)
        assert tracer.streamed == tracer.emitted

        ring = run_app("mongodb", config_by_name("BabelFish", trace=True),
                       use_cache=False, **SMALL)
        ring_events = [event_to_dict(e) for e in ring.env.sim.tracer.events]
        assert (_dense_pids(export.read_jsonl(stream))
                == _dense_pids(ring_events))

        replayed = replay_events(export.read_jsonl(stream))
        assert (replayed.registry.snapshot()
                == tracer.registry.snapshot())

    def test_constant_memory_on_long_run(self, tmp_path):
        tracer = Tracer(TraceOptions(buffer_size=32,
                                     sink=str(tmp_path / "long.jsonl")))
        for i in range(10_000):
            tracer.tick(0, i)
            tracer.tlb_hit(0, 7, "L1D", i % 97, False)
            assert len(tracer.events) <= 32
        assert tracer.dropped == 0
        tracer.finalize()
        assert tracer.streamed == tracer.emitted == 10_000
        assert len(list(export.read_jsonl(tmp_path / "long.jsonl"))) == 10_000

    def test_gzip_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        tracer = Tracer(TraceOptions(buffer_size=8, sink=str(path)))
        for i in range(50):
            tracer.tick(0, i)
            tracer.tlb_miss(0, 3, "L1D", i, False)
        tracer.finalize()
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # gzip magic
        events = list(export.read_jsonl(path))
        assert len(events) == 50
        assert replay_events(events).registry.snapshot() \
            == tracer.registry.snapshot()

    def test_zst_sink_path_raises(self, tmp_path):
        """No zstd codec: a ``.zst`` sink is refused instead of silently
        written as plain JSONL, and ``trace --sink`` refuses it before
        simulating anything."""
        with pytest.raises(ValueError, match="zst"):
            Tracer(TraceOptions(sink=str(tmp_path / "trace.jsonl.zst")))
        out = tmp_path / "capture"
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["trace", "--cores", "1", "--scale", "0.08",
                              "--out", str(out), "--sink", "x.jsonl.zst"])
        assert excinfo.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_finalize_is_atomic_and_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(TraceOptions(buffer_size=4, sink=str(path)))
        tracer.tick(0, 1)
        tracer.tlb_hit(0, 1, "L1D", 5, False)
        # Mid-run, only the staging file exists.
        assert (tmp_path / "trace.jsonl.tmp").exists()
        assert not path.exists()
        assert tracer.finalize() == str(path)
        assert path.exists()
        assert not (tmp_path / "trace.jsonl.tmp").exists()
        # Idempotent; post-finalize emits degrade to the lossy ring.
        assert tracer.finalize() == str(path)
        for i in range(10):
            tracer.tlb_hit(0, 1, "L1D", i, False)
        assert len(tracer.events) <= 4

    def test_reset_truncates_stream(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(TraceOptions(buffer_size=4, sink=str(path)))
        for i in range(9):  # forces flushes into the staging file
            tracer.tick(0, i)
            tracer.tlb_hit(0, 1, "L1D", i, False)
        assert tracer.streamed > 0
        tracer.reset()  # warm-up discard: nothing may survive
        assert tracer.streamed == 0
        assert tracer.sink.events_written == 0
        tracer.tick(0, 0)
        tracer.tlb_miss(0, 2, "L1D", 11, False)
        tracer.finalize()
        events = list(export.read_jsonl(path))
        assert len(events) == 1
        assert events[0]["event"] == "TLB_MISS"

    def test_event_dict_round_trip(self):
        tracer = Tracer()
        tracer.tick(1, 42)
        tracer.page_walk(1, 9, 0x1234, 61, False, "ppm")
        tracer.quantum(1, 9, 0, 500, 100)
        for event in tracer.events:
            assert event_from_dict(event_to_dict(event)) == event


# -- atomic export writers ------------------------------------------------------


class TestAtomicExport:
    def test_write_jsonl_leaves_no_staging_file(self, tmp_path):
        tracer = Tracer()
        tracer.tick(0, 5)
        tracer.tlb_hit(0, 1, "L1D", 3, False)
        out = tmp_path / "events.jsonl"
        assert export.write_jsonl(tracer.events, out) == 1
        assert not list(tmp_path.glob("*.tmp"))
        assert list(export.read_jsonl(out))[0]["event"] == "TLB_HIT"

    def test_failed_write_removes_staging_file(self, tmp_path):
        out = tmp_path / "events.jsonl"
        with pytest.raises(IndexError):
            export.write_jsonl([(999, 0, 0, 0)], out)  # unknown event type
        assert not list(tmp_path.glob("*"))

    def test_compressed_jsonl_by_suffix(self, tmp_path):
        tracer = Tracer()
        tracer.tick(0, 1)
        tracer.invalidation(0, 4, 77, "page")
        out = tmp_path / "events.jsonl.gz"
        export.write_jsonl(tracer.events, out)
        with gzip.open(out, "rt") as handle:
            assert json.loads(handle.readline())["event"] == "INVALIDATION"


# -- progress monitor under a fake clock ----------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestProgressMonitor:
    def _monitor(self, **kwargs):
        clock = _FakeClock()
        lines = []
        kwargs.setdefault("interval", 1.0)
        monitor = live.ProgressMonitor(clock=clock, emit=lines.append,
                                       **kwargs)
        return monitor, clock, lines

    def test_emits_on_interval_cadence(self):
        monitor, clock, lines = self._monitor(total=100, unit="recs")
        clock.now = 0.5
        monitor.advance(10)
        assert lines == []  # under the interval: silent
        clock.now = 1.0
        monitor.advance(10)
        assert len(lines) == 1
        clock.now = 1.5
        monitor.advance(10)
        assert len(lines) == 1  # window restarts at each emitted line
        clock.now = 2.5
        monitor.advance(10)
        assert len(lines) == 2

    def test_rates_and_eta(self):
        monitor, clock, _ = self._monitor(total=100)
        clock.now = 2.0
        monitor.advance(50)
        assert monitor.rate() == 25.0
        assert monitor.eta_seconds() == pytest.approx(2.0)
        clock.now = 4.0
        monitor.advance(50)
        assert monitor.eta_seconds() == 0.0

    def test_snapshot_line_and_finish(self):
        monitor, clock, lines = self._monitor(total=200, unit="runs",
                                              label="matrix")
        clock.now = 2.0
        monitor.advance(100)
        monitor.count("kills", 3)
        line = monitor.snapshot_line()
        assert "[matrix]" in line and "100/200 runs (50.0%)" in line
        assert "kills 3" in line and "eta" in line
        final = monitor.finish()
        assert "done" in final and final in lines
        data = monitor.as_dict()
        assert data["done"] == 100
        assert data["counters"] == {"kills": 3}


# -- perf-regression watchdog ---------------------------------------------------


def _payload(**tiers):
    return {"bench": "hotpath", "tiers": tiers}


class TestPerfwatch:
    def test_regression_below_floor(self):
        baseline = _payload(medium={"speedup": 2.0, "identical": True})
        fresh = _payload(medium={"speedup": 1.0, "identical": True})
        rows, regressions = perfwatch.compare(fresh, baseline)
        assert len(regressions) == 1
        assert regressions[0]["metric"] == "speedup"
        assert regressions[0]["floor"] == pytest.approx(1.7)

    def test_within_band_is_ok_and_above_is_improved(self):
        baseline = _payload(medium={"speedup": 2.0, "identical": True})
        ok = _payload(medium={"speedup": 1.9, "identical": True})
        up = _payload(medium={"speedup": 3.1, "identical": True})
        assert perfwatch.compare(ok, baseline)[1] == []
        rows, regressions = perfwatch.compare(up, baseline)
        assert regressions == []
        assert rows[0]["status"] == "improved"

    def test_identity_failure_is_unconditional(self):
        baseline = _payload(smoke={"speedup": 1.0, "identical": True})
        fresh = _payload(smoke={"speedup": 5.0, "identical": False})
        _rows, regressions = perfwatch.compare(fresh, baseline)
        assert any(r["metric"] == "identical" for r in regressions)

    def test_new_and_skipped_tiers_never_fail(self):
        baseline = _payload(medium={"speedup": 3.0, "identical": True})
        fresh = _payload(smoke={"speedup": 1.0, "identical": True})
        rows, regressions = perfwatch.compare(fresh, baseline)
        assert regressions == []
        assert {r["status"] for r in rows} == {"new", "skipped"}

    def test_tolerance_overrides(self):
        baseline = _payload(medium={"speedup": 2.0, "identical": True})
        fresh = _payload(medium={"speedup": 1.5, "identical": True})
        assert perfwatch.compare(fresh, baseline,
                                 tolerances={"medium": 0.5})[1] == []
        assert len(perfwatch.compare(fresh, baseline,
                                     tolerances={"medium": 0.1})[1]) == 1

    def test_zero_band_demands_exact_equality(self):
        # The zoo's ratios are deterministic: under a band of 0 any move,
        # down or up, is a behavior change and fails the watch.
        baseline = _payload(smoke={"gain": 1.2138, "identical": True})
        for value in (1.2137, 1.2139):
            fresh = _payload(smoke={"gain": value, "identical": True})
            rows, regressions = perfwatch.compare(
                fresh, baseline, tolerances={"smoke": 0},
                watched=["gain"])
            assert [r["status"] for r in rows] == ["changed"]
            assert regressions == rows
        same = _payload(smoke={"gain": 1.2138, "identical": True})
        rows, regressions = perfwatch.compare(
            same, baseline, default_tolerance=0, watched=["gain"])
        assert regressions == []
        assert [r["status"] for r in rows] == ["ok"]

    def test_watch_cli_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(
            smoke={"speedup": 2.0, "identical": True},
            medium={"speedup": 4.0, "identical": True})))
        # Synthetically degraded medium tier: must exit nonzero.
        fresh.write_text(json.dumps(_payload(
            smoke={"speedup": 2.0, "identical": True},
            medium={"speedup": 1.0, "identical": True})))
        rc = obs_main(["perfwatch", str(fresh), "--baseline", str(base)])
        assert rc == 1
        assert "PERF REGRESSION" in capsys.readouterr().out
        # A wide-enough band clears it.
        rc = obs_main(["perfwatch", str(fresh), "--baseline", str(base),
                       "--tolerance", "medium=0.8"])
        assert rc == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_watch_rejects_bad_inputs(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(SystemExit):
            perfwatch.load_trajectory(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit):
            perfwatch.load_trajectory(str(bad))
        with pytest.raises(SystemExit):
            obs_main(["perfwatch", str(bad), "--baseline", str(bad)])


# -- CLI: compressed event streams ----------------------------------------------


class TestCompressedStreamsCLI:
    @pytest.fixture(scope="class")
    def gz_stream(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stream") / "trace.jsonl.gz"
        tracer = Tracer(TraceOptions(buffer_size=16, sink=str(path)))
        for i in range(120):
            tracer.tick(0, i)
            if i % 3:
                tracer.tlb_hit(0, 2, "L1D", i % 9, False)
            else:
                tracer.tlb_miss(0, 2, "L1D", i % 9, False)
        tracer.finalize()
        return path, tracer.registry.snapshot()

    def test_summarize_reads_gz_stream(self, gz_stream, capsys):
        path, _snapshot = gz_stream
        assert obs_main(["summarize", str(path)]) == 0
        assert "TLB" in capsys.readouterr().out

    def test_diff_gz_stream_against_itself_is_flat(self, gz_stream, capsys):
        path, _snapshot = gz_stream
        assert obs_main(["diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "no differences" in out or "+0" not in out
