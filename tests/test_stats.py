"""MMUStats derived-metric edges, percentile(), and the canonical
``RunResult.as_dict`` summary shape."""

from repro.experiments.runcache import result_from_dict
from repro.sim.stats import MMUStats, RunResult, percentile


class TestMMUStatsEdges:
    def test_mpki_zero_instructions(self):
        stats = MMUStats()
        stats.l2_misses_i = 7
        stats.l2_misses_d = 5
        assert stats.instructions == 0
        for kind in ("i", "d", "all"):
            assert stats.mpki(kind) == 0.0

    def test_mpki_counts_per_kilo_instruction(self):
        stats = MMUStats()
        stats.instructions = 2000
        stats.l2_misses_i = 1
        stats.l2_misses_d = 3
        assert stats.mpki("i") == 0.5
        assert stats.mpki("d") == 1.5
        assert stats.mpki() == 2.0

    def test_shared_hit_fraction_zero_hits(self):
        stats = MMUStats()
        for kind in ("i", "d", "all"):
            assert stats.shared_hit_fraction(kind) == 0.0

    def test_shared_hit_fraction_partial(self):
        stats = MMUStats()
        stats.l2_hits_i = 4
        stats.l2_hits_d = 6
        stats.l2_shared_hits_i = 1
        stats.l2_shared_hits_d = 3
        assert stats.shared_hit_fraction("i") == 0.25
        assert stats.shared_hit_fraction("d") == 0.5
        assert stats.shared_hit_fraction() == 0.4
        # Zero hits on one side must not divide by zero either.
        stats.l2_hits_i = stats.l2_shared_hits_i = 0
        assert stats.shared_hit_fraction("i") == 0.0


class TestPercentile:
    def test_empty(self):
        assert percentile([], 95) == 0.0

    def test_single_element_every_pct(self):
        for pct in (0, 1, 50, 95, 99, 100):
            assert percentile([42], pct) == 42.0

    def test_nearest_rank(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 0) == 10.0


class TestHistogramPercentileAgreement:
    """The histogram summary (repro.obs.metrics) and the exact-value
    summary (repro.sim.stats) use the same nearest-rank definition: for
    any fixture, the histogram answer is the bucket upper bound of the
    exact answer's bucket."""

    FIXTURES = [
        [0],
        [0, 0, 0],
        [1, 1, 4, 4, 4],          # half-way count: round() picked rank 2
        [10, 20, 30, 40],
        [3, 7, 7, 100, 100, 2000],
        list(range(1, 101)),
        [5] * 9 + [800],
    ]

    def test_same_element_for_shared_fixtures(self):
        from repro.obs.metrics import Histogram, bucket_of

        for values in self.FIXTURES:
            hist = Histogram()
            for v in values:
                hist.observe(v)
            for pct in (0, 1, 25, 50, 75, 90, 95, 99, 100):
                exact = percentile(values, pct)
                want = float((1 << bucket_of(int(exact))) - 1)
                got = hist.percentile(pct)
                assert got == want, (values, pct, got, want)

    def test_halfway_count_uses_ceil_rank(self):
        # N=5, p50 -> rank ceil(2.5)=3 (the old int(round(2.5)) gave 2
        # via banker's rounding, reporting the lower element's bucket).
        from repro.obs.metrics import Histogram

        hist = Histogram()
        for v in (1, 1, 4, 4, 4):
            hist.observe(v)
        assert hist.percentile(50) == 7.0  # bucket of 4 is [4,8)

    def test_zero_bucket_uniform_upper_bound(self):
        from repro.obs.metrics import Histogram

        hist = Histogram()
        for v in (0, 0, 0, 2):
            hist.observe(v)
        assert hist.percentile(50) == 0.0
        assert hist.percentile(100) == 3.0
        empty = Histogram()
        assert empty.percentile(95) == 0.0


def _sample_result():
    result = RunResult("Sample")
    result.stats.instructions = 1000
    result.stats.l2_misses_d = 4
    result.core_cycles = {0: 500, 1: 700}
    result.request_latency = {"r0": 100, "r1": 300}
    # Raw pids deliberately non-dense: as_dict must renumber them.
    result.completion_cycles = {207: 650, 203: 600}
    result.process_cycles = {203: 580, 207: 640}
    result.context_switches = 3
    return result


class TestRunResultAsDict:
    def test_dense_pid_normalization(self):
        data = _sample_result().as_dict()
        assert data["completion_cycles"] == [[0, 600], [1, 650]]
        assert data["process_cycles"] == [[0, 580], [1, 640]]

    def test_latency_block(self):
        data = _sample_result().as_dict()
        assert data["latency"]["mean"] == 200.0
        assert data["latency"]["p50"] == 100.0
        assert data["latency"]["p99"] == 300.0
        assert data["total_cycles"] == 700

    def test_runcache_roundtrip_is_canonical(self):
        original = _sample_result()
        restored = result_from_dict(original.as_dict())
        assert restored.as_dict() == original.as_dict()
        assert restored.stats.as_dict() == original.stats.as_dict()
        assert restored.obs is None

    def test_obs_snapshot_pids_remapped(self):
        result = _sample_result()
        result.obs = {
            "events_emitted": 1, "events_kept": 1, "events_dropped": 0,
            "options": {},
            "metrics": {"counters": [
                {"name": "faults", "labels": {"kind": "minor", "pid": 203},
                 "value": 2},
                {"name": "faults", "labels": {"kind": "minor", "pid": 207},
                 "value": 5}],
                "gauges": [], "histograms": []},
        }
        data = result.as_dict()
        labels = [entry["labels"]
                  for entry in data["obs"]["metrics"]["counters"]]
        assert labels == [{"kind": "minor", "pid": 0},
                          {"kind": "minor", "pid": 1}]
        # The live result is untouched: only the summary view is remapped.
        assert result.obs["metrics"]["counters"][0]["labels"]["pid"] == 203
        restored = result_from_dict(result.as_dict())
        assert restored.obs == data["obs"]
