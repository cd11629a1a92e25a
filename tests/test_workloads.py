"""Tests for the workload generators."""

import collections
import itertools
import math
import random

import pytest

from repro.kernel.vma import SegmentKind
from repro.workloads.compute import compute_trace
from repro.workloads.dataserving import serving_trace
from repro.workloads.functions import function_input_pages, function_trace
from repro.workloads.profiles import (
    APP_PROFILES,
    COMPUTE_APPS,
    FUNCTION_PROFILES,
    SERVING_APPS,
)
from repro.workloads.ycsb import YCSBDriver, _key_scramble
from repro.workloads.zipf import ZipfGenerator, _zeta


class TestZipf:
    def test_range(self):
        gen = ZipfGenerator(100, 0.9, seed=1)
        for _ in range(2000):
            assert 0 <= gen.next() < 100

    def test_skew(self):
        gen = ZipfGenerator(1000, 0.99, seed=2)
        counts = collections.Counter(gen.sample(20_000))
        top = sum(counts[k] for k in range(10))
        assert top > 0.3 * 20_000  # head-heavy

    def test_theta_zero_uniform(self):
        gen = ZipfGenerator(100, 0.0, seed=3)
        counts = collections.Counter(gen.sample(50_000))
        assert max(counts.values()) < 3 * 50_000 / 100

    def test_deterministic_by_seed(self):
        a = ZipfGenerator(50, 0.9, seed=7).sample(100)
        b = ZipfGenerator(50, 0.9, seed=7).sample(100)
        assert a == b

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, theta=1.0)

    def test_iter(self):
        gen = ZipfGenerator(10, 0.5, seed=1)
        values = list(itertools.islice(iter(gen), 5))
        assert len(values) == 5


class TestYCSB:
    def test_request_pages_in_range(self):
        driver = YCSBDriver(256, 0.9, write_frac=0.2, seed=1)
        for request in driver.requests(200):
            for page in request.reads + request.writes:
                assert 0 <= page < 256

    def test_request_ids_monotonic(self):
        driver = YCSBDriver(64, 0.5, seed=1, request_base=50)
        ids = [r.request_id for r in driver.requests(10)]
        assert ids == list(range(50, 60))

    def test_writes_respect_fraction(self):
        driver = YCSBDriver(64, 0.5, write_frac=0.0, seed=1)
        assert all(not r.writes for r in driver.requests(50))

    def test_hot_pages_shared_across_drivers(self):
        """Different clients (seeds) hammer the same hot pages — the
        cross-container overlap the paper highlights."""
        a = YCSBDriver(4096, 0.99, seed=1)
        b = YCSBDriver(4096, 0.99, seed=2)
        pages_a = collections.Counter()
        pages_b = collections.Counter()
        for request in a.requests(500):
            pages_a.update(request.reads)
        for request in b.requests(500):
            pages_b.update(request.reads)
        top_a = {p for p, _ in pages_a.most_common(10)}
        top_b = {p for p, _ in pages_b.most_common(10)}
        assert len(top_a & top_b) >= 5

    def test_variable_request_sizes(self):
        driver = YCSBDriver(64, 0.5, reads_per_request=4, seed=3)
        sizes = {len(r.reads) + len(r.writes) for r in driver.requests(300)}
        assert len(sizes) > 1
        assert max(sizes) <= 16


class TestGeneratorTables:
    """The O(n) generator setup is built once per input and shared."""

    def test_scramble_is_the_fixed_permutation(self):
        for records in (1, 64, 6144):
            fresh = list(range(records))
            random.Random(1234).shuffle(fresh)
            cached = _key_scramble(records)
            assert isinstance(cached, tuple)
            assert list(cached) == fresh
            assert _key_scramble(records) is cached
        driver = YCSBDriver(64, 0.5, seed=1)
        assert driver._scramble is _key_scramble(64)

    def test_cached_zeta_is_the_direct_sum(self):
        for n, theta in ((1, 0.99), (2, 0.6), (416, 0.5), (6144, 0.92),
                         (100, 0.0)):
            direct = sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))
            assert _zeta(n, theta) == direct
            assert _zeta(n, theta) == direct  # served from the cache

    def test_traces_equal_cold_and_warm(self):
        def streams():
            return (list(serving_trace(APP_PROFILES["mongodb"], 3,
                                       requests=40)),
                    list(compute_trace(APP_PROFILES["fio"], 2,
                                       iterations=40)))

        _zeta.cache_clear()
        _key_scramble.cache_clear()
        cold = streams()
        assert _zeta.cache_info().currsize > 0
        assert _key_scramble.cache_info().currsize > 0
        assert streams() == cold

    def test_caches_are_bounded(self):
        assert _zeta.cache_info().maxsize == 64
        assert _key_scramble.cache_info().maxsize == 16
        for n in range(1, 100):
            _zeta(n, 0.3)
        assert _zeta.cache_info().currsize <= 64


def record_ok(profile, record):
    kind, segment, page, line, gap, _rid = record
    assert kind in (0, 1, 2)
    assert isinstance(segment, SegmentKind)
    assert 0 <= line < 64
    assert gap >= 0
    return segment, page


class TestServingTrace:
    @pytest.mark.parametrize("app", SERVING_APPS)
    def test_records_well_formed(self, app):
        profile = APP_PROFILES[app]
        for record in serving_trace(profile, 1, requests=20):
            segment, page = record_ok(profile, record)
            if segment is SegmentKind.MMAP:
                assert page < profile.dataset_pages
            elif segment is SegmentKind.HEAP:
                assert page < profile.private_pages

    def test_request_tagging(self):
        profile = APP_PROFILES["mongodb"]
        tagged = list(serving_trace(profile, 1, requests=5,
                                    request_base=100))
        ids = {r[5] for r in tagged}
        assert ids == set(range(100, 105))
        untagged = list(serving_trace(profile, 1, requests=5,
                                      tag_requests=False))
        assert {r[5] for r in untagged} == {None}

    def test_deterministic(self):
        profile = APP_PROFILES["httpd"]
        a = list(serving_trace(profile, 2, requests=10))
        b = list(serving_trace(profile, 2, requests=10))
        assert a == b

    def test_containers_differ(self):
        profile = APP_PROFILES["httpd"]
        a = list(serving_trace(profile, 1, requests=10))
        b = list(serving_trace(profile, 2, requests=10))
        assert a != b


class TestComputeTrace:
    @pytest.mark.parametrize("app", COMPUTE_APPS)
    def test_records_well_formed(self, app):
        profile = APP_PROFILES[app]
        for record in compute_trace(profile, 1, iterations=20):
            segment, page = record_ok(profile, record)
            if segment is SegmentKind.MMAP:
                assert page < profile.dataset_pages

    def test_no_request_ids(self):
        profile = APP_PROFILES["fio"]
        assert all(r[5] is None
                   for r in compute_trace(profile, 1, iterations=5))

    def test_graphchi_private_stream_structure(self):
        """The edge stream advances sequentially, with every other access
        revisiting data ~384 pages back (window re-reads)."""
        profile = APP_PROFILES["graphchi"]
        heap_pages = [r[2] for r in compute_trace(profile, 1, iterations=30)
                      if r[1] is SegmentKind.HEAP]
        window = profile.private_hot
        # Both interleaved subsequences (stream + lagged re-read) advance
        # sequentially, and the lag is ~384 pages.
        stream, lagged = heap_pages[0::2], heap_pages[1::2]
        stream_steps = [(b - a) % window for a, b in zip(stream, stream[1:])]
        assert stream_steps.count(1) > len(stream_steps) * 0.9
        lags = [(a - b) % window for a, b in zip(heap_pages, heap_pages[1:])]
        assert lags.count(384) > len(lags) * 0.4


class TestFunctionTrace:
    def test_input_pages(self):
        profile = FUNCTION_PROFILES["parse"]
        assert function_input_pages(profile, dense=True) == profile.input_pages
        assert (function_input_pages(profile, dense=False)
                == profile.input_pages * profile.sparse_factor)

    def test_sparse_touches_more_pages_same_work(self):
        profile = FUNCTION_PROFILES["hash"]
        dense = list(function_trace(profile, True, 1, 5120, 1024))
        sparse = list(function_trace(profile, False, 1, 5120, 1024))
        dense_pages = {r[2] for r in dense if r[1] is SegmentKind.MMAP}
        sparse_pages = {r[2] for r in sparse if r[1] is SegmentKind.MMAP}
        assert len(sparse_pages) > 5 * len(dense_pages)
        # Same work: access counts within 2x.
        assert 0.5 < len(dense) / len(sparse) < 2.0

    def test_code_and_scratch_offsets_respected(self):
        profile = FUNCTION_PROFILES["marshal"]
        code_off, scratch_off = 5120, 1024
        for kind, segment, page, _l, _g, _r in function_trace(
                profile, True, 1, code_off, scratch_off):
            if segment is SegmentKind.LIBS and kind == 0:
                assert page < profile.lib_hot or (
                    code_off <= page < code_off + profile.code_pages)
            if segment is SegmentKind.MMAP and kind == 2:
                assert page >= scratch_off

    def test_finite(self):
        profile = FUNCTION_PROFILES["parse"]
        records = list(function_trace(profile, True, 1, 5120, 1024))
        assert 0 < len(records) < 200_000
