"""Differential verification of the exact fast path (repro.sim.fastpath).

The contract under test: with ``SimConfig.fastpath`` on (the default),
every architectural observable — ``RunResult.as_dict()``, per-call
translation cycles and physical addresses, TLB/cache counters — is
bit-identical to a reference run: ``fastpath=False`` on the linear-scan
structures of ``structure_oracle`` (the ``linear_structures`` fixture).
The suite drives the whole stack (every stock config, end to end, plus
a seeded fuzz and hand-built traces), the structures themselves (random
operation streams against the oracle), the L0 memo's invalidation edge
cases (CoW retry, cross-core shootdowns, mid-run measurement reset,
debug-mode bypass), and the perf harness's trajectory file.
"""

import dataclasses
import json
import random

import pytest

from conftest import MiniSystem
from structure_oracle import (LinearCacheHierarchy, LinearMultiSizeTLB,
                              LinearSetAssocTLB, LinearSetAssociativeCache,
                              recency, reference_run_quantum, replaces)

from repro.experiments import perf, runcache
from repro.experiments.common import (build_environment, config_by_name,
                                      deploy_app, run_app)
from repro.experiments.perf import run_hot
from repro.hw.cache import CacheHierarchy, SetAssociativeCache
from repro.hw.params import CacheParams, TLBParams, baseline_machine
from repro.hw.tlb import (REPLACE_SAME_PCID, REPLACE_SHARED, MultiSizeTLB,
                          SetAssocTLB, TLBEntry)
from repro.hw.types import AccessKind, PageSize
from repro.kernel.fault import InvalidationScope, TLBInvalidation
from repro.kernel.vma import SegmentKind
from repro.obs import events as obs_events
from repro.sim import simulator
from repro.sim.config import SimConfig
from repro.sim.fastpath import FASTPATH_ENV, fastpath_active
from repro.sim.simulator import Simulator
from repro.workloads.profiles import APP_PROFILES

STOCK_CONFIGS = ("Baseline", "BabelFish", "BabelFish-PT", "BabelFish-TLB",
                 "BigTLB", "Victima", "Coalesced")


def _run_both(linear, name, cores=1, scale=0.03, **overrides):
    """``as_dict()`` of a production run and of a reference run (the
    ``linear_structures`` fixture's context manager is ``linear``)."""
    fast = run_app("mongodb", config_by_name(name, **overrides),
                   cores=cores, scale=scale, use_cache=False)
    with linear():
        ref = run_app("mongodb",
                      config_by_name(name, fastpath=False, **overrides),
                      cores=cores, scale=scale, use_cache=False)
    return fast.result.as_dict(), ref.result.as_dict()


# -- end-to-end bit-identity ----------------------------------------------------


@pytest.mark.parametrize("name", STOCK_CONFIGS)
def test_stock_configs_bit_identical(name, linear_structures):
    cores = 2 if name == "BabelFish" else 1
    fast, ref = _run_both(linear_structures, name, cores=cores)
    assert fast == ref


@pytest.mark.parametrize("name", STOCK_CONFIGS)
def test_stock_configs_triangulate_with_batch(name, memo_off,
                                              linear_structures):
    # The batch tier is gone (DESIGN §14): requesting it for the config
    # is refused. The two remaining tiers triangulate through a third
    # leg, the production structures with the L0 memo off, on the full
    # app pipeline.
    with pytest.raises(TypeError):
        config_by_name(name, batch=True)
    cores = 2 if name == "BabelFish" else 1
    fast, ref = _run_both(linear_structures, name, cores=cores)
    with linear_structures():
        env = build_environment(config_by_name(name), cores=1)
        assert env.sim.mmus[0]._memo is None
        assert simulator.run_quantum is reference_run_quantum
        assert type(env.sim.mmus[0].l2) is LinearMultiSizeTLB
        assert type(env.sim.hierarchy) is LinearCacheHierarchy
        assert type(env.sim.hierarchy.l3) is LinearSetAssociativeCache
    with memo_off():
        env = build_environment(config_by_name(name), cores=1)
        assert env.sim.mmus[0].fast and env.sim.mmus[0]._memo is None
        bare = run_app("mongodb", config_by_name(name), cores=cores,
                       scale=0.03, use_cache=False).result.as_dict()
    assert fast == ref
    assert bare == ref


def test_sanitize_mode_bit_identical(linear_structures):
    # Sanitized runs on the production structures and trace loop (memo
    # off) against sanitized runs on the linear-scan structures and the
    # oracle's reference loop.
    fast, ref = _run_both(linear_structures, "BabelFish", scale=0.02,
                          sanitize=True)
    assert fast == ref


def _event_stream(run):
    """A traced run's event ring with pids renumbered by first
    appearance (pids come from a process-global counter)."""
    index = {}
    stream = []
    for event in run.env.sim.tracer.events:
        pids = (3, 4, 5) if event[0] == obs_events.SCHED_SWITCH else (3,)
        stream.append(tuple(index.setdefault(value, len(index))
                            if slot in pids else value
                            for slot, value in enumerate(event)))
    return stream


def test_trace_mode_bit_identical(linear_structures):
    # Traced runs on the production structures and trace loop against
    # traced runs on the linear-scan structures and the oracle's
    # reference loop: same counters and the same event stream, down to
    # each event's timestamp and position. A short quantum puts several
    # quantum ends and context switches into the stream.
    overrides = dict(trace=True, quantum_instructions=1000)
    fast = run_app("mongodb", config_by_name("BabelFish", **overrides),
                   cores=1, scale=0.02, use_cache=False)
    with linear_structures():
        ref = run_app("mongodb",
                      config_by_name("BabelFish", fastpath=False,
                                     **overrides),
                      cores=1, scale=0.02, use_cache=False)
    assert fast.result.as_dict() == ref.result.as_dict()
    stream = _event_stream(fast)
    assert {e[0] for e in stream} >= {obs_events.QUANTUM,
                                      obs_events.SCHED_SWITCH,
                                      obs_events.TLB_MISS}
    assert stream == _event_stream(ref)


def test_churn_stop_restart_stream_bit_identical(linear_structures):
    # Container churn is the hard case for the memo/epoch machinery:
    # every stop fires PCID/CCID-scoped flushes mid-stream and every
    # restart reuses cores (and, past the wrap, PCIDs). The summary is
    # pid-free and deterministic, so fast and reference runs of the
    # same seed must agree bit for bit.
    from repro.experiments.churn import run_churn

    fast = run_churn(cycles=25, sanitize=False, fastpath=True,
                     pcid_bits=4, kill_rate=0.2, seed=11)
    with linear_structures():
        ref = run_churn(cycles=25, sanitize=False, fastpath=False,
                        pcid_bits=4, kill_rate=0.2, seed=11)
    assert fast.pcid_recycles > 0  # the storm actually wrapped
    assert fast.summary() == ref.summary()


def test_fuzz_mixed_configs(linear_structures):
    # 50 seeded (config, cores, records) draws of the hot-locality
    # workload; every one must be bit-identical to the reference run.
    rng = random.Random(1234)
    for trial in range(50):
        name = rng.choice(STOCK_CONFIGS)
        cores = rng.choice((1, 2))
        records = rng.randrange(150, 700)
        fast, _, _s = run_hot(config_by_name(name), cores, records)
        with linear_structures():
            ref, _, _s = run_hot(config_by_name(name, fastpath=False),
                                 cores, records)
        assert fast == ref, ("fuzz trial %d diverged: %s cores=%d "
                             "records=%d" % (trial, name, cores, records))


def _run_trace(trace, fastpath):
    """Run one explicit trace on every deployed mongodb container
    (BabelFish, 1 core); returns ``RunResult.as_dict()``."""
    env = build_environment(config_by_name("BabelFish", fastpath=fastpath),
                            cores=1)
    deployment = deploy_app(env, APP_PROFILES["mongodb"])
    for container in deployment.containers:
        env.sim.attach(container.proc, list(trace), container.core)
    return env.sim.run().as_dict()


def _cold_fault_trace(cold_positions, period=8, periods=6):
    """Hot code/heap records with a fresh, never-touched mmap page (a
    fault the memo can never serve) at each of ``cold_positions`` in
    every ``period``-record window."""
    rng = random.Random(9)
    records = []
    for i in range(period * periods):
        gap = rng.randrange(2, 5)
        if (i % period) in cold_positions:
            records.append((1, SegmentKind.MMAP, 500 + i, 0, gap, None))
        elif rng.random() < 0.3:
            records.append((2, SegmentKind.HEAP, rng.randrange(6),
                            rng.randrange(64), gap, None))
        else:
            records.append((0, SegmentKind.CODE, rng.randrange(4),
                            rng.randrange(64), gap, None))
    return records


def _cow_store_trace():
    """Instruction fetches with a store to one of 40 heap pages on every
    5th record: the CoW breaks shoot down TLB entries mid-stream."""
    rng = random.Random(21)
    trace = []
    for i in range(640):
        if i % 5 == 3:
            trace.append((2, SegmentKind.HEAP, rng.randrange(40),
                          rng.randrange(64), 2, None))
        else:
            trace.append((0, SegmentKind.CODE, rng.randrange(4),
                          rng.randrange(64), 3, None))
    return trace


@pytest.mark.parametrize("trace", [
    _cold_fault_trace((0,)), _cold_fault_trace((7,)),
    _cold_fault_trace((0, 7)), _cold_fault_trace(()),
    # 400 records over 4 code and 6 heap pages: nearly all memo hits.
    _cold_fault_trace((), period=1, periods=400),
    _cow_store_trace(),
], ids=["fault-first", "fault-last", "fault-both", "no-faults", "hot-loop",
        "cow-heap-stores"])
def test_explicit_traces_bit_identical(trace, linear_structures):
    fast = _run_trace(trace, True)
    with linear_structures():
        assert fast == _run_trace(trace, False)


def test_reset_measurement_mid_run_identical(linear_structures):
    # run_hot warms, calls reset_measurement(), then measures — the memo
    # and epochs survive the reset (stats objects are replaced, not the
    # TLBs) and must still replay the reference path exactly.
    fast_dict, accesses, _s = run_hot(config_by_name("BabelFish"), 1, 1500)
    with linear_structures():
        ref_dict, _, _s = run_hot(
            config_by_name("BabelFish", fastpath=False), 1, 1500)
    assert accesses == 3000  # 2 containers on the single core
    assert fast_dict == ref_dict


# -- gating -------------------------------------------------------------------


def test_escape_hatches(monkeypatch):
    config = config_by_name("BabelFish")
    assert fastpath_active(config)
    assert not fastpath_active(config_by_name("BabelFish", fastpath=False))
    monkeypatch.setenv(FASTPATH_ENV, "0")
    assert not fastpath_active(config)
    env = build_environment(config, cores=1)
    assert env.sim.mmus[0]._memo is None


# (ids avoid the literal word "sanitize", which conftest treats as the
# opt-in marker keyword and would skip.)
@pytest.mark.parametrize("overrides", [{"sanitize": True}, {"trace": True}],
                         ids=["sanitizer-mode", "tracer-mode"])
def test_debug_modes_bypass_fast_structures(overrides):
    # Debug runs build the same TLBs and caches as production runs, so
    # their hooks check the structures production uses; only the L0
    # memo, which would skip the hooks, is off.
    config = config_by_name("BabelFish", **overrides)
    assert fastpath_active(config)
    env = build_environment(config, cores=1)
    mmu = env.sim.mmus[0]
    assert mmu.fast and mmu._memo is None
    assert type(mmu.l1d) is MultiSizeTLB
    assert type(mmu.l2) is MultiSizeTLB
    assert type(env.sim.hierarchy.l3) is SetAssociativeCache
    assert type(env.sim.hierarchy.l1d[0]) is SetAssociativeCache


@pytest.mark.parametrize("overrides", [{"sanitize": True}, {"trace": True}],
                         ids=["sanitizer-mode", "tracer-mode"])
def test_debug_modes_run_the_production_loop(overrides, monkeypatch):
    # Sanitized and traced runs go through the same trace loop as
    # production runs: every demand access reaches the cache hierarchy
    # through data_access (the loop's entry point), never through the
    # plain access().
    calls = {"data_access": 0, "access": 0}
    for name in calls:
        original = getattr(CacheHierarchy, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CacheHierarchy, name, counted)
    run = run_app("mongodb", config_by_name("BabelFish", **overrides),
                  cores=1, scale=0.02, use_cache=False)
    assert run.result.stats.accesses_d > 0
    assert calls["data_access"] > 0
    assert calls["access"] == 0


def test_post_hoc_tracer_or_sanitizer_disables_memo():
    env = build_environment(config_by_name("BabelFish"), cores=1)
    mmu = env.sim.mmus[0]
    assert mmu._memo is mmu._memo_store is not None
    mmu.tracer = object()
    assert mmu._memo is None
    mmu.tracer = None
    assert mmu._memo is mmu._memo_store
    mmu.sanitizer = object()
    assert mmu._memo is None
    mmu.sanitizer = None
    assert mmu._memo is mmu._memo_store


def test_batch_is_not_a_config_field():
    # ``batch`` is a read-only class constant, and the kernel setup the
    # paper evaluates is fixed: none of these can be requested or leak
    # into run-cache keys.
    assert config_by_name("BabelFish").batch is False
    assert [f.name for f in dataclasses.fields(SimConfig)] == [
        "name", "policy", "aslr_mode", "orpc_enabled",
        "quantum_instructions", "fastpath", "sanitize", "trace"]
    fields = runcache.config_field_dict(config_by_name("BabelFish"))
    for name, value in [("batch", True), ("thp_enabled", False),
                        ("pc_bitmask_bits", 8), ("share_huge", False),
                        ("pc_overflow_indirection", True),
                        ("costs", None)]:
        with pytest.raises(TypeError):
            config_by_name("BabelFish", **{name: value})
        assert name not in fields


def test_run_cache_key_includes_fastpath():
    fast = config_by_name("BabelFish")
    ref = config_by_name("BabelFish", fastpath=False)
    assert (runcache.functions_key_data(fast, True, 1, 0.1)
            != runcache.functions_key_data(ref, True, 1, 0.1))
    assert (runcache.app_key_data("mongodb", fast, 1, 0.1, None)
            != runcache.app_key_data("mongodb", ref, 1, 0.1, None))
    assert runcache.config_field_dict(fast)["fastpath"] is True
    assert runcache.config_field_dict(ref)["fastpath"] is False


# -- structures against the linear-scan oracle under random operation streams --


def _tlb_state(tlb):
    return [(e.vpn, e.pcid, e.ppn) for e in tlb.entries()]


def test_tlb_backings_equivalent_under_random_stream():
    params = TLBParams("t", 32, 4, PageSize.SIZE_4K, 1)
    ref = LinearSetAssocTLB(params)
    fast = SetAssocTLB(params)
    rng = random.Random(7)
    for _ in range(4000):
        op = rng.random()
        vpn = rng.randrange(64)
        pcid = rng.randrange(4)
        match = lambda e: e.pcid == pcid
        if op < 0.50:
            a = ref.lookup(vpn, match)
            b = fast.lookup(vpn, match)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.vpn, a.pcid, a.ppn) == (b.vpn, b.pcid, b.ppn)
        elif op < 0.80:
            ppn = rng.randrange(1 << 20)
            replace = REPLACE_SAME_PCID if rng.random() < 0.5 else None
            a = ref.insert(TLBEntry(vpn, ppn, pcid=pcid), replace=replace)
            b = fast.insert(TLBEntry(vpn, ppn, pcid=pcid), replace=replace)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.vpn, a.pcid, a.ppn) == (b.vpn, b.pcid, b.ppn)
        elif op < 0.95:
            assert ref.invalidate(vpn, match) == fast.invalidate(vpn, match)
        elif op < 0.98:
            assert ref.flush(match) == fast.flush(match)
        else:
            assert ref.flush() == fast.flush()
        assert _tlb_state(ref) == _tlb_state(fast)


def test_tlb_backings_equivalent_under_mixed_replace_rules():
    # Both named fill rules and plain inserts into small, full sets:
    # every insert either overwrites in place or evicts the LRU way, and
    # the structure and the oracle must agree on which entry goes and on
    # the recency order entries() reports afterwards.
    params = TLBParams("t", 16, 4, PageSize.SIZE_4K, 1)  # 4 sets
    ref = LinearSetAssocTLB(params)
    fast = SetAssocTLB(params)
    rng = random.Random(17)
    rules = (None, REPLACE_SAME_PCID, REPLACE_SHARED)
    replaced = evicted = 0

    def state(tlb):
        return [(e.vpn, e.pcid, e.ccid, e.o_bit, e.ppn)
                for e in tlb.entries()]

    for _ in range(5000):
        op = rng.random()
        vpn = rng.randrange(24)
        pcid = rng.randrange(3)
        ccid = rng.randrange(2)
        o_bit = rng.random() < 0.5
        if op < 0.35:
            match = (lambda e: e.ccid == ccid
                     and (not e.o_bit or e.pcid == pcid))
            a = ref.lookup(vpn, match)
            b = fast.lookup(vpn, match)
            assert (a is None) == (b is None)
        elif op < 0.93:
            rule = rng.choice(rules)
            ppn = rng.randrange(1 << 20)
            new_ref = TLBEntry(vpn, ppn, pcid=pcid, ccid=ccid, o_bit=o_bit)
            new_fast = TLBEntry(vpn, ppn, pcid=pcid, ccid=ccid, o_bit=o_bit)
            overwrite = rule is not None and any(
                e.vpn == vpn and replaces(rule, e, new_ref)
                for e in ref.entries())
            a = ref.insert(new_ref, rule)
            b = fast.insert(new_fast, rule)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.vpn, a.pcid, a.ccid, a.o_bit, a.ppn) == \
                    (b.vpn, b.pcid, b.ccid, b.o_bit, b.ppn)
                if overwrite:
                    replaced += 1
                else:
                    evicted += 1
        elif op < 0.98:
            pred = lambda e: e.ccid == ccid
            assert ref.invalidate(vpn, pred) == fast.invalidate(vpn, pred)
        else:
            pred = lambda e: e.pcid == pcid
            assert ref.flush(pred) == fast.flush(pred)
        assert state(ref) == state(fast)
    assert replaced > 100 and evicted > 100


def _resident(tlb):
    """Every entry a TLB's stores hold: the oracle's set lists; the
    production structure's recency dicts and lookup buckets, which must
    hold the same entries."""
    if isinstance(tlb, SetAssocTLB):
        in_lru = [e for lru in tlb._lru for e in lru]
        in_buckets = [e for buckets in tlb._buckets
                      for bucket in buckets.values() for e in bucket]
        assert sorted(map(id, in_lru)) == sorted(map(id, in_buckets))
        assert all(bucket for buckets in tlb._buckets
                   for bucket in buckets.values())
        return in_lru
    return [e for tset in tlb._sets for e in tset]


@pytest.mark.parametrize("cls", [LinearSetAssocTLB, SetAssocTLB],
                         ids=["reference", "fast"])
def test_no_invalid_entry_survives_in_a_set(cls):
    # Regression for the removed dead re-filter in insert():
    # invalidate/flush drop entries as they mark them invalid, so a
    # resident invalid entry must be impossible at any point.
    tlb = cls(TLBParams("t", 16, 4, PageSize.SIZE_4K, 1))
    rng = random.Random(3)
    for _ in range(2000):
        op = rng.random()
        vpn = rng.randrange(32)
        pcid = rng.randrange(3)
        if op < 0.6:
            tlb.insert(TLBEntry(vpn, rng.randrange(1 << 16), pcid=pcid))
        elif op < 0.9:
            tlb.invalidate(vpn, lambda e: e.pcid == pcid)
        else:
            tlb.flush(lambda e: e.pcid == pcid)
        assert all(e.valid for e in _resident(tlb))


def test_cache_backings_equivalent_under_random_stream():
    params = CacheParams("c", 4096, 4)  # 16 sets, 4 ways
    ref = LinearSetAssociativeCache(params)
    fast = SetAssociativeCache(params)
    rng = random.Random(11)
    for _ in range(6000):
        op = rng.random()
        paddr = rng.randrange(256) * 64
        if op < 0.55:
            assert ref.lookup(paddr) == fast.lookup(paddr)
        else:
            ref.insert(paddr)
            fast.insert(paddr)
        assert recency(ref) == recency(fast)


def test_cache_backings_pick_same_victims():
    # Fill one set beyond capacity in a known order and confirm the
    # cache and the oracle evict the same (LRU) tags after an
    # intervening hit.
    params = CacheParams("c", 1024, 4)  # 4 sets, 4 ways
    for cls in (LinearSetAssociativeCache, SetAssociativeCache):
        cache = cls(params)
        lines = [tag * 4 * 64 for tag in range(5)]  # all map to set 0
        for paddr in lines[:4]:
            cache.insert(paddr)
        assert cache.lookup(lines[0])  # line 0 becomes MRU
        cache.insert(lines[4])         # evicts line 1, the LRU
        assert cache.lookup(lines[0])
        assert not cache.lookup(lines[1])
        assert sum(map(len, cache._sets)) == 4


# -- L0 memo invalidation edge cases -------------------------------------------


def _count_translates(mmu):
    """Wrap ``mmu.translate``; returns the list each call's ``(kind,
    cycles, ppn4k)`` is appended to. The trace loop calls
    ``translate`` only for the accesses the L0 memo does not serve."""
    calls = []
    inner = mmu.translate

    def translate(proc, segment, page_off, kind, *args):
        tr = inner(proc, segment, page_off, kind, *args)
        calls.append((kind, tr.cycles, tr.ppn4k))
        return tr

    mmu.translate = translate
    return calls


def _loads(segment, page_off, count):
    return [(1, segment, page_off, line, 0, None) for line in range(count)]


def test_cow_fault_retry_invalidates_memo(mini_babelfish):
    mini = mini_babelfish
    sim = Simulator(baseline_machine(cores=1), config_by_name("BabelFish"),
                    mini.kernel)
    mmu = sim.mmus[0]
    calls = _count_translates(mmu)
    mini.touch(mini.zygote, SegmentKind.HEAP, 3, write=True)
    child = mini.fork()
    # Three reads of the page: the first fills the L1 TLB, the second
    # hits it and seeds the memo, the third is served by the memo.
    sim.run_single(child, _loads(SegmentKind.HEAP, 3, 3))
    assert len(calls) == 2
    assert mmu.stats.accesses_d == 3
    assert calls[1][1] == mmu.l1_cycles
    shared_ppn = calls[0][2]
    assert calls[1][2] == shared_ppn
    assert (child.pid, SegmentKind.HEAP, 3) in mmu._memo.d
    before = mmu.stats.cow_faults
    # The memoized record (seeded by a read of a CoW page) must not serve
    # the write: the translate pass takes the CoW fault and lands on the
    # private copy.
    sim.run_single(child, [(2, SegmentKind.HEAP, 3, 0, 0, None)])
    assert len(calls) == 3
    assert calls[2][0] is AccessKind.STORE
    assert mmu.stats.cow_faults == before + 1
    private_ppn = calls[2][2]
    assert private_ppn != shared_ppn
    # The write's retry refilled the L1 TLB with the private entry, so
    # the next read hits it and reseeds; the two after it are served by
    # the memo.
    sim.run_single(child, _loads(SegmentKind.HEAP, 3, 3))
    assert len(calls) == 4
    assert mmu.stats.accesses_d == 7
    assert calls[3][1:] == (mmu.l1_cycles, private_ppn)
    assert mmu._memo.d[(child.pid, SegmentKind.HEAP, 3)][4] == private_ppn


def test_cross_core_shootdown_between_same_page_accesses(linear_structures):
    # Twin differential: the same six-access sequence on a fast and a
    # linear-scan reference simulator (identical MiniSystems, so
    # pids/layouts/frames coincide) must produce identical per-access
    # timing, physical addresses, and counters — including across the cross-core
    # SHARED_ENTRY/REGION_SHARED shootdown that b's CoW write broadcasts
    # between core 0's two accesses to the same page.
    outcomes = []
    for fastpath in (True, False):
        mini = MiniSystem(babelfish=True)
        with linear_structures(not fastpath):
            sim = Simulator(baseline_machine(cores=2),
                            config_by_name("BabelFish", fastpath=fastpath),
                            mini.kernel)
        mmu0, mmu1 = sim.mmus
        a = mini.fork("a")
        b = mini.fork("b")
        seq = [
            mmu0.translate(a, SegmentKind.DATA, 2, AccessKind.LOAD),
            mmu0.translate(a, SegmentKind.DATA, 2, AccessKind.LOAD),
            mmu1.translate(b, SegmentKind.DATA, 2, AccessKind.LOAD),
            # b's write privatizes the CoW-shared page; the kernel's
            # shootdown goes through the simulator's broadcast sink to
            # BOTH cores' MMUs.
            mmu1.translate(b, SegmentKind.DATA, 2, AccessKind.STORE),
            mmu0.translate(a, SegmentKind.DATA, 2, AccessKind.LOAD),
            mmu1.translate(b, SegmentKind.DATA, 2, AccessKind.LOAD),
        ]
        stats = [[getattr(m.stats, f) for f in type(m.stats).__slots__]
                 for m in sim.mmus]
        outcomes.append(([(t.cycles, t.ppn4k, t.page_size) for t in seq],
                         stats))
        if fastpath:
            # Semantic spot-checks on the fast run: b lands on its
            # private copy, a keeps the original page.
            assert seq[3].ppn4k != seq[0].ppn4k
            assert seq[4].ppn4k == seq[0].ppn4k
            assert seq[5].ppn4k == seq[3].ppn4k
    assert outcomes[0] == outcomes[1]


def test_manual_process_invalidation_defeats_memo(mini_babelfish):
    mini = mini_babelfish
    sim = Simulator(baseline_machine(cores=1), config_by_name("BabelFish"),
                    mini.kernel)
    mmu = sim.mmus[0]
    calls = _count_translates(mmu)
    child = mini.fork()
    # Fill, seed, then one memo-served repeat.
    sim.run_single(child, _loads(SegmentKind.MMAP, 5, 3))
    assert len(calls) == 2
    assert mmu.stats.accesses_d == 3
    hit_ppn = calls[1][2]
    assert calls[1][1] == mmu.l1_cycles
    vpn_group = child.vpn_group(SegmentKind.MMAP, 5)
    mmu.apply_invalidation(child, TLBInvalidation(
        vpn_group, InvalidationScope.PROCESS, pcid=child.pcid))
    # The invalidation moved the entry's set epoch: the memo refuses the
    # next access, which misses the L1 TLB and refills from below.
    sim.run_single(child, _loads(SegmentKind.MMAP, 5, 1))
    assert len(calls) == 3
    assert calls[2][1] > mmu.l1_cycles
    assert calls[2][2] == hit_ppn


# -- perf harness: merge-on-write trajectory file -------------------------------


def _fake_measure(tier, repeats=None, monitor=None):
    return {"speedup": 1.0, "identical": True,
            "fast_accesses_per_sec": 1, "reference_accesses_per_sec": 1}


def test_run_harness_merges_existing_tiers(tmp_path, monkeypatch):
    # A smoke run must extend the trajectory file, not erase the tiers
    # it did not run.
    out = tmp_path / "BENCH_hotpath.json"
    out.write_text(json.dumps({
        "bench": "hotpath", "app": "mongodb",
        "tiers": {"medium": {"speedup": 3.21, "identical": True}},
    }))
    monkeypatch.setattr(perf, "measure_tier", _fake_measure)
    payload = perf.run_harness(smoke=True, out=out, progress=lambda *_: None)
    assert set(payload["tiers"]) == {"smoke", "medium"}
    on_disk = json.loads(out.read_text())
    assert on_disk["tiers"]["medium"]["speedup"] == 3.21
    assert set(on_disk["tiers"]) == {"smoke", "medium"}
    assert not list(tmp_path.glob("*.tmp"))


def test_run_harness_tolerates_corrupt_trajectory(tmp_path, monkeypatch):
    out = tmp_path / "BENCH_hotpath.json"
    out.write_text("{not json")
    monkeypatch.setattr(perf, "measure_tier", _fake_measure)
    payload = perf.run_harness(smoke=True, out=out, progress=lambda *_: None)
    assert set(payload["tiers"]) == {"smoke"}
    assert set(json.loads(out.read_text())["tiers"]) == {"smoke"}
