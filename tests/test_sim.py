"""Tests for the walker, MMU, scheduler, and simulator."""

import pytest

from repro.core.aslr import ASLRMode
from repro.hw.cache import CacheHierarchy
from repro.hw.dram import DRAMModel
from repro.hw.params import baseline_machine
from repro.hw.types import AccessKind
from repro.kernel import SimulationError, TranslationDidNotConverge
from repro.kernel.scheduler import Scheduler
from repro.kernel.vma import SegmentKind
from repro.sim import simulator
from repro.sim.config import babelfish_config, baseline_config, bigtlb_config
from repro.sim.mmu import _MAX_FAULT_RETRIES, MMU
from repro.sim.simulator import K_LOAD, Simulator
from repro.sim.stats import MMUStats, percentile
from repro.sim.walker import PageWalker

from conftest import MiniSystem
from structure_oracle import LinearCacheHierarchy

HEAP, MMAP, LIBS = SegmentKind.HEAP, SegmentKind.MMAP, SegmentKind.LIBS


def make_mmu(sys, config, cores=1):
    # Through the simulator module, so that under ``linear_structures``
    # the MMU sits on the oracle hierarchy, as a Simulator's would.
    machine = baseline_machine(cores=cores)
    hierarchy = simulator.CacheHierarchy(machine, DRAMModel(machine.dram))
    return MMU(0, machine, config, hierarchy, sys.kernel), hierarchy


class TestWalker:
    def test_walk_found(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, MMAP, 0)
        machine = baseline_machine(cores=1)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        from repro.hw.pwc import PageWalkCache
        walker = PageWalker(0, hierarchy, PageWalkCache(machine.mmu.pwc))
        found, _table, cycles = walker.walk(sys.zygote,
                                            sys.vpn(sys.zygote, MMAP, 0))
        assert found is pte
        assert cycles > 0

    def test_walk_fault_on_missing(self, mini_baseline):
        sys = mini_baseline
        machine = baseline_machine(cores=1)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        from repro.hw.pwc import PageWalkCache
        walker = PageWalker(0, hierarchy, PageWalkCache(machine.mmu.pwc))
        pte, _table, _cycles = walker.walk(sys.zygote,
                                           sys.vpn(sys.zygote, MMAP, 99))
        assert pte is None

    def test_second_walk_cheaper_via_pwc(self, mini_baseline):
        sys = mini_baseline
        sys.touch(sys.zygote, MMAP, 0)
        sys.touch(sys.zygote, MMAP, 1)
        machine = baseline_machine(cores=1)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        from repro.hw.pwc import PageWalkCache
        walker = PageWalker(0, hierarchy, PageWalkCache(machine.mmu.pwc))
        first = walker.walk(sys.zygote, sys.vpn(sys.zygote, MMAP, 0))[2]
        second = walker.walk(sys.zygote, sys.vpn(sys.zygote, MMAP, 1))[2]
        assert second < first


class TestMMU:
    def test_translate_resolves_fault_and_fills(self, mini_baseline):
        sys = mini_baseline
        mmu, _ = make_mmu(sys, baseline_config())
        result = mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        assert result.cycles > 0
        assert mmu.stats.minor_faults == 1
        # Second access hits the L1 TLB.
        result2 = mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        assert result2.cycles == 1
        assert mmu.stats.l1_hits_d == 1

    def test_translate_paddr(self, mini_baseline):
        sys = mini_baseline
        mmu, _ = make_mmu(sys, baseline_config())
        result = mmu.translate(sys.zygote, MMAP, 5, AccessKind.LOAD)
        pte = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, MMAP, 5))
        assert result.ppn4k == pte.ppn

    def test_baseline_no_cross_process_hit(self, mini_baseline):
        sys = mini_baseline
        a, b = sys.fork("a"), sys.fork("b")
        mmu, _ = make_mmu(sys, baseline_config())
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        mmu.translate(b, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.l2_shared_hits_d == 0

    def test_babelfish_cross_process_hit(self):
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, MMAP, 0)
        a, b = sys.fork("a"), sys.fork("b")
        mmu, _ = make_mmu(sys, babelfish_config())
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        mmu.translate(b, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.l2_shared_hits_d == 1
        assert mmu.stats.minor_faults == 0  # zygote already populated

    def test_aslr_hw_transform_charged(self):
        sys = MiniSystem(babelfish=True, aslr_mode=ASLRMode.HW)
        a = sys.fork("a")
        mmu, _ = make_mmu(sys, babelfish_config(aslr_mode=ASLRMode.HW))
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.aslr_transforms >= 1

    def test_aslr_sw_no_transform(self):
        sys = MiniSystem(babelfish=True, aslr_mode=ASLRMode.SW)
        a = sys.fork("a")
        mmu, _ = make_mmu(sys, babelfish_config(aslr_mode=ASLRMode.SW))
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.aslr_transforms == 0

    def test_write_to_cow_breaks_and_converges(self):
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, HEAP, 0, write=True)
        a = sys.fork("a")
        mmu, _ = make_mmu(sys, babelfish_config())
        # Read loads shared CoW entry; write then breaks it.
        mmu.translate(a, HEAP, 0, AccessKind.LOAD)
        result = mmu.translate(a, HEAP, 0, AccessKind.STORE)
        assert mmu.stats.cow_faults == 1
        pte = a.tables.lookup_pte(sys.vpn(a, HEAP, 0))
        assert result.ppn4k == pte.ppn
        assert pte.writable

    @pytest.mark.parametrize("fastpath", [True, False],
                             ids=["fast", "reference"])
    def test_translation_that_never_converges_raises_typed_error(
            self, mini_baseline, fastpath, linear_structures):
        sys = mini_baseline
        with linear_structures(not fastpath):
            mmu, hierarchy = make_mmu(sys, baseline_config(fastpath=fastpath))
        assert (type(hierarchy) is LinearCacheHierarchy) == (not fastpath)
        calls = []

        def service_nothing(proc, vpn_group, is_write):
            # Services the fault without installing a PTE, so every
            # retry walks into the same fault again.
            calls.append(vpn_group)
            return 10

        mmu._service_fault = service_nothing
        vpn = sys.vpn(sys.zygote, HEAP, 7)
        with pytest.raises(TranslationDidNotConverge) as info:
            mmu.translate(sys.zygote, HEAP, 7, AccessKind.STORE)
        assert isinstance(info.value, SimulationError)
        assert (info.value.pid, info.value.vpn) == (sys.zygote.pid, vpn)
        assert calls == [vpn] * _MAX_FAULT_RETRIES
        assert sys.zygote.tables.lookup_pte(vpn) is None

    def test_ifetch_uses_itlb(self, mini_baseline):
        sys = mini_baseline
        mmu, _ = make_mmu(sys, baseline_config())
        mmu.translate(sys.zygote, LIBS, 0, AccessKind.IFETCH)
        assert mmu.stats.accesses_i == 1
        # The cold access faults and retries, so >= 1 L1I misses.
        assert mmu.stats.l1_misses_i >= 1
        assert mmu.stats.l1_misses_d == 0

    def test_long_access_when_bitmask_needed(self):
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, HEAP, 0, write=True)
        a, b = sys.fork("a"), sys.fork("b")
        sys.kernel.handle_fault(a, sys.vpn(a, HEAP, 0), is_write=True)
        mmu, _ = make_mmu(sys, babelfish_config())
        # b's fill of the shared entry must consult the PC bitmask.
        mmu.translate(b, HEAP, 0, AccessKind.LOAD)
        mmu.l1d.flush()
        mmu.translate(b, HEAP, 0, AccessKind.LOAD)
        assert mmu.stats.l2_long_accesses >= 1

    def test_orpc_disabled_forces_long(self):
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, MMAP, 0)
        a = sys.fork("a")
        mmu, _ = make_mmu(sys, babelfish_config(orpc_enabled=False))
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        mmu.l1d.flush()
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.l2_long_accesses >= 1


class TestScheduler:
    def test_round_robin(self):
        sched = Scheduler(1)
        sched.assign("a", 0)
        sched.assign("b", 0)
        assert sched.current(0) == "a"
        assert sched.rotate(0) == "b"
        assert sched.rotate(0) == "a"
        assert sched.context_switches == 2

    def test_single_process_no_switch(self):
        sched = Scheduler(1)
        sched.assign("a", 0)
        assert sched.rotate(0) == "a"
        assert sched.context_switches == 0

    def test_remove(self):
        sched = Scheduler(2)
        sched.assign("a", 1)
        assert sched.remove("a")
        assert not sched.remove("a")
        assert sched.current(1) is None

    def test_core_of(self):
        sched = Scheduler(2)
        sched.assign("x", 1)
        assert sched.core_of("x") == 1
        assert sched.core_of("y") is None

    def test_runnable(self):
        sched = Scheduler(2)
        sched.assign("a", 0)
        sched.assign("b", 1)
        assert sched.runnable == 2


class TestStats:
    def test_mpki(self):
        stats = MMUStats()
        stats.instructions = 2000
        stats.l2_misses_d = 4
        stats.l2_misses_i = 2
        assert stats.mpki("d") == 2.0
        assert stats.mpki("i") == 1.0
        assert stats.mpki() == 3.0

    def test_shared_fraction(self):
        stats = MMUStats()
        stats.l2_hits_d = 10
        stats.l2_shared_hits_d = 4
        assert stats.shared_hit_fraction("d") == 0.4
        assert stats.shared_hit_fraction("i") == 0.0

    def test_merge(self):
        a, b = MMUStats(), MMUStats()
        a.walks = 3
        b.walks = 4
        assert MMUStats.merged([a, b]).walks == 7

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 95) == 95
        assert percentile(values, 100) == 100
        assert percentile([], 95) == 0.0
        assert percentile([42], 50) == 42


class TestSimulator:
    def build(self, babelfish=False):
        sys = MiniSystem(babelfish=babelfish)
        sys.touch(sys.zygote, MMAP, 0)
        a, b = sys.fork("a"), sys.fork("b")
        config = babelfish_config() if babelfish else baseline_config(
        )
        import dataclasses
        config = dataclasses.replace(config, quantum_instructions=500)
        sim = Simulator(baseline_machine(cores=1), config, sys.kernel)
        return sys, sim, a, b

    @staticmethod
    def trace(n, req_base=0, seg=MMAP, kind=K_LOAD):
        for i in range(n):
            yield (kind, seg, i % 64, i % 64, 10, req_base + i)

    def test_run_completes_and_counts(self):
        _sys, sim, a, b = self.build()
        sim.attach(a, self.trace(100), 0)
        sim.attach(b, self.trace(100, req_base=1000), 0)
        result = sim.run()
        assert result.stats.accesses_d == 200
        assert result.stats.instructions == 200 * 11
        assert len(result.request_latency) == 200
        assert result.total_cycles > 0

    def test_context_switches_happen(self):
        _sys, sim, a, b = self.build()
        sim.attach(a, self.trace(200), 0)
        sim.attach(b, self.trace(200, req_base=1000), 0)
        result = sim.run()
        assert result.context_switches > 0

    def test_completion_and_process_cycles(self):
        _sys, sim, a, b = self.build()
        sim.attach(a, self.trace(50), 0)
        sim.attach(b, self.trace(150, req_base=1000), 0)
        result = sim.run()
        assert set(result.completion_cycles) == {a.pid, b.pid}
        assert result.process_cycles[b.pid] > result.process_cycles[a.pid]

    def test_babelfish_fewer_faults(self):
        _sys_b, sim_b, a_b, b_b = self.build(babelfish=False)
        sim_b.attach(a_b, self.trace(100), 0)
        sim_b.attach(b_b, self.trace(100, req_base=1000), 0)
        base = sim_b.run()

        _sys_f, sim_f, a_f, b_f = self.build(babelfish=True)
        sim_f.attach(a_f, self.trace(100), 0)
        sim_f.attach(b_f, self.trace(100, req_base=1000), 0)
        bf = sim_f.run()
        assert bf.stats.minor_faults < base.stats.minor_faults
        assert bf.stats.l2_shared_hits_d > 0

    def test_reset_measurement_keeps_state(self):
        sys, sim, a, b = self.build()
        sim.attach(a, self.trace(50), 0)
        sim.run()
        sim.reset_measurement()
        assert sim.core_cycles == [0]
        # TLB state survives: re-running the same pages is fast.
        sim.attach(a, self.trace(50), 0)
        result = sim.run()
        assert result.stats.minor_faults == 0

    def test_run_single(self):
        sys, sim, a, _b = self.build()
        cycles = sim.run_single(a, self.trace(20), core_id=0)
        assert cycles > 0

    def test_max_instruction_budget(self):
        _sys, sim, a, b = self.build()
        sim.attach(a, self.trace(10_000), 0)
        result = sim.run(max_instructions=400)
        assert result.stats.instructions <= 800  # one extra quantum at most

    def test_bigtlb_scales_structures(self):
        sys = MiniSystem(babelfish=False)
        sim = Simulator(baseline_machine(cores=1), bigtlb_config(),
                        sys.kernel)
        l2 = sim.mmus[0].l2.tlbs
        from repro.hw.types import PageSize
        assert l2[PageSize.SIZE_4K].params.entries == 3072
