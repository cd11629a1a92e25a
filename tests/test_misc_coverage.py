"""Coverage for smaller pieces: process, costs, errors, engine details,
fig9 classification edge cases, sim config properties."""

import dataclasses

import pytest

from repro.core.aslr import ASLRMode
from repro.kernel.costs import KernelCosts
from repro.kernel.errors import (
    OutOfMemoryError,
    ProtectionFault,
    SegmentationFault,
    SimulationError,
)
from repro.kernel.frames import FrameAllocator
from repro.kernel.process import Process
from repro.kernel.vma import SegmentKind
from repro.kernel.aslr_layout import randomized_layout
from repro.sim.config import (
    babelfish_config,
    babelfish_pt_only_config,
    babelfish_tlb_only_config,
    baseline_config,
    bigtlb_config,
)


class TestProcess:
    def make(self):
        layout = randomized_layout(1)
        return Process(FrameAllocator(), ccid=3, layout_group=layout)

    def test_pcid_within_12_bits(self):
        proc = self.make()
        assert 0 <= proc.pcid < 4096

    def test_pids_unique(self):
        layout = randomized_layout(1)
        alloc = FrameAllocator()
        pids = {Process(alloc, 1, layout).pid for _ in range(50)}
        assert len(pids) == 50

    def test_default_proc_layout_is_group(self):
        proc = self.make()
        assert proc.layout_proc is proc.layout_group
        assert (proc.vpn_proc(SegmentKind.HEAP, 5)
                == proc.vpn_group(SegmentKind.HEAP, 5))

    def test_distinct_layouts_give_distinct_vpns(self):
        group = randomized_layout(1)
        own = randomized_layout(2)
        proc = Process(FrameAllocator(), 1, group, own)
        assert (proc.vpn_proc(SegmentKind.HEAP, 5)
                != proc.vpn_group(SegmentKind.HEAP, 5))

    def test_pc_bit_default_none(self):
        proc = self.make()
        assert proc.pc_bit(123) is None
        proc.pc_bits[123] = 7
        assert proc.pc_bit(123) == 7

    def test_fault_counter_totals(self):
        proc = self.make()
        proc.minor_faults = 2
        proc.major_faults = 1
        proc.cow_faults = 3
        assert proc.total_faults == 6


class TestCosts:
    def test_defaults_sane(self):
        costs = KernelCosts()
        assert costs.major_fault > costs.minor_fault > 0
        assert costs.fork_base > costs.context_switch
        assert costs.tlb_shootdown > 0

    def test_frozen(self):
        costs = KernelCosts()
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.minor_fault = 1

    def test_custom_costs_flow_into_outcomes(self):
        costs = KernelCosts(minor_fault=7777)
        from repro.kernel.kernel import Kernel, KernelConfig
        from repro.core.ccid import CCIDRegistry
        from repro.kernel.vma import VMAKind
        kernel = Kernel(KernelConfig(costs=costs))
        group = CCIDRegistry().group_for("u", "a")
        proc = kernel.spawn(group.ccid, randomized_layout(1))
        kernel.mmap(proc, SegmentKind.HEAP, 0, 8, VMAKind.ANON, name="h")
        outcome = kernel.handle_fault(
            proc, proc.vpn_group(SegmentKind.HEAP, 0), is_write=True)
        assert outcome.cycles >= 7777


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(SegmentationFault, SimulationError)
        assert issubclass(ProtectionFault, SimulationError)
        assert issubclass(OutOfMemoryError, SimulationError)

    def test_messages_carry_context(self):
        err = SegmentationFault(42, 0xABC)
        assert "42" in str(err) and "0xabc" in str(err)
        assert err.pid == 42 and err.vpn == 0xABC
        perr = ProtectionFault(7, 0x10, reason="exec of NX page")
        assert "exec of NX page" in str(perr)


class TestSimConfigs:
    def test_preset_flags(self):
        base = baseline_config()
        assert not base.shared_tlb_entries and not base.shares_page_tables
        full = babelfish_config()
        assert full.shared_tlb_entries and full.shares_page_tables
        pt = babelfish_pt_only_config()
        assert pt.shares_page_tables and not pt.shared_tlb_entries
        tlb = babelfish_tlb_only_config()
        assert tlb.shared_tlb_entries and not tlb.shares_page_tables
        assert bigtlb_config().translation_policy.l2_tlb_scale == 2.0
        assert base.translation_policy.l2_tlb_scale == 1.0

    def test_share_l1_rules(self):
        assert not babelfish_config(aslr_mode=ASLRMode.HW).share_l1_tlb
        assert babelfish_config(aslr_mode=ASLRMode.SW).share_l1_tlb
        assert not baseline_config().share_l1_tlb

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            baseline_config().name = "x"

    def test_overrides(self):
        config = babelfish_config(quantum_instructions=5)
        assert config.quantum_instructions == 5


class TestOOMBehaviour:
    def test_fault_raises_oom_cleanly(self):
        from repro.kernel.kernel import Kernel, KernelConfig
        from repro.core.ccid import CCIDRegistry
        from repro.kernel.vma import VMAKind
        kernel = Kernel(KernelConfig(),
                        allocator=FrameAllocator(total_frames=8))
        group = CCIDRegistry().group_for("u", "a")
        proc = kernel.spawn(group.ccid, randomized_layout(1))
        kernel.mmap(proc, SegmentKind.HEAP, 0, 64, VMAKind.ANON, name="h")
        with pytest.raises(OutOfMemoryError):
            for off in range(64):
                kernel.handle_fault(proc,
                                    proc.vpn_group(SegmentKind.HEAP, off),
                                    is_write=True)


class TestFig9Edges:
    def test_classify_empty(self):
        from repro.experiments.fig9 import classify_processes
        from repro.kernel.lru import ActiveInactiveLRU
        counts = classify_processes([], ActiveInactiveLRU())
        assert counts["total"] == 0
        assert counts["active_babelfish"] == 0

    def test_single_process_nothing_shareable(self, mini_baseline):
        from repro.experiments.fig9 import classify_processes
        sys = mini_baseline
        for off in range(4):
            sys.touch(sys.zygote, SegmentKind.MMAP, off)
        counts = classify_processes([sys.zygote], sys.kernel.lru)
        assert counts["total_shareable"] == 0
        assert counts["total"] == counts["total_unshareable"]

    def test_identical_translations_counted_shareable(self, mini_baseline):
        from repro.experiments.fig9 import classify_processes
        sys = mini_baseline
        sys.touch(sys.zygote, SegmentKind.MMAP, 0)
        child = sys.fork()
        sys.touch(child, SegmentKind.MMAP, 0)
        counts = classify_processes([sys.zygote, child], sys.kernel.lru)
        assert counts["total_shareable"] >= 2


class TestEngineDetails:
    def test_bringup_is_deterministic_per_container(self):
        from repro.containers.image import ContainerImage
        from repro.experiments.common import build_environment, config_by_name
        image = ContainerImage(name="det", binary_pages=8, binary_data_pages=2,
                               lib_pages=16, lib_data_pages=2, infra_pages=8,
                               heap_pages=64)
        env = build_environment(config_by_name("Baseline"), cores=1)
        container, _ = env.engine.launch(image)
        a = env.engine.bringup_records(container)
        b = env.engine.bringup_records(container)
        assert a == b

    def test_bringup_budget_respected(self):
        from repro.containers.image import ContainerImage
        from repro.experiments.common import build_environment, config_by_name
        image = ContainerImage(name="budget", binary_pages=8,
                               binary_data_pages=2, lib_pages=512,
                               lib_data_pages=2, infra_pages=512,
                               heap_pages=64, bringup_touch_pages=40)
        env = build_environment(config_by_name("Baseline"), cores=1)
        container, _ = env.engine.launch(image)
        records = env.engine.bringup_records(container)
        loads = [r for r in records if r[0] == 1]
        assert len(loads) <= 40
