"""Edge-path coverage: non-present PTEs, read-only shared files, THP-off
environments, MMU PCID flush, engine stop accounting."""

import pytest

from repro.hw.cache import CacheHierarchy
from repro.hw.dram import DRAMModel
from repro.hw.params import baseline_machine
from repro.hw.pwc import PageWalkCache
from repro.hw.types import AccessKind
from repro.kernel.errors import ProtectionFault
from repro.kernel.fault import FaultType, InvalidationScope, TLBInvalidation
from repro.kernel.vma import SegmentKind, VMAKind
from repro.sim.config import baseline_config
from repro.sim.mmu import MMU
from repro.sim.walker import PageWalker

from conftest import MiniSystem

MMAP, HEAP, LIBS = SegmentKind.MMAP, SegmentKind.HEAP, SegmentKind.LIBS


class TestNonPresentPTE:
    def test_walker_faults_on_non_present(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, MMAP, 0)
        pte.present = False
        machine = baseline_machine(cores=1)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        walker = PageWalker(0, hierarchy, PageWalkCache(machine.mmu.pwc))
        found, leaf_table, _cycles = walker.walk(
            sys.zygote, sys.vpn(sys.zygote, MMAP, 0))
        assert found is None
        # The walk reached the non-present leaf's table.
        assert pte in leaf_table.entries.values()

    def test_fault_repopulates_non_present(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, MMAP, 0)
        pte.present = False
        outcome = sys.kernel.handle_fault(sys.zygote,
                                          sys.vpn(sys.zygote, MMAP, 0))
        assert outcome.fault_type is FaultType.MINOR
        fresh = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, MMAP, 0))
        assert fresh.present


class TestReadOnlySharedFile:
    def test_write_to_readonly_shared_raises(self, mini_baseline):
        sys = mini_baseline
        ro_file = sys.kernel.create_file("ro", 8)
        sys.kernel.page_cache.populate(ro_file)
        sys.kernel.mmap(sys.zygote, MMAP, 2048, 8, VMAKind.FILE_SHARED,
                        file=ro_file, writable=False, name="ro")
        sys.touch(sys.zygote, MMAP, 2048)
        with pytest.raises(ProtectionFault):
            sys.kernel.handle_fault(sys.zygote,
                                    sys.vpn(sys.zygote, MMAP, 2048),
                                    is_write=True)


class TestTHPOffEnvironment:
    def test_deploy_with_thp_disabled(self):
        from repro.experiments.common import (
            build_environment, config_by_name, deploy_app, measure_app)
        from repro.workloads.profiles import APP_PROFILES
        env = build_environment(config_by_name("BabelFish"), cores=1)
        env.kernel.config.thp_enabled = False
        deployment = deploy_app(env, APP_PROFILES["graphchi"])
        result = measure_app(env, deployment, scale=0.05)
        # No huge leaves anywhere.
        for container in deployment.containers:
            for _v, _l, _t, _i, pte in container.proc.tables.iter_leaves():
                assert pte.page_size.base_pages == 1
        assert result.stats.instructions > 0


class TestMMUFlush:
    def test_pcid_flush_clears_every_level(self, mini_baseline):
        # A process-exit flush of the only PCID with entries empties
        # every TLB level, wherever the fills put them.
        sys = mini_baseline
        machine = baseline_machine(cores=1)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        mmu = MMU(0, machine, baseline_config(), hierarchy, sys.kernel)
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        mmu.translate(sys.zygote, LIBS, 0, AccessKind.IFETCH)
        assert list(mmu.l1d.entries()) and list(mmu.l2.entries())
        mmu.apply_invalidation(sys.zygote, TLBInvalidation(
            0, InvalidationScope.PCID_FLUSH, pcid=sys.zygote.pcid))
        assert not list(mmu.l1d.entries())
        assert not list(mmu.l1i.entries())
        assert not list(mmu.l2.entries())
        # Next access misses everywhere again.
        before = mmu.stats.walks
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.walks == before + 1


class TestEngineStopAccounting:
    def test_stop_releases_container_resources(self):
        from repro.containers.image import ContainerImage
        from repro.experiments.common import build_environment, config_by_name
        image = ContainerImage(name="stoppable", binary_pages=8,
                               binary_data_pages=2, lib_pages=16,
                               lib_data_pages=2, infra_pages=8,
                               heap_pages=64)
        env = build_environment(config_by_name("BabelFish"), cores=1)
        a, _ = env.engine.launch(image)
        b, _ = env.engine.launch(image)
        env.kernel.touch(a.proc, a.proc.vpn_group(HEAP, 0), is_write=True)
        before = env.kernel.allocator.allocated
        env.engine.stop(a)
        assert env.kernel.allocator.allocated < before
        # b is untouched and the group survives.
        assert b.proc.alive
        assert b.proc in b.group.members
        from repro.kernel.audit import audit_kernel
        assert audit_kernel(env.kernel) == []


class TestSpuriousThroughMMU:
    def test_racing_group_member_resolution(self):
        """Two group members on different cores race to the same page:
        the loser's fault is spurious under BabelFish."""
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, MMAP, 0)  # table exists pre-fork
        a, b = sys.fork("a"), sys.fork("b")
        machine = baseline_machine(cores=2)
        hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
        from repro.sim.config import babelfish_config
        mmu0 = MMU(0, machine, babelfish_config(), hierarchy, sys.kernel)
        mmu1 = MMU(1, machine, babelfish_config(), hierarchy, sys.kernel)
        mmu0.translate(a, MMAP, 5, AccessKind.LOAD)     # a faults page in
        mmu1.translate(b, MMAP, 5, AccessKind.LOAD)     # b finds it present
        assert mmu0.stats.minor_faults == 1
        assert mmu1.stats.minor_faults == 0
