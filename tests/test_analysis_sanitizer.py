"""Translation-coherence sanitizer tests: clean runs stay clean, and
deliberately injected desyncs (stale entries, CoW breaks without
shootdown, CCID leaks, O-PC tampering, skipped invalidations) are caught.
"""

import pytest

from repro.analysis.sanitizer import (
    CoherenceError,
    TranslationSanitizer,
)
from repro.core.aslr import ASLRMode
from repro.hw.cache import CacheHierarchy
from repro.hw.dram import DRAMModel
from repro.hw.params import baseline_machine
from repro.hw.tlb import TLBEntry
from repro.hw.types import AccessKind
from repro.kernel.fault import InvalidationScope, TLBInvalidation
from repro.kernel.vma import SegmentKind, VMAKind
from repro.sim.config import babelfish_config, baseline_config
from repro.sim.mmu import MMU
from repro.sim.simulator import K_LOAD, Simulator

from conftest import MiniSystem

HEAP, MMAP = SegmentKind.HEAP, SegmentKind.MMAP


def make_sanitized_mmu(sys, config):
    machine = baseline_machine(cores=1)
    hierarchy = CacheHierarchy(machine, DRAMModel(machine.dram))
    mmu = MMU(0, machine, config, hierarchy, sys.kernel)
    sanitizer = TranslationSanitizer(sys.kernel, config)
    mmu.sanitizer = sanitizer
    return mmu, sanitizer


def zap_pte(proc, vpn):
    """Remove the leaf translation from the tables *without* telling the
    MMU — simulates a munmap whose TLB shootdown got lost."""
    path = proc.tables.walk(vpn)
    _level, table, index, entry = path[-1]
    assert entry is not None
    del table.entries[index]


class TestCleanRuns:
    def test_baseline_translates_clean(self, mini_baseline):
        sys = mini_baseline
        mmu, sanitizer = make_sanitized_mmu(sys, baseline_config(sanitize=True))
        for off in range(8):
            mmu.translate(sys.zygote, MMAP, off, AccessKind.LOAD)
            mmu.translate(sys.zygote, MMAP, off, AccessKind.LOAD)
        assert sanitizer.violations == []
        assert sanitizer.checks > 0
        sanitizer.assert_clean()

    def test_babelfish_sharing_is_not_a_violation(self):
        # A hits a shared entry B filled before A's own tree attaches the
        # range — BabelFish's mechanism, which the reference walk must
        # accept (group fallback), not report as stale.
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, MMAP, 0)
        a, b = sys.fork("a"), sys.fork("b")
        mmu, sanitizer = make_sanitized_mmu(
            sys, babelfish_config(sanitize=True))
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        mmu.translate(b, MMAP, 0, AccessKind.LOAD)
        assert mmu.stats.l2_shared_hits_d == 1
        assert sanitizer.violations == []

    def test_cow_break_with_shootdown_is_clean(self):
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, HEAP, 0, write=True)
        a = sys.fork("a")
        mmu, sanitizer = make_sanitized_mmu(
            sys, babelfish_config(sanitize=True))
        mmu.translate(a, HEAP, 0, AccessKind.LOAD)
        mmu.translate(a, HEAP, 0, AccessKind.STORE)  # CoW break + shootdown
        mmu.translate(a, HEAP, 0, AccessKind.LOAD)
        assert mmu.stats.cow_faults == 1
        assert sanitizer.violations == []

    def test_scan_clean_after_traffic(self, mini_baseline):
        sys = mini_baseline
        mmu, sanitizer = make_sanitized_mmu(sys, baseline_config(sanitize=True))
        for off in range(4):
            mmu.translate(sys.zygote, MMAP, off, AccessKind.LOAD)
        assert sanitizer.scan(mmu) == []


class TestInjectedDesyncs:
    def test_stale_entry_after_zapped_pte(self, mini_baseline):
        sys = mini_baseline
        mmu, sanitizer = make_sanitized_mmu(sys, baseline_config(sanitize=True))
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        assert sanitizer.violations == []
        zap_pte(sys.zygote, sys.vpn(sys.zygote, MMAP, 0))
        # The TLB still hits — exactly the bug class the sanitizer exists for.
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        kinds = {v.kind for v in sanitizer.violations}
        assert "stale-entry" in kinds
        v = sanitizer.violations[0]
        assert v.pid == sys.zygote.pid
        assert "architectural walk faults" in v.detail

    def test_ppn_mismatch_after_silent_remap(self, mini_baseline):
        sys = mini_baseline
        mmu, sanitizer = make_sanitized_mmu(sys, baseline_config(sanitize=True))
        mmu.translate(sys.zygote, MMAP, 3, AccessKind.LOAD)
        pte = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, MMAP, 3))
        pte.ppn += 0x1000  # frame moved; no invalidation issued
        mmu.translate(sys.zygote, MMAP, 3, AccessKind.LOAD)
        assert {v.kind for v in sanitizer.violations} == {"ppn-mismatch"}

    def test_stale_detected_in_scan_too(self, mini_baseline):
        sys = mini_baseline
        mmu, sanitizer = make_sanitized_mmu(sys, baseline_config(sanitize=True))
        mmu.translate(sys.zygote, MMAP, 1, AccessKind.LOAD)
        zap_pte(sys.zygote, sys.vpn(sys.zygote, MMAP, 1))
        violations = sanitizer.scan(mmu)
        assert any(v.kind == "stale-entry" for v in violations)

    def test_private_copy_must_beat_shared_entry(self):
        # a breaks CoW (owns a private frame) but the shared group entry
        # is left in the L2: a's own tables are the reference, so serving
        # a from the stale shared entry is a ppn-mismatch.
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, HEAP, 0, write=True)
        a = sys.fork("a")
        mmu, sanitizer = make_sanitized_mmu(
            sys, babelfish_config(sanitize=True))
        mmu.translate(a, HEAP, 0, AccessKind.LOAD)   # shared CoW entry
        # Break the CoW in the kernel WITHOUT applying the invalidations.
        vpn = sys.vpn(a, HEAP, 0)
        sys.kernel.handle_fault(a, vpn, is_write=True)
        mmu.translate(a, HEAP, 0, AccessKind.LOAD)
        assert any(v.kind in ("ppn-mismatch", "stale-entry", "perm-mismatch")
                   for v in sanitizer.violations)

    def test_ccid_leak_on_fill(self, mini_baseline):
        sys = mini_baseline
        _mmu, sanitizer = make_sanitized_mmu(
            sys, baseline_config(sanitize=True))
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        pte = sys.touch(sys.zygote, MMAP, 0)
        rogue = TLBEntry(vpn, pte.ppn, pcid=sys.zygote.pcid,
                         ccid=sys.zygote.ccid + 99,
                         inserted_by=sys.zygote.pid)
        sanitizer.check_fill("L2", sys.zygote, rogue, vpn)
        assert [v.kind for v in sanitizer.violations] == ["ccid-leak"]

    def test_opc_desync_on_tampered_o_bit(self):
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, MMAP, 0)
        a = sys.fork("a")
        config = babelfish_config(sanitize=True)
        mmu, sanitizer = make_sanitized_mmu(sys, config)
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        assert sanitizer.violations == []
        legit = next(e for e in mmu.l2.entries() if not e.o_bit)
        tampered = TLBEntry(legit.vpn, legit.ppn, legit.page_size,
                            pcid=a.pcid, ccid=a.ccid,
                            o_bit=True,  # claims private ownership
                            orpc=legit.orpc, pc_mask=legit.pc_mask,
                            inserted_by=a.pid)
        sanitizer.check_fill("L2", a, tampered, sys.vpn(a, MMAP, 0))
        assert any(v.kind == "opc-desync" and "O=" in v.detail
                   for v in sanitizer.violations)

    def test_opc_desync_on_tampered_bitmask(self):
        sys = MiniSystem(babelfish=True)
        sys.touch(sys.zygote, MMAP, 0)
        a = sys.fork("a")
        config = babelfish_config(sanitize=True)
        mmu, sanitizer = make_sanitized_mmu(sys, config)
        mmu.translate(a, MMAP, 0, AccessKind.LOAD)
        legit = next(e for e in mmu.l2.entries() if not e.o_bit)
        tampered = TLBEntry(legit.vpn, legit.ppn, legit.page_size,
                            pcid=a.pcid, ccid=a.ccid, o_bit=legit.o_bit,
                            orpc=legit.orpc,
                            pc_mask=legit.pc_mask ^ 0x5,  # flipped PC bits
                            inserted_by=a.pid)
        sanitizer.check_fill("L2", a, tampered, sys.vpn(a, MMAP, 0))
        assert any(v.kind == "opc-desync" and "bitmask" in v.detail
                   for v in sanitizer.violations)

    def test_invalidation_leak_when_mmu_skips(self, mini_baseline):
        sys = mini_baseline
        mmu, sanitizer = make_sanitized_mmu(sys, baseline_config(sanitize=True))
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        inv = TLBInvalidation(vpn, InvalidationScope.PROCESS,
                              pcid=sys.zygote.pcid)
        # The kernel "requested" this invalidation but the MMU never
        # applied it — the post-condition check must see survivors.
        sanitizer.check_invalidation(mmu, sys.zygote, inv)
        leaks = [v for v in sanitizer.violations
                 if v.kind == "invalidation-leak"]
        assert leaks and leaks[0].vpn == vpn

    def test_applied_invalidation_leaves_no_leak(self, mini_baseline):
        sys = mini_baseline
        mmu, sanitizer = make_sanitized_mmu(sys, baseline_config(sanitize=True))
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        vpn = sys.vpn(sys.zygote, MMAP, 0)
        inv = TLBInvalidation(vpn, InvalidationScope.PROCESS,
                              pcid=sys.zygote.pcid)
        mmu.apply_invalidation(sys.zygote, inv)  # runs the check itself
        assert sanitizer.violations == []

    def test_raise_on_violation_mode(self, mini_baseline):
        sys = mini_baseline
        config = baseline_config(sanitize=True)
        mmu, _ = make_sanitized_mmu(sys, config)
        strict = TranslationSanitizer(sys.kernel, config,
                                      raise_on_violation=True)
        mmu.sanitizer = strict
        mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)
        zap_pte(sys.zygote, sys.vpn(sys.zygote, MMAP, 0))
        with pytest.raises(CoherenceError):
            mmu.translate(sys.zygote, MMAP, 0, AccessKind.LOAD)


class TestSimulatorIntegration:
    @staticmethod
    def trace(n, req_base=0):
        for i in range(n):
            yield (K_LOAD, SegmentKind.MMAP, i % 64, i % 64, 10, req_base + i)

    def build(self, babelfish):
        sys = MiniSystem(babelfish=babelfish)
        sys.touch(sys.zygote, MMAP, 0)
        a, b = sys.fork("a"), sys.fork("b")
        config = (babelfish_config(sanitize=True) if babelfish
                  else baseline_config(sanitize=True))
        sim = Simulator(baseline_machine(cores=1), config, sys.kernel)
        return sys, sim, a, b

    @pytest.mark.parametrize("babelfish", [False, True],
                             ids=["baseline", "babelfish"])
    def test_run_reports_zero_violations(self, babelfish):
        _sys, sim, a, b = self.build(babelfish)
        sim.attach(a, self.trace(200), 0)
        sim.attach(b, self.trace(200, req_base=1000), 0)
        result = sim.run()
        assert sim.sanitizer is not None
        assert sim.sanitizer.checks > 0
        assert result.coherence_violations == []

    def test_unsanitized_run_has_no_shadow_mmu(self):
        sys = MiniSystem(babelfish=False)
        sim = Simulator(baseline_machine(cores=1), baseline_config(),
                        sys.kernel)
        assert sim.sanitizer is None
        assert all(m.sanitizer is None for m in sim.mmus)


class TestHugeCowCoherence:
    """A CoW break inside a process's owned copy of a merged 2MB-page
    PMD table must mark the writer private for the written 2MB range,
    or a sharer's refill hands the writer its stale shared entry."""

    @pytest.mark.parametrize("aslr_mode", [ASLRMode.HW, ASLRMode.SW],
                             ids=["aslr-hw", "aslr-sw"])
    def test_second_range_written_in_owned_pmd_copy(self, aslr_mode):
        sys = MiniSystem(babelfish=True, aslr_mode=aslr_mode)
        sys.kernel.mmap(sys.zygote, HEAP, 4096, 1024, VMAKind.ANON,
                        huge_ok=True, name="thp")
        sys.touch(sys.zygote, HEAP, 4096, write=True)
        sys.touch(sys.zygote, HEAP, 4608, write=True)
        a, b = sys.fork("a"), sys.fork("b")
        sim = Simulator(baseline_machine(cores=2),
                        babelfish_config(aslr_mode=aslr_mode, sanitize=True),
                        sys.kernel)
        core0, core1 = sim.mmus
        core0.translate(a, HEAP, 4096, AccessKind.STORE)  # owned PMD copy
        core0.translate(a, HEAP, 4608, AccessKind.STORE)  # break in copy
        core1.translate(b, HEAP, 4608, AccessKind.LOAD)   # shared refill
        core1.translate(a, HEAP, 4608, AccessKind.LOAD)
        assert core0.stats.cow_faults == 2
        assert sim.sanitizer.violations == []
