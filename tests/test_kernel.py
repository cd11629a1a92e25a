"""Tests for the kernel facade: faults, fork/CoW, THP, teardown."""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.ccid import CCIDRegistry
from repro.core.mask_page import MaskPageDirectory
from repro.core.shared_pt import SharedPTManager
from repro.hw.types import PageSize
from repro.kernel.errors import (
    ProtectionFault,
    SegmentationFault,
    SimulationError,
    TouchDidNotConverge,
)
from repro.kernel.aslr_layout import canonical_layout
from repro.kernel.audit import audit_kernel
from repro.kernel.fault import FaultType
from repro.kernel.frames import FrameKind
from repro.kernel.kernel import Kernel, KernelConfig, PrivatePTPolicy
from repro.kernel.page_table import PTE, PageTable
from repro.kernel.vma import SegmentKind, VMAKind

from conftest import MiniSystem
from kernel_oracle import kernel_state

LIBS, MMAP, HEAP, DATA = (SegmentKind.LIBS, SegmentKind.MMAP,
                          SegmentKind.HEAP, SegmentKind.DATA)


class _DroppingPolicy(PrivatePTPolicy):
    """Sends installs at chosen VPNs to a detached table: no fault ever
    makes those pages visible, so touching them cannot converge."""

    def __init__(self, drop):
        self.drop = drop

    def install_target(self, kernel, proc, vma, vpn, table, index,
                       private_content):
        if vpn in self.drop:
            return PageTable(table.level, 0), index, 0
        return table, index, 0


class TestFaultHandling:
    def test_segfault_outside_vmas(self, mini_baseline):
        sys = mini_baseline
        with pytest.raises(SegmentationFault):
            sys.kernel.handle_fault(sys.zygote, 0xDEAD_BEEF_0)

    def test_first_touch_anon_is_minor(self, mini_baseline):
        sys = mini_baseline
        vpn = sys.vpn(sys.zygote, HEAP, 3)
        outcome = sys.kernel.handle_fault(sys.zygote, vpn, is_write=True)
        assert outcome.fault_type is FaultType.MINOR
        assert sys.zygote.minor_faults == 1

    def test_warm_file_page_is_minor(self, mini_baseline):
        sys = mini_baseline
        vpn = sys.vpn(sys.zygote, MMAP, 5)
        outcome = sys.kernel.handle_fault(sys.zygote, vpn)
        assert outcome.fault_type is FaultType.MINOR

    def test_cold_file_page_is_major(self, mini_baseline):
        sys = mini_baseline
        cold = sys.kernel.create_file("cold", 4)  # not populated
        sys.kernel.mmap(sys.zygote, MMAP, 2048, 4, VMAKind.FILE_SHARED,
                        file=cold, name="cold")
        vpn = sys.vpn(sys.zygote, MMAP, 2048)
        outcome = sys.kernel.handle_fault(sys.zygote, vpn)
        assert outcome.fault_type is FaultType.MAJOR
        assert outcome.cycles >= sys.kernel.costs.major_fault

    def test_shared_file_pages_share_frames(self, mini_baseline):
        sys = mini_baseline
        child = sys.fork()
        a = sys.touch(sys.zygote, MMAP, 7)
        b = sys.touch(child, MMAP, 7)
        assert a.ppn == b.ppn

    def test_private_read_maps_shared_then_cow_on_write(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, DATA, 1)
        assert pte.cow and not pte.writable
        shared_ppn = pte.ppn
        pte2 = sys.touch(sys.zygote, DATA, 1, write=True)
        assert pte2.writable and not pte2.cow
        assert pte2.ppn != shared_ppn
        assert sys.zygote.cow_faults == 1

    def test_private_write_fault_allocates_immediately(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, DATA, 2, write=True)
        assert pte.writable and not pte.cow
        assert sys.kernel.page_cache.lookup(sys.bindata, 2) != pte.ppn

    def test_write_to_readonly_raises(self, mini_baseline):
        sys = mini_baseline
        sys.touch(sys.zygote, LIBS, 0)
        with pytest.raises(ProtectionFault):
            sys.kernel.handle_fault(sys.zygote,
                                    sys.vpn(sys.zygote, LIBS, 0),
                                    is_write=True)

    def test_spurious_fault_cheap(self, mini_baseline):
        sys = mini_baseline
        vpn = sys.vpn(sys.zygote, MMAP, 9)
        sys.kernel.handle_fault(sys.zygote, vpn)
        outcome = sys.kernel.handle_fault(sys.zygote, vpn)
        assert outcome.fault_type is FaultType.SPURIOUS
        assert outcome.cycles < sys.kernel.costs.minor_fault

    def test_touch_that_never_converges_raises_typed_error(self,
                                                           mini_baseline):
        sys = mini_baseline
        vpn = sys.vpn(sys.zygote, HEAP, 4)
        sys.kernel.policy = _DroppingPolicy({vpn})
        with pytest.raises(TouchDidNotConverge) as info:
            sys.kernel.touch(sys.zygote, vpn, is_write=True)
        assert isinstance(info.value, SimulationError)
        assert (info.value.pid, info.value.vpn) == (sys.zygote.pid, vpn)
        assert sys.zygote.tables.lookup_pte(vpn) is None
        # The touch retried: one fault per attempt, each dropped.
        assert sys.zygote.minor_faults == 4


class TestForkCow:
    def test_fork_write_protects_anon(self, mini_any):
        sys = mini_any
        sys.touch(sys.zygote, HEAP, 0, write=True)
        child = sys.fork()
        parent_pte = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, HEAP, 0))
        child_pte = child.tables.lookup_pte(sys.vpn(child, HEAP, 0))
        assert parent_pte.cow and not parent_pte.writable
        assert child_pte.cow
        assert parent_pte.ppn == child_pte.ppn

    def test_cow_break_diverges(self, mini_any):
        sys = mini_any
        sys.touch(sys.zygote, HEAP, 1, write=True)
        child = sys.fork()
        child_pte = sys.touch(child, HEAP, 1, write=True)
        parent_pte = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, HEAP, 1))
        assert child_pte.ppn != parent_pte.ppn
        assert child_pte.writable and not child_pte.cow

    def test_anon_isolation_across_siblings(self, mini_any):
        """The critical containment property: two containers' private
        writes must land in different frames, under both policies."""
        sys = mini_any
        a, b = sys.fork("a"), sys.fork("b")
        pa = sys.touch(a, HEAP, 42, write=True)
        pb = sys.touch(b, HEAP, 42, write=True)
        assert pa.ppn != pb.ppn
        # And the zygote sees neither.
        zp = sys.touch(sys.zygote, HEAP, 42, write=True)
        assert zp.ppn not in (pa.ppn, pb.ppn)

    def test_file_shared_not_cow_on_fork(self, mini_any):
        sys = mini_any
        sys.touch(sys.zygote, MMAP, 3, write=True)
        child = sys.fork()
        pte = child.tables.lookup_pte(sys.vpn(child, MMAP, 3))
        assert pte.writable and not pte.cow

    def test_fork_increfs_frames(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, HEAP, 2, write=True)
        before = sys.kernel.allocator.refcount(pte.ppn)
        sys.fork()
        assert sys.kernel.allocator.refcount(pte.ppn) == before + 1

    def test_baseline_fork_copies_tables(self, mini_baseline):
        sys = mini_baseline
        sys.touch(sys.zygote, HEAP, 0)
        before = sys.kernel.allocator.count(FrameKind.PAGE_TABLE)
        sys.fork()
        after = sys.kernel.allocator.count(FrameKind.PAGE_TABLE)
        assert after - before >= 4  # full private tree

    def test_fork_cost_scales_with_copies(self, mini_baseline):
        sys = mini_baseline
        for off in range(0, 600, 10):
            sys.touch(sys.zygote, MMAP, off)
        _child, cycles = sys.kernel.fork(sys.zygote)
        assert cycles > sys.kernel.costs.fork_base


class TestTHP:
    def huge_setup(self, sys):
        sys.kernel.mmap(sys.zygote, HEAP, 2048, 1024, VMAKind.ANON,
                        huge_ok=True, name="thp")
        return sys.vpn(sys.zygote, HEAP, 2048)

    def test_huge_allocation(self, mini_baseline):
        sys = mini_baseline
        vpn = self.huge_setup(sys)
        pte = sys.touch(sys.zygote, HEAP, 2048, write=True)
        assert pte.page_size is PageSize.SIZE_2M
        # The whole 2MB block resolves through the single leaf.
        assert sys.zygote.tables.lookup_pte(vpn + 17) is pte

    def test_huge_disabled_by_config(self):
        sys = MiniSystem(babelfish=False, thp=False)
        sys.kernel.mmap(sys.zygote, HEAP, 2048, 1024, VMAKind.ANON,
                        huge_ok=True, name="thp")
        pte = sys.touch(sys.zygote, HEAP, 2048, write=True)
        assert pte.page_size is PageSize.SIZE_4K

    def test_huge_cow_across_fork(self, mini_any):
        sys = mini_any
        self.huge_setup(sys)
        sys.touch(sys.zygote, HEAP, 2048, write=True)
        child = sys.fork()
        cp = sys.touch(child, HEAP, 2048 + 5, write=True)
        zp = sys.zygote.tables.lookup_pte(sys.vpn(sys.zygote, HEAP, 2048))
        assert cp.ppn != zp.ppn
        assert cp.page_size is PageSize.SIZE_2M

    def test_unaligned_tail_uses_4k(self, mini_baseline):
        sys = mini_baseline
        sys.kernel.mmap(sys.zygote, HEAP, 4096, 600, VMAKind.ANON,
                        huge_ok=True, name="thp2")
        # Only one full 2MB block fits; the tail takes 4K pages.
        tail = sys.touch(sys.zygote, HEAP, 4096 + 520, write=True)
        assert tail.page_size is PageSize.SIZE_4K


class TestExit:
    def test_exit_frees_private_frames(self, mini_baseline):
        sys = mini_baseline
        child = sys.fork()
        pte = sys.touch(child, HEAP, 9, write=True)
        ppn = pte.ppn
        sys.kernel.exit_process(child)
        assert sys.kernel.allocator.refcount(ppn) == 0

    def test_exit_keeps_shared_file_frames(self, mini_baseline):
        sys = mini_baseline
        child = sys.fork()
        pte = sys.touch(child, MMAP, 11)
        ppn = pte.ppn
        sys.kernel.exit_process(child)
        # Page cache still holds its reference.
        assert sys.kernel.allocator.refcount(ppn) >= 1

    def test_exit_frees_table_frames(self, mini_any):
        sys = mini_any
        child = sys.fork()
        sys.touch(child, HEAP, 5, write=True)
        before = sys.kernel.allocator.count(FrameKind.PAGE_TABLE)
        sys.kernel.exit_process(child)
        assert sys.kernel.allocator.count(FrameKind.PAGE_TABLE) < before

    def test_exit_removes_from_process_table(self, mini_baseline):
        sys = mini_baseline
        child = sys.fork()
        sys.kernel.exit_process(child)
        assert child.pid not in sys.kernel.processes
        assert not child.alive


class TestCounters:
    def test_fault_counters_reset(self, mini_baseline):
        sys = mini_baseline
        sys.touch(sys.zygote, HEAP, 0, write=True)
        sys.kernel.reset_fault_counters()
        assert sys.kernel.total_minor_faults == 0

    def test_clear_accessed_bits(self, mini_baseline):
        sys = mini_baseline
        pte = sys.touch(sys.zygote, MMAP, 0)
        assert pte.accessed
        sys.kernel.clear_accessed_bits()
        assert not pte.accessed

    def test_clear_accessed_bits_visits_shared_leaves_once(self,
                                                          monkeypatch):
        """A BabelFish deployment's containers share PTE tables; aging
        clears each shared leaf once, not once per sharer."""
        from repro.experiments.common import (build_environment,
                                              config_by_name, deploy_app)
        from repro.workloads.profiles import APP_PROFILES
        env = build_environment(config_by_name("BabelFish"), cores=2)
        deploy_app(env, APP_PROFILES["mongodb"])
        kernel = env.kernel
        leaves = {id(pte): pte for proc in kernel.processes.values()
                  for *_path, pte in proc.tables.iter_leaves()}
        assert any(pte.accessed for pte in leaves.values())

        slot = PTE.__dict__["accessed"]
        writes = []

        class CountingSlot:
            def __get__(self, pte, owner=None):
                return self if pte is None else slot.__get__(pte, owner)

            def __set__(self, pte, value):
                writes.append(id(pte))
                slot.__set__(pte, value)

        monkeypatch.setattr(PTE, "accessed", CountingSlot())
        kernel.clear_accessed_bits()
        monkeypatch.undo()
        assert len(writes) == len(set(writes)) == len(leaves)
        assert not any(pte.accessed for pte in leaves.values())


_VMA_KINDS = {
    "anon": (VMAKind.ANON, False),
    "anon-huge": (VMAKind.ANON, True),
    "file-shared": (VMAKind.FILE_SHARED, False),
    "file-private": (VMAKind.FILE_PRIVATE, False),
}

# Sizes and holes favour whole 2 MB blocks, so THP-eligible runs occur.
_VMAS = st.lists(st.tuples(
    st.one_of(st.just(0), st.sampled_from([512, 1024]),
              st.integers(1, 700)),               # hole before the VMA
    st.one_of(st.sampled_from([512, 1024, 1536]),
              st.integers(1, 1100)),              # pages
    st.sampled_from(sorted(_VMA_KINDS)),
    st.booleans(),                                # writable
    st.booleans(),                                # file pages cached
), min_size=1, max_size=5)

_OFFSET = st.integers(0, 1 << 16)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("range"), st.integers(0, 7), _OFFSET,
              st.integers(0, 1300), st.booleans()),
    st.tuples(st.just("touch"), st.integers(0, 7), _OFFSET, st.just(1),
              st.booleans()),
    st.tuples(st.just("fork"), st.integers(0, 7), st.just(0), st.just(0),
              st.just(False)),
), min_size=1, max_size=10)


def _differential_leg(policy_name, max_writers, vmas, drop_offsets):
    """A kernel with one process mapping ``vmas`` in the MMAP window;
    returns ``(kernel, procs, vma_starts)``. ``procs`` grows by fork."""
    registry = CCIDRegistry()
    group = registry.group_for("tenant", "app")
    layout = canonical_layout()
    base = layout.base(SegmentKind.MMAP)
    span = sum(gap + npages for gap, npages, _k, _w, _c in vmas)
    if policy_name == "shared":
        policy = SharedPTManager(MaskPageDirectory(max_writers=max_writers))
    elif policy_name == "dropping":
        policy = _DroppingPolicy({base + off % span for off in drop_offsets})
    else:
        policy = PrivatePTPolicy()
    kernel = Kernel(KernelConfig(thp_enabled=True), policy=policy)
    if policy_name == "shared":
        policy.mask_dir.allocator = kernel.allocator
    proc = kernel.spawn(group.ccid, layout, name="zygote")
    starts = []
    offset = 0
    for i, (gap, npages, kind, writable, cached) in enumerate(vmas):
        offset += gap
        vma_kind, huge_ok = _VMA_KINDS[kind]
        file = None
        if vma_kind.file_backed:
            file = kernel.create_file("file-%d" % i, npages)
            if cached:
                kernel.page_cache.populate(file)
        kernel.mmap(proc, SegmentKind.MMAP, offset, npages, vma_kind,
                    file=file, writable=writable, huge_ok=huge_ok)
        starts.append(base + offset)
        offset += npages
    return kernel, [proc], starts


def _apply(leg, op, ranged):
    """Run one op on a leg; returns the exception type it raised."""
    kernel, procs, starts = leg
    kind, which, offset, count, is_write = op
    proc = procs[which % len(procs)]
    # Start at most 32 pages before some VMA, or anywhere inside it and
    # up to 32 pages past it: runs begin in holes and cross VMA edges.
    start = starts[offset % len(starts)]
    vpn = start - 32 + (offset >> 4) % (proc.mm.find(start).npages + 64)
    try:
        if kind == "fork":
            child = kernel.fork(proc)[0]
            procs.append(child)
        elif kind == "range" and ranged:
            kernel.touch_range(proc, vpn, count, is_write)
        else:
            for page in range(vpn, vpn + count):
                kernel.touch(proc, page, is_write)
    except (SegmentationFault, ProtectionFault, TouchDidNotConverge) as exc:
        return type(exc)
    return None


def _audit(kernel):
    """Audit findings with pids replaced by process positions (and pid
    sets sorted), so two identically driven kernels give equal lists."""
    position = {str(pid): "P%d" % i
                for i, pid in enumerate(kernel.processes)}
    pid = re.compile(r"\b(%s)\b" % "|".join(position))
    pid_set = re.compile(r"\{([^{}]*)\}")
    findings = []
    for finding in audit_kernel(kernel, raise_on_failure=False):
        finding = pid.sub(lambda m: position[m.group(1)], finding)
        findings.append(pid_set.sub(
            lambda m: "{%s}" % ", ".join(sorted(m.group(1).split(", "))),
            finding))
    return findings


class TestTouchRangeDifferential:
    """``touch_range`` against a loop of ``touch`` calls on an identical
    kernel: the same state after every op, the same exception."""

    @given(policy_name=st.sampled_from(["private", "shared", "dropping"]),
           max_writers=st.sampled_from([2, 32]), vmas=_VMAS, ops=_OPS,
           drop_offsets=st.lists(_OFFSET, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_range_matches_per_page(self, policy_name, max_writers, vmas,
                                    ops, drop_offsets):
        per_page = _differential_leg(policy_name, max_writers, vmas,
                                     drop_offsets)
        ranged = _differential_leg(policy_name, max_writers, vmas,
                                   drop_offsets)
        for op in ops:
            assert _apply(ranged, op, True) == _apply(per_page, op, False)
            assert kernel_state(ranged[0]) == kernel_state(per_page[0])
        findings = _audit(ranged[0])
        assert findings == _audit(per_page[0])
        # Dropped installs leak their frame by design.
        if policy_name != "dropping":
            assert findings == []


def _per_page(leg, vpn, count, is_write):
    """A loop of ``touch`` calls over ``[vpn, vpn + count)``; returns the
    exception it raised, or None."""
    kernel, procs, _starts = leg
    try:
        for page in range(vpn, vpn + count):
            kernel.touch(procs[0], page, is_write)
    except ProtectionFault as exc:
        return exc
    return None


class TestTouchRangeRunEdges:
    """Deterministic cases of the run install next to the differential."""

    def test_write_run_over_read_only_shared_file(self):
        # The run's first install cannot serve a write: the protection
        # fault comes at that page and no later page is populated.
        vmas = [(0, 64, "file-shared", False, True)]
        ranged = _differential_leg("private", 2, vmas, [0])
        per_page = _differential_leg("private", 2, vmas, [0])
        kernel, (proc,), (start,) = ranged
        with pytest.raises(ProtectionFault) as info:
            kernel.touch_range(proc, start, 64, is_write=True)
        assert (info.value.pid, info.value.vpn) == (proc.pid, start)
        assert proc.tables.lookup_pte(start).present
        assert all(proc.tables.lookup_pte(vpn) is None
                   for vpn in range(start + 1, start + 64))
        assert proc.minor_faults == 1
        assert _per_page(per_page, start, 64, True).vpn == start
        assert kernel_state(kernel) == kernel_state(per_page[0])

    def test_shared_table_redirect_at_backing_change(self):
        # Two files share one 512-page leaf table. The table is registered
        # with the first file's backing, so installs for the second VMA
        # are redirected into a private copy partway through the range.
        vmas = [(0, 256, "file-shared", True, True),
                (0, 256, "file-shared", True, True)]
        ranged = _differential_leg("shared", 32, vmas, [0])
        per_page = _differential_leg("shared", 32, vmas, [0])
        start = ranged[2][1] - 8
        for leg in (ranged, per_page):
            leg[0].touch(leg[1][0], leg[2][0])  # registers the table
        kernel, (proc,), _starts = ranged
        kernel.touch_range(proc, start, 40)
        assert _per_page(per_page, start, 40, False) is None
        assert kernel.pte_pages_copied == 1
        _level, table, _index, entry = proc.tables.leaf_slot(start + 39)
        assert table.owned_by == proc.pid and entry.present
        assert kernel_state(kernel) == kernel_state(per_page[0])
        assert _audit(kernel) == []
