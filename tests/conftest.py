"""Shared fixtures: miniature kernels, CCID groups, and deployments.

Also wires the opt-in ``sanitize`` marker: tests that run whole
experiments with the translation-coherence sanitizer enabled are skipped
unless ``--sanitize`` (or ``REPRO_SANITIZE=1``) is given, so tier-1 time
stays flat.
"""

import contextlib
import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="run the full-experiment translation-coherence sanitizer "
             "tests (slow; also enabled by REPRO_SANITIZE=1)")


def sanitize_enabled(config):
    return (config.getoption("--sanitize")
            or os.environ.get("REPRO_SANITIZE") == "1")


def pytest_collection_modifyitems(config, items):
    if sanitize_enabled(config):
        return
    skip = pytest.mark.skip(
        reason="sanitizer suite is opt-in: pass --sanitize or set "
               "REPRO_SANITIZE=1")
    for item in items:
        if "sanitize" in item.keywords:
            item.add_marker(skip)

from repro.core.aslr import ASLRMode, group_layout_for, process_layout_for
from repro.core.ccid import CCIDRegistry
from repro.core.mask_page import MaskPageDirectory
from repro.core.shared_pt import SharedPTManager
from repro.hw.params import baseline_machine
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.vma import SegmentKind, VMAKind


class MiniSystem:
    """A small kernel + one CCID group + a zygote with typical mappings."""

    def __init__(self, babelfish, thp=True, max_writers=32, aslr_mode=None):
        self.aslr_mode = aslr_mode or (
            ASLRMode.HW if babelfish else ASLRMode.INHERITED)
        self.registry = CCIDRegistry()
        self.group = self.registry.group_for("tenant", "miniapp")
        policy = None
        if babelfish:
            policy = SharedPTManager(
                MaskPageDirectory(max_writers=max_writers))
        self.kernel = Kernel(KernelConfig(thp_enabled=thp), policy=policy)
        if babelfish:
            self.kernel.policy.mask_dir.allocator = self.kernel.allocator
        self.policy = self.kernel.policy
        self.layout = group_layout_for(self.group, self.aslr_mode)
        self.lib = self.kernel.create_file("lib", 1024)
        self.data = self.kernel.create_file("data", 1024)
        self.kernel.page_cache.populate(self.lib)
        self.kernel.page_cache.populate(self.data)
        self.zygote = self.kernel.spawn(self.group.ccid, self.layout,
                                        name="zygote")
        self.kernel.mmap(self.zygote, SegmentKind.LIBS, 0, 1024,
                         VMAKind.FILE_PRIVATE, file=self.lib,
                         writable=False, executable=True, name="lib")
        self.kernel.mmap(self.zygote, SegmentKind.MMAP, 0, 1024,
                         VMAKind.FILE_SHARED, file=self.data,
                         writable=True, name="data")
        self.kernel.mmap(self.zygote, SegmentKind.HEAP, 0, 2048,
                         VMAKind.ANON, name="heap")
        self.bindata = self.kernel.create_file("bindata", 8)
        self.kernel.page_cache.populate(self.bindata)
        self.kernel.mmap(self.zygote, SegmentKind.DATA, 0, 8,
                         VMAKind.FILE_PRIVATE, file=self.bindata,
                         writable=True, name="bindata")

    def fork(self, name="child"):
        layout_proc = process_layout_for(self.group, self.aslr_mode,
                                         pid_seed=len(self.group.members) + 1)
        child, _cycles = self.kernel.fork(self.zygote,
                                          layout_proc=layout_proc, name=name)
        self.group.add(child)
        return child

    def vpn(self, proc, segment, off):
        return proc.vpn_group(segment, off)

    def touch(self, proc, segment, off, write=False):
        return self.kernel.touch(proc, self.vpn(proc, segment, off),
                                 is_write=write)


@pytest.fixture
def mini_baseline():
    return MiniSystem(babelfish=False)


@pytest.fixture
def mini_babelfish():
    return MiniSystem(babelfish=True)


@pytest.fixture(params=[False, True], ids=["baseline", "babelfish"])
def mini_any(request):
    return MiniSystem(babelfish=request.param)


@pytest.fixture
def memo_off(monkeypatch):
    """Context manager: MMUs built inside it get no L0 translation memo;
    the production trace loop and structures stay. A run under it is a
    third execution leg beside the reference (``linear_structures``) and
    the memo-on run, so a memo bug and a structure or loop bug cannot
    cancel out."""
    from repro.sim import mmu

    @contextlib.contextmanager
    def disabled():
        with monkeypatch.context() as patch:
            patch.setattr(mmu, "TranslationMemo", lambda *args: None)
            yield

    return disabled


@pytest.fixture
def linear_structures(monkeypatch):
    """Context manager: simulators and MMUs built inside it run on the
    linear-scan TLBs, caches, hierarchy and closure lookups of
    ``structure_oracle`` (walker references and demand accesses go
    through ``access``; a hierarchy is the oracle's only when built
    through ``repro.sim.simulator.CacheHierarchy``, as a ``Simulator``
    builds it) and on its reference trace loop, with the L0
    memo off (those structures keep no epochs for it). A run under it is
    the reference leg of a differential test against the production
    structures and loop; ``on=False`` swaps nothing, for tests
    parametrized over both legs."""
    import structure_oracle as oracle
    from repro.sim import mmu, simulator
    from repro.sim.fastpath import FASTPATH_ENV

    @contextlib.contextmanager
    def swapped(on=True):
        if not on:
            yield
            return
        with monkeypatch.context() as patch:
            patch.setattr(mmu, "MultiSizeTLB", oracle.LinearMultiSizeTLB)
            patch.setattr(mmu, "babelfish_lookup", oracle.babelfish_lookup)
            patch.setattr(mmu, "conventional_lookup",
                          oracle.conventional_lookup)
            patch.setattr(simulator, "CacheHierarchy",
                          oracle.LinearCacheHierarchy)
            patch.setattr(simulator, "run_quantum",
                          oracle.reference_run_quantum)
            patch.setenv(FASTPATH_ENV, "0")
            yield

    return swapped


@pytest.fixture
def machine2():
    return baseline_machine(cores=2)
