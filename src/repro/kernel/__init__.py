"""OS kernel substrate: frames, page tables, page cache, VMAs, processes,
page-fault handling, THP, and scheduling.

This package models the slice of Linux that the paper modifies: lazy page
table management, fork-based CoW, file-backed sharing through the page
cache, and transparent huge pages. It is policy-agnostic about BabelFish —
the page-table sharing policy is injected (see
:class:`repro.kernel.kernel.Kernel`), with the conventional private-table
policy as the default and :class:`repro.core.shared_pt.SharedPTManager`
as the BabelFish one.
"""

from repro.kernel.errors import (
    OutOfMemoryError,
    ProtectionFault,
    SegmentationFault,
    SimulationError,
    TouchDidNotConverge,
    TranslationDidNotConverge,
)
from repro.kernel.costs import KernelCosts
from repro.kernel.frames import FrameAllocator, FrameKind
from repro.kernel.page_table import (
    AddressSpaceTables,
    PageTable,
    PTE,
    TableRef,
    table_index,
)
from repro.kernel.page_cache import FileObject, PageCache
from repro.kernel.vma import MM, SegmentKind, VMA, VMAKind
from repro.kernel.aslr_layout import Layout, canonical_layout, randomized_layout
from repro.kernel.lru import ActiveInactiveLRU
from repro.kernel.process import Process
from repro.kernel.fault import FaultOutcome, FaultType
from repro.kernel.scheduler import Scheduler
from repro.kernel.kernel import Kernel, KernelConfig, PrivatePTPolicy

__all__ = [
    "SimulationError",
    "SegmentationFault",
    "ProtectionFault",
    "OutOfMemoryError",
    "TouchDidNotConverge",
    "TranslationDidNotConverge",
    "KernelCosts",
    "FrameAllocator",
    "FrameKind",
    "AddressSpaceTables",
    "PageTable",
    "PTE",
    "TableRef",
    "table_index",
    "FileObject",
    "PageCache",
    "MM",
    "VMA",
    "VMAKind",
    "SegmentKind",
    "Layout",
    "canonical_layout",
    "randomized_layout",
    "ActiveInactiveLRU",
    "Process",
    "FaultOutcome",
    "FaultType",
    "Scheduler",
    "Kernel",
    "KernelConfig",
    "PrivatePTPolicy",
]
