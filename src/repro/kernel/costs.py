"""Kernel operation costs, in core cycles.

These feed the timing model: the paper's gains come partly from
*eliminated kernel work* (redundant minor faults, page-table copies at
fork) and partly from TLB/cache effects. The constants below are typical
magnitudes for a 2GHz server (a Linux minor fault is ~1-2us of kernel
time; a TLB shootdown IPI round is ~1-4us). They are set per kernel
(``KernelConfig.costs``); the simulator reads the context-switch cost
from the same ``Kernel.costs``, so one kernel states every cost once.
"""

import dataclasses


@dataclasses.dataclass(frozen=True)
class KernelCosts:
    #: Minor fault: trap, VMA lookup, pte update, return.
    minor_fault: int = 2400
    #: Major fault: page not in page cache; models an NVMe-class read.
    major_fault: int = 160_000
    #: Extra cost of a CoW break on top of a minor fault (copy 4KB + rmap).
    cow_extra: int = 2000
    #: BabelFish: copying a page of 512 pte_t translations on a CoW break
    #: in a shared PTE table (Section III-A) plus MaskPage bookkeeping.
    pte_page_copy: int = 1100
    #: One TLB shootdown round (IPI + remote invalidation + ack).
    tlb_shootdown: int = 3000
    #: Allocating and zeroing one page-table page.
    table_alloc: int = 300
    #: Fixed fork cost (task_struct, descriptors, ...).
    fork_base: int = 12_000
    #: Per page-table page copied at fork (baseline replicates tables;
    #: BabelFish only copies the upper levels).
    fork_per_table_page: int = 450
    #: Context switch: state save/restore + CR3 write (no TLB flush, PCID).
    context_switch: int = 1400
    #: exec(): binary load bookkeeping before first fault.
    exec_base: int = 20_000
