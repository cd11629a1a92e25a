"""BabelFish's contribution: fused address translations for containers.

Two cooperating mechanisms (Section III):

- **TLB entry sharing** (:mod:`repro.core.babelfish_tlb`): CCID-tagged
  entries with the Ownership-PrivateCopy field, implementing the Figure 8
  lookup flowchart.
- **Page table entry sharing** (:mod:`repro.core.shared_pt`): processes in
  a CCID group share PTE (and PMD) tables; CoW breaks copy a page of 512
  pte_t and track private-copy holders in MaskPages
  (:mod:`repro.core.mask_page`).

ASLR support (Section IV-D) is in :mod:`repro.core.aslr`.
"""

from repro.core.ccid import CCIDGroup, CCIDRegistry
from repro.core.opc import MAX_PRIVATE_COPIES, OPCField
from repro.core.mask_page import MaskPage, MaskPageDirectory, MaskPageFull
from repro.core.shared_pt import SharedPTManager
from repro.core.babelfish_tlb import babelfish_fill_fields, babelfish_lookup
from repro.core.aslr import ASLRMode, group_layout_for, process_layout_for

__all__ = [
    "CCIDGroup",
    "CCIDRegistry",
    "OPCField",
    "MAX_PRIVATE_COPIES",
    "MaskPage",
    "MaskPageDirectory",
    "MaskPageFull",
    "SharedPTManager",
    "babelfish_lookup",
    "babelfish_fill_fields",
    "ASLRMode",
    "group_layout_for",
    "process_layout_for",
]
