"""Section VII-D: BabelFish resource analysis.

- Hardware: extra area of the CCID + O-PC TLB fields as a fraction of
  core area (0.4% with the PC bitmask, 0.07% without), from the CACTI
  model.
- Memory space: one MaskPage per 512 pages of pte_ts (0.19%) plus one
  16-bit sharer counter per 512 pte_ts (0.048%) — computed analytically
  from the design and verified against the live kernel state of a
  BabelFish run.
"""

from repro.hw.cacti import core_area_overhead_pct
from repro.hw.types import ENTRIES_PER_TABLE, PAGE_SIZE
from repro.experiments.common import config_by_name


def analytic_space_overhead():
    """The design's space overheads, as the paper computes them."""
    maskpage = 1.0 / ENTRIES_PER_TABLE            # 1 page per 512 pte pages
    counter = 2.0 / PAGE_SIZE                     # 16 bits per pte page
    return {
        "maskpage_space_overhead_pct": round(100 * maskpage, 3),
        "counter_space_overhead_pct": round(100 * counter, 3),
        "total_space_overhead_pct": round(100 * (maskpage + counter), 3),
    }


def measured_space_overhead(cores=2, scale=0.4):
    """Live measurement from a BabelFish run: MaskPages and counters
    actually allocated vs page-table pages in use. Uses the FaaS run,
    whose bring-up CoW writes exercise the MaskPage machinery.

    Reads only the run's kernel accounting dict (frame counts, policy
    registry size), which the run cache's summaries preserve, so a
    disk-cached run answers it without re-simulating."""
    from repro.experiments.common import run_functions
    run = run_functions(config_by_name("BabelFish"), dense=True,
                        cores=cores, scale=scale)
    frames = run.kernel_snapshot["frame_counts"]
    pt_pages = frames["PAGE_TABLE"]
    mask_pages = frames["MASK_PAGE"]
    # One 16-bit counter per shared table (Section IV-B).
    counter_bytes = 2 * run.kernel_snapshot["policy_registry_len"]
    return {
        "page_table_pages": pt_pages,
        "mask_pages": mask_pages,
        "maskpage_space_overhead_pct": round(
            100.0 * mask_pages / max(1, pt_pages), 3),
        "counter_space_overhead_pct": round(
            100.0 * counter_bytes / (max(1, pt_pages) * PAGE_SIZE), 3),
    }


def run_resources(include_measured=True, cores=2, scale=0.4):
    out = {
        "core_area_overhead_pct": round(core_area_overhead_pct(True), 3),
        "core_area_overhead_no_pc_pct": round(core_area_overhead_pct(False), 3),
    }
    out.update(analytic_space_overhead())
    if include_measured:
        out["measured"] = measured_space_overhead(cores=cores, scale=scale)
    return out
