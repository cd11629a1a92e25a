"""Table III: L2 TLB area / access time / energy / leakage at 22nm.

Produced by the CACTI-style analytical model of :mod:`repro.hw.cacti`
(calibrated against the paper's own Table III — see that module's
docstring for why this is the faithful reproduction).
"""

from repro.hw.cacti import (PAPER_TABLE3, SRAMModel, babelfish_l2_geometry,
                            baseline_l2_geometry)


def run_table3(pc_bitmask_bits=32):
    model = SRAMModel()
    rows = []
    for name, geometry in (("Baseline", baseline_l2_geometry()),
                           ("BabelFish", babelfish_l2_geometry(pc_bitmask_bits))):
        measured = model.report(geometry).as_row()
        paper = PAPER_TABLE3[name].as_row()
        row = {"config": name, "bits_per_entry": geometry.bits_per_entry}
        for key, value in measured.items():
            row["%s" % key] = value
            row["paper_%s" % key] = paper[key]
        rows.append(row)
    return rows


def bitmask_width_sweep(widths=(0, 8, 16, 32, 64)):
    """Extension: how Table III scales with the PC bitmask width."""
    model = SRAMModel()
    rows = []
    for width in widths:
        report = model.report(babelfish_l2_geometry(pc_bitmask_bits=width))
        row = report.as_row()
        row["pc_bits"] = width
        rows.append(row)
    return rows
