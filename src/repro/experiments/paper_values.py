"""Reference numbers reported in the paper (for paper-vs-measured rows).

Values marked approximate (~) are read off figures; exact ones come from
the text or tables. All reductions are "percent lower than Baseline".
"""

#: Section VII / abstract headline numbers not already in a figure's
#: table below (Figure 11 and Figure 9 hold the others).
HEADLINE = {
    "function_bringup_reduction_pct": 8.0,
}

#: Figure 9 (Section VII-A): pte_t shareability. Shareable fraction of
#: total pte_ts (approximate, read off the figure), plus text numbers.
FIG9 = {
    "avg_shareable_fraction": 0.53,          # "53% of the total baseline pte_ts"
    "functions_shareable_fraction": 0.93,
    "active_reduction_serving_compute": 0.30,  # "average reduction in total active pte_ts ... 30%"
    "active_reduction_functions": 0.57,        # "reduces the total active pte_ts by 57%"
    "thp_fraction_of_total": 0.08,             # "THP pte_ts are on average 8% of total"
    "functions_unshareable_fraction": 0.06,    # "account for only ~6% of pte_ts"
}

#: Figure 10a (Section VII-B): L2 TLB MPKI reduction (text gives serving).
FIG10A = {
    "serving_data_mpki_reduction_pct": 66.0,
    "serving_instr_mpki_reduction_pct": 96.0,
}

#: Figure 10b: shared hits as a fraction of all L2 TLB hits (text).
FIG10B = {
    "graphchi_instr_shared_hits": 0.48,
    "graphchi_data_shared_hits": 0.12,
}

#: Figure 11 (Section VII-C): latency / execution-time reductions.
FIG11 = {
    "serving_mean_pct": 11.0,
    "serving_tail_pct": 18.0,
    "compute_exec_pct": 11.0,
    "functions_dense_pct": 10.0,
    "functions_sparse_pct": 55.0,
}

#: Table II: fraction of each gain that comes from L2 TLB effects.
TABLE2 = {
    "mongodb": 0.77,
    "arangodb": 0.25,
    "httpd": 0.81,
    "serving_average": 0.61,
    "graphchi": 0.11,
    "fio": 0.29,
    "compute_average": 0.20,
    "dense_average": 0.20,
    "sparse_average": 0.01,
}

# Table III's rows are the CACTI calibration points:
# repro.hw.cacti.PAPER_TABLE3.

#: Section VII-C: larger conventional L2 TLB instead of BabelFish.
LARGER_TLB = {
    "serving_mean_pct": 2.1,
    "compute_exec_pct": 0.6,
    "functions_dense_pct": 1.1,
    "functions_sparse_pct": 0.3,
}

#: Section VII-D: resource analysis.
RESOURCES = {
    "core_area_overhead_pct": 0.4,
    "core_area_overhead_no_pc_pct": 0.07,
    "maskpage_space_overhead_pct": 0.19,
    "counter_space_overhead_pct": 0.048,
    "total_space_overhead_pct": 0.238,
    "kernel_loc": {"mmu": 300, "fault_handler": 200, "pt_management": 800},
}
