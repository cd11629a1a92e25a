"""The paper's evaluation artifacts, each declared once.

Every table and figure of Section VII, and each extension study, is one
:class:`Artifact` in the ordered :data:`ARTIFACTS` registry, keyed by the
name of its ``benchmarks/out/<name>.txt`` file. An entry says how to run
its harness at a given ``(cores, scale, jobs)`` (the harness's own
``run_*``, with the entry's clamps), how to reduce the rows to the
numbers the paper quotes (the harness's ``summarize``), what the paper
reports for them (``paper``, keyed like the summary), how to render its
text table, and which shape checks a measurement must pass.

``pytest benchmarks/`` runs and renders every entry;
``python -m repro.report`` prints the entries that carry a
:class:`ReportSection`. Values marked approximate (~) are read off the
paper's figures; exact ones come from its text or tables. All reductions
are "percent lower than Baseline".
"""

import dataclasses

from repro.experiments import ablations, fig9, fig10, fig11, table2
from repro.experiments.ascii_chart import (grouped_hbar_chart, hbar_chart,
                                           stacked_fraction_chart)
from repro.experiments.bringup import run_bringup
from repro.experiments.common import format_table, paper_vs_measured
from repro.experiments.density import run_density_sweep
from repro.experiments.larger_tlb import run_comparison
from repro.experiments.mixed import run_mixed_colocation
from repro.experiments.resources import run_resources
from repro.experiments.table3 import bitmask_width_sweep, run_table3


@dataclasses.dataclass(frozen=True)
class ReportSection:
    """What ``python -m repro.report`` prints for one artifact.

    ``rows`` are ``(label, summary key, factor)``: one paper-vs-measured
    line each, both values multiplied by ``factor``. ``lines`` renders
    extra lines from the rows. ``run`` replaces the artifact's run when
    the report reads less than the benchmark does.
    """

    title: str
    rows: tuple = ()
    lines: object = None
    run: object = None


@dataclasses.dataclass(frozen=True)
class Artifact:
    """One table or figure: ``run(cores, scale, jobs)`` returns its rows,
    ``render(artifact, rows)`` its ``benchmarks/out`` text, and each
    ``checks`` predicate ``(rows, summary)`` one shape claim."""

    name: str
    run: object
    render: object
    summarize: object = None
    paper: dict = dataclasses.field(default_factory=dict)
    checks: dict = dataclasses.field(default_factory=dict)
    report: ReportSection = None

    def summary(self, rows):
        """The summarized rows; a harness that returns one dict is its
        own summary."""
        if self.summarize is not None:
            return self.summarize(rows)
        return rows if isinstance(rows, dict) else {}

    def text(self, rows):
        """The ``benchmarks/out/<name>.txt`` text for ``rows``."""
        return self.render(self, rows)

    def failed_checks(self, rows):
        """Names of the checks ``rows`` fail, in declaration order."""
        summary = self.summary(rows)
        return [name for name, check in self.checks.items()
                if not check(rows, summary)]


def _compare(artifact, summary, keys, ndigits=None, labels=None):
    """Paper-vs-measured rows for ``keys`` of ``summary``."""
    labels = labels or {}
    return paper_vs_measured([
        (labels.get(key, key), artifact.paper.get(key),
         summary[key] if ndigits is None or summary[key] is None
         else round(summary[key], ndigits))
        for key in keys])


def _field(rows, key, value, field):
    """``field`` of the row whose ``key`` is ``value``."""
    return next(row[field] for row in rows if row[key] == value)


def _within(measured, paper, rel):
    """``pytest.approx(paper, rel=rel)``: the tolerance scales with the
    paper's value alone, not with the larger of the two."""
    return abs(measured - paper) <= rel * abs(paper)


def _render_fig9(artifact, rows):
    dicts = [row.as_dict() for row in rows]
    summary = artifact.summary(rows)
    return "\n\n".join([
        format_table(
            dicts,
            ["app", "total", "total_shareable", "total_unshareable",
             "total_thp", "active", "active_babelfish", "shareable_frac",
             "active_reduction"],
            title="Figure 9: pte_t shareability (counts in 4KB pte_t "
                  "equivalents)"),
        stacked_fraction_chart(
            dicts, ["total_shareable", "total_unshareable", "total_thp"],
            "total", title="Total pte_ts composition per app",
            legend=["shareable", "unshareable", "THP"]),
        _compare(artifact, summary, summary, ndigits=3)])


def _render_fig10a(artifact, rows):
    return "\n\n".join([
        format_table(
            rows,
            ["app", "mpki_d_base", "mpki_d_babelfish",
             "mpki_d_reduction_pct", "mpki_i_base", "mpki_i_babelfish",
             "mpki_i_reduction_pct"],
            title="Figure 10a: L2 TLB MPKI, Baseline vs BabelFish"),
        grouped_hbar_chart(
            rows, ["mpki_d_base", "mpki_d_babelfish"],
            title="Data L2 TLB MPKI (baseline vs BabelFish)",
            legend=["baseline", "babelfish"], value_format="%.2f"),
        _compare(artifact, artifact.summary(rows), artifact.paper,
                 ndigits=1, labels={
                     "serving_data_mpki_reduction_pct":
                         "serving data MPKI reduction %",
                     "serving_instr_mpki_reduction_pct":
                         "serving instr MPKI reduction %"})])


def _render_fig10b(artifact, rows):
    return "\n\n".join([
        format_table(
            rows, ["app", "shared_hits_d", "shared_hits_i"],
            title="Figure 10b: hits on L2 TLB entries inserted by other "
                  "processes (fraction of all hits)"),
        _compare(artifact, artifact.summary(rows), artifact.paper, labels={
            "graphchi_instr_shared_hits": "graphchi instr shared hits",
            "graphchi_data_shared_hits": "graphchi data shared hits"})])


def _render_fig11(artifact, results):
    chart_rows = (
        [{"app": r["app"], "pct": r["mean_reduction_pct"]}
         for r in results["serving"]]
        + [{"app": r["app"], "pct": r["exec_reduction_pct"]}
           for r in results["compute"] + results["functions"]])
    return "\n\n".join([
        format_table(results["serving"],
                     ["app", "mean_reduction_pct", "tail_reduction_pct"],
                     title="Figure 11 (serving): request latency "
                           "reduction %"),
        format_table(results["compute"], ["app", "exec_reduction_pct"],
                     title="Figure 11 (compute): execution time "
                           "reduction %"),
        format_table(results["functions"], ["app", "exec_reduction_pct"],
                     title="Figure 11 (functions): execution time "
                           "reduction %"),
        hbar_chart(chart_rows, "pct",
                   title="Latency / execution-time reduction (%)"),
        _compare(artifact, artifact.summary(results), artifact.paper,
                 ndigits=1)])


def _render_table2(artifact, rows):
    summary = artifact.summary(rows)
    return "\n\n".join([
        format_table(rows, ["app", "tlb_fraction"],
                     title="Table II: fraction of gains from L2 TLB "
                           "entry sharing"),
        _compare(artifact, summary, summary, ndigits=2)])


def _render_larger_tlb(artifact, rows):
    return (format_table(
                rows,
                ["metric", "bigtlb_reduction_pct", "babelfish_reduction_pct"],
                title="BabelFish vs larger conventional L2 TLB (reduction "
                      "vs Baseline, %)")
            + "\n\nPaper's BigTLB reductions vs ours:\n"
            + paper_vs_measured([
                (row["metric"], artifact.paper.get(row["metric"]),
                 row["bigtlb_reduction_pct"]) for row in rows]))


def _render_bringup(artifact, result):
    return paper_vs_measured([
        ("bring-up reduction %", artifact.paper["reduction_pct"],
         result["reduction_pct"]),
        ("baseline bring-up cycles", None, int(result["baseline_cycles"])),
        ("babelfish bring-up cycles", None, int(result["babelfish_cycles"])),
        ("baseline minor faults", None, result["baseline_minor_faults"]),
        ("babelfish minor faults", None, result["babelfish_minor_faults"]),
    ])


def _render_table3(artifact, rows):
    return "\n\n".join([
        format_table(
            rows,
            ["config", "bits_per_entry", "area_mm2", "paper_area_mm2",
             "access_time_ps", "paper_access_time_ps", "dyn_energy_pj",
             "paper_dyn_energy_pj", "leakage_mw", "paper_leakage_mw"],
            title="Table III: L2 TLB parameters at 22nm (CACTI-style "
                  "model)"),
        format_table(
            bitmask_width_sweep(),
            ["pc_bits", "area_mm2", "access_time_ps", "dyn_energy_pj",
             "leakage_mw"],
            title="Extension: Table III vs PC-bitmask width")])


def _table3_report_lines(rows):
    return ["  %-10s area %.3f mm2 (paper %.3f)   access %3.0f ps "
            "(paper %3.0f)" % (row["config"], row["area_mm2"],
                               row["paper_area_mm2"], row["access_time_ps"],
                               row["paper_access_time_ps"])
            for row in rows]


def _render_resources(artifact, result):
    measured = result["measured"]
    return paper_vs_measured(
        [(label, artifact.paper[key], result[key]) for label, key in (
            ("core area overhead %", "core_area_overhead_pct"),
            ("core area overhead (no PC bitmask) %",
             "core_area_overhead_no_pc_pct"),
            ("MaskPage space overhead %", "maskpage_space_overhead_pct"),
            ("counter space overhead %", "counter_space_overhead_pct"),
            ("total space overhead %", "total_space_overhead_pct"))]
        + [("measured page-table pages", None,
            measured["page_table_pages"]),
           ("measured MaskPage overhead %", None,
            measured["maskpage_space_overhead_pct"])])


def _table_renderer(columns, title):
    """Render an extension study's rows as one table."""
    def render(_artifact, rows):
        return format_table(rows, columns, title=title)
    return render


def _render_density(_artifact, rows):
    return (format_table(
                rows,
                ["containers_per_core", "mean_reduction_pct",
                 "mpki_d_reduction_pct", "shared_hits",
                 "baseline_table_pages", "babelfish_table_pages"],
                title="Extension: BabelFish's advantage vs containers per "
                      "core")
            + "\n\n"
            + hbar_chart(rows, "mean_reduction_pct",
                         label_key="containers_per_core",
                         title="Mean latency reduction (%) by density"))


def _serving_mean(results, app):
    return _field(results["serving"], "app", app, "mean_reduction_pct")


def _plain_reverts(rows, _summary):
    """A narrow mask reverts, the 32-bit one never does (no indirection)."""
    plain = [row for row in rows if not row["indirection"]]
    return (_field(plain, "pc_bits", 4, "reverts")
            > _field(plain, "pc_bits", 32, "reverts") == 0)


def _ascending(rows, key):
    values = [row[key] for row in rows]
    return values == sorted(values)


_ENTRIES = (
    Artifact(
        "fig09_pte_sharing",
        run=lambda cores, scale, jobs: fig9.run_fig9(scale=scale, jobs=jobs),
        summarize=fig9.summarize, render=_render_fig9,
        # "53% of the total baseline pte_ts"; THP "on average 8% of
        # total"; unshareable "only ~6%" of the functions' pte_ts.
        paper={"avg_shareable_fraction": 0.53,
               "functions_shareable_fraction": 0.93,
               "active_reduction_serving_compute": 0.30,
               "active_reduction_functions": 0.57,
               "thp_fraction_of_total": 0.08,
               "functions_unshareable_fraction": 0.06},
        checks={
            "functions shareable > 0.8":
                lambda rows, s: s["functions_shareable_fraction"] > 0.8,
            "average shareable > 0.4":
                lambda rows, s: s["avg_shareable_fraction"] > 0.4},
        report=ReportSection("Figure 9 — translation shareability", rows=(
            ("shareable fraction, containerized",
             "avg_shareable_fraction", 100),
            ("shareable fraction, serverless",
             "functions_shareable_fraction", 100)))),
    Artifact(
        "fig10a_mpki",
        run=lambda cores, scale, jobs: fig10.run_fig10(cores, scale, jobs=jobs),
        summarize=fig10.summarize, render=_render_fig10a,
        paper={"serving_data_mpki_reduction_pct": 66.0,
               "serving_instr_mpki_reduction_pct": 96.0},
        # BabelFish reduces MPKI across the board; the instruction side
        # reduces more than the data side for serving.
        checks={
            "every data MPKI reduction > -5": lambda rows, s: all(
                row["mpki_d_reduction_pct"] > -5 for row in rows),
            "serving instr reduction > serving data reduction":
                lambda rows, s: (s["serving_instr_mpki_reduction_pct"]
                                 > s["serving_data_mpki_reduction_pct"])}),
    Artifact(
        "fig10b_shared_hits",
        run=lambda cores, scale, jobs: fig10.run_fig10(cores, scale, jobs=jobs),
        summarize=fig10.summarize, render=_render_fig10b,
        paper={"graphchi_instr_shared_hits": 0.48,
               "graphchi_data_shared_hits": 0.12},
        # GraphChi's regular code vs random data accesses.
        checks={
            "every instr shared-hit fraction in (0, 1]": lambda rows, s: all(
                0.0 < row["shared_hits_i"] <= 1.0 for row in rows),
            "graphchi instr shared hits > data shared hits":
                lambda rows, s: (s["graphchi_instr_shared_hits"]
                                 > s["graphchi_data_shared_hits"])}),
    Artifact(
        "fig11_latency",
        run=lambda cores, scale, jobs: fig11.run_fig11(cores, scale, jobs=jobs),
        summarize=fig11.summarize, render=_render_fig11,
        paper={"serving_mean_pct": 11.0, "serving_tail_pct": 18.0,
               "compute_exec_pct": 11.0, "functions_dense_pct": 10.0,
               "functions_sparse_pct": 55.0},
        # Everything improves; sparse functions improve far more than
        # dense; database apps more than HTTPd.
        checks={
            "serving mean > 0": lambda rows, s: s["serving_mean_pct"] > 0,
            "compute exec > 0": lambda rows, s: s["compute_exec_pct"] > 0,
            "sparse > 2 x dense": lambda rows, s: (
                s["functions_sparse_pct"] > 2 * s["functions_dense_pct"]),
            "mongodb > httpd": lambda rows, s: (
                _serving_mean(rows, "mongodb") > _serving_mean(rows, "httpd")),
            "arangodb > httpd": lambda rows, s: (
                _serving_mean(rows, "arangodb") > _serving_mean(rows, "httpd"))},
        report=ReportSection("Figure 11 — performance", rows=(
            ("serving mean latency reduction", "serving_mean_pct", 1),
            ("serving tail latency reduction", "serving_tail_pct", 1),
            ("compute execution reduction", "compute_exec_pct", 1),
            ("functions execution reduction (dense)",
             "functions_dense_pct", 1),
            ("functions execution reduction (sparse)",
             "functions_sparse_pct", 1)))),
    Artifact(
        "table2_tlb_fraction",
        run=lambda cores, scale, jobs: table2.run_table2(cores, scale,
                                                         jobs=jobs),
        summarize=table2.summarize, render=_render_table2,
        paper={"mongodb": 0.77, "arangodb": 0.25, "httpd": 0.81,
               "serving_average": 0.61, "graphchi": 0.11, "fio": 0.29,
               "compute_average": 0.20, "dense_average": 0.20,
               "sparse_average": 0.01},
        # Database/web serving attribute more to TLB sharing than the
        # compute and sparse-function workloads do.
        checks={
            "mongodb > graphchi": lambda rows, s: s["mongodb"] > s["graphchi"],
            "httpd > fio": lambda rows, s: s["httpd"] > s["fio"],
            "sparse average < 0.25": lambda rows, s: s["sparse_average"] < 0.25}),
    Artifact(
        "larger_tlb",
        run=lambda cores, scale, jobs: run_comparison(cores, scale, jobs=jobs),
        render=_render_larger_tlb,
        # The paper's BigTLB reductions, keyed by the rows' ``metric``.
        paper={"serving_mean_pct": 2.1, "compute_exec_pct": 0.6,
               "functions_dense_pct": 1.1, "functions_sparse_pct": 0.3},
        checks={"bigtlb < babelfish on every metric": lambda rows, s: all(
            row["bigtlb_reduction_pct"] < row["babelfish_reduction_pct"]
            for row in rows)}),
    Artifact(
        "bringup",
        run=lambda cores, scale, jobs: run_bringup(cores, scale, jobs=jobs),
        render=_render_bringup,
        paper={"reduction_pct": 8.0},
        checks={
            "0 < reduction < 40": lambda rows, s: 0 < s["reduction_pct"] < 40,
            "babelfish minor faults < baseline minor faults":
                lambda rows, s: (s["babelfish_minor_faults"]
                                 < s["baseline_minor_faults"])},
        report=ReportSection("Bring-up", rows=(
            ("function bring-up reduction", "reduction_pct", 1),))),
    Artifact(
        "table3_cacti",
        run=lambda cores, scale, jobs: run_table3(),
        render=_render_table3,
        # The paper's rows are the model's calibration points
        # (repro.hw.cacti.PAPER_TABLE3); each row carries them.
        checks={
            "area within 5% of the paper": lambda rows, s: all(
                _within(row["area_mm2"], row["paper_area_mm2"], 0.05)
                for row in rows),
            "access time within 5% of the paper": lambda rows, s: all(
                _within(row["access_time_ps"], row["paper_access_time_ps"],
                        0.05) for row in rows)},
        report=ReportSection("Table III — L2 TLB at 22nm (CACTI model)",
                             lines=_table3_report_lines)),
    Artifact(
        "resources",
        run=lambda cores, scale, jobs: run_resources(),
        render=_render_resources,
        paper={"core_area_overhead_pct": 0.4,
               "core_area_overhead_no_pc_pct": 0.07,
               "maskpage_space_overhead_pct": 0.19,
               "counter_space_overhead_pct": 0.048,
               "total_space_overhead_pct": 0.238},
        checks={
            "core area overhead within 0.05 of 0.4": lambda rows, s: (
                abs(s["core_area_overhead_pct"] - 0.4) <= 0.05),
            "total space overhead within 0.02 of 0.244": lambda rows, s: (
                abs(s["total_space_overhead_pct"] - 0.244) <= 0.02)},
        report=ReportSection(
            "Section VII-D — resources",
            rows=(("core area overhead", "core_area_overhead_pct", 1),
                  ("memory space overhead", "total_space_overhead_pct", 1)),
            run=lambda cores, scale, jobs: run_resources(
                include_measured=False))),
    Artifact(
        "ablation_aslr",
        run=lambda cores, scale, jobs: ablations.run_aslr_ablation(
            cores=min(cores, 4), jobs=jobs),
        render=_table_renderer(
            ["mode", "mean_reduction_pct", "aslr_transforms", "l1_shared"],
            "Ablation: ASLR-SW vs ASLR-HW (Section IV-D)"),
        # SW avoids the 2-cycle transform and shares at L1, so it is at
        # least as good as the (conservative) HW configuration.
        checks={"aslr-sw >= aslr-hw - 1.0": lambda rows, s: (
            _field(rows, "mode", "aslr-sw", "mean_reduction_pct")
            >= _field(rows, "mode", "aslr-hw", "mean_reduction_pct") - 1.0)}),
    Artifact(
        "ablation_orpc",
        run=lambda cores, scale, jobs: ablations.run_orpc_ablation(
            cores=min(cores, 4), jobs=jobs),
        render=_table_renderer(
            ["orpc_enabled", "mean_reduction_pct", "l2_long_accesses"],
            "Ablation: ORPC filter (Figure 5b)"),
        checks={"long accesses without ORPC > with ORPC": lambda rows, s: (
            _field(rows, "orpc_enabled", False, "l2_long_accesses")
            > _field(rows, "orpc_enabled", True, "l2_long_accesses"))}),
    Artifact(
        "ablation_bitmask_width",
        run=lambda cores, scale, jobs: ablations.run_bitmask_width_ablation(),
        render=_table_renderer(
            ["pc_bits", "indirection", "reverts", "pte_pages_copied",
             "cow_cycles"],
            "Ablation: PC bitmask width (Appendix overflow behaviour)"),
        checks={"4-bit reverts > 32-bit reverts == 0": _plain_reverts}),
    Artifact(
        "ablation_share_huge",
        run=lambda cores, scale, jobs: ablations.run_share_huge_ablation(),
        render=_table_renderer(
            ["share_huge", "table_pages", "fork_cycles"],
            "Ablation: PMD-table merging for 2MB pages (Section IV-C)"),
        checks={"table pages with merging < without": lambda rows, s: (
            _field(rows, "share_huge", True, "table_pages")
            < _field(rows, "share_huge", False, "table_pages"))}),
    Artifact(
        "ablation_quantum",
        run=lambda cores, scale, jobs: ablations.run_quantum_ablation(
            cores=min(cores, 4), jobs=jobs),
        render=_table_renderer(
            ["quantum_instructions", "mean_reduction_pct"],
            "Ablation: scheduler quantum sensitivity"),
        checks={"three quanta": lambda rows, s: len(rows) == 3}),
    Artifact(
        "density_sweep",
        run=lambda cores, scale, jobs: run_density_sweep(
            cores=2, scale=min(0.5, scale), jobs=jobs),
        render=_render_density,
        # BabelFish's advantage grows with container density.
        checks={
            "mean reduction ascends with density":
                lambda rows, s: _ascending(rows, "mean_reduction_pct"),
            "shared hits ascend with density":
                lambda rows, s: _ascending(rows, "shared_hits")}),
    Artifact(
        "mixed_colocation",
        run=lambda cores, scale, jobs: run_mixed_colocation(
            cores=min(cores, 4), scale=min(1.0, scale), jobs=jobs),
        render=_table_renderer(
            ["scenario", "mean_reduction_pct", "shared_hits", "ccid_groups"],
            "Extension: same-app vs mixed-app co-location"),
        checks={
            "same-app shared hits > mixed": lambda rows, s: (
                _field(rows, "scenario", "same-app", "shared_hits")
                > _field(rows, "scenario", "mixed", "shared_hits")),
            "same-app mean reduction >= mixed": lambda rows, s: (
                _field(rows, "scenario", "same-app", "mean_reduction_pct")
                >= _field(rows, "scenario", "mixed", "mean_reduction_pct"))}),
)

#: Every artifact by name, in the paper's order (the report prints its
#: sections in this order), then the ablations and extension studies.
ARTIFACTS = {artifact.name: artifact for artifact in _ENTRIES}
