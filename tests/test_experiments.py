"""Smoke tests for every experiment harness at miniature scale."""

import pytest

from repro.experiments import clear_run_cache, common
from repro.experiments.ablations import (
    run_aslr_ablation,
    run_bitmask_width_ablation,
    run_orpc_ablation,
)
from repro.experiments.bringup import run_bringup
from repro.experiments.common import format_table, pct_reduction
from repro.experiments.fig9 import (
    classify_processes,
    run_fig9_app,
    run_fig9_functions,
    summarize as fig9_summary,
)
from repro.experiments.fig10 import run_fig10, summarize as fig10_summary
from repro.experiments.fig11 import run_fig11, summarize as fig11_summary
from repro.experiments.larger_tlb import run_comparison
from repro.experiments.resources import analytic_space_overhead, run_resources
from repro.experiments.table2 import run_table2, summarize as table2_summary
from repro.experiments.table3 import bitmask_width_sweep, run_table3
from repro.workloads.profiles import APP_PROFILES

from kernel_oracle import kernel_state, per_page_os_warmup

SMALL = dict(cores=1, scale=0.08)


@pytest.fixture(autouse=True, scope="module")
def _cache():
    clear_run_cache()
    yield


class TestHelpers:
    def test_pct_reduction(self):
        assert pct_reduction(100, 80) == 20.0
        assert pct_reduction(0, 5) == 0.0

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}], ["a", "b"], title="T")
        assert "T" in text and "2.50" in text


class TestFig9:
    def test_app_row_consistency(self):
        row = run_fig9_app("httpd", scale=0.1)
        assert row.total == (row.total_shareable + row.total_unshareable
                             + row.total_thp)
        assert row.active <= row.total
        assert row.active_babelfish <= row.active
        assert 0 < row.shareable_fraction < 1

    def test_functions_row(self):
        row = run_fig9_functions(scale=0.1)
        assert row.shareable_fraction > 0.7
        assert row.active_reduction > 0.3

    def test_summary_keys(self):
        rows = [run_fig9_app("httpd", scale=0.1),
                run_fig9_functions(scale=0.1)]
        summary = fig9_summary(rows)
        assert "avg_shareable_fraction" in summary
        assert "functions_shareable_fraction" in summary

    def test_classify_counts_pinned(self):
        """Two FIO containers on one core under Baseline: shared data set
        and libraries, private heaps, two THP blocks each (touched once,
        so never active). Pinned exactly; any change to the warm-up or
        the classification shows here."""
        env = common.build_environment(common.config_by_name("Baseline"),
                                       cores=1)
        deployment = common.deploy_app(env, APP_PROFILES["fio"])
        assert len(deployment.containers) == 2
        counts = classify_processes(
            [container.proc for container in deployment.containers],
            env.kernel.lru)
        assert counts == {
            "total": 14911, "total_shareable": 11810,
            "total_unshareable": 1053, "total_thp": 2048,
            "active": 11764, "active_shareable": 11570,
            "active_unshareable": 194, "active_thp": 0,
            "active_babelfish": 5979}


class TestRangeWarmupOracle:
    """``deploy_app`` warms through ``Kernel.touch_range``; a deployment
    warmed one ``Kernel.touch`` at a time must leave the same kernel."""

    @pytest.mark.parametrize("config_name", ["Baseline", "BabelFish"])
    @pytest.mark.parametrize("app", sorted(APP_PROFILES))
    def test_deploy_matches_per_page_warmup(self, app, config_name,
                                            monkeypatch):
        def deployed():
            env = common.build_environment(
                common.config_by_name(config_name), cores=1)
            common.deploy_app(env, APP_PROFILES[app])
            return kernel_state(env.kernel)

        ranged = deployed()
        monkeypatch.setattr(common, "_os_warmup", per_page_os_warmup)
        assert deployed() == ranged
        # Under BabelFish the second container attaches the tables the
        # first one populated, which takes a spurious fault per attach;
        # conventional tables never attach.
        spurious = sum(proc["faults"][3] for proc in ranged["processes"])
        assert (spurious > 0) == (config_name == "BabelFish")


class TestFig10:
    def test_rows(self):
        rows = run_fig10(apps=("httpd",), **SMALL)
        apps = {r["app"] for r in rows}
        assert {"httpd", "functions-dense", "functions-sparse"} <= apps
        for row in rows:
            assert row["mpki_d_babelfish"] <= row["mpki_d_base"] * 1.05
            assert 0 <= row["shared_hits_d"] <= 1

    def test_summary(self):
        rows = run_fig10(apps=("httpd",), **SMALL)
        summary = fig10_summary(rows)
        assert summary["serving_data_mpki_reduction_pct"] > 0


class TestFig11:
    def test_structure_and_direction(self):
        results = run_fig11(**SMALL)
        assert len(results["serving"]) == 3
        assert len(results["compute"]) == 2
        assert len(results["functions"]) == 6
        summary = fig11_summary(results)
        assert summary["serving_mean_pct"] > 0
        assert summary["functions_sparse_pct"] > summary["functions_dense_pct"]


class TestTable2:
    def test_fractions_bounded(self):
        rows = run_table2(**SMALL)
        for row in rows:
            assert -1.0 <= row["tlb_fraction"] <= 1.0
        summary = table2_summary(rows)
        assert "serving_average" in summary


class TestTable3:
    def test_matches_paper(self):
        for row in run_table3():
            assert row["area_mm2"] == pytest.approx(row["paper_area_mm2"],
                                                    rel=0.05)

    def test_sweep_monotone(self):
        rows = bitmask_width_sweep()
        areas = [r["area_mm2"] for r in rows]
        assert areas == sorted(areas)


class TestLargerTLB:
    def test_bigtlb_recovers_less(self):
        rows = run_comparison(**SMALL)
        by_metric = {r["metric"]: r for r in rows}
        serving = by_metric["serving_mean_pct"]
        assert serving["bigtlb_reduction_pct"] < serving["babelfish_reduction_pct"]


class TestBringup:
    def test_reduction_positive(self):
        result = run_bringup(**SMALL)
        assert result["reduction_pct"] > 0
        assert result["babelfish_cycles"] < result["baseline_cycles"]


class TestResources:
    def test_analytic_matches_paper(self):
        overhead = analytic_space_overhead()
        assert overhead["maskpage_space_overhead_pct"] == pytest.approx(
            0.195, abs=0.01)
        assert overhead["counter_space_overhead_pct"] == pytest.approx(
            0.049, abs=0.005)

    def test_full_report(self):
        report = run_resources(include_measured=False)
        assert report["core_area_overhead_pct"] == pytest.approx(0.4, abs=0.05)
        assert (report["core_area_overhead_no_pc_pct"]
                < report["core_area_overhead_pct"])


class TestAblations:
    def test_aslr(self):
        rows = run_aslr_ablation(cores=1, scale=0.08)
        modes = {r["mode"] for r in rows}
        assert modes == {"aslr-sw", "aslr-hw"}
        sw = next(r for r in rows if r["mode"] == "aslr-sw")
        hw = next(r for r in rows if r["mode"] == "aslr-hw")
        assert sw["aslr_transforms"] == 0
        assert hw["aslr_transforms"] > 0

    def test_orpc(self):
        rows = run_orpc_ablation(cores=1, scale=0.08)
        on = next(r for r in rows if r["orpc_enabled"])
        off = next(r for r in rows if not r["orpc_enabled"])
        assert off["l2_long_accesses"] > on["l2_long_accesses"]

    def test_bitmask_width(self):
        rows = run_bitmask_width_ablation(writers=6, widths=(4, 32), pages=8)
        by_width = {r["pc_bits"]: r for r in rows}
        assert by_width[4]["reverts"] >= 1
        assert by_width[32]["reverts"] == 0

    def test_share_huge(self):
        from repro.experiments.ablations import run_share_huge_ablation
        rows = run_share_huge_ablation(blocks=2, sharers=3)
        on = next(r for r in rows if r["share_huge"])
        off = next(r for r in rows if not r["share_huge"])
        assert on["table_pages"] < off["table_pages"]
        assert on["fork_cycles"] < off["fork_cycles"]


class TestMixedColocation:
    def test_same_app_beats_mixed(self):
        from repro.experiments.mixed import run_mixed_colocation
        rows = run_mixed_colocation(cores=2, scale=0.15)
        by_scenario = {r["scenario"]: r for r in rows}
        assert (by_scenario["same-app"]["shared_hits"]
                >= by_scenario["mixed"]["shared_hits"])


class TestDensitySweep:
    def test_advantage_grows_with_density(self):
        from repro.experiments.density import run_density_sweep
        rows = run_density_sweep(cores=1, scale=0.12, densities=(2, 4))
        assert (rows[1]["shared_hits"] > rows[0]["shared_hits"])
        assert (rows[1]["baseline_table_pages"]
                > rows[1]["babelfish_table_pages"])
