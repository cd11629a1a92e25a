"""The lint CLI and the repo-clean contract.

The whole repository must lint clean at HEAD (the CI gate), and the CLI
must exit nonzero with rule id + ``file:line`` when a violation exists.
"""

import json
import pathlib

from repro.analysis.__main__ import default_paths, main
from repro.analysis.lint.engine import LintEngine
from repro.analysis.lint.rules import all_rules, rule_catalog

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestRepoClean:
    def test_src_and_tests_lint_clean(self):
        findings = LintEngine().lint_paths([REPO / "src" / "repro",
                                            REPO / "tests"])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_default_paths_cover_package_and_tests(self):
        paths = [p.name for p in default_paths()]
        assert "repro" in paths
        assert "tests" in paths

    def test_cli_exits_zero_at_head(self, capsys):
        assert main([str(REPO / "src" / "repro"), str(REPO / "tests")]) == 0
        assert "0 findings" in capsys.readouterr().out


class TestCLIOnViolations:
    def seed(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "hw" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("from repro.sim.mmu import MMU\n"
                       "assert MMU\n")
        return bad

    def test_nonzero_exit_with_rule_id_and_location(self, tmp_path, capsys):
        bad = self.seed(tmp_path)
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "BF101" in out and "BF302" in out
        assert "%s:1:" % bad in out
        assert "%s:2:" % bad in out

    def test_json_format(self, tmp_path, capsys):
        bad = self.seed(tmp_path)
        assert main(["--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"BF101", "BF302"}
        assert all(f["path"] and f["line"] for f in payload["findings"])

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out
        # The catalog also lists the three engine pseudo-rules
        # (BF000 syntax, BF001 unused suppression, BF002 unreadable).
        assert len(rule_catalog()) == len(all_rules()) + 3
        for engine_rule in ("BF000", "BF001", "BF002"):
            assert engine_rule in out


class TestStrictAndBaseline:
    def test_warnings_fail_only_under_strict(self, tmp_path):
        stale = tmp_path / "src" / "repro" / "hw" / "stale.py"
        stale.parent.mkdir(parents=True)
        stale.write_text("x = 1  # bfa: disable=BF101 -- stale\n")
        assert main([str(stale)]) == 0          # BF001 is a warning
        assert main(["--strict", str(stale)]) == 1


class TestSarifOutput:
    def seed(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "hw" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("from repro.sim.mmu import MMU\n"
                       "assert MMU\n")
        return bad

    def test_sarif_out_writes_conforming_log(self, tmp_path, capsys):
        bad = self.seed(tmp_path)
        sarif_path = tmp_path / "analysis.sarif"
        assert main(["--sarif-out", str(sarif_path), str(bad)]) == 1
        log = json.loads(sarif_path.read_text())
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"BF101", "BF302", "BF401", "BF501", "BF601"} <= declared
        results = run["results"]
        assert {r["ruleId"] for r in results} == {"BF101", "BF302"}
        for result in results:
            loc = result["locations"][0]["physicalLocation"]
            assert loc["region"]["startLine"] >= 1
            assert loc["artifactLocation"]["uri"]
            assert result["ruleId"] in declared

    def test_format_sarif_prints_log(self, tmp_path, capsys):
        bad = self.seed(tmp_path)
        assert main(["--format", "sarif", str(bad)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert len(log["runs"][0]["results"]) == 2

    def test_clean_tree_yields_empty_results(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        sarif_path = tmp_path / "clean.sarif"
        assert main(["--sarif-out", str(sarif_path), str(good)]) == 0
        assert json.loads(sarif_path.read_text())["runs"][0]["results"] == []
