"""The churn experiment: lifecycle storms leak nothing and stay coherent.

These run the real stack (engine + kernel + simulator) at small cycle
counts; ``python -m repro.experiments churn`` is the same code at 500.
"""

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.churn import (ChurnResult, format_churn, run_churn,
                                     snapshot_diff)


def test_storm_is_clean_with_sanitizer():
    result = run_churn(cycles=24, cores=2, kill_rate=0.2, seed=7)
    assert result.launches == 24
    assert result.stops == 24
    assert result.kills > 0
    assert result.violations == []
    assert result.audit_findings == []
    assert result.leaks == {}
    assert result.final == result.baseline
    assert result.clean


def test_storm_exercises_pcid_recycling():
    # A 4-bit namespace (15 PCIDs) wraps within a short storm; the
    # recycle path must stay leak-free too.
    result = run_churn(cycles=30, sanitize=False, pcid_bits=4,
                       live_pool=2, kill_rate=0.15, seed=3)
    assert result.pcid_recycles > 0
    assert result.clean


def test_storm_is_deterministic_per_seed():
    a = run_churn(cycles=12, sanitize=False, kill_rate=0.25, seed=42)
    b = run_churn(cycles=12, sanitize=False, kill_rate=0.25, seed=42)
    assert a.summary() == b.summary()


def test_summary_is_json_ready_and_pid_free():
    import json

    result = run_churn(cycles=8, sanitize=False, seed=5)
    summary = result.summary()
    json.dumps(summary)  # plain scalars/dicts/lists only
    assert summary["launches"] == 8
    assert "stats" in summary and "baseline" in summary


def test_snapshot_diff_reports_both_sides():
    assert snapshot_diff({"a": 1, "b": 2}, {"a": 1, "b": 5}) == {"b": (2, 5)}
    assert snapshot_diff({"a": 1}, {}) == {"a": (1, None)}
    assert snapshot_diff({"a": 1}, {"a": 1}) == {}


def test_format_churn_flags_leaks():
    result = run_churn(cycles=6, sanitize=False, seed=9)
    text = format_churn(result)
    assert "verdict: CLEAN" in text
    dirty = ChurnResult(**{**result.__dict__,
                           "leaks": {"frames_data": (0, 3)}})
    text = format_churn(dirty)
    assert "LEAKS" in text and "frames_data" in text
    assert "verdict: DIRTY" in text


def test_cli_churn_smoke(capsys):
    rc = experiments_main(["churn", "--smoke", "--no-sanitize"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: CLEAN" in out
    assert "40 cycles" in out


def test_cli_rejects_bad_cycles(capsys):
    with pytest.raises(SystemExit):
        experiments_main(["churn", "--cycles", "0"])
