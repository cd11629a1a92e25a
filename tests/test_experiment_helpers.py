"""Unit tests for experiment-harness helper functions."""

import pytest

from repro.experiments.fig10 import _mpki_row
from repro.experiments.table2 import _fraction
from repro.sim.stats import MMUStats


class TestTable2Fraction:
    def test_basic(self):
        # base=100, pt_only=40, full=20: TLB adds 20 of the 80 total.
        assert _fraction(100, 40, 20) == pytest.approx(0.25)

    def test_zero_total(self):
        assert _fraction(50, 50, 50) == 0.0

    def test_clamped(self):
        assert _fraction(100, 500, 90) == 1.0
        assert _fraction(100, 0, 90) == -1.0


class TestFig10Row:
    def stats(self, insts, d_miss, i_miss, d_hits=0, d_shared=0):
        stats = MMUStats()
        stats.instructions = insts
        stats.l2_misses_d = d_miss
        stats.l2_misses_i = i_miss
        stats.l2_hits_d = d_hits
        stats.l2_shared_hits_d = d_shared
        return stats

    def test_reduction_computed(self):
        base = self.stats(1000, 10, 4)
        bf = self.stats(1000, 5, 1)
        row = _mpki_row("x", base, bf)
        assert row["mpki_d_reduction_pct"] == pytest.approx(50.0)
        assert row["mpki_i_reduction_pct"] == pytest.approx(75.0)

    def test_zero_base_mpki(self):
        base = self.stats(1000, 0, 0)
        bf = self.stats(1000, 0, 0)
        row = _mpki_row("x", base, bf)
        assert row["mpki_d_reduction_pct"] == 0.0

    def test_shared_hit_fields(self):
        base = self.stats(1000, 1, 1)
        bf = self.stats(1000, 1, 1, d_hits=10, d_shared=4)
        row = _mpki_row("x", base, bf)
        assert row["shared_hits_d"] == pytest.approx(0.4)

