"""Tests for DRAM, PWC, CACTI model, types, and Table I parameters."""

import pytest

from repro.core.ccid import CCID_BITS
from repro.core.opc import MAX_PRIVATE_COPIES
from repro.hw.cacti import (
    PAPER_TABLE3,
    SRAMModel,
    babelfish_l2_geometry,
    baseline_l2_geometry,
    core_area_overhead_pct,
    l2_tlb_report,
)
from repro.hw.dram import DRAMModel
from repro.hw.params import baseline_machine
from repro.hw.pwc import PageWalkCache, PWC_LEVELS
from repro.hw.params import PWCParams
from repro.hw.types import AccessKind, PageSize, line_addr, vpn_for
from repro.kernel.lifecycle import PCID_BITS

from structure_oracle import pwc_insert, pwc_lookup


class TestTypes:
    def test_page_size_bytes(self):
        assert PageSize.SIZE_4K.bytes == 4096
        assert PageSize.SIZE_2M.bytes == 2 * 1024 * 1024
        assert PageSize.SIZE_1G.bytes == 1 << 30

    def test_base_pages(self):
        assert PageSize.SIZE_4K.base_pages == 1
        assert PageSize.SIZE_2M.base_pages == 512
        assert PageSize.SIZE_1G.base_pages == 512 * 512

    def test_vpn_for(self):
        assert vpn_for(0x1234) == 1
        assert vpn_for(0x200000, PageSize.SIZE_2M) == 1

    def test_line_addr(self):
        assert line_addr(0x1039) == 0x1000
        assert line_addr(0x1040) == 0x1040

    def test_access_kind_flags(self):
        assert AccessKind.IFETCH.is_instruction
        assert AccessKind.STORE.is_write
        assert not AccessKind.LOAD.is_write


class TestDRAM:
    def test_row_miss_then_hit(self):
        dram = DRAMModel()
        first = dram.access(0x1000)
        second = dram.access(0x1008)
        assert first == dram.params.row_miss_cycles
        assert second == dram.params.row_hit_cycles

    def test_bank_conflict(self):
        dram = DRAMModel()
        row_bytes = dram.params.row_size_bytes
        stride = dram.num_banks * row_bytes  # same bank, different row
        dram.access(0)
        assert dram.access(stride) == dram.params.row_miss_cycles

    def test_different_banks_independent(self):
        dram = DRAMModel()
        dram.access(0)
        dram.access(dram.params.row_size_bytes)  # next bank
        assert dram.access(8) == dram.params.row_hit_cycles


class TestPWC:
    def make(self):
        return PageWalkCache(PWCParams(entries_per_level=4, ways=4))

    def test_levels(self):
        assert PWC_LEVELS == (4, 3, 2)

    def test_miss_then_hit(self):
        pwc = self.make()
        assert not pwc_lookup(pwc, 4, 0x1000)
        pwc_insert(pwc, 4, 0x1000)
        assert pwc_lookup(pwc, 4, 0x1000)

    def test_leaf_level_not_cached(self):
        pwc = self.make()
        pwc_insert(pwc, 1, 0x1000)
        assert not pwc_lookup(pwc, 1, 0x1000)

    def test_levels_independent(self):
        pwc = self.make()
        pwc_insert(pwc, 4, 0x1000)
        assert not pwc_lookup(pwc, 3, 0x1000)

    def test_capacity_eviction(self):
        pwc = self.make()
        for i in range(5):
            pwc_insert(pwc, 2, i * 8)
        assert len(pwc._levels[2]) == 4
        assert not pwc_lookup(pwc, 2, 0)  # LRU victim


class TestCACTI:
    def test_calibration_matches_paper(self):
        report = l2_tlb_report()
        for name in ("Baseline", "BabelFish"):
            paper = PAPER_TABLE3[name]
            measured = report[name]
            assert measured.area_mm2 == pytest.approx(paper.area_mm2, rel=0.02)
            assert measured.access_time_ps == pytest.approx(
                paper.access_time_ps, rel=0.02)
            assert measured.dyn_energy_pj == pytest.approx(
                paper.dyn_energy_pj, rel=0.02)
            assert measured.leakage_mw == pytest.approx(
                paper.leakage_mw, rel=0.02)

    def test_geometry_bits(self):
        base = baseline_l2_geometry()
        bf = babelfish_l2_geometry()
        assert bf.bits_per_entry - base.bits_per_entry == 12 + 2 + 32

    def test_monotone_in_bitmask_width(self):
        model = SRAMModel()
        areas = [model.area_mm2(babelfish_l2_geometry(w))
                 for w in (0, 8, 16, 32)]
        assert areas == sorted(areas)

    def test_core_area_overhead(self):
        with_pc = core_area_overhead_pct(True)
        without = core_area_overhead_pct(False)
        assert with_pc == pytest.approx(0.4, abs=0.05)
        assert 0.0 < without < with_pc


class TestParams:
    def test_table1_geometry(self):
        machine = baseline_machine()
        assert machine.cores == 8
        assert machine.l1d.size_bytes == 32 * 1024
        assert machine.l2.size_bytes == 256 * 1024
        assert machine.l3.size_bytes == 8 * 1024 * 1024
        assert machine.mmu.l2_4k.entries == 1536
        assert machine.mmu.l2_4k.ways == 12
        assert machine.mmu.l2_4k.access_cycles == 10
        assert machine.mmu.l2_4k.long_access_cycles == 12
        assert machine.mmu.l1d_4k.entries == 64
        assert machine.mmu.pwc.entries_per_level == 16
        assert MAX_PRIVATE_COPIES == 32
        assert PCID_BITS == 12
        assert CCID_BITS == 12

    def test_scale_l2_tlb(self):
        machine = baseline_machine().scale_l2_tlb(2.0)
        assert machine.mmu.l2_4k.entries == 3072
        assert machine.mmu.l2_2m.entries == 3072
        # L1s untouched
        assert machine.mmu.l1d_4k.entries == 64

    def test_num_sets(self):
        machine = baseline_machine()
        assert machine.mmu.l2_4k.num_sets == 128
        assert machine.l1d.num_sets == 64
