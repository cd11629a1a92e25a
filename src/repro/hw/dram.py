"""A compact open-page DRAM timing model (DRAMSim2 stand-in).

Physical addresses are interleaved across channels/ranks/banks at
row-buffer granularity. Each bank remembers its open row; a hit costs
CAS-only latency, a conflict costs precharge + activate + CAS. This is
deliberately simple — the paper's deltas come from *where* page-walk lines
hit in the cache hierarchy; DRAM only needs a sane miss penalty with some
locality sensitivity.
"""

from repro.hw.params import DRAMParams


class DRAMModel:
    def __init__(self, params=None):
        self.params = params or DRAMParams()
        p = self.params
        self.num_banks = p.channels * p.ranks_per_channel * p.banks_per_rank
        self.row_bits = p.row_size_bytes.bit_length() - 1
        self._open_rows = [None] * self.num_banks

    def _bank_row(self, paddr):
        row_addr = paddr >> self.row_bits
        bank = row_addr % self.num_banks
        row = row_addr // self.num_banks
        return bank, row

    def access(self, paddr):
        """Return the latency, in core cycles, of one DRAM access."""
        bank, row = self._bank_row(paddr)
        if self._open_rows[bank] == row:
            return self.params.row_hit_cycles
        self._open_rows[bank] = row
        return self.params.row_miss_cycles
