"""Architectural parameters from Table I of the paper.

Every hardware structure is described by a small frozen dataclass so
configurations can be tweaked per experiment (e.g. the "larger conventional
L2 TLB" comparison of Section VII-C) without touching the models.
"""

import dataclasses
import math

from repro.hw.types import PageSize


@dataclasses.dataclass(frozen=True)
class CoreParams:
    """Core parameters (we only need timing-level knobs, not an OoO model)."""

    frequency_ghz: float = 2.0
    issue_width: int = 2
    rob_entries: int = 128
    #: Average cycles per non-memory instruction. A 2-issue OoO core retires
    #: close to 2 instructions/cycle on compute-bound stretches.
    base_cpi: float = 0.5


@dataclasses.dataclass(frozen=True)
class CacheParams:
    name: str
    size_bytes: int
    ways: int
    line_size: int = 64
    access_cycles: int = 2
    shared: bool = False

    @property
    def num_sets(self):
        return self.size_bytes // (self.ways * self.line_size)


@dataclasses.dataclass(frozen=True)
class TLBParams:
    name: str
    entries: int
    ways: int
    page_size: PageSize
    access_cycles: int = 1
    #: Access time when the PC bitmask has to be read (BabelFish L2 TLB
    #: only; Table I lists "10 or 12 cycles").
    long_access_cycles: int = 0

    @property
    def num_sets(self):
        return max(1, self.entries // self.ways)


@dataclasses.dataclass(frozen=True)
class PWCParams:
    entries_per_level: int = 16
    ways: int = 4
    access_cycles: int = 1


@dataclasses.dataclass(frozen=True)
class DRAMParams:
    capacity_gb: int = 32
    channels: int = 2
    ranks_per_channel: int = 8
    banks_per_rank: int = 8
    frequency_ghz: float = 1.0
    #: Core-clock cycles for a row-buffer hit / miss (CAS vs ACT+CAS+PRE),
    #: in 2GHz core cycles.
    row_hit_cycles: int = 36
    row_miss_cycles: int = 90
    row_size_bytes: int = 8192


@dataclasses.dataclass(frozen=True)
class MMUParams:
    """Per-core MMU structures (Table I, middle block)."""

    l1d_4k: TLBParams = TLBParams("L1 DTLB 4K", 64, 4, PageSize.SIZE_4K, 1)
    l1i_4k: TLBParams = TLBParams("L1 ITLB 4K", 64, 4, PageSize.SIZE_4K, 1)
    l1d_2m: TLBParams = TLBParams("L1 DTLB 2M", 32, 4, PageSize.SIZE_2M, 1)
    l1d_1g: TLBParams = TLBParams("L1 DTLB 1G", 4, 4, PageSize.SIZE_1G, 1)
    l2_4k: TLBParams = TLBParams("L2 TLB 4K", 1536, 12, PageSize.SIZE_4K, 10, 12)
    l2_2m: TLBParams = TLBParams("L2 TLB 2M", 1536, 12, PageSize.SIZE_2M, 10, 12)
    l2_1g: TLBParams = TLBParams("L2 TLB 1G", 16, 4, PageSize.SIZE_1G, 10, 12)
    pwc: PWCParams = PWCParams()
    #: Extra latency of the ASLR-HW address transformation, paid on an L1
    #: TLB miss (Section IV-D / Table I).
    aslr_transform_cycles: int = 2


def _snap_entries(entries, ways, factor):
    """Entry count nearest ``entries * factor`` that yields a
    power-of-two number of ``ways``-associative sets (minimum one)."""
    target_sets = max(1.0, entries * factor / ways)
    exponent = round(math.log2(target_sets))
    return (1 << max(0, exponent)) * ways


@dataclasses.dataclass(frozen=True)
class MachineParams:
    """The full 8-core server of Table I.

    Table I's host/Docker block is defined where it is read:
    ``SimConfig.quantum_instructions``, ``core.opc.MAX_PRIVATE_COPIES``,
    ``kernel.lifecycle.PCID_BITS`` and ``core.ccid.CCID_BITS``.
    """

    cores: int = 8
    core: CoreParams = CoreParams()
    l1d: CacheParams = CacheParams("L1D", 32 * 1024, 8, 64, 2)
    l1i: CacheParams = CacheParams("L1I", 32 * 1024, 8, 64, 2)
    l2: CacheParams = CacheParams("L2", 256 * 1024, 8, 64, 8)
    l3: CacheParams = CacheParams("L3", 8 * 1024 * 1024, 16, 64, 32, shared=True)
    mmu: MMUParams = MMUParams()
    dram: DRAMParams = DRAMParams()

    def scale_l2_tlb(self, factor):
        """Return a copy with the L2 TLB scaled by ``factor`` entries.

        Used for the "larger conventional L2 TLB" comparison of
        Section VII-C: the area that BabelFish spends on CCID + O-PC bits
        is spent on extra conventional entries instead. The scaled entry
        count is snapped to a power-of-two number of sets (keeping the
        associativity), because set-indexed TLBs only exist at those
        points — ``int(entries * factor)`` would hand the structure an
        unbuildable 264-set array for honest area factors like the
        2.07x :func:`repro.hw.cacti.same_area_conventional_scale`
        derives. Exact powers of two (the stock 2.0) are unchanged.
        """
        mmu = self.mmu

        def scaled_params(params):
            return dataclasses.replace(
                params, entries=_snap_entries(params.entries, params.ways,
                                              factor))

        scaled = dataclasses.replace(
            mmu,
            l2_4k=scaled_params(mmu.l2_4k),
            l2_2m=scaled_params(mmu.l2_2m),
            l2_1g=scaled_params(mmu.l2_1g),
        )
        return dataclasses.replace(self, mmu=scaled)


def baseline_machine(cores=8):
    """The Table I machine, optionally with a different core count.

    Tests use small core counts; experiments default to the paper's 8.
    """
    return MachineParams(cores=cores)
