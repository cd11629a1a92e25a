"""Page-fault classification and outcomes (Section II-B)."""

import dataclasses
import enum


class FaultType(enum.Enum):
    #: Page had to come from "disk" (not in the page cache).
    MAJOR = "major"
    #: Page was in memory; only the table entry needed updating.
    MINOR = "minor"
    #: Write to a Copy-on-Write page: private frame allocated.
    COW = "cow"
    #: The translation was already present and usable when the handler
    #: looked (another CCID-group member resolved it first, or a racing
    #: TLB state); nothing to do.
    SPURIOUS = "spurious"


class InvalidationScope(enum.Enum):
    #: Invalidate the single shared (O-bit clear) entry for a VPN in every
    #: TLB — BabelFish's CoW rule (Section III-A: "only this single entry
    #: needs to be invalidated").
    SHARED_ENTRY = "shared"
    #: Invalidate a process's own entries for a VPN (conventional CoW
    #: shootdown semantics).
    PROCESS = "process"
    #: Invalidate every shared entry of a CCID group in the VPN's 1GB
    #: region — used when a MaskPage overflows and the group reverts to
    #: non-shared translations (Appendix), and when a process exit
    #: reclaims its PC-bitmask bit (stale bitmask snapshots must go).
    REGION_SHARED = "region_shared"
    #: Flush every entry tagged with a PCID, regardless of VPN — process
    #: exit (the full address space dies) and PCID recycling (the tag
    #: changes hands; Linux pairs ASID reuse with the same flush). The
    #: carried ``vpn`` is 0 and ignored.
    PCID_FLUSH = "pcid_flush"
    #: Flush every *shared* (O=0) entry of a CCID group, regardless of
    #: VPN — issued when teardown frees shared page tables (last sharer
    #: exited), whose group-visible translations no PCID flush covers.
    #: The carried ``vpn`` is 0 and ignored.
    CCID_SHARED = "ccid_shared"


@dataclasses.dataclass(frozen=True)
class TLBInvalidation:
    vpn: int
    scope: InvalidationScope
    pcid: int = None
    ccid: int = None


class FaultOutcome:
    """One serviced fault. ``invalidations`` lists the TLB invalidations
    the "OS" requests (the simulator applies them to every core's MMU and
    charges shootdown cost); a fault that requests none carries ``()``.
    ``pte_page_copied`` is True when a BabelFish private pte-page copy
    was created."""

    __slots__ = ("fault_type", "cycles", "invalidations", "ppn",
                 "pte_page_copied")

    def __init__(self, fault_type, cycles, invalidations=(), ppn=None,
                 pte_page_copied=False):
        self.fault_type = fault_type
        self.cycles = cycles
        self.invalidations = invalidations
        self.ppn = ppn
        self.pte_page_copied = pte_page_copied


def trace_outcome(tracer, core, pid, vpn, outcome):
    """Emit the FAULT trace event for one serviced fault.

    The single choke point keeping the trace taxonomy next to
    :class:`FaultType`: the event carries the fault kind, its cycle
    cost, whether a BabelFish pte-page copy happened (a CoW ownership
    transition), and how many TLB invalidations the handler requested.
    """
    tracer.fault(core, pid, vpn, outcome.fault_type.value, outcome.cycles,
                 outcome.pte_page_copied, len(outcome.invalidations))
