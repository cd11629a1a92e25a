"""Exceptions raised by the simulated kernel."""


class SimulationError(Exception):
    """Base class for all simulated-system failures."""


class SegmentationFault(SimulationError):
    """Access to a virtual page with no backing VMA."""

    def __init__(self, pid, vpn):
        super().__init__("segfault: pid=%d vpn=%#x" % (pid, vpn))
        self.pid = pid
        self.vpn = vpn


class ProtectionFault(SimulationError):
    """Write to a read-only (non-CoW) mapping, or user access to kernel page."""

    def __init__(self, pid, vpn, reason="write to read-only page"):
        super().__init__("protection fault: pid=%d vpn=%#x (%s)" % (pid, vpn, reason))
        self.pid = pid
        self.vpn = vpn


class OutOfMemoryError(SimulationError):
    """The frame allocator ran out of physical frames."""


class TouchDidNotConverge(SimulationError):
    """A software touch kept faulting without ever finding a usable PTE
    (the fault handler's install never became visible to the lookup)."""

    def __init__(self, pid, vpn):
        super().__init__("touch did not converge: pid=%d vpn=%#x" % (pid, vpn))
        self.pid = pid
        self.vpn = vpn


class TranslationDidNotConverge(SimulationError):
    """An MMU translation kept faulting past its retry limit without the
    serviced fault ever making the access translate."""

    def __init__(self, pid, vpn):
        super().__init__("translation did not converge: pid=%d vpn=%#x"
                         % (pid, vpn))
        self.pid = pid
        self.vpn = vpn
