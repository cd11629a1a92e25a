"""The BabelFish TLB lookup algorithm — Figure 8's flowchart.

Entries are matched on VPN *and CCID*. On a match:

- Ownership set: hit only if the PCID also matches (private translation).
- Ownership clear (shared): hit unless the requesting process holds a
  private copy of the page — its bit in the PC bitmask is set. The bitmask
  check (and its extra latency) is skipped when ORPC is clear (Figure 5b).
- A write hit on a CoW translation raises a CoW page fault (boxes 5/6).

The lookups are policy-only: they run over the generic
:class:`repro.hw.tlb.MultiSizeTLB` structures, with the match predicate
inlined over their per-set lookup buckets instead of a closure per probe.
"""

from repro.hw.types import PageSize
from repro.hw.tlb import TLBEntry
from repro.core.mask_page import region_of


def entry_region(entry):
    """1GB MaskPage region covered by a TLB entry (any page size)."""
    vpn4k = entry.vpn << (entry.page_size.shift - PageSize.SIZE_4K.shift)
    return region_of(vpn4k)


def hit_provenance(entry, proc):
    """True when a hit lands on an entry another process inserted.

    This is the Figure 10b "Shared Hits" predicate — the same
    ``inserted_by != pid`` test :class:`repro.sim.stats.MMUStats` counts
    ``l2_shared_hits_*`` with, shared here so trace events and counters
    can never drift apart.
    """
    return entry.inserted_by != proc.pid


def babelfish_lookup(multi, vpn4k, proc, is_write, domain_fn):
    """Figure 8's lookup over a :class:`~repro.hw.tlb.MultiSizeTLB`.

    Entries match on VPN and CCID; an owned entry (O set) also needs the
    PCID, a shared one misses for a process holding a private copy (its
    PC bit is set), and a write needs write permission unless the entry
    is CoW. ``domain_fn`` maps an entry to the MaskPage scope a PC bit is
    keyed by (:func:`entry_region`, or the 2MB range under the
    Appendix's per-range indirection).

    Returns ``(entry, page_size, consulted_bitmask, cow_fault)``:
    ``consulted_bitmask`` means the PC bitmask was read, so an L2 access
    takes the long (12-cycle) time; ``cow_fault`` means the hit entry is
    CoW and the access is a write (boxes 5/6). A hit moves the entry to
    the most-recent end of its set.
    """
    pcid = proc.pcid
    ccid = proc.ccid
    pc_bits = proc.pc_bits
    consulted = False
    for size, shift, tlb in multi._probe:
        vpn = vpn4k >> shift
        index = vpn & tlb.set_mask
        bucket = tlb._buckets[index].get(vpn)
        if bucket:
            for entry in bucket:
                if entry.ccid != ccid:
                    continue                            # box 1: no CCID match
                if entry.o_bit:
                    if entry.pcid != pcid:
                        continue                        # boxes 2, 9
                else:
                    if entry.orpc:
                        consulted = True                # box 3 (long access)
                        bit = pc_bits.get(domain_fn(entry))
                        if bit is not None \
                                and (entry.pc_mask >> bit) & 1:
                            continue        # process has private copy
                    if is_write and not entry.writable and not entry.cow:
                        continue                        # permission miss
                lru = tlb._lru[index]
                del lru[entry]
                lru[entry] = None
                return entry, size, consulted, (is_write and entry.cow)
    return None, None, consulted, False


def conventional_lookup(multi, vpn4k, pcid, is_write):
    """Baseline lookup: VPN + PCID match (Figure 1), permission-checked.
    Returns ``(entry, page_size, cow_fault)``."""
    for size, shift, tlb in multi._probe:
        vpn = vpn4k >> shift
        index = vpn & tlb.set_mask
        bucket = tlb._buckets[index].get(vpn)
        if bucket:
            for entry in bucket:
                if entry.pcid != pcid:
                    continue
                if is_write and not entry.writable and not entry.cow:
                    continue
                lru = tlb._lru[index]
                del lru[entry]
                lru[entry] = None
                return entry, size, (is_write and entry.cow)
    return None, None, False


def babelfish_fill_fields(fill_info):
    """Derive the stored O-PC fields for a TLB fill.

    ``fill_info`` is ``(o_bit, orpc, pc_mask)`` from the page-table policy.
    Per Figure 5(b), the PC bitmask is only loaded into the TLB when O is
    clear and ORPC is set; otherwise the storage is cleared. Returns
    ``(o_bit, orpc, stored_mask, long_access)``.
    """
    o_bit, orpc, pc_mask = fill_info
    if not o_bit and orpc:
        return o_bit, orpc, pc_mask, True
    return o_bit, orpc, 0, False


def make_entry(vpn, pte, proc, fill_info, page_size):
    """Build a BabelFish TLB entry from a walk result."""
    o_bit, orpc, mask, _long = babelfish_fill_fields(fill_info)
    return TLBEntry(vpn, pte.ppn, page_size, proc.pcid, proc.ccid,
                    pte.writable, pte.user, pte.cow, o_bit, orpc, mask,
                    proc.pid)
