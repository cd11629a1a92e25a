"""x86-64 four-level page tables (Section II-B, Figure 2).

Levels are numbered 4 (PGD), 3 (PUD), 2 (PMD), 1 (PTE). Each
:class:`PageTable` occupies one real simulated frame, so every table entry
has a physical address the hardware page walker can send to the cache
hierarchy — that is how BabelFish's shared tables produce L3 hits for the
second container (Figure 7).

Leaf entries are :class:`PTE`; intermediate entries are :class:`TableRef`,
which also carries the pmd_t O and ORPC bits that BabelFish stores in the
currently-unused bits 10 and 9 (Figure 5a). A PMD-level :class:`PTE` is a
2MB huge-page mapping; a PUD-level one is a 1GB mapping.
"""

from repro.hw.types import ENTRIES_PER_TABLE, PAGE_SIZE, PTE_BYTES, PageSize
from repro.kernel.frames import FrameKind

#: Level numbering, top down.
PGD, PUD, PMD, PTE_LEVEL = 4, 3, 2, 1

#: Bits of VPN index consumed by each level below it. The single owner
#: of the level geometry: a level-``L`` entry covers ``1 << LEVEL_SHIFT[L]``
#: 4K pages, and a level-``L`` table covers ``1 << LEVEL_SHIFT[L + 1]``.
LEVEL_SHIFT = {PGD: 27, PUD: 18, PMD: 9, PTE_LEVEL: 0}

_PGD_SHIFT = LEVEL_SHIFT[PGD]
_PUD_SHIFT = LEVEL_SHIFT[PUD]
_PMD_SHIFT = LEVEL_SHIFT[PMD]
_INDEX_MASK = ENTRIES_PER_TABLE - 1

#: Page size of a leaf installed at a given level.
LEAF_SIZE = {PTE_LEVEL: PageSize.SIZE_4K, PMD: PageSize.SIZE_2M, PUD: PageSize.SIZE_1G}


def table_index(vpn, level):
    """Index into a ``level`` table for a 4K VPN (Figure 2's bit slices)."""
    return (vpn >> LEVEL_SHIFT[level]) & _INDEX_MASK


def region_id(vpn):
    """1GB region id: identifies the PMD table (and MaskPage) covering vpn."""
    return vpn >> LEVEL_SHIFT[PUD]


def pte_table_id(vpn):
    """2MB-aligned id: identifies the PTE table covering vpn."""
    return vpn >> LEVEL_SHIFT[PMD]


class PTE:
    """A leaf translation (pte_t, or a huge pmd_t/pud_t leaf)."""

    __slots__ = ("ppn", "present", "writable", "user", "executable", "cow",
                 "dirty", "accessed", "page_size", "file", "file_index")

    def __init__(self, ppn, present=True, writable=True, user=True,
                 executable=False, cow=False, page_size=PageSize.SIZE_4K,
                 file=None, file_index=None):
        self.ppn = ppn
        self.present = present
        self.writable = writable
        self.user = user
        self.executable = executable
        self.cow = cow
        self.dirty = False
        self.accessed = False
        self.page_size = page_size
        self.file = file
        self.file_index = file_index

    def perm_key(self):
        """Permission bits relevant to Figure 9's shareability test."""
        return (self.writable, self.user, self.executable, self.cow)

    def clone(self):
        pte = PTE(self.ppn, self.present, self.writable, self.user,
                  self.executable, self.cow, self.page_size,
                  self.file, self.file_index)
        pte.dirty = self.dirty
        pte.accessed = self.accessed
        return pte

    def __repr__(self):
        return "<PTE ppn=%#x %s%s%s%s>" % (
            self.ppn,
            "P" if self.present else "-",
            "W" if self.writable else "-",
            "C" if self.cow else "-",
            " huge" if self.page_size is not PageSize.SIZE_4K else "")


class TableRef:
    """An intermediate entry pointing at a lower-level table.

    ``o_bit`` / ``orpc`` reproduce BabelFish's pmd_t bits 10 and 9: O set
    means the pointed-to PTE table is a private (owned) copy; ORPC set
    means some process in the CCID group holds a private copy of a page in
    this 2MB range, so the PC bitmask must be consulted (Figure 5b).
    """

    __slots__ = ("table", "o_bit", "orpc")

    def __init__(self, table, o_bit=False, orpc=False):
        self.table = table
        self.o_bit = o_bit
        self.orpc = orpc


class PageTable:
    """One 4KB page-table page at a given level.

    ``sharers`` is BabelFish's per-table counter (Section IV-B): the number
    of processes whose upper-level entry points here. Private tables keep
    it at 1. ``owned_by`` is set on the private pte-page copies a CoW break
    creates (their translations carry the Ownership bit).
    """

    __slots__ = ("level", "frame", "entries", "sharers", "owned_by",
                 "shared_key", "orpc")

    def __init__(self, level, frame):
        self.level = level
        self.frame = frame
        self.entries = {}
        self.sharers = 1
        self.owned_by = None
        self.shared_key = None
        #: Mirror of the sharers' pmd_t ORPC bits for this table's 2MB
        #: range: set when any process in the CCID group holds a private
        #: copy of a page mapped here (the paper stores this per pmd_t;
        #: keeping it on the shared table is equivalent for simulation
        #: because all sharers' pmd_t bits are updated together).
        self.orpc = False

    def entry_paddr(self, index):
        """Physical address of entry ``index`` (what the walker fetches)."""
        return self.frame * PAGE_SIZE + index * PTE_BYTES

    @property
    def is_shared(self):
        return self.sharers > 1

    def __repr__(self):
        return "<PageTable L%d frame=%#x entries=%d sharers=%d%s>" % (
            self.level, self.frame, len(self.entries), self.sharers,
            " owned" if self.owned_by is not None else "")


class AddressSpaceTables:
    """A process's page-table tree rooted at its private PGD (its CR3)."""

    def __init__(self, allocator):
        self.allocator = allocator
        self.pgd = self._new_table(PGD)
        #: Table pages allocated on behalf of this address space (for cost
        #: accounting; shared attachments do not count).
        self.tables_allocated = 1

    def _new_table(self, level):
        frame = self.allocator.alloc(FrameKind.PAGE_TABLE)
        return PageTable(level, frame)

    @property
    def cr3(self):
        return self.pgd.frame * PAGE_SIZE

    # -- traversal ---------------------------------------------------------

    def walk(self, vpn):
        """Software walk: the full path ``[(level, table, index, entry)]``
        top-down.

        Stops at the first missing entry or at a leaf. The caller decides
        what a missing/non-present entry means (fault level). Only callers
        that need the upper levels (the parent entry of a table to detach,
        every table on the path) should pay for the list; the last element
        alone is :meth:`leaf_slot`.
        """
        table = self.pgd
        path = []
        for level in (PGD, PUD, PMD, PTE_LEVEL):
            index = table_index(vpn, level)
            entry = table.entries.get(index)
            path.append((level, table, index, entry))
            if not isinstance(entry, TableRef):
                break
            table = entry.table
        return path

    def lookup_pte(self, vpn):
        """The leaf PTE mapping ``vpn`` (4K or huge), or None."""
        entry = self.pgd.entries.get((vpn >> _PGD_SHIFT) & _INDEX_MASK)
        if isinstance(entry, TableRef):
            entry = entry.table.entries.get((vpn >> _PUD_SHIFT) & _INDEX_MASK)
            if isinstance(entry, TableRef):
                entry = entry.table.entries.get(
                    (vpn >> _PMD_SHIFT) & _INDEX_MASK)
                if isinstance(entry, TableRef):
                    entry = entry.table.entries.get(vpn & _INDEX_MASK)
        return entry if isinstance(entry, PTE) else None

    def leaf_slot(self, vpn):
        """``walk(vpn)[-1]`` without building the path: the
        ``(level, table, index, entry)`` where the descent stopped."""
        table = self.pgd
        index = (vpn >> _PGD_SHIFT) & _INDEX_MASK
        entry = table.entries.get(index)
        if not isinstance(entry, TableRef):
            return PGD, table, index, entry
        table = entry.table
        index = (vpn >> _PUD_SHIFT) & _INDEX_MASK
        entry = table.entries.get(index)
        if not isinstance(entry, TableRef):
            return PUD, table, index, entry
        table = entry.table
        index = (vpn >> _PMD_SHIFT) & _INDEX_MASK
        entry = table.entries.get(index)
        if not isinstance(entry, TableRef):
            return PMD, table, index, entry
        table = entry.table
        index = vpn & _INDEX_MASK
        return PTE_LEVEL, table, index, table.entries.get(index)

    def ensure_path(self, vpn, leaf_level=PTE_LEVEL, table_provider=None):
        """Create intermediate tables down to ``leaf_level``'s table.

        ``table_provider(level, vpn)`` may supply a (shared) table for a
        level instead of allocating a private one; the provider is fully
        responsible for sharer-count accounting. It returns a
        :class:`PageTable` or ``None`` to allocate privately. Returns
        ``(table, index, allocated_pages)`` where ``table`` is the table
        holding the leaf entry.
        """
        table = self.pgd
        allocated = 0
        for level in (PGD, PUD, PMD):
            if level == leaf_level:
                break
            index = table_index(vpn, level)
            entry = table.entries.get(index)
            if entry is None:
                child_level = level - 1
                child = table_provider(child_level, vpn) if table_provider else None
                if child is None:
                    child = self._new_table(child_level)
                    self.tables_allocated += 1
                    allocated += 1
                entry = TableRef(child)
                table.entries[index] = entry
            elif not isinstance(entry, TableRef):
                raise ValueError(
                    "vpn %#x: level %d already holds a huge leaf" % (vpn, level))
            table = entry.table
        return table, table_index(vpn, leaf_level), allocated

    def set_leaf(self, vpn, pte, leaf_level=PTE_LEVEL, table_provider=None):
        """Install a leaf mapping, creating the path as needed."""
        table, index, allocated = self.ensure_path(vpn, leaf_level, table_provider)
        table.entries[index] = pte
        return table, index, allocated

    # -- iteration / accounting --------------------------------------------

    def iter_tables(self, include_shared=True):
        """All reachable tables, each yielded once."""
        seen = set()
        stack = [self.pgd]
        while stack:
            table = stack.pop()
            if id(table) in seen:
                continue
            seen.add(id(table))
            if not include_shared and table.is_shared and table is not self.pgd:
                continue
            yield table
            for entry in table.entries.values():
                if isinstance(entry, TableRef):
                    stack.append(entry.table)

    def iter_leaves(self):
        """All leaf PTEs: yields ``(vpn, level, table, index, pte)``."""
        stack = [(self.pgd, 0)]
        while stack:
            table, base_vpn = stack.pop()
            shift = LEVEL_SHIFT[table.level]
            for index, entry in table.entries.items():
                vpn = base_vpn | (index << shift)
                if isinstance(entry, TableRef):
                    stack.append((entry.table, vpn))
                elif isinstance(entry, PTE):
                    yield vpn, table.level, table, index, entry

    def count_table_pages(self):
        return sum(1 for _ in self.iter_tables())
