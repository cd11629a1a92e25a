"""The kernel facade: processes, mmap, fork, and the page-fault handler.

The page-table *sharing policy* is injected: :class:`PrivatePTPolicy`
reproduces conventional Linux (separate per-process page tables, fork
deep-copies the tree), while :class:`repro.core.shared_pt.SharedPTManager`
implements BabelFish's shared tables. The fault handler itself is common —
it asks the policy for shared tables (``table_provider``) and where each
install goes (``install_target``), and lets it intercept CoW breaks in
shared tables.
"""

import dataclasses

from repro.hw.types import ENTRIES_PER_TABLE, PageSize
from repro.kernel.costs import KernelCosts
from repro.kernel.errors import (
    ProtectionFault,
    SegmentationFault,
    TouchDidNotConverge,
)
from repro.kernel.fault import (
    FaultOutcome,
    FaultType,
    InvalidationScope,
    TLBInvalidation,
)
from repro.kernel.frames import FrameAllocator, FrameKind
from repro.kernel.lifecycle import PCID_BITS, PCIDAllocator
from repro.kernel.lru import ActiveInactiveLRU
from repro.kernel.page_cache import FileObject, PageCache
from repro.kernel.page_table import (
    LEVEL_SHIFT,
    PMD,
    PTE,
    PTE_LEVEL,
    TableRef,
    table_index,
)
from repro.kernel.process import Process
from repro.kernel.vma import VMA, VMAKind

HUGE_PAGES = ENTRIES_PER_TABLE  # 512 x 4KB = 2MB

#: Lookups a software touch makes before giving up: the hardware
#: retries the access after each fault.
_TOUCH_ATTEMPTS = 4

# Enum members the fault path reads on every fault, bound once: reading a
# member off its Enum class costs a metaclass attribute lookup each time.
_ANON, _FILE_SHARED = VMAKind.ANON, VMAKind.FILE_SHARED
_DATA = FrameKind.DATA
_MINOR, _MAJOR, _COW = FaultType.MINOR, FaultType.MAJOR, FaultType.COW
_SIZE_4K, _SIZE_2M = PageSize.SIZE_4K, PageSize.SIZE_2M


@dataclasses.dataclass
class KernelConfig:
    thp_enabled: bool = True
    costs: KernelCosts = dataclasses.field(default_factory=KernelCosts)
    #: PCID namespace width; tests shrink it to exercise recycling
    #: without spawning 2**12 processes.
    pcid_bits: int = PCID_BITS


class PrivatePTPolicy:
    """Conventional Linux: private page tables, fork replicates the tree."""

    name = "private"

    def fork_tables(self, kernel, parent, child):
        """Deep-copy the parent's tables into the child, marking CoW.

        Returns the number of table pages the copy allocated (kernel work
        the paper's Section I calls "redundant").
        """
        before = child.tables.tables_allocated
        for vpn, level, _table, _index, pte in list(parent.tables.iter_leaves()):
            if not pte.present:
                continue
            vma = child.mm.find(vpn)
            clone = pte.clone()
            if vma is not None and vma.kind is not VMAKind.FILE_SHARED and pte.writable:
                # Write-protect both sides for CoW (lazy copy).
                pte.writable = False
                pte.cow = True
                clone.writable = False
                clone.cow = True
            child.tables.set_leaf(vpn, clone, leaf_level=level)
            kernel.allocator.incref(pte.ppn)
        return child.tables.tables_allocated - before

    def table_provider(self, kernel, proc, vma):
        """No shared tables in the conventional design."""
        return None

    def cow_break(self, kernel, proc, vma, vpn, table, index, pte):
        """Return None: use the kernel's default (private) CoW break."""
        return None

    def install_target(self, kernel, proc, vma, vpn, table, index,
                       private_content):
        """Where to install a new translation. Conventional tables are
        always private. Returns (table, index, extra_cycles)."""
        return table, index, 0

    def fill_info(self, proc, table, vpn):
        """(o_bit, orpc, pc_mask) for a TLB fill under the BabelFish-TLB
        ablation (TLB entry sharing over conventional private tables).

        Only translations that are guaranteed group-stable may be tagged
        shared (O=0): file-backed, non-CoW pages, whose frames the page
        cache dedups across the group. Anonymous pages and CoW-armed
        translations map per-process frames (or will, after the break) —
        tagging them shared would serve one container's private frame to
        another, so they carry Ownership.
        """
        index = table_index(vpn, table.level)
        entry = table.entries.get(index)
        if isinstance(entry, PTE) and entry.present \
                and entry.file is not None and not entry.cow:
            return False, False, 0
        return True, False, 0

    def on_tables_freed(self, kernel, tables):
        pass

    def on_process_exit(self, kernel, proc):
        """Reclaim policy-held per-process state (O-PC writer slots under
        BabelFish). Returns the TLB invalidations the reclamation needs;
        conventional tables hold no such state."""
        return []


class Kernel:
    def __init__(self, config=None, policy=None, allocator=None):
        self.config = config or KernelConfig()
        self.costs = self.config.costs
        self.policy = policy or PrivatePTPolicy()
        self.allocator = allocator or FrameAllocator()
        self.page_cache = PageCache(self.allocator)
        self.lru = ActiveInactiveLRU()
        self.processes = {}
        self.files = {}
        self.pcids = PCIDAllocator(self.config.pcid_bits)
        #: Callback applying kernel-initiated TLB invalidations (exit
        #: flushes, PCID-recycle shootdowns) to every core; wired by the
        #: simulator. None (no hardware attached) drops them — there are
        #: no TLBs to go stale.
        self.invalidation_sink = None
        #: Callback receiving the PPNs a teardown actually freed
        #: (refcount hit zero); the sanitizer quarantines them.
        self.on_frames_freed = None
        #: Optional :class:`repro.obs.tracer.Tracer` for lifecycle events.
        self.tracer = None
        # Aggregate counters.
        self.forks = 0
        self.fork_table_pages_copied = 0
        self.pte_pages_copied = 0  # BabelFish CoW pte-page copies
        self.shootdowns = 0

    # -- files ---------------------------------------------------------------

    def create_file(self, name, npages):
        file = FileObject(name, npages)
        self.files[file.fid] = file
        return file

    # -- process lifecycle ----------------------------------------------------

    def spawn(self, ccid, layout_group, layout_proc=None, name=""):
        pcid, recycled = self.pcids.allocate()
        proc = Process(self.allocator, ccid, layout_group, layout_proc,
                       name=name, pcid=pcid)
        self._admit(proc, recycled)
        return proc

    def fork(self, parent, layout_proc=None, name=""):
        """fork(): clone VMAs and page tables per the active policy.

        Returns ``(child, cycles)`` — the cycle cost covers the table
        replication work that BabelFish's sharing avoids.
        """
        pcid, recycled = self.pcids.allocate()
        child = Process(self.allocator, parent.ccid, parent.layout_group,
                        layout_proc or parent.layout_proc, parent=parent,
                        name=name, pcid=pcid)
        self._admit(child, recycled)
        parent.mm.clone_into(child.mm)
        copied = self.policy.fork_tables(self, parent, child)
        self.forks += 1
        self.fork_table_pages_copied += copied
        cycles = self.costs.fork_base + copied * self.costs.fork_per_table_page
        return child, cycles

    def _admit(self, proc, pcid_recycled):
        self.processes[proc.pid] = proc
        if pcid_recycled:
            # The PCID changed hands: flush any straggler entries of its
            # previous holder before the new process can match them
            # (Linux pairs ASID reuse with the same scoped flush).
            self._issue_invalidations(proc, [TLBInvalidation(
                0, InvalidationScope.PCID_FLUSH, pcid=proc.pcid,
                ccid=proc.ccid)])
        if self.tracer is not None:
            self.tracer.process_spawn(0, proc.pid, proc.pcid, proc.ccid,
                                      pcid_recycled)

    def exit_process(self, proc):
        """Tear down a process: shoot its translations out of every TLB,
        then release its frames and PCID.

        The ordering is the point: the PCID flush (the process's own
        entries), the policy's reclamation invalidations (stale PC-bitmask
        snapshots), and a group-wide shared flush for any shared tables
        this exit is about to free all go out *before* a single frame is
        decref'd — so there is no window in which a TLB can still
        translate through a freed (and possibly recycled) frame. Returns
        the freed table pages.
        """
        if proc.pid not in self.processes:
            return []  # already torn down
        proc.alive = False
        invalidations = [TLBInvalidation(
            0, InvalidationScope.PCID_FLUSH, pcid=proc.pcid,
            ccid=proc.ccid)]
        invalidations.extend(self.policy.on_process_exit(self, proc))
        if self._dooms_shared_tables(proc):
            invalidations.append(TLBInvalidation(
                0, InvalidationScope.CCID_SHARED, ccid=proc.ccid))
        self._issue_invalidations(proc, invalidations)
        freed_frames = []
        freed = self._teardown(proc.tables.pgd, freed_frames=freed_frames)
        self.policy.on_tables_freed(self, freed)
        self.processes.pop(proc.pid, None)
        self.pcids.release(proc.pcid)
        if self.on_frames_freed is not None and freed_frames:
            self.on_frames_freed(freed_frames)
        if self.tracer is not None:
            self.tracer.process_exit(0, proc.pid, proc.pcid, proc.ccid,
                                     len(invalidations))
        return freed

    def _dooms_shared_tables(self, proc):
        """Will tearing down ``proc`` free tables whose shared (O=0) TLB
        entries other group members could still translate through?"""
        return any(
            table.shared_key is not None and table.owned_by is None
            and table.sharers == 1
            for table in proc.tables.iter_tables())

    def _issue_invalidations(self, proc, invalidations):
        if not invalidations:
            return
        self.shootdowns += len(invalidations)
        if self.invalidation_sink is not None:
            self.invalidation_sink(proc, invalidations)

    def _teardown(self, table, freed=None, freed_frames=None):
        """Release a table page and, recursively, exclusively-owned
        children. ``freed_frames``, when given, collects the PPNs whose
        refcount actually reached zero (for the sanitizer's freed-frame
        quarantine)."""
        freed = freed if freed is not None else []
        for entry in table.entries.values():
            if isinstance(entry, TableRef):
                child = entry.table
                child.sharers -= 1
                if child.sharers == 0:
                    self._teardown(child, freed, freed_frames)
            elif isinstance(entry, PTE) and entry.present:
                if self.allocator.decref(entry.ppn) == 0 \
                        and freed_frames is not None:
                    freed_frames.append(entry.ppn)
        table.entries.clear()
        if self.allocator.decref(table.frame) == 0 \
                and freed_frames is not None:
            freed_frames.append(table.frame)
        freed.append(table)
        return freed

    # -- memory mapping ---------------------------------------------------------

    def mmap(self, proc, segment, page_offset, npages, kind, file=None,
             file_offset=0, writable=True, executable=False, huge_ok=False,
             name=""):
        """Map ``npages`` at ``segment + page_offset`` (group-space placement).

        Shareable (file-backed) mappings should be 512-page aligned in both
        offset and length so PTE-table sharing lines up; the workload
        builders take care of that.
        """
        start_vpn = proc.vpn_group(segment, page_offset)
        vma = VMA(start_vpn, npages, segment, kind, file, file_offset,
                  writable, executable, huge_ok, name)
        return proc.mm.add(vma)

    def munmap(self, proc, vma):
        """Unmap a VMA.

        Leaves in private tables are zapped and their frames released.
        When a whole shared table falls inside the range, the process
        *detaches*: its upper-level entry stops pointing at the table and
        the sharer counter drops (Section IV-B) — the translations live on
        for the remaining sharers. A partially-covered shared table is
        first privatized (the paper: processes cannot share a table while
        keeping only some of its pages). Returns the TLB invalidations the
        caller must apply.
        """
        proc.mm.remove(vma)
        invalidations = []
        freed_frames = []
        vpn = vma.start_vpn
        end = vma.end_vpn
        while vpn < end:
            path = proc.tables.walk(vpn)
            level, table, index, entry = path[-1]
            if not isinstance(entry, PTE):
                # Nothing mapped at this level: skip its coverage.
                shift = LEVEL_SHIFT[level]
                vpn = ((vpn >> shift) + 1) << shift
                continue
            shared = table.shared_key is not None and table.owned_by is None
            if shared:
                # The whole range the leaf's table covers.
                table_shift = LEVEL_SHIFT[level + 1]
                table_base = (vpn >> table_shift) << table_shift
                table_end = table_base + (1 << table_shift)
                if vma.start_vpn <= table_base and table_end <= end:
                    # Detach the whole shared table.
                    _plevel, parent, pindex, _ref = path[-2]
                    parent.entries.pop(pindex, None)
                    table.sharers -= 1
                    if table.sharers == 0:
                        # Last sharer: the table's translations die with
                        # it, and so must every shared (O=0) TLB entry
                        # the group still holds for its range.
                        invalidations.append(TLBInvalidation(
                            vpn, InvalidationScope.REGION_SHARED,
                            ccid=proc.ccid))
                        freed = self._teardown(table,
                                               freed_frames=freed_frames)
                        self.policy.on_tables_freed(self, freed)
                    invalidations.append(TLBInvalidation(
                        vpn, InvalidationScope.PROCESS,
                        pcid=proc.pcid, ccid=proc.ccid))
                    vpn = table_end
                    continue
                # Partial coverage: take a private copy, then zap from it.
                table, index, _extra = self.policy.install_target(
                    self, proc, vma, vpn, table, index,
                    private_content=True)
                entry = table.entries.get(index)
                if not isinstance(entry, PTE):
                    # The privatized (or reverted) table has no entry at
                    # this index — there is nothing to zap. Advance past
                    # the page explicitly: the seed code re-walked the
                    # same vpn here, reaching this spot again after one
                    # wasted walk per hole.
                    vpn += 1
                    continue
            # Record the shootdown before the frame can be released: if
            # the walk ever stops early, the batch must already name every
            # page whose frame a recycler could hand out.
            invalidations.append(TLBInvalidation(
                vpn, InvalidationScope.PROCESS,
                pcid=proc.pcid, ccid=proc.ccid))
            if entry.present:
                if self.allocator.decref(entry.ppn) == 0:
                    freed_frames.append(entry.ppn)
            table.entries.pop(index, None)
            vpn += entry.page_size.base_pages
        if self.on_frames_freed is not None and freed_frames:
            self.on_frames_freed(freed_frames)
        return invalidations

    # -- page faults ------------------------------------------------------------

    def handle_fault(self, proc, vpn, is_write=False):
        """Resolve a translation fault at ``vpn`` (group space).

        Mirrors the Linux flow: VMA lookup, path allocation (possibly
        attaching a shared table via the policy), then population or CoW.
        """
        vma = proc.mm.find(vpn)
        if vma is None:
            raise SegmentationFault(proc.pid, vpn)

        use_huge = self._use_huge(vma, vpn)
        lookup_vpn = vpn & ~(HUGE_PAGES - 1) if use_huge else vpn

        # A present, usable leaf may already exist (CoW break needed, or a
        # group member populated the shared table first).
        level, table, index, entry = proc.tables.leaf_slot(lookup_vpn)
        if isinstance(entry, PTE) and entry.present:
            return self._fault_on_present(proc, vma, lookup_vpn, table, index,
                                          entry, is_write)

        cycles = 0
        leaf_level = PMD if use_huge else PTE_LEVEL
        if level != leaf_level:
            # Some upper entry is missing: build the path, possibly
            # attaching a shared table. When the descent already reached
            # the leaf's table there is nothing to build or attach, so
            # ``ensure_path`` would return this very slot.
            if level == PMD:
                # A 4K table is about to hang off this PMD table, which
                # must not be one merged for 2MB pages and shared with
                # the group: the policy hands out a private copy first.
                _table, _index, cycles = self.policy.install_target(
                    self, proc, vma, lookup_vpn, table, index,
                    private_content=True)
            provider = self.policy.table_provider(self, proc, vma)
            table, index, allocated = proc.tables.ensure_path(
                lookup_vpn, leaf_level, provider)
            cycles += allocated * self.costs.table_alloc
            entry = table.entries.get(index)
            if isinstance(entry, PTE) and entry.present:
                # Attaching the shared table resolved the fault: the page
                # was populated by another container in the CCID group.
                outcome = self._fault_on_present(proc, vma, lookup_vpn,
                                                 table, index, entry,
                                                 is_write)
                outcome.cycles += cycles
                return outcome

        _vpn, pte, ftype, populate_cycles, _usable = self._populate(
            proc, vma, lookup_vpn, lookup_vpn + 1, table, index, is_write,
            use_huge)
        return FaultOutcome(ftype, cycles + populate_cycles, (), pte.ppn)

    def _fault_on_present(self, proc, vma, vpn, table, index, pte, is_write):
        if is_write and pte.cow:
            return self._cow_break(proc, vma, vpn, table, index, pte)
        if is_write and not pte.writable:
            raise ProtectionFault(proc.pid, vpn)
        proc.spurious_faults += 1
        pte.accessed = True
        if is_write:
            pte.dirty = True
        return FaultOutcome(FaultType.SPURIOUS, self.costs.minor_fault // 4,
                            ppn=pte.ppn)

    def _use_huge(self, vma, vpn):
        if not (self.config.thp_enabled and vma.huge_ok):
            return False
        if vma.kind.file_backed:
            return False  # THP supports only anonymous mappings (Sec VII-A)
        block = vpn & ~(HUGE_PAGES - 1)
        return block >= vma.start_vpn and block + HUGE_PAGES <= vma.end_vpn

    def _populate(self, proc, vma, vpn, end, table, index, is_write,
                  use_huge, lru_touch=None):
        """Install new translations for ``[vpn, end)`` into the absent
        slots of ``table`` from ``index`` on, stopping early at a slot
        that is already filled. Per page, in VPN order: the frame or
        page-cache calls, the PTE, the policy's install target and, with
        ``lru_touch``, the page's LRU touch.

        The one copy of the ANON / FILE_SHARED / FILE_PRIVATE branches:
        :meth:`handle_fault` passes one slot, :meth:`touch_range` a run
        inside one leaf table. The VMA's kind and everything it fixes
        (writability, CoW, backing file) are resolved once per call; the
        install target stays per page, because the policy may answer per
        VPN. With ``lru_touch``, a page the access cannot use (a write to
        a read-only page, or an install the policy redirected to another
        table) ends the call without its LRU touch.

        Counts each fault on the process once its install is done.
        Returns ``(vpn, pte, fault_type, cycles, usable)``: ``vpn`` is one
        past the last installed page, ``pte``, ``fault_type`` and
        ``usable`` describe that page, and ``cycles`` covers every
        install.
        """
        costs = self.costs
        minor_cycles = costs.minor_fault
        anon = vma.kind is _ANON
        if anon:
            alloc = self.allocator.alloc
            pages = HUGE_PAGES if use_huge else 1
            writable, cow, pte_file = vma.writable, False, None
            private_content = True
        else:
            incref = self.allocator.incref
            lookup = self.page_cache.lookup
            file = vma.file
            file_base = vma.file_offset - vma.start_vpn
            private_copy = False
            if vma.kind is _FILE_SHARED:
                writable, cow = vma.writable, False
            elif is_write:
                # Write fault on a private mapping: allocate the private
                # copy immediately.
                writable, cow = True, False
                private_copy = True
            else:  # FILE_PRIVATE read
                writable, cow = False, vma.writable
            pte_file = None if private_copy else file
            private_content = private_copy
        # Private content (anonymous pages; private copies of file pages)
        # must never be installed in a table shared with other group
        # members — they would see this process's private frame. Shareable
        # content must additionally match the shared table's registered
        # backing; the policy checks both, per page.
        install_target = self.policy.install_target
        usable = not is_write or writable
        executable = vma.executable
        size = _SIZE_2M if use_huge else _SIZE_4K
        entries = table.entries
        cycles = 0
        while True:
            if anon:
                ppn = alloc(_DATA, pages)
                ftype, page_cycles, file_index = _MINOR, minor_cycles, None
            else:
                file_index = file_base + vpn
                ppn = lookup(file, file_index)
                if ppn is None:
                    ppn = self.page_cache.fill(file, file_index)
                    ftype, page_cycles = _MAJOR, costs.major_fault
                else:
                    ftype, page_cycles = _MINOR, minor_cycles
                if private_copy:
                    ppn = self.allocator.alloc(_DATA)
                    ftype = _COW
                    page_cycles += costs.cow_extra
                    file_index = None
                else:
                    incref(ppn)
            # Positional: (ppn, present, writable, user, executable, cow,
            # page_size, file, file_index).
            pte = PTE(ppn, True, writable, True, executable, cow, size,
                      pte_file, file_index)
            pte.accessed = True
            pte.dirty = is_write
            installed, slot, extra = install_target(
                self, proc, vma, vpn, table, index, private_content)
            installed.entries[slot] = pte
            if ftype is _MINOR:
                proc.minor_faults += 1
            elif ftype is _MAJOR:
                proc.major_faults += 1
            else:
                proc.cow_faults += 1
            cycles += page_cycles + extra
            vpn += 1
            index += 1
            if lru_touch is not None:
                if installed is not table or not usable:
                    return vpn, pte, ftype, cycles, False
                lru_touch(ppn)
            if vpn == end or index in entries:
                return vpn, pte, ftype, cycles, usable

    def _cow_break(self, proc, vma, vpn, table, index, pte):
        """Write to a CoW page: delegate to the policy (shared tables),
        falling back to the conventional private break."""
        outcome = self.policy.cow_break(self, proc, vma, vpn, table, index, pte)
        if outcome is not None:
            proc.cow_faults += 1
            self.shootdowns += len(outcome.invalidations)
            return outcome
        outcome = self.default_cow_break(proc, vpn, table, index, pte)
        proc.cow_faults += 1
        return outcome

    def default_cow_break(self, proc, vpn, table, index, pte):
        """Conventional CoW: new private frame, write-protect lifted, own
        TLB entry shot down."""
        costs = self.costs
        pages = pte.page_size.base_pages
        new_ppn = self.allocator.alloc(FrameKind.DATA, pages=pages)
        self.allocator.decref(pte.ppn)
        pte.ppn = new_ppn
        pte.cow = False
        pte.writable = True
        pte.dirty = True
        pte.accessed = True
        pte.file = None
        pte.file_index = None
        copy_cost = costs.cow_extra * (8 if pages > 1 else 1)
        invalidation = TLBInvalidation(vpn, InvalidationScope.PROCESS,
                                       pcid=proc.pcid, ccid=proc.ccid)
        self.shootdowns += 1
        return FaultOutcome(
            FaultType.COW,
            costs.minor_fault + copy_cost + costs.tlb_shootdown,
            [invalidation], ppn=new_ppn)

    # -- software touch (warm-up / tests) ----------------------------------------

    def touch(self, proc, vpn, is_write=False):
        """Resolve ``vpn`` as if the process accessed it, without hardware
        timing: fault as many times as the hardware would retry. Returns
        the final usable PTE.

        The per-page entry point: tests, zygote image initialization, THP
        block touches and the warm-trace replay. The OS warm-up's
        sequential loops go through :meth:`touch_range`, which leaves the
        same state as a loop of ``touch`` calls."""
        return self._touch(proc, vpn, is_write, _TOUCH_ATTEMPTS)

    def _touch(self, proc, vpn, is_write, attempts):
        """``touch`` with ``attempts`` lookups left; :meth:`touch_range`
        resumes here, one attempt spent, after a fault it served itself."""
        for _ in range(attempts):
            pte = proc.tables.lookup_pte(vpn)
            if pte is not None and pte.present:
                if not is_write or (pte.writable and not pte.cow):
                    pte.accessed = True
                    if is_write:
                        pte.dirty = True
                    self.lru.touch(pte.ppn)
                    return pte
            self.handle_fault(proc, vpn, is_write)
        raise TouchDidNotConverge(proc.pid, vpn)

    def touch_range(self, proc, vpn, count, is_write=False):
        """``touch`` every page of ``[vpn, vpn + count)`` in VPN order.

        Leaves exactly the state the per-page loop would: the same
        frame-allocator, page-cache, LRU and policy calls in the same
        order, the same fault counters, the same exception at the same
        page. The range splits into runs that end at a 512-VPN leaf-table
        boundary, the VMA end or the range end; each run resolves its
        VMA, THP verdict and leaf table once. Then, per slot:

        - a run of absent slots is populated by one :meth:`_populate`
          call, which resolves the VMA kind once and touches each page
          it installs;
        - a present, usable PTE gets its accessed/dirty bits and an LRU
          touch;
        - anything else (no VMA, a THP block, a missing upper level or a
          shared-table attach, CoW, a protection fault, an install the
          policy redirected to another table) goes through the per-page
          :meth:`touch` loop for that page, one lookup fewer if this path
          already served a fault there, and the leaf slot is resolved
          again.
        """
        end = vpn + count
        find = proc.mm.find
        leaf_slot = proc.tables.leaf_slot
        lru_touch = self.lru.touch
        populate = self._populate
        while vpn < end:
            run_end = min(end, (vpn | (HUGE_PAGES - 1)) + 1)
            vma = find(vpn)
            if vma is None or self._use_huge(vma, vpn):
                for page in range(vpn, run_end):
                    self.touch(proc, page, is_write)
                vpn = run_end
                continue
            run_end = min(run_end, vma.end_vpn)
            level, table, index, _entry = leaf_slot(vpn)
            while vpn < run_end:
                attempts = _TOUCH_ATTEMPTS
                if level == PTE_LEVEL:
                    entry = table.entries.get(index)
                    if entry is None:
                        stop, _pte, _ftype, _cycles, usable = populate(
                            proc, vma, vpn, run_end, table, index, is_write,
                            False, lru_touch)
                        if usable:
                            index += stop - vpn
                            vpn = stop
                            continue
                        # The last install's fault spent that page's first
                        # lookup.
                        vpn = stop - 1
                        attempts -= 1
                    elif entry.present and (not is_write or (
                            entry.writable and not entry.cow)):
                        entry.accessed = True
                        if is_write:
                            entry.dirty = True
                        lru_touch(entry.ppn)
                        vpn += 1
                        index += 1
                        continue
                self._touch(proc, vpn, is_write, attempts)
                vpn += 1
                level, table, index, _entry = leaf_slot(vpn)

    # -- statistics ----------------------------------------------------------------

    @property
    def total_minor_faults(self):
        return sum(p.minor_faults for p in self.processes.values())

    @property
    def total_major_faults(self):
        return sum(p.major_faults for p in self.processes.values())

    @property
    def total_cow_faults(self):
        return sum(p.cow_faults for p in self.processes.values())

    def reset_fault_counters(self):
        for proc in self.processes.values():
            proc.minor_faults = 0
            proc.major_faults = 0
            proc.cow_faults = 0
            proc.spurious_faults = 0

    def clear_accessed_bits(self):
        """Age all pages (kswapd-style); Figure 9's 'active' measurement
        counts pte_ts re-referenced after this. A table that processes
        share is cleared once, not once per sharer."""
        seen = set()
        for proc in self.processes.values():
            for table in proc.tables.iter_tables(seen=seen):
                for entry in table.entries.values():
                    if isinstance(entry, PTE):
                        entry.accessed = False
        self.lru.reset()
