"""Test-only oracle for the range-resolved OS warm-up.

``per_page_os_warmup`` is the OS warm-up as it was before
``Kernel.touch_range``: every page of every sequential loop goes through
``Kernel.touch`` on its own. ``kernel_state`` renders everything a warm-up
can change into plain, comparable data, so a per-page leg and a range leg
on two identical kernels can be checked for equality.

Two kernels built in one test process draw pids and file ids from
process-wide counters, so the snapshot names processes by their position
in ``kernel.processes`` and files by name.
"""

from repro.experiments.common import _make_trace
from repro.kernel.page_table import PTE
from repro.kernel.vma import SegmentKind


def per_page_os_warmup(env, deployment):
    """``_os_warmup`` with one ``Kernel.touch`` per page."""
    touch = env.kernel.touch
    profile = deployment.profile
    for container in deployment.containers:
        proc = container.proc
        layout = proc.layout_group
        heap = layout.base(SegmentKind.HEAP)
        for page in range(profile.private_pages):
            touch(proc, heap + page, is_write=True)
        if profile.thp_blocks:
            for block in range(profile.thp_blocks):
                touch(proc, heap + container.thp_offset + block * 512,
                      is_write=True)
        mmap = layout.base(SegmentKind.MMAP)
        for page in range(int(profile.dataset_pages * profile.warm_coverage)):
            touch(proc, mmap + page)
        binary_pages = profile.image.binary_pages
        if binary_pages:
            code = layout.base(SegmentKind.CODE)
            for page in range(profile.code_hot):
                touch(proc, code + page % binary_pages)
        lib_pages = profile.image.lib_pages
        if lib_pages:
            libs = layout.base(SegmentKind.LIBS)
            for page in range(profile.lib_hot):
                touch(proc, libs + page % lib_pages)
        warm_trace = _make_trace(profile, container.index,
                                 requests=max(
                                     1, int(profile.requests * profile.warm_fraction)),
                                 tag=False, seed_offset=900_000)
        vpn = layout.vpn
        for kind, segment, page, _line, _gap, _rid in warm_trace:
            touch(proc, vpn(segment, page), is_write=kind == 2)


def _pte_state(pte, file_names):
    return (pte.ppn, pte.present, pte.writable, pte.user, pte.executable,
            pte.cow, pte.dirty, pte.accessed, pte.page_size.name,
            None if pte.file is None else file_names[pte.file.fid],
            pte.file_index)


def kernel_state(kernel):
    """Everything the fault path and the warm-up touch, as plain data."""
    procs = list(kernel.processes.values())
    position = {proc.pid: i for i, proc in enumerate(procs)}
    file_names = {fid: file.name for fid, file in kernel.files.items()}
    allocator = kernel.allocator
    page_cache = kernel.page_cache
    lru = kernel.lru
    state = {
        "allocator": {
            "next": allocator._next,
            "free": list(allocator._free),
            "refcount": sorted(allocator._refcount.items()),
            "kind": sorted((ppn, kind.name)
                           for ppn, kind in allocator._kind.items()),
            "blocks": sorted(allocator._block_pages.items()),
            "by_kind": sorted((kind.name, n) for kind, n
                              in allocator.allocated_by_kind.items()),
            "allocated": allocator.allocated,
            "peak": allocator.peak_allocated,
        },
        "page_cache": sorted((file_names[fid], index, ppn)
                             for (fid, index), ppn
                             in page_cache._pages.items()),
        # First-touch order and each page's active flag.
        "lru": list(lru._refs.items()),
        "kernel": (kernel.forks, kernel.fork_table_pages_copied,
                   kernel.pte_pages_copied, kernel.shootdowns),
        "processes": [],
    }
    for proc in procs:
        tables = sorted(
            (table.level, table.frame, table.sharers,
             None if table.owned_by is None else position.get(table.owned_by),
             table.shared_key, table.orpc, len(table.entries))
            for table in proc.tables.iter_tables())
        leaves = sorted(
            (vpn, level, table.frame, index, _pte_state(pte, file_names))
            for vpn, level, table, index, pte in proc.tables.iter_leaves()
            if isinstance(pte, PTE))
        state["processes"].append({
            "faults": (proc.minor_faults, proc.major_faults, proc.cow_faults,
                       proc.spurious_faults),
            "tables_allocated": proc.tables.tables_allocated,
            "pc_bits": sorted(proc.pc_bits.items()),
            "tables": tables,
            "leaves": leaves,
        })
    policy = kernel.policy
    if hasattr(policy, "registry"):
        state["shared_pt"] = {
            "attaches": policy.attaches,
            "registrations": policy.registrations,
            "cow_private_copies": policy.cow_private_copies,
            "reverts": policy.reverts,
            "registry": sorted(
                (key, table.frame, file_names.get(backing[0]), backing[1])
                for key, (table, backing) in policy.registry.items()),
        }
    return state
