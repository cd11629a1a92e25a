"""The dataflow framework (CFG/dominators) and the BF4xx/BF5xx/BF6xx
rule families.

The rule tests are *seeded mutations*: each fixture reproduces a real
bug class from the repo's history (the PR 4 missed epoch bump, the PR 5
free-before-shootdown window, a worker writing module state) and must be
flagged by its family, while the corrected variant must lint clean.
"""

import ast
import pathlib
import textwrap

from repro.analysis.lint.cfg import (
    FunctionCFG,
    ModuleIndex,
    function_statements,
)
from repro.analysis.lint.engine import LintEngine
from repro.hw import tlb as tlb_module


def lint(source, path):
    return LintEngine().lint_source(textwrap.dedent(source), path=path)


def rule_ids(findings):
    return [f.rule_id for f in findings]


def build_cfg(source, name="f"):
    tree = ast.parse(textwrap.dedent(source))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)
    cfg = FunctionCFG(func)
    by_line = {s.lineno: s for s in cfg.statements()}
    return cfg, by_line


class TestFunctionCFG:
    def test_diamond_dominance(self):
        cfg, line = build_cfg(
            """\
            def f(x):
                a = 1
                if x:
                    b = 2
                else:
                    c = 3
                d = 4
            """)
        assert cfg.dominates(line[2], line[7])       # a= before d= always
        assert cfg.dominates(line[2], line[4])       # a= before b=
        assert not cfg.dominates(line[4], line[7])   # else path skips b=
        assert cfg.postdominates(line[7], line[4])   # d= after b= always
        assert cfg.postdominates(line[7], line[6])
        assert not cfg.postdominates(line[4], line[2])
        assert cfg.covers(line[7], line[4])

    def test_same_block_is_textual_order(self):
        cfg, line = build_cfg(
            """\
            def f():
                a = 1
                b = 2
            """)
        assert cfg.dominates(line[2], line[3])
        assert not cfg.dominates(line[3], line[2])
        assert cfg.postdominates(line[3], line[2])

    def test_loop_zero_iteration_path(self):
        cfg, line = build_cfg(
            """\
            def f(items):
                total = 0
                for item in items:
                    total += 1
                return total
            """)
        assert cfg.dominates(line[2], line[5])
        # The body may never run: it cannot dominate the return...
        assert not cfg.dominates(line[4], line[5])
        # ...but the return still postdominates the body.
        assert cfg.postdominates(line[5], line[4])

    def test_break_escapes_postdomination_of_loop_header(self):
        cfg, line = build_cfg(
            """\
            def f(items):
                found = None
                for item in items:
                    if item:
                        found = item
                        break
                return found
            """)
        assert cfg.postdominates(line[7], line[5])
        assert not cfg.dominates(line[5], line[7])

    def test_try_handler_paths(self):
        cfg, line = build_cfg(
            """\
            def f(path):
                data = None
                try:
                    data = read(path)
                except OSError:
                    data = ""
                return data
            """)
        # The body assignment is not guaranteed (the handler path), but
        # the return runs on both.
        assert not cfg.dominates(line[4], line[7])
        assert cfg.postdominates(line[7], line[4])
        assert cfg.postdominates(line[7], line[6])

    def test_early_return_kills_postdomination(self):
        cfg, line = build_cfg(
            """\
            def f(x):
                if x:
                    return 0
                y = 1
                return y
            """)
        assert not cfg.postdominates(line[4], line[2])
        assert not cfg.dominates(line[4], line[5]) or True  # same path
        assert cfg.dominates(line[2], line[4])

    def test_function_statements_skip_nested_defs(self):
        tree = ast.parse(textwrap.dedent(
            """\
            def outer():
                x = 1
                def inner():
                    y = 2
                return x
            """))
        outer = tree.body[0]
        lines = [s.lineno for s in function_statements(outer)]
        assert 2 in lines and 5 in lines
        assert 4 not in lines  # inner body is a separate scope


class TestModuleIndex:
    SOURCE = """\
        def helper():
            return 1

        class Base:
            def bump(self):
                self.epoch += 1

        class Fast(Base):
            def touch(self):
                self.bump()
                helper()
        """

    def make(self):
        tree = ast.parse(textwrap.dedent(self.SOURCE))
        return tree, ModuleIndex(tree)

    def test_method_resolution_follows_local_bases(self):
        tree, index = self.make()
        fast = index.classes["Fast"]
        touch = index.methods_of(fast)["touch"]
        calls = [n for n in ast.walk(touch) if isinstance(n, ast.Call)]
        targets = {index.resolve_call(c, fast) for c in calls}
        assert index.methods_of(fast)["bump"] in targets
        assert index.functions["helper"] in targets

    def test_iter_functions_covers_methods(self):
        tree, index = self.make()
        names = {f.name for f, _cls in index.iter_functions()}
        assert names == {"helper", "bump", "touch"}


HW_PATH = "src/repro/hw/fixture.py"
KERNEL_PATH = "src/repro/kernel/fixture.py"
EXP_PATH = "src/repro/experiments/fixture.py"

FAST_TWIN_HEADER = textwrap.dedent("""\
    class FastTLB:
        def __init__(self):
            self._buckets = [dict() for _ in range(4)]
            self._set_epochs = [0, 0, 0, 0]
            self.epoch = 0
    """)


def fast_twin(method_source):
    """The TLB fixture class with ``method_source`` as a method."""
    body = textwrap.indent(textwrap.dedent(method_source), "    ")
    return FAST_TWIN_HEADER + "\n" + body


class TestEpochCoverageBF401:
    def test_seeded_mutation_deleted_bump_is_flagged(self):
        # The seeded mutation: insert lands in the backing store with the
        # epoch bump deleted. The memo would replay a stale translation.
        assert lint(FAST_TWIN_HEADER, HW_PATH) == []  # header is clean

        findings = lint(fast_twin("""\
            def insert(self, index, vpn, entry):
                self._buckets[index][vpn] = entry
            """), HW_PATH)
        assert rule_ids(findings) == ["BF401"]
        assert "_buckets" in findings[0].message

    def test_bumped_insert_is_clean(self):
        findings = lint(fast_twin("""\
            def insert(self, index, vpn, entry):
                self._buckets[index][vpn] = entry
                self._set_epochs[index] += 1
            """), HW_PATH)
        assert findings == []

    def test_pop_result_guarded_bump_is_flagged(self):
        # The PR 4 bug shape: the bump only runs when the pop result
        # tests truthy, and a set stores None values.
        findings = lint(fast_twin("""\
            def invalidate(self, index, tag):
                popped = self._buckets[index].pop(tag, None)
                if popped is not None:
                    self.epoch += 1
            """), HW_PATH)
        assert rule_ids(findings) == ["BF401"]

    def test_counter_guarded_batch_flush_is_clean(self):
        # The removed-counter idiom: the mutation's own block proves the
        # flag truthy and the flag-guarded bump postdominates.
        findings = lint(fast_twin("""\
            def flush(self):
                removed = 0
                for index in range(4):
                    bucket = self._buckets[index]
                    if bucket:
                        removed += 1
                        bucket.clear()
                if removed:
                    self.epoch += 1
                return removed
            """), HW_PATH)
        assert findings == []

    def test_unbumped_lru_insert_is_flagged(self):
        # A fast TLB set's recency dict is its membership store: an
        # entry added there without a set-epoch bump is the same bug.
        findings = lint(fast_twin("""\
            def insert(self, index, entry):
                lru = self._lru[index]
                lru[entry] = None
            """), HW_PATH)
        assert rule_ids(findings) == ["BF401"]
        assert "lru" in findings[0].message

    def test_bumped_lru_insert_and_restamp_are_clean(self):
        findings = lint(fast_twin("""\
            def insert(self, index, entry):
                self._lru[index][entry] = None
                self._set_epochs[index] += 1

            def touch(self, index, entry):
                lru = self._lru[index]
                del lru[entry]
                lru[entry] = None
            """), HW_PATH)
        assert findings == []

    def test_lru_outside_tlb_classes_is_not_guarded(self):
        findings = lint("""\
            class FastCache:
                def __init__(self):
                    self._lru = [dict() for _ in range(4)]
                    self.epoch = 0

                def touch(self, index, tag):
                    self._lru[index][tag] = None
            """, HW_PATH)
        assert findings == []

    def test_classes_without_epoch_machinery_are_out_of_scope(self):
        findings = lint("""\
            class PlainBag:
                def __init__(self):
                    self._buckets = {}

                def insert(self, key, value):
                    self._buckets[key] = value
            """, HW_PATH)
        assert findings == []


TLB_PATH = "src/repro/hw/tlb.py"
TLB_BUMP = "self._set_epochs[index] += 1"


def _tlb_bump_mutants():
    """The real ``repro/hw/tlb.py`` with one set-epoch bump at a time
    replaced by ``pass`` (a bare deletion would leave an ``if removed:``
    block empty), as ``(SetAssocTLB method that lost the bump, source)``."""
    source = pathlib.Path(tlb_module.__file__).read_text()
    tree = ast.parse(source)
    tlb_class = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "SetAssocTLB")
    methods = [node for node in tlb_class.body
               if isinstance(node, ast.FunctionDef)]
    lines = source.splitlines(keepends=True)
    mutants = []
    for lineno, text in enumerate(lines, 1):
        if text.strip() != TLB_BUMP:
            continue
        method = next(m for m in methods
                      if m.lineno <= lineno <= m.end_lineno)
        mutated = lines[:]
        mutated[lineno - 1] = text.replace(TLB_BUMP, "pass")
        mutants.append((method, "".join(mutated)))
    return mutants


class TestEpochCoverageRealTLB:
    """BF401 on the production TLB, the one ``hw/`` class that carries
    epochs: the file lints clean, and each set-epoch bump is load-bearing
    for the rule."""

    def test_real_tlb_lints_clean(self):
        source = pathlib.Path(tlb_module.__file__).read_text()
        assert lint(source, TLB_PATH) == []

    def test_each_deleted_bump_is_flagged_in_its_method(self):
        mutants = _tlb_bump_mutants()
        # insert's overwrite and fill paths, invalidate, flush.
        assert [method.name for method, _source in mutants] == [
            "insert", "insert", "invalidate", "flush"]
        for method, source in mutants:
            findings = lint(source, TLB_PATH)
            assert findings
            assert set(rule_ids(findings)) == {"BF401"}
            # Each uncovered store mutation is its own finding; all of
            # them sit in the method that lost its bump.
            for finding in findings:
                assert method.lineno <= finding.line <= method.end_lineno
                assert "SetAssocTLB.%s()" % method.name in finding.message


class TestTeardownOrderBF501:
    def test_seeded_free_before_shootdown_is_flagged(self):
        # The PR 5 bug shape: frames released while a stale TLB entry
        # can still translate to them.
        findings = lint("""\
            class Kernel:
                def exit_process(self, proc):
                    for frame in proc.frames:
                        if self.allocator.decref(frame) == 0:
                            self.freed.append(frame)
                    self.invalidation_sink([("pcid", proc.pcid)])
            """, KERNEL_PATH)
        assert rule_ids(findings) == ["BF501"]

    def test_shootdown_before_free_is_clean(self):
        findings = lint("""\
            class Kernel:
                def exit_process(self, proc):
                    self.invalidation_sink([("pcid", proc.pcid)])
                    for frame in proc.frames:
                        if self.allocator.decref(frame) == 0:
                            self.freed.append(frame)
            """, KERNEL_PATH)
        assert findings == []

    def test_recorded_batch_counts_as_invalidation(self):
        findings = lint("""\
            class Kernel:
                def zap(self, proc, vpn, entry):
                    invalidations = []
                    invalidations.append(TLBInvalidation(vpn, proc.pcid))
                    self.allocator.decref(entry.ppn)
                    return invalidations
            """, KERNEL_PATH)
        assert findings == []

        findings = lint("""\
            class Kernel:
                def zap(self, proc, vpn, entry):
                    invalidations = []
                    self.allocator.decref(entry.ppn)
                    invalidations.append(TLBInvalidation(vpn, proc.pcid))
                    return invalidations
            """, KERNEL_PATH)
        assert rule_ids(findings) == ["BF501"]

    def test_free_only_functions_are_out_of_scope(self):
        # Whether an invalidation is *required* is the runtime
        # sanitizer's question; the rule only checks ordering.
        findings = lint("""\
            class Kernel:
                def _teardown_table(self, table):
                    for entry in table.entries.values():
                        self.allocator.decref(entry.ppn)
            """, KERNEL_PATH)
        assert findings == []


class TestParallelSafetyBF601:
    def test_seeded_worker_global_write_is_flagged(self):
        findings = lint("""\
            RESULTS = {}

            def _worker(item):
                RESULTS[item] = item * 2
                return item

            def run(pool, items):
                futures = [pool.submit(_worker, item) for item in items]
                return [f.result() for f in futures]
            """, EXP_PATH)
        assert rule_ids(findings) == ["BF601"]
        assert "RESULTS" in findings[0].message

    def test_global_rebind_in_worker_is_flagged(self):
        findings = lint("""\
            TOTAL = 0

            def _worker(item):
                global TOTAL
                TOTAL += item
                return item

            def run(pool, items):
                return [pool.submit(_worker, item) for item in items]
            """, EXP_PATH)
        assert rule_ids(findings) == ["BF601"]

    def test_worker_returning_values_is_clean(self):
        findings = lint("""\
            def _worker(item):
                local = {}
                local[item] = item * 2
                return local

            def run(pool, items):
                return [pool.submit(_worker, item) for item in items]
            """, EXP_PATH)
        assert findings == []

    def test_initializer_subtree_is_exempt(self):
        # Configuring worker-local state is what initializers are for.
        findings = lint("""\
            HANDLE = None

            def _configure(path):
                global HANDLE
                HANDLE = path

            def make_pool(executor, path):
                return executor(initializer=_configure,
                                initargs=(path,))
            """, EXP_PATH)
        assert findings == []

    def test_transitive_callee_of_worker_is_checked(self):
        findings = lint("""\
            CACHE = {}

            def _store(key, value):
                CACHE[key] = value

            def _worker(item):
                _store(item, item * 2)
                return item

            def run(pool, items):
                return [pool.submit(_worker, item) for item in items]
            """, EXP_PATH)
        assert rule_ids(findings) == ["BF601"]

    def test_dispatch_roots_marker_seeds_reachability(self):
        # Modules whose entry points are dispatched from elsewhere (the
        # serve worker's worker_main, started in a child process by the
        # pool) opt in via a top-level DISPATCH_ROOTS tuple.
        findings = lint("""\
            DISPATCH_ROOTS = ("worker_main",)
            TOTALS = {}

            def _fold(key, count):
                TOTALS[key] = TOTALS.get(key, 0) + count

            def worker_main(sim, core_id, proc):
                _fold(core_id, 1)
                return 0
            """, EXP_PATH)
        assert rule_ids(findings) == ["BF601"]
        assert "TOTALS" in findings[0].message

    def test_dispatch_roots_marker_clean_module(self):
        findings = lint("""\
            DISPATCH_ROOTS = ("worker_main",)

            def worker_main(sim, core_id, proc):
                folds = {}
                folds[core_id] = 1
                return folds
            """, EXP_PATH)
        assert findings == []

    def test_dispatch_roots_marker_ignores_unknown_names(self):
        findings = lint("""\
            DISPATCH_ROOTS = ("not_defined_here", 42)

            def helper(x):
                return x
            """, EXP_PATH)
        assert findings == []

    def test_dispatch_roots_marker_seeds_async_handler(self):
        # The serving daemon's connection handler is an async function
        # dispatched by asyncio.start_server, never called by name from
        # this module — DISPATCH_ROOTS must seed async defs too.
        findings = lint("""\
            DISPATCH_ROOTS = ("handle_connection",)
            SESSIONS = {}

            async def handle_connection(reader, writer):
                SESSIONS[id(writer)] = reader
                return None
            """, EXP_PATH)
        assert rule_ids(findings) == ["BF601"]
        assert "SESSIONS" in findings[0].message


class TestUnorderedFoldBF602:
    def test_set_iteration_in_dispatching_function_is_flagged(self):
        findings = lint("""\
            def fold(pool, items, work):
                out = []
                for item in set(items):
                    out.append(pool.submit(work, item))
                return out
            """, EXP_PATH)
        assert rule_ids(findings) == ["BF602"]

    def test_popitem_in_fold_is_flagged(self):
        findings = lint("""\
            def drain(pool, jobs, run_one):
                results = {}
                for job in jobs:
                    results[job] = pool.submit(run_one, job)
                out = []
                while results:
                    key, fut = results.popitem()
                    out.append((key, fut.result()))
                return out
            """, EXP_PATH)
        assert rule_ids(findings) == ["BF602"]

    def test_keyed_fold_is_clean(self):
        findings = lint("""\
            def fold(pool, items, work):
                futures = {}
                for item in items:
                    futures[item] = pool.submit(work, item)
                return [futures[item].result() for item in items]
            """, EXP_PATH)
        assert findings == []

    def test_functions_without_dispatch_are_out_of_scope(self):
        # BF602 scopes to the fan-out/fold layer; plain experiments code
        # stays under BF203's (sim-only) jurisdiction.
        findings = lint("""\
            def summarize(rows):
                return [r for r in set(rows)]
            """, EXP_PATH)
        assert findings == []

    def test_dispatch_roots_marker_brings_folds_in_scope(self):
        findings = lint("""\
            DISPATCH_ROOTS = ("worker_main",)

            def worker_main(sim, touched):
                total = 0
                for key in set(touched):
                    total += touched[key]
                return total
            """, EXP_PATH)
        assert rule_ids(findings) == ["BF602"]
