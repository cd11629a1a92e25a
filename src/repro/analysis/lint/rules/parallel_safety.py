"""BF601/BF602: parallel-safety of worker-dispatched code.

The runner fans work out over a ``ProcessPoolExecutor``
(``runner.execute`` / ``runner.parallel_map``), and the ROADMAP's next
steps (the serving daemon, sharded cloud-node runs) multiply the number
of dispatch sites. Two properties keep ``--jobs N`` bit-identical to
sequential:

- **BF601 — workers must not write module globals.** A worker process
  mutates its *own* copy of module state; the parent never sees it, so
  a fold accumulated in a global is silently empty (or, with ``fork``
  start methods, nondeterministically partial). Functions reachable
  from a dispatch site (``pool.submit(fn, ...)``, ``parallel_map(fn,
  ...)``) must not ``global``-rebind names or mutate module-level
  containers. Pool *initializer* functions (``initializer=...``) are
  exempt along with their exclusive callees: configuring worker-local
  state (the disk-cache handle) is exactly what initializers are for.
- **BF602 — folds must not iterate unordered collections.** Results
  coming back via ``as_completed`` already arrive in nondeterministic
  order; merges stay deterministic only because they key results by
  request. Iterating a ``set`` (or calling ``dict.popitem()``) inside a
  dispatching function or a worker-reachable function makes the folded
  output depend on hash seeds and arrival order — the same class of bug
  BF203 bans inside the simulator, extended here to the fan-out/fold
  layer.

Reachability is module-local (the engine lints files independently):
roots are the function names passed to ``submit``/``parallel_map``/
``initializer=`` in this module, plus any functions named by a
top-level ``DISPATCH_ROOTS = ("fn", ...)`` marker — the opt-in for
modules whose entry points are dispatched from *elsewhere* (e.g.
``repro.serve.worker.worker_main``, started in a child process by the
serve pool: without the marker the module-local root scan cannot see
it). Edges follow
:meth:`repro.analysis.lint.cfg.ModuleIndex.resolve_call`. Cross-module
workers (e.g. ``common.run_app``) are out of scope here; each module's
own dispatch sites cover its own workers.
"""

import ast

from repro.analysis.lint.cfg import (
    ModuleIndex,
    assigned_names,
    function_statements,
)
from repro.analysis.lint.engine import LintRule
from repro.analysis.lint.rules.determinism import _is_set_expr
from repro.analysis.lint.rules.epochs import MUTATORS, _own_calls

#: Call attribute names that dispatch a function to a worker process.
_DISPATCH_ATTRS = frozenset({"submit"})
_DISPATCH_NAMES = frozenset({"parallel_map"})

#: Top-level marker naming functions dispatched from outside the module.
_ROOTS_MARKER = "DISPATCH_ROOTS"


def _marker_roots(tree, index):
    """Functions named by a top-level ``DISPATCH_ROOTS`` tuple/list of
    string constants (unresolvable names are ignored)."""
    roots = set()
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == _ROOTS_MARKER
                   for t in stmt.targets):
            continue
        if isinstance(stmt.value, (ast.Tuple, ast.List)):
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) \
                        and isinstance(elt.value, str):
                    target = index.functions.get(elt.value)
                    if target is not None:
                        roots.add(target)
    return roots


def _call_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _module_globals(tree):
    """Names bound at module top level (candidates for shared-state
    mutation)."""
    names = set()
    for stmt in tree.body:
        names |= assigned_names(stmt)
    return names


class ParallelSafetyRule(LintRule):
    rule_id = "BF601"
    description = ("functions dispatched to pool workers must not write "
                   "module-level globals (worker writes never reach the "
                   "parent)")

    def applies_to(self, module):
        return not module.is_test

    def check_module(self, tree, ctx):
        index = ModuleIndex(tree)
        dispatch_roots, init_roots = self._roots(index)
        dispatch_roots |= _marker_roots(tree, index)
        if not dispatch_roots and not init_roots:
            return
        reachable = self._reachable(dispatch_roots, index)
        exempt = self._reachable(init_roots, index) - reachable
        module_names = _module_globals(tree)
        for func in sorted(reachable, key=lambda f: f.lineno):
            if func in exempt:
                continue
            self._check_worker(func, index, module_names, ctx)

    # -- dispatch discovery ------------------------------------------------

    def _roots(self, index):
        dispatch, init = set(), set()
        for func, cls in index.iter_functions():
            for stmt in function_statements(func):
                for call in _own_calls(stmt):
                    name = _call_name(call)
                    target = None
                    if name in _DISPATCH_ATTRS or name in _DISPATCH_NAMES:
                        if call.args and isinstance(call.args[0], ast.Name):
                            target = index.functions.get(call.args[0].id)
                        if target is not None:
                            dispatch.add(target)
                    for keyword in call.keywords:
                        if keyword.arg == "initializer" \
                                and isinstance(keyword.value, ast.Name):
                            target = index.functions.get(keyword.value.id)
                            if target is not None:
                                init.add(target)
        return dispatch, init

    def _reachable(self, roots, index):
        seen = set(roots)
        stack = list(roots)
        while stack:
            func = stack.pop()
            cls = self._owner_of(func, index)
            for stmt in function_statements(func):
                for call in _own_calls(stmt):
                    callee = index.resolve_call(call, cls)
                    if callee is not None and callee not in seen:
                        seen.add(callee)
                        stack.append(callee)
        return seen

    @staticmethod
    def _owner_of(func, index):
        for candidate, cls in index.iter_functions():
            if candidate is func:
                return cls
        return None

    # -- worker checks -----------------------------------------------------

    def _check_worker(self, func, index, module_names, ctx):
        declared_global = set()
        params = {a.arg for a in func.args.args + func.args.kwonlyargs}
        if func.args.vararg:
            params.add(func.args.vararg.arg)
        if func.args.kwarg:
            params.add(func.args.kwarg.arg)
        locals_bound = set(params)
        stmts = function_statements(func)
        for stmt in stmts:
            if isinstance(stmt, ast.Global):
                declared_global.update(stmt.names)
            else:
                locals_bound |= assigned_names(stmt)
        locals_bound -= declared_global
        for stmt in stmts:
            self._check_statement(stmt, func, declared_global,
                                  module_names - locals_bound, ctx)

    def _check_statement(self, stmt, func, declared_global, globals_visible,
                         ctx):
        # Rebinding through an explicit `global` declaration.
        rebinding = assigned_names(stmt) & declared_global \
            if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)) \
            else set()
        for name in sorted(rebinding):
            ctx.report(stmt,
                       "worker function %s() rebinds module global '%s'; "
                       "the write stays in the worker process and never "
                       "reaches the parent — return the value instead"
                       % (func.name, name))
        # In-place mutation of a module-level container.
        for call in _own_calls(stmt):
            cfunc = call.func
            if isinstance(cfunc, ast.Attribute) and cfunc.attr in MUTATORS \
                    and isinstance(cfunc.value, ast.Name) \
                    and cfunc.value.id in globals_visible:
                ctx.report(stmt,
                           "worker function %s() mutates module-level "
                           "container '%s'; worker-side mutations are "
                           "invisible to the parent — return results and "
                           "fold them in the dispatching process"
                           % (func.name, cfunc.value.id))
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        for target in targets:
            if isinstance(target, ast.Subscript) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id in globals_visible:
                ctx.report(stmt,
                           "worker function %s() stores into module-level "
                           "container '%s'; worker-side writes are invisible "
                           "to the parent — return results instead"
                           % (func.name, target.value.id))


class UnorderedFoldRule(LintRule):
    rule_id = "BF602"
    description = ("worker folds must not depend on unordered iteration: "
                   "no set iteration or dict.popitem() in dispatching or "
                   "worker-reachable functions")

    def applies_to(self, module):
        return not module.is_test

    def check_module(self, tree, ctx):
        index = ModuleIndex(tree)
        safety = ParallelSafetyRule()
        dispatch_roots, init_roots = safety._roots(index)
        dispatch_roots |= _marker_roots(tree, index)
        scope = set(safety._reachable(dispatch_roots, index))
        # The fold side lives in the functions that dispatch or drain
        # as_completed — include them.
        for func, cls in index.iter_functions():
            for stmt in function_statements(func):
                for call in _own_calls(stmt):
                    if _call_name(call) in ("as_completed", "submit",
                                            "parallel_map"):
                        scope.add(func)
        for func in sorted(scope, key=lambda f: f.lineno):
            self._check_function(func, ctx)

    def _check_function(self, func, ctx):
        for node in ast.walk(func):
            iter_expr = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, ast.comprehension):
                iter_expr = node.iter
            if iter_expr is not None and _is_set_expr(iter_expr):
                ctx.report(node,
                           "iteration over an unordered set in "
                           "worker/fold function %s(): the folded result "
                           "depends on hash seeds and arrival order; sort "
                           "or key by request instead" % func.name)
            if isinstance(node, ast.Call) \
                    and _call_name(node) == "popitem":
                ctx.report(node,
                           "dict.popitem() in worker/fold function %s() "
                           "pops in unordered fashion across workers; use "
                           "an explicit, keyed order" % func.name)
