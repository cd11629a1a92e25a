"""BF401: epoch-coverage for the TLB backing stores (``hw/``).

The exact fast path (:mod:`repro.sim.fastpath`, DESIGN §11) is only
correct because every *content* change to a TLB structure bumps its set
epoch — the L0 translation memo replays a previous hit iff the set
epochs it recorded are unchanged. :class:`repro.hw.tlb.SetAssocTLB`'s
``_set_epochs`` are the only epochs in ``hw/`` (the caches keep none: no
memo replays a cache hit), but the rule finds its classes by marker, so
any class that grows an ``epoch`` or ``_set_epochs`` is checked too.
PR 4's one real bug was exactly a missed bump: ``invalidate`` removed a
line but skipped ``epoch += 1`` on a path where a ``pop``-result test
misread a set's ``None`` values.

This rule makes the contract mechanical. In every ``hw/`` class that
carries epoch machinery, a statement that mutates a guarded backing
store (``_sets`` / ``_buckets``, plus ``_lru`` in TLB classes, where it
is each set's membership store that eviction and ``entries()`` read)
must be *covered* by a set-epoch bump:

- the bump **dominates** the mutation (runs before it on every path), or
- the bump **postdominates** it (runs after it on every path), or
- the bump sits under ``if flag:`` where the check postdominates the
  mutation and the mutation's own basic block performs a def of
  ``flag`` that is guaranteed truthy (``flag += 1``, ``flag += n``
  inside ``if n:``, ``flag = <truthy constant>``) — the
  ``removed``-counter idiom the structures use for batched flushes.

The last clause is deliberately strict: ``popped = d.pop(k, None)``
followed by ``if popped is not None: epoch += 1`` does *not* qualify
(the def is not guaranteed truthy) — that is the PR 4 bug, resurfaced.

Benign membership-neutral mutations are exempted: LRU re-stamps
(``d[k] = v`` dominated by a ``k in d`` test), ``del``+reinsert pairs
on the same key in one block, and dropping an emptied bucket
(``del``/``pop`` under ``if not bucket:`` where ``bucket`` aliases the
store). Aliases are tracked through local assignments
(``lru = self._lru[index]``; ``bucket = buckets.get(vpn)``), and
helper methods that always bump count as bumps at their call sites,
resolved through :class:`repro.analysis.lint.cfg
.ModuleIndex` (module-local, following same-module base classes).
"""

import ast

from repro.analysis.lint.cfg import (
    FunctionCFG,
    ModuleIndex,
    statement_calls,
    test_names,
)
from repro.analysis.lint.engine import LintRule

#: Backing stores whose *membership* the epoch contract guards.
GUARDED_ATTRS = frozenset({"_sets", "_buckets"})

#: Also guarded in TLB classes (class name contains ``TLB``): a TLB
#: set's recency dict is its membership store. Lookups move an entry
#: to the end with a ``del`` + reinsert pair, which stays exempt.
TLB_GUARDED_ATTRS = GUARDED_ATTRS | {"_lru"}

#: Attribute names whose presence marks a class as epoch-carrying.
EPOCH_MARKERS = frozenset({"epoch", "_set_epochs"})

#: Method names that mutate container membership in place.
MUTATORS = frozenset({
    "append", "remove", "clear", "pop", "popitem", "insert", "extend",
    "update", "setdefault", "add", "discard",
})


def _unparse(node):
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return repr(node)


def _is_rooted(expr, aliases, guarded):
    """Is ``expr`` a view into a ``guarded`` store (directly, through
    subscripts / ``.get()``, or through a tracked local alias)?"""
    while True:
        if isinstance(expr, ast.Name):
            return expr.id in aliases
        if isinstance(expr, ast.Attribute):
            if expr.attr in guarded:
                return True
            return False
        if isinstance(expr, ast.Subscript):
            expr = expr.value
            continue
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "get":
                expr = func.value
                continue
            return False
        return False


def _own_exprs(stmt):
    """The expressions evaluated *by this statement itself* — not by the
    nested statements of a compound body (those are separate CFG
    statements)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    return [stmt]


def _own_calls(stmt):
    calls = []
    for expr in _own_exprs(stmt):
        calls.extend(statement_calls(expr))
    return calls


class _Mutation:
    __slots__ = ("stmt", "store", "kind", "subscript")

    def __init__(self, stmt, store, kind, subscript=None):
        self.stmt = stmt
        self.store = store          # printable name of the store expr
        self.kind = kind            # "assign" | "delete" | "call"
        self.subscript = subscript  # unparsed d[k] text for pairing


def _mutations(stmt, aliases, guarded):
    """Guarded-store mutations performed by ``stmt``."""
    found = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Subscript) \
                    and _is_rooted(target.value, aliases, guarded):
                found.append(_Mutation(stmt, _unparse(target.value),
                                       "assign", _unparse(target)))
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Subscript) \
                and _is_rooted(stmt.target.value, aliases, guarded):
            found.append(_Mutation(stmt, _unparse(stmt.target.value),
                                   "assign", _unparse(stmt.target)))
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, ast.Subscript) \
                    and _is_rooted(target.value, aliases, guarded):
                found.append(_Mutation(stmt, _unparse(target.value),
                                       "delete", _unparse(target)))
    for call in _own_calls(stmt):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS \
                and _is_rooted(func.value, aliases, guarded):
            kind = "delete" if func.attr in ("pop", "popitem") else "call"
            found.append(_Mutation(stmt, _unparse(func.value), kind))
    return found


def _is_bump(stmt, bump_methods):
    """Does ``stmt`` bump an epoch counter (directly or via an
    always-bumping helper method)?"""
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Attribute) and target.attr == "epoch":
            return True
        if isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Attribute) \
                and target.value.attr == "_set_epochs":
            return True
    for call in _own_calls(stmt):
        func = call.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in ("self", "cls") \
                and func.attr in bump_methods:
            return True
    return False


def _lexical_if_map(func):
    """Every ``ast.If`` in ``func`` -> set of statement ids lexically
    inside its body (the true branch only, nested included)."""
    out = {}
    for node in ast.walk(func):
        if isinstance(node, ast.If):
            inside = set()
            for child in node.body:
                for sub in ast.walk(child):
                    inside.add(id(sub))
            out[node] = inside
    return out


def _enclosing_ifs(stmt, if_map):
    return [if_node for if_node, inside in if_map.items()
            if id(stmt) in inside]


def _truthy_defs(block, if_map):
    """Names guaranteed truthy after this block ran its def statements:
    ``v += <positive const>``, ``v += w`` inside ``if w:``, or
    ``v = <truthy constant>``."""
    names = set()
    for stmt in block.stmts:
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add) \
                and isinstance(stmt.target, ast.Name):
            value = stmt.value
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, (int, float)) \
                    and value.value > 0:
                names.add(stmt.target.id)
            elif isinstance(value, ast.Name):
                for if_node in _enclosing_ifs(stmt, if_map):
                    if isinstance(if_node.test, ast.Name) \
                            and if_node.test.id == value.id:
                        names.add(stmt.target.id)
                        break
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Constant) \
                and bool(stmt.value.value):
            names.add(stmt.targets[0].id)
    return names


class EpochCoverageRule(LintRule):
    rule_id = "BF401"
    description = ("hw/ structures: every mutation of a TLB/cache backing "
                   "store (_sets/_buckets, and _lru in TLBs) must be "
                   "covered on all paths by "
                   "the matching epoch bump")

    def applies_to(self, module):
        return not module.is_test and module.package == "hw"

    def check_module(self, tree, ctx):
        index = ModuleIndex(tree)
        for cls in index.classes.values():
            if not self._has_epoch_machinery(cls):
                continue
            methods = index.methods_of(cls)
            bump_methods = {name for name, fn in methods.items()
                            if self._always_bumps(fn)}
            for stmt in cls.body:
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if stmt.name == "__init__":
                    continue  # stores are being created, nothing observes
                self._check_method(stmt, cls, index, bump_methods, ctx)

    # -- class/method classification --------------------------------------

    @staticmethod
    def _has_epoch_machinery(cls):
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and node.attr in EPOCH_MARKERS:
                return True
        return False

    def _always_bumps(self, func):
        """Does ``func`` bump an epoch on every path through it?"""
        cfg = FunctionCFG(func)
        postdom_entry = cfg.postdominators[cfg.entry]
        for stmt in cfg.statements():
            if _is_bump(stmt, frozenset()):
                block = cfg.block_of(stmt)
                if block is cfg.entry or block in postdom_entry:
                    return True
        return False

    # -- per-method analysis ----------------------------------------------

    def _aliases(self, stmts, guarded):
        aliases = set()
        changed = True
        while changed:
            changed = False
            for stmt in stmts:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name) \
                        and _is_rooted(stmt.value, aliases, guarded) \
                        and stmt.targets[0].id not in aliases:
                    aliases.add(stmt.targets[0].id)
                    changed = True
        return aliases

    def _check_method(self, method, cls, index, bump_methods, ctx):
        cfg = FunctionCFG(method)
        stmts = list(cfg.statements())
        guarded = TLB_GUARDED_ATTRS if "TLB" in cls.name else GUARDED_ATTRS
        aliases = self._aliases(stmts, guarded)
        mutations = []
        for stmt in stmts:
            mutations.extend(_mutations(stmt, aliases, guarded))
        if not mutations:
            return
        if_map = _lexical_if_map(method)
        mutations = [m for m in mutations
                     if not self._exempt(m, cfg, aliases, if_map)]
        if not mutations:
            return
        bumps = [s for s in stmts if _is_bump(s, bump_methods)]
        uncovered = [m for m in mutations
                     if not self._covered(m, bumps, cfg, if_map)]
        if not uncovered:
            return
        if self._call_sites_covered(method, cls, index, bump_methods):
            return
        for mutation in uncovered:
            ctx.report(mutation.stmt,
                       "mutation of backing store '%s' in %s.%s() "
                       "has a path with no epoch bump; bump "
                       "self._set_epochs[...]/self.epoch (or _bump_epoch()) "
                       "so it dominates or follows the mutation on every "
                       "path" % (mutation.store, cls.name, method.name))

    # -- exemptions --------------------------------------------------------

    def _exempt(self, mutation, cfg, aliases, if_map):
        stmt = mutation.stmt
        # (1) LRU re-stamp: d[k] = v dominated by a `k in d` test.
        if mutation.kind == "assign" and mutation.subscript \
                and self._under_membership_test(stmt, mutation, if_map):
            return True
        # (2) del+reinsert of the same key within one block.
        if mutation.subscript \
                and self._paired_reinsert(stmt, mutation, cfg):
            return True
        # (3) dropping an emptied bucket: del under `if not bucket:`.
        if mutation.kind == "delete" \
                and self._under_emptiness_test(stmt, aliases, if_map):
            return True
        return False

    @staticmethod
    def _under_membership_test(stmt, mutation, if_map):
        target = stmt.targets[0] if isinstance(stmt, ast.Assign) \
            else stmt.target
        if not isinstance(target, ast.Subscript):
            return False
        key = _unparse(target.slice)
        store = _unparse(target.value)
        for if_node in _enclosing_ifs(stmt, if_map):
            test = if_node.test
            if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                    and isinstance(test.ops[0], ast.In) \
                    and _unparse(test.left) == key \
                    and _unparse(test.comparators[0]) == store:
                return True
        return False

    @staticmethod
    def _paired_reinsert(stmt, mutation, cfg):
        block = cfg.block_of(stmt)
        if block is None:
            return False
        pos = block.stmts.index(stmt)
        neighbors = block.stmts[max(0, pos - 1):pos] \
            + block.stmts[pos + 1:pos + 2]
        for other in neighbors:
            if isinstance(stmt, ast.Delete) and isinstance(other, ast.Assign):
                targets = other.targets
            elif isinstance(stmt, ast.Assign) \
                    and isinstance(other, ast.Delete):
                targets = other.targets
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and _unparse(target) == mutation.subscript:
                    return True
        return False

    @staticmethod
    def _under_emptiness_test(stmt, aliases, if_map):
        for if_node in _enclosing_ifs(stmt, if_map):
            test = if_node.test
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
                    and isinstance(test.operand, ast.Name) \
                    and test.operand.id in aliases:
                return True
        return False

    # -- coverage ----------------------------------------------------------

    def _covered(self, mutation, bumps, cfg, if_map):
        for bump in bumps:
            if cfg.covers(bump, mutation.stmt):
                return True
            if self._flag_guarded(bump, mutation.stmt, cfg, if_map):
                return True
        return False

    @staticmethod
    def _flag_guarded(bump, mutation_stmt, cfg, if_map):
        """``if flag: <bump>`` covers the mutation when the check itself
        always follows the mutation and the mutation's block guarantees
        ``flag`` is truthy."""
        block = cfg.block_of(mutation_stmt)
        if block is None:
            return False
        truthy = _truthy_defs(block, if_map)
        if not truthy:
            return False
        for if_node, inside in if_map.items():
            if id(bump) not in inside:
                continue
            if not (test_names(if_node.test) & truthy):
                continue
            if cfg.postdominates(if_node, mutation_stmt):
                return True
        return False

    # -- helper-method fallback -------------------------------------------

    def _call_sites_covered(self, method, cls, index, bump_methods):
        """A helper whose mutations are bumped by every caller is fine:
        resolve its call sites module-locally and require each to be
        covered by a bump in the calling function."""
        sites = []
        for func, owner in index.iter_functions():
            if func is method:
                continue
            caller_cls = owner if owner is not None else None
            cfg = None
            for stmt in FunctionCFG(func).statements():
                for call in _own_calls(stmt):
                    if index.resolve_call(call, caller_cls) is method:
                        if cfg is None:
                            cfg = FunctionCFG(func)
                        sites.append((cfg, stmt))
        if not sites:
            return False
        for cfg, site in sites:
            bumps = [s for s in cfg.statements()
                     if _is_bump(s, bump_methods)]
            if not any(cfg.covers(bump, site) for bump in bumps):
                return False
        return True
