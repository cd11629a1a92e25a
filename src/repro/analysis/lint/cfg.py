"""Per-function control-flow graphs and def-use facts over ``ast``.

The dataflow rule families (BF4xx epoch coverage, BF5xx teardown
ordering, BF6xx parallel safety) all ask ordering questions that a
single-node visitor cannot answer: *does this statement happen before
that one on every path?* This module gives them the machinery:

- :class:`FunctionCFG` — basic blocks for one function body, with
  edges for ``if``/``for``/``while``/``try``/``break``/``continue``/
  ``return``/``raise``, a virtual entry and exit, and iteratively
  computed dominator and postdominator sets.
- Statement-level queries — :meth:`FunctionCFG.dominates` /
  :meth:`FunctionCFG.postdominates` lift block dominance to individual
  statements (within a straight-line block, textual order decides).
- :class:`ModuleIndex` — module-level call-site resolution: maps
  ``self.helper()`` to the method defined on the same class (or a base
  class defined in the same module) and ``helper()`` to the module
  function, so a rule can reason across small helper boundaries (the
  scope is deliberately one module: the lint engine parses files
  independently).

The CFG is *approximate* in the usual lint sense: exceptions raised
mid-statement are not modelled (a block is treated as straight-line),
``try`` bodies get an extra edge from their entry to each handler, and
dynamic calls are unresolved. The rules built on top are tuned so these
approximations produce missed edges, not spurious paths, for the
patterns they check.
"""

import ast


class Block:
    """One basic block: a straight-line run of statements.

    Branching statements (``if``/``while``/``for``) appear as the *last*
    statement of the block that evaluates their test, so "the check was
    reached" is expressible as dominance of that statement.
    """

    __slots__ = ("index", "stmts", "succs", "preds")

    def __init__(self, index):
        self.index = index
        self.stmts = []
        self.succs = []
        self.preds = []

    def add_edge(self, succ):
        if succ not in self.succs:
            self.succs.append(succ)
            succ.preds.append(self)

    def __repr__(self):
        lines = [getattr(s, "lineno", "?") for s in self.stmts]
        return "<Block %d lines=%s succs=%s>" % (
            self.index, lines, [b.index for b in self.succs])


class FunctionCFG:
    """Control-flow graph for one ``ast.FunctionDef`` body."""

    def __init__(self, func):
        self.func = func
        self.blocks = []
        self.entry = self._new_block()
        self.exit = self._new_block()  # virtual: returns/raises/fallthrough
        self._block_of = {}   # id(stmt) -> Block
        self._index_of = {}   # id(stmt) -> position within its block
        end = self._build(func.body, self.entry, loop=None, handlers=())
        if end is not None:
            end.add_edge(self.exit)
        self._dom = None
        self._postdom = None

    # -- construction ------------------------------------------------------

    def _new_block(self):
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def _place(self, stmt, block):
        self._index_of[id(stmt)] = len(block.stmts)
        self._block_of[id(stmt)] = block
        block.stmts.append(stmt)

    def _build(self, stmts, current, loop, handlers):
        """Wire ``stmts`` starting in ``current``; returns the block
        control falls out of, or None when every path diverted (return/
        raise/break/continue). ``loop`` is ``(header, after)`` for the
        innermost loop; ``handlers`` are the except-entry blocks any
        statement in an active ``try`` body may jump to."""
        for stmt in stmts:
            if current is None:
                # Unreachable code after a terminator: park it in a
                # fresh, disconnected block so lookups still work.
                current = self._new_block()
            if handlers:
                for handler in handlers:
                    current.add_edge(handler)
            if isinstance(stmt, (ast.If,)):
                self._place(stmt, current)
                then_block = self._new_block()
                current.add_edge(then_block)
                then_end = self._build(stmt.body, then_block, loop, handlers)
                else_block = self._new_block()
                current.add_edge(else_block)
                else_end = self._build(stmt.orelse, else_block, loop,
                                       handlers)
                if then_end is None and else_end is None:
                    current = None
                    continue
                after = self._new_block()
                if then_end is not None:
                    then_end.add_edge(after)
                if else_end is not None:
                    else_end.add_edge(after)
                current = after
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                header = self._new_block()
                current.add_edge(header)
                self._place(stmt, header)
                after = self._new_block()
                body = self._new_block()
                header.add_edge(body)
                header.add_edge(after)  # zero-iteration / condition false
                body_end = self._build(stmt.body, body, (header, after),
                                       handlers)
                if body_end is not None:
                    body_end.add_edge(header)
                if stmt.orelse:
                    # for/while-else runs on normal loop exit; fold it
                    # into the after block's flow.
                    else_end = self._build(stmt.orelse, after, loop, handlers)
                    current = else_end
                else:
                    current = after
            elif isinstance(stmt, ast.Try):
                self._place(stmt, current)
                body = self._new_block()
                current.add_edge(body)
                handler_blocks = []
                for handler in stmt.handlers:
                    hb = self._new_block()
                    current.add_edge(hb)  # body may fault before running
                    handler_blocks.append(hb)
                body_end = self._build(stmt.body, body, loop,
                                       handlers + tuple(handler_blocks))
                ends = []
                if body_end is not None:
                    if stmt.orelse:
                        body_end = self._build(stmt.orelse, body_end, loop,
                                               handlers)
                    ends.append(body_end)
                for handler, hb in zip(stmt.handlers, handler_blocks):
                    ends.append(self._build(handler.body, hb, loop, handlers))
                ends = [e for e in ends if e is not None]
                if stmt.finalbody:
                    final = self._new_block()
                    for e in ends:
                        e.add_edge(final)
                    if not ends:
                        current.add_edge(final)  # finally still runs
                    current = self._build(stmt.finalbody, final, loop,
                                          handlers)
                elif ends:
                    after = self._new_block()
                    for e in ends:
                        e.add_edge(after)
                    current = after
                else:
                    current = None
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._place(stmt, current)
                current = self._build(stmt.body, current, loop, handlers)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                self._place(stmt, current)
                current.add_edge(self.exit)
                current = None
            elif isinstance(stmt, ast.Break):
                self._place(stmt, current)
                if loop is not None:
                    current.add_edge(loop[1])
                current = None
            elif isinstance(stmt, ast.Continue):
                self._place(stmt, current)
                if loop is not None:
                    current.add_edge(loop[0])
                current = None
            else:
                # Straight-line statement (incl. nested function/class
                # defs, whose bodies are separate CFGs).
                self._place(stmt, current)
        return current

    # -- dominance ---------------------------------------------------------

    def _solve(self, root, edges):
        """Iterative dominator solve from ``root`` following ``edges``
        (a function Block -> predecessor list in the chosen direction)."""
        every = set(self.blocks)
        dom = {b: set(every) for b in self.blocks}
        dom[root] = {root}
        changed = True
        while changed:
            changed = False
            for block in self.blocks:
                if block is root:
                    continue
                preds = edges(block)
                new = set.intersection(*(dom[p] for p in preds)) \
                    if preds else set()
                new = new | {block}
                if new != dom[block]:
                    dom[block] = new
                    changed = True
        return dom

    @property
    def dominators(self):
        if self._dom is None:
            self._dom = self._solve(self.entry, lambda b: b.preds)
        return self._dom

    @property
    def postdominators(self):
        if self._postdom is None:
            self._postdom = self._solve(self.exit, lambda b: b.succs)
        return self._postdom

    def block_of(self, stmt):
        return self._block_of.get(id(stmt))

    def _position(self, stmt):
        return self._block_of.get(id(stmt)), self._index_of.get(id(stmt))

    def dominates(self, a, b):
        """Does statement ``a`` execute before ``b`` on every path that
        reaches ``b``? Within one block, textual order decides."""
        ba, ia = self._position(a)
        bb, ib = self._position(b)
        if ba is None or bb is None:
            return False
        if ba is bb:
            return ia < ib
        return ba in self.dominators[bb] and ba is not bb

    def postdominates(self, a, b):
        """Does statement ``a`` execute after ``b`` on every path from
        ``b`` to the function's exit?"""
        ba, ia = self._position(a)
        bb, ib = self._position(b)
        if ba is None or bb is None:
            return False
        if ba is bb:
            return ia > ib
        return ba in self.postdominators[bb] and ba is not bb

    def covers(self, a, b):
        """``a`` dominates or postdominates ``b`` — "on every path
        through ``b``, ``a`` also runs (before or after)"."""
        return self.dominates(a, b) or self.postdominates(a, b)

    def statements(self):
        for block in self.blocks:
            for stmt in block.stmts:
                yield stmt


# -- module-level indexing ---------------------------------------------------


def function_statements(func):
    """Top-to-bottom statements of ``func``'s body, without descending
    into nested function/class definitions."""
    out = []
    stack = list(reversed(func.body))
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            stack.extend(reversed(getattr(stmt, field, []) or []))
        for handler in getattr(stmt, "handlers", []) or []:
            stack.extend(reversed(handler.body))
    return out


def statement_calls(stmt):
    """Every ``ast.Call`` inside ``stmt`` (not descending into nested
    defs)."""
    calls = []
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            calls.append(node)
    return calls


def assigned_names(stmt):
    """Local names *bound* by an assignment-ish statement.

    A ``Subscript``/``Attribute`` target mutates an object without
    binding any name, so only ``Name`` targets count (through tuple/list
    unpacking and starred targets).
    """
    names = set()
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [item.optional_vars for item in stmt.items
                   if item.optional_vars is not None]
    while targets:
        target = targets.pop()
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
    return names


def test_names(expr):
    """Plain names referenced by a branch condition."""
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


class ModuleIndex:
    """Functions, classes, and intra-module call resolution.

    ``methods_of(cls)`` follows base classes *defined in the same
    module* (the engine lints files independently), which is enough to
    resolve the helper-method patterns the dataflow rules care about
    (subclasses inheriting ``_bump_epoch`` from a base, teardown helpers
    on ``Kernel``).
    """

    def __init__(self, tree):
        self.tree = tree
        self.functions = {}
        self.classes = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node

    def mro(self, cls):
        """``cls`` then its module-local bases, depth-first."""
        out, stack = [], [cls]
        seen = set()
        while stack:
            node = stack.pop(0)
            if id(node) in seen:
                continue
            seen.add(id(node))
            out.append(node)
            for base in node.bases:
                if isinstance(base, ast.Name) and base.id in self.classes:
                    stack.append(self.classes[base.id])
        return out

    def methods_of(self, cls):
        """name -> FunctionDef, nearest definition first (subclass wins)."""
        methods = {}
        for node in self.mro(cls):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.setdefault(stmt.name, stmt)
        return methods

    def resolve_call(self, call, cls=None):
        """The module-local FunctionDef a call targets, or None.

        Resolves ``name(...)`` to a module function and
        ``self.name(...)`` / ``cls.name(...)`` to a method of ``cls``
        (the class whose method contains the call).
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self.functions.get(func.id)
        if cls is not None and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in ("self", "cls"):
            return self.methods_of(cls).get(func.attr)
        return None

    def iter_functions(self):
        """(function, enclosing class or None) for every def in the
        module, including methods."""
        for func in self.functions.values():
            yield func, None
        for cls in self.classes.values():
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield stmt, cls
