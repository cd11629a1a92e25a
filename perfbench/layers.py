"""Instrumentation the benchmark installs from outside the program.

Nothing here edits the repository's code. Every hook is an attribute
swap recorded by a :class:`Patcher` and undone when it exits:

- :class:`Windows` stamps measured windows. A window runs from a
  simulator's ``reset_measurement`` to the return of its last ``run``,
  and keeps that run's ``RunResult``.
- :func:`install_seed_variant` shifts the ``seed_offset`` of the three
  trace generators, so a benchmark seed selects a different but
  same-sized input stream.
- :class:`Spans` times the public entry points of each layer listed in
  ``design.json`` and accumulates self time (a span's duration minus the
  part covered by its child spans) and call counts.
"""

import importlib
import inspect
import sys
import time
import weakref

_MISSING = object()


class Patcher:
    """Swaps attributes and puts every original back on exit."""

    def __init__(self):
        #: (owner, name, value in owner's own namespace or _MISSING)
        self._saved = []
        self._history = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def patch(self, owner, name, wrap):
        """Replace ``owner.name`` with ``wrap(original)``."""
        original = getattr(owner, name)
        record = (owner, name, vars(owner).get(name, _MISSING))
        self._saved.append(record)
        self._history.append(record)
        setattr(owner, name, wrap(original))

    def restore(self):
        while self._saved:
            owner, name, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)

    def leftovers(self):
        """``(owner, name)`` pairs ever patched that do not hold their
        original now; empty once :meth:`restore` has run."""
        originals = {}
        for owner, name, own in self._history:
            # The first patch of a name saw the original; later ones
            # stacked on top of a wrapper.
            originals.setdefault((owner, name), own)
        return [(owner, name) for (owner, name), own in originals.items()
                if vars(owner).get(name, _MISSING) is not own]


# -- target resolution ----------------------------------------------------------


def _policy_classes():
    """Each class that defines ``fill_l2`` for a registered policy."""
    from repro.core.policy import get_policy, known_policies
    owners = []
    for name in known_policies():
        for klass in type(get_policy(name)).__mro__:
            if "fill_l2" in vars(klass):
                if klass not in owners:
                    owners.append(klass)
                break
    return owners


def resolve(target):
    """``(owner, name)`` pairs for a ``design.json`` wrap target.

    ``module:Class.attr`` names one class attribute. ``module:function``
    names a module-level function and resolves to every loaded
    ``repro`` module that holds it, so ``from ... import`` copies are
    covered. ``policies:fill_l2`` is each registered translation
    policy's fill rule.
    """
    if target == "policies:fill_l2":
        return [(klass, "fill_l2") for klass in _policy_classes()]
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        class_name, name = attr.split(".")
        return [(getattr(module, class_name), name)]
    function = getattr(module, attr)
    holders = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for name, value in sorted(vars(mod).items()):
            if value is function:
                holders.append((mod, name))
    return holders


# -- measured windows -----------------------------------------------------------


class Windows:
    """Measured windows, stamped by wrapping two ``Simulator`` methods.

    ``probe`` (optional) is read at both ends of every window; the
    difference, summed, is :meth:`probe_delta`. The benchmark uses it to
    count ``MMU.translate`` calls inside windows only.
    """

    def __init__(self, clock=time.perf_counter, probe=None):
        self.clock = clock
        self.probe = probe
        #: one dict per window, in the order the resets happened
        self.windows = []

    def install(self, patcher):
        from repro.sim.simulator import Simulator
        clock = self.clock
        probe = self.probe
        windows = self.windows
        # Weak keys: holding a simulator would keep its whole machine
        # alive after the program dropped it, and inflate peak RSS.
        open_ = weakref.WeakKeyDictionary()

        def wrap_reset(reset):
            def reset_measurement(sim, *args, **kwargs):
                window = {"start": clock(), "end": None, "result": None,
                          "probe0": probe() if probe else 0, "probe1": 0}
                windows.append(window)
                open_[sim] = window
                return reset(sim, *args, **kwargs)
            return reset_measurement

        def wrap_run(run):
            def stamped_run(sim, *args, **kwargs):
                result = run(sim, *args, **kwargs)
                window = open_.get(sim)
                if window is not None:
                    window["end"] = clock()
                    window["result"] = result
                    if probe:
                        window["probe1"] = probe()
                return result
            return stamped_run

        patcher.patch(Simulator, "reset_measurement", wrap_reset)
        patcher.patch(Simulator, "run", wrap_run)

    def seconds(self):
        return sum(w["end"] - w["start"] for w in self.windows
                   if w["end"] is not None)

    def results(self):
        return [w["result"] for w in self.windows if w["result"] is not None]

    def probe_delta(self):
        return sum(w["probe1"] - w["probe0"] for w in self.windows
                   if w["end"] is not None)


# -- seed variants ----------------------------------------------------------------

TRACE_GENERATORS = ("repro.workloads.dataserving:serving_trace",
                    "repro.workloads.compute:compute_trace",
                    "repro.workloads.functions:function_trace")


def install_seed_variant(patcher, shift):
    """Add ``shift`` to every trace generator's ``seed_offset``.

    Each generator seeds its RNGs from the container index plus
    ``seed_offset``, so a shift yields a different stream of the same
    length and shape. ``shift == 0`` installs nothing: the stock inputs.
    """
    if not shift:
        return

    def wrap(generator):
        signature = inspect.signature(generator)

        def shifted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments["seed_offset"] += shift
            return generator(*bound.args, **bound.kwargs)
        return shifted

    for target in TRACE_GENERATORS:
        patch_target(patcher, target, wrap)


def patch_target(patcher, target, wrap):
    """Patch every holder of ``target``. Holders of one original share
    one ``wrap(original)``, so a later :func:`resolve` of the same
    target finds all of them."""
    replacements = {}
    for owner, name in resolve(target):
        original = getattr(owner, name)
        if id(original) not in replacements:
            replacements[id(original)] = wrap(original)
        replacement = replacements[id(original)]
        patcher.patch(owner, name, lambda _original, r=replacement: r)


# -- spans ---------------------------------------------------------------------------


class Spans:
    """Self time and call counts per span name.

    A stack holds, for every open span, the time its children covered.
    On close a span adds ``duration - children`` to its own self time
    (its full duration when ``inclusive``) and its duration to its
    parent's children. Counts are kept per count name.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = {}
        self.counts = {}
        self._stack = [0.0]

    def timed(self, name, fn, count=None, inclusive=False):
        """``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        counts = self.counts
        self_s.setdefault(name, 0.0)
        if count:
            counts.setdefault(count, 0)

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                self_s[name] += duration if inclusive else duration - children
                stack[-1] += duration
                if count:
                    counts[count] += 1
        return span

    def timed_records(self, name, generator_fn, count):
        """``generator_fn`` returning an iterator whose every ``next()``
        is a span; ``count`` counts the records it produced."""
        self.self_s.setdefault(name, 0.0)
        self.counts.setdefault(count, 0)

        def records(*args, **kwargs):
            return _TimedRecords(self, name, count,
                                 generator_fn(*args, **kwargs))
        return records

    def count(self, name):
        return self.counts.get(name, 0)


class _TimedRecords:
    __slots__ = ("_spans", "_name", "_count", "_it")

    def __init__(self, spans, name, count, it):
        self._spans = spans
        self._name = name
        self._count = count
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        spans = self._spans
        stack = spans._stack
        stack.append(0.0)
        start = spans.clock()
        try:
            record = next(self._it)
        finally:
            duration = spans.clock() - start
            children = stack.pop()
            spans.self_s[self._name] += duration - children
            stack[-1] += duration
        spans.counts[self._count] += 1
        return record


def install_spans(patcher, spans, layers):
    """Wrap every target of every ``design.json`` layer in its span.
    A layer's count covers its first target only (later targets nest
    inside it), unless the layer sets ``count_all``."""
    for layer in layers:
        name = layer["span"]
        for position, target in enumerate(layer["wraps"]):
            count = (layer.get("count")
                     if position == 0 or layer.get("count_all") else None)
            if layer.get("per_record"):
                def wrap(fn, name=name, count=count):
                    return spans.timed_records(name, fn, count)
            else:
                def wrap(fn, name=name, count=count,
                         inclusive=layer.get("inclusive", False)):
                    return spans.timed(name, fn, count, inclusive)
            patch_target(patcher, target, wrap)
