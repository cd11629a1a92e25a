"""Every name the host-time benchmark (``perfbench/``) wraps still exists.

``perfbench/design.json`` lists the entry points whose spans it times,
and ``perfbench/layers.TRACE_GENERATORS`` the trace generators a seed
variant shifts. Both are resolved from outside the program, so deleting
or renaming one of them (say ``CacheHierarchy.access``, the
``FastSetAssocTLB`` alias or ``Kernel.touch``) breaks the benchmark
without touching any code path the rest of the suite runs. This test
resolves each of them through ``layers.resolve``, the benchmark's own
resolver, and patches nothing.
"""

import importlib.util
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
DESIGN = json.loads((PERFBENCH / "design.json").read_text())
WRAP_TARGETS = [target for layer in DESIGN["layers"]
                for target in layer["wraps"]]


@pytest.mark.parametrize("target",
                         WRAP_TARGETS + list(layers.TRACE_GENERATORS))
def test_benchmark_target_resolves(target):
    holders = layers.resolve(target)
    assert holders, target
    for owner, name in holders:
        assert callable(getattr(owner, name)), (target, owner, name)

