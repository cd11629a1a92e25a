"""Three-leg triangulation of the execution tiers.

The batch engine that once gave this suite its third leg was removed
(DESIGN §14). The third leg is now the production structures with the
L0 translation memo off (the ``memo_off`` fixture), beside the
reference path (the linear-scan oracle structures and reference trace
loop, ``linear_structures``) and the full fast path: all three must
produce the same ``RunResult.as_dict()`` on the hot-locality workload
of the perf harness and the same summary on a container churn storm.

The simulated outputs are deterministic, so each leg's result is also
pinned exactly: the SHA-256 of its canonical JSON (sorted keys, no
whitespace, as perfbench digests a run). A change that must move a pin
changes what is modelled and says so.
"""

import hashlib
import json

import pytest

from repro.experiments.common import (
    build_environment,
    config_by_name,
    run_functions,
)
from repro.experiments.perf import run_hot

STOCK_CONFIGS = ("Baseline", "BabelFish", "BabelFish-PT", "BabelFish-TLB",
                 "BigTLB", "Victima", "Coalesced")

#: ``run_hot(config, cores, 1200)`` digests (the triangulation below).
HOT_DIGESTS = {
    "Baseline":
        "98e8292eb48a94a4c5a8a252c603622b81ed907ecc68b4fbf0244ad62b6de510",
    "BabelFish":
        "00714627ebcd9ace48a8dac39667446846663f52c0c255d3d5aa234547020081",
    "BabelFish-PT":
        "7c2cbd2e8cadcf9914f9582cbd6914a1ec9f1b522cbf5c21c6a46177971e75b8",
    "BabelFish-TLB":
        "51e9e7f69ee97bdd00dddb305d0dec28d6f5083cdcd4db5e0c8a743a68840c95",
    "BigTLB":
        "07aaebae9274fecbfb5212c97d8498c48f9dc79c380f5946bf1884af68eb162e",
    "Victima":
        "b1ba92d1661a849cb08ef7a7316f1f97ab2fd4013498c81e8ed100a6b3c698be",
    "Coalesced":
        "089e3b9707f9f201f98fbb3a49ad9c9dc4d352ea7297b54a67f790483d147b00",
}

#: Sparse-function digests: ``run_functions(dense=False, cores=1,
#: scale=0.05)``, the workload whose accesses mostly walk, fault and
#: retry (the miss-and-fault path the hot-locality runs barely reach).
SPARSE_FUNCTION_DIGESTS = {
    "Baseline":
        "e139523e998a22538a4f0079cdffb617a5dd1aabf72c0e436aa2bf0862c778cc",
    "BabelFish":
        "3b3efecbbbea94395605d9fe6bd0f811f33cd08d73d1ce1bcd7bc32b013ed988",
}


def digest(data):
    """SHA-256 of canonical JSON."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", STOCK_CONFIGS)
def test_stock_configs_triangulate(name, memo_off, linear_structures):
    cores = 2 if name == "BabelFish" else 1
    with linear_structures():
        ref, _, _s = run_hot(config_by_name(name, fastpath=False), cores,
                             1200)
    fast, _, _s = run_hot(config_by_name(name), cores, 1200)
    with memo_off():
        env = build_environment(config_by_name(name), cores=1)
        assert env.sim.mmus[0].fast and env.sim.mmus[0]._memo is None
        bare, _, _s = run_hot(config_by_name(name), cores, 1200)
    assert fast == ref
    assert bare == ref
    assert digest(fast) == HOT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SPARSE_FUNCTION_DIGESTS))
def test_sparse_functions_pinned(name):
    run = run_functions(config_by_name(name), dense=False, cores=1,
                        scale=0.05, use_cache=False)
    assert run.result.stats.minor_faults > 0
    assert digest(run.result.as_dict()) == SPARSE_FUNCTION_DIGESTS[name]


def test_churn_storm_triangulates(memo_off, linear_structures):
    # Container stop/restart mid-stream: PCID/CCID flushes, recycling,
    # and cross-core shootdowns land between accesses of every leg.
    from repro.experiments.churn import run_churn

    def churn(fastpath):
        return run_churn(cycles=25, sanitize=False, fastpath=fastpath,
                         pcid_bits=4, kill_rate=0.2, seed=11)

    with linear_structures():
        ref = churn(fastpath=False)
    fast = churn(fastpath=True)
    with memo_off():
        bare = churn(fastpath=True)
    assert fast.pcid_recycles > 0
    assert fast.summary() == ref.summary()
    assert bare.summary() == ref.summary()
