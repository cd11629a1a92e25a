"""Three-leg triangulation of the execution tiers.

The batch engine that once gave this suite its third leg was removed
(DESIGN §14). The third leg is now the production structures with the
L0 translation memo off (the ``memo_off`` fixture), beside the
reference path (the linear-scan oracle structures and reference trace
loop, ``linear_structures``) and the full fast path: all three must
produce the same ``RunResult.as_dict()`` on the hot-locality workload
of the perf harness and the same summary on a container churn storm.
"""

import pytest

from repro.experiments.common import build_environment, config_by_name
from repro.experiments.perf import run_hot

STOCK_CONFIGS = ("Baseline", "BabelFish", "BabelFish-PT", "BabelFish-TLB",
                 "BigTLB", "Victima", "Coalesced")


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
