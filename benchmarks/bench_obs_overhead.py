"""Tracer overhead: the cost of the :mod:`repro.obs` hooks.

Two measurements back DESIGN.md's overhead guarantees:

1. **Hot path, tracing disabled** — translate the same warm VPN in a
   tight loop with ``tracer = None`` (the default). The hook is a single
   ``is not None`` test: ns/op must be within noise of the same loop
   (the loop is its own baseline: two disabled passes are compared), and
   the net allocated-block delta must be zero up to measurement noise —
   the disabled tracer allocates nothing, while an enabled pass
   allocates at least one event tuple per op.
2. **End-to-end** — a small measured app run with ``trace=None`` vs
   ``trace=True``, reporting the wall-time ratio (tracing is expected to
   cost real time; the guarantee is only about the disabled path).
"""

import sys
import time

from bench_common import report
from repro.experiments.common import (clear_run_cache, config_by_name,
                                      build_environment, deploy_app,
                                      run_app)
from repro.hw.types import AccessKind
from repro.kernel.vma import SegmentKind
from repro.obs.tracer import Tracer
from repro.workloads.profiles import APP_PROFILES

HOT_OPS = 20_000
RUN = dict(cores=1, scale=0.08)


def _hot_setup():
    """A warm MMU + process: the first translate faults the page in and
    fills the TLBs, everything after is the pure L1-hit path."""
    env = build_environment(config_by_name("BabelFish"), cores=1)
    deployment = deploy_app(env, APP_PROFILES["mongodb"], None)
    proc = deployment.containers[0].proc
    mmu = env.sim.mmus[0]
    mmu.translate(proc, SegmentKind.HEAP, 0, AccessKind.LOAD)
    return mmu, proc


def _hot_loop(mmu, proc, ops):
    """(ns/op, net allocated-block delta) over ``ops`` warm translates."""
    translate = mmu.translate
    clock = time.perf_counter
    blocks_before = sys.getallocatedblocks()
    started = clock()
    for _ in range(ops):
        translate(proc, SegmentKind.HEAP, 0, AccessKind.LOAD)
    elapsed = clock() - started
    blocks_delta = sys.getallocatedblocks() - blocks_before
    return elapsed / ops * 1e9, blocks_delta


def bench_obs_overhead():
    mmu, proc = _hot_setup()

    # Disabled tracer: two passes; the first is the baseline for the
    # second, so the assertion is about loop-to-loop noise, not absolute
    # machine speed.
    assert mmu.tracer is None
    _hot_loop(mmu, proc, HOT_OPS)  # warm the loop itself
    ns_off_a, _ = _hot_loop(mmu, proc, HOT_OPS)
    ns_off_b, blocks_off = _hot_loop(mmu, proc, HOT_OPS)

    tracer = Tracer()
    mmu.tracer = tracer
    mmu.walker.tracer = tracer
    _hot_loop(mmu, proc, HOT_OPS)
    ns_on, blocks_on = _hot_loop(mmu, proc, HOT_OPS)
    mmu.tracer = None
    mmu.walker.tracer = None

    clear_run_cache()
    clock = time.perf_counter
    started = clock()
    run_app("mongodb", config_by_name("BabelFish"), use_cache=False, **RUN)
    wall_off = clock() - started
    started = clock()
    run_app("mongodb", config_by_name("BabelFish", trace=True),
            use_cache=False, **RUN)
    wall_on = clock() - started

    lines = [
        "hot path (warm L1-hit translate, %d ops/pass)" % HOT_OPS,
        "  tracer disabled   %7.1f ns/op  (repeat %7.1f ns/op)"
        % (ns_off_b, ns_off_a),
        "  tracer enabled    %7.1f ns/op  (+%.0f%%)"
        % (ns_on, 100.0 * (ns_on - ns_off_b) / ns_off_b),
        "  net allocated blocks/pass: disabled %+d, enabled %+d"
        % (blocks_off, blocks_on),
        "",
        "end-to-end (mongodb, cores=%(cores)d scale=%(scale).2f)" % RUN,
        "  trace=None  %6.2fs" % wall_off,
        "  trace=True  %6.2fs  (x%.2f)" % (wall_on, wall_on / wall_off),
    ]
    report("obs_overhead", "\n".join(lines))

    # The guarantees: a disabled pass allocates nothing beyond noise
    # (live counters crossing an int-digit boundary can pin a few
    # blocks), an enabled pass visibly allocates (one event tuple per
    # op), and disabled passes cost the same as each other (generous
    # 25% noise bound — CI machines jitter).
    assert abs(blocks_off) <= 16, blocks_off
    assert blocks_on > HOT_OPS, blocks_on
    assert ns_off_b < ns_off_a * 1.25


if __name__ == "__main__":
    bench_obs_overhead()
