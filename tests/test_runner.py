"""Run-cache keying, the disk run cache, and the parallel runner.

The headline regression here: configs built via ``config_by_name(name,
**overrides)`` share ``config.name`` with the stock config, and the old
name-based cache key silently returned the stock config's run for them.
"""

import dataclasses
import gc
import json
import weakref

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments import common
from repro.experiments.common import (
    build_environment,
    clear_run_cache,
    config_by_name,
    deploy_app,
    run_app,
    run_functions,
    set_disk_cache,
    simulation_run_count,
)
from repro.experiments.runcache import (
    DiskRunCache,
    app_key_data,
    canonical_json,
    config_field_dict,
    config_from_fields,
    functions_key_data,
)
from repro.experiments import ablations, fig11
from repro.experiments.bringup import run_bringup
from repro.experiments.density import run_density_sweep
from repro.experiments.fig10 import run_fig10
from repro.experiments.larger_tlb import run_comparison
from repro.experiments.runner import (
    RunRequest,
    execute,
    parallel_map,
    request_overrides,
)
from repro.experiments.table2 import run_table2
from repro.obs.live import ProgressMonitor
from repro.sim.simulator import Simulator
from repro.workloads.profiles import APP_PROFILES

SMALL = dict(cores=1, scale=0.08)


def _app_key(config):
    """The memo key of an httpd run under ``config`` (the same key data
    the disk cache hashes)."""
    return canonical_json(app_key_data("httpd", config, 1, 0.08, None))


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Every test starts from empty caches and leaves none installed."""
    previous = set_disk_cache(None)
    clear_run_cache()
    yield
    set_disk_cache(previous)
    clear_run_cache()


class TestConfigKeying:
    def test_same_name_different_fields_distinct_keys(self):
        stock = config_by_name("Baseline")
        tweaked = config_by_name("Baseline", thp_enabled=False)
        assert stock.name == tweaked.name
        assert _app_key(stock) != _app_key(tweaked)

    def test_costs_fields_participate(self):
        from repro.kernel.costs import KernelCosts
        stock = config_by_name("Baseline")
        tweaked = config_by_name("Baseline",
                                 costs=KernelCosts(minor_fault=9999))
        assert _app_key(stock) != _app_key(tweaked)

    def test_same_name_configs_do_not_share_runs(self):
        """Regression: the old key used config.name only, so the second
        call below returned the first call's run."""
        before = simulation_run_count()
        stock = run_app("httpd", config_by_name("Baseline"), **SMALL)
        tweaked = run_app("httpd", config_by_name("Baseline",
                                                  thp_enabled=False), **SMALL)
        assert stock is not tweaked
        assert simulation_run_count() == before + 2
        assert tweaked.config.thp_enabled is False

    def test_identical_configs_still_share(self):
        before = simulation_run_count()
        first = run_app("httpd", config_by_name("Baseline"), **SMALL)
        again = run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert again is first
        assert simulation_run_count() == before + 1

    def test_functions_keyed_on_fields(self):
        stock = config_by_name("BabelFish")
        tweaked = config_by_name("BabelFish", orpc_enabled=False)
        key = functions_key_data(stock, True, 1, 0.08)
        other = functions_key_data(tweaked, True, 1, 0.08)
        assert canonical_json(key) != canonical_json(other)

    def test_config_roundtrip_through_field_dict(self):
        config = config_by_name("BabelFish", orpc_enabled=False,
                                pc_bitmask_bits=8)
        rebuilt = config_from_fields(config_field_dict(config))
        assert rebuilt == config
        assert _app_key(rebuilt) == _app_key(config)


class TestReportArgs:
    def test_explicit_zero_cores_errors(self):
        from repro import report
        with pytest.raises(SystemExit) as excinfo:
            report.parse_args(["--cores", "0"])
        assert excinfo.value.code == 2

    def test_explicit_zero_scale_errors(self):
        from repro import report
        with pytest.raises(SystemExit) as excinfo:
            report.parse_args(["--scale", "0"])
        assert excinfo.value.code == 2

    def test_negative_jobs_errors(self):
        from repro import report
        with pytest.raises(SystemExit):
            report.parse_args(["--jobs", "0"])

    def test_quick_defaults(self):
        from repro import report
        args = report.parse_args(["--quick"])
        assert args.cores == 2
        assert args.scale == 0.25

    def test_explicit_values_respected(self):
        from repro import report
        args = report.parse_args(["--quick", "--cores", "1",
                                  "--scale", "0.5"])
        assert args.cores == 1
        assert args.scale == 0.5


class TestWarmupEdgeCases:
    def test_zero_binary_and_lib_pages(self):
        """Regression: _os_warmup computed ``page % image.binary_pages``
        (and the lib equivalent), so an image with no binary or library
        pages raised ZeroDivisionError even though there is simply no
        code working set to warm."""
        from repro.experiments.common import Deployment, _os_warmup
        env = build_environment(config_by_name("Baseline"), cores=1)
        deployment = deploy_app(env, APP_PROFILES["httpd"])
        codeless = dataclasses.replace(
            deployment.profile,
            image=dataclasses.replace(deployment.profile.image,
                                      binary_pages=0, lib_pages=0))
        assert codeless.code_hot and codeless.lib_hot
        _os_warmup(env, Deployment(codeless, deployment.group,
                                   deployment.containers,
                                   deployment.dataset_file))


class TestDiskCache:
    def test_hit_skips_simulation_and_preserves_summary(self, tmp_path):
        set_disk_cache(DiskRunCache(tmp_path, fingerprint="fp-a"))
        before = simulation_run_count()
        live = run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert simulation_run_count() == before + 1
        clear_run_cache()
        cached = run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert simulation_run_count() == before + 1  # no re-simulation
        assert cached is not live
        assert cached.result.stats.as_dict() == live.result.stats.as_dict()
        assert cached.result.request_latency == live.result.request_latency
        assert cached.result.mean_latency == live.result.mean_latency

    def test_kernel_snapshot_survives(self, tmp_path):
        from repro.kernel.frames import FrameKind
        set_disk_cache(DiskRunCache(tmp_path, fingerprint="fp-a"))
        live = run_app("httpd", config_by_name("BabelFish"), **SMALL)
        # A cached run carries no environment: read the kernel off a
        # fresh live run of the same request.
        kernel = run_app("httpd", config_by_name("BabelFish"),
                         use_cache=False, **SMALL).env.kernel
        assert live.kernel_snapshot["frame_counts"]["PAGE_TABLE"] \
            == kernel.allocator.count(FrameKind.PAGE_TABLE)
        assert live.kernel_snapshot["policy_registry_len"] \
            == len(kernel.policy.registry) > 0
        clear_run_cache()
        cached = run_app("httpd", config_by_name("BabelFish"), **SMALL)
        assert cached.env is None
        assert cached.kernel_snapshot == live.kernel_snapshot

    def test_functions_roundtrip(self, tmp_path):
        set_disk_cache(DiskRunCache(tmp_path, fingerprint="fp-a"))
        before = simulation_run_count()
        live = run_functions(config_by_name("BabelFish"), dense=True, **SMALL)
        clear_run_cache()
        cached = run_functions(config_by_name("BabelFish"), dense=True,
                               **SMALL)
        assert simulation_run_count() == before + 1
        assert cached.bringup_cycles == live.bringup_cycles
        assert cached.exec_cycles == live.exec_cycles

    def test_code_fingerprint_invalidates(self, tmp_path):
        set_disk_cache(DiskRunCache(tmp_path, fingerprint="fp-a"))
        before = simulation_run_count()
        run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert simulation_run_count() == before + 1
        # Same cache dir, new code fingerprint: entry no longer matches.
        set_disk_cache(DiskRunCache(tmp_path, fingerprint="fp-b"))
        clear_run_cache()
        run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert simulation_run_count() == before + 2

    def test_distinct_configs_distinct_entries(self, tmp_path):
        cache = DiskRunCache(tmp_path, fingerprint="fp-a")
        set_disk_cache(cache)
        run_app("httpd", config_by_name("Baseline"), **SMALL)
        run_app("httpd", config_by_name("Baseline", thp_enabled=False),
                **SMALL)
        assert len(cache.entries()) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskRunCache(tmp_path, fingerprint="fp-a")
        set_disk_cache(cache)
        before = simulation_run_count()
        run_app("httpd", config_by_name("Baseline"), **SMALL)
        for path in cache.entries():
            path.write_text("{ not json")
        clear_run_cache()
        run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert simulation_run_count() == before + 2

    def test_clear(self, tmp_path):
        cache = DiskRunCache(tmp_path, fingerprint="fp-a")
        set_disk_cache(cache)
        run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert cache.clear() == 1
        assert cache.entries() == []


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=4)),
    max_leaves=10)

#: Any JSON value except a well-formed entry (an object whose payload is
#: an object): objects with a non-object payload are drawn explicitly.
_NOT_AN_ENTRY = (
    _JSON_VALUES.filter(lambda v: not (isinstance(v, dict)
                                       and isinstance(v.get("payload"), dict)))
    | st.builds(lambda extra, payload: {**extra, "payload": payload},
                st.dictionaries(st.sampled_from(["key", "code"]),
                                _JSON_VALUES),
                _JSON_VALUES.filter(lambda v: not isinstance(v, dict))))

_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _cached_shape(kind, run):
    """What every ``use_cache=True`` run of ``kind`` must look like: no
    live environment, and the summary artifacts."""
    assert run.env is None
    if kind == "app":
        assert run.deployment is None
    else:
        assert run.containers is None
    return run.result.as_dict(), run.kernel_snapshot


def _cached_call(kind):
    if kind == "app":
        return run_app("httpd", config_by_name("BabelFish"), **SMALL)
    return run_functions(config_by_name("BabelFish"), dense=True, **SMALL)


class TestCachedRunShape:
    @pytest.mark.parametrize("kind", ["app", "functions"])
    def test_one_shape_on_every_path(self, tmp_path, kind):
        """The simulating call, a memo hit, a disk hit and ``execute``
        all return a summary-shaped run with the same artifacts."""
        set_disk_cache(DiskRunCache(tmp_path, fingerprint="fp-a"))
        before = simulation_run_count()
        simulated = _cached_shape(kind, _cached_call(kind))
        assert simulation_run_count() == before + 1
        assert _cached_shape(kind, _cached_call(kind)) == simulated
        clear_run_cache()
        assert _cached_shape(kind, _cached_call(kind)) == simulated
        assert simulation_run_count() == before + 1
        set_disk_cache(None)
        clear_run_cache()
        request = RunRequest(kind=kind, app="httpd" if kind == "app" else None,
                             config_name="BabelFish", **SMALL)
        (executed,) = execute([request], jobs=1)
        assert simulation_run_count() == before + 2
        assert _cached_shape(kind, executed) == simulated

    def test_violations_survive_the_memo(self, tmp_path, monkeypatch):
        """The summary keeps only the violation count, but the memoized
        run still carries the live run's violation records; the disk
        store skips the incoherent run."""
        finish = Simulator._finish

        def finish_with_violation(sim):
            result = finish(sim)
            result.coherence_violations.append("injected")
            return result

        monkeypatch.setattr(Simulator, "_finish", finish_with_violation)
        cache = DiskRunCache(tmp_path, fingerprint="fp-a")
        set_disk_cache(cache)
        first = run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert first.result.coherence_violations == ["injected"]
        assert first.result.as_dict()["coherence_violations"] == 1
        hit = run_app("httpd", config_by_name("Baseline"), **SMALL)
        assert hit.result.coherence_violations == ["injected"]
        assert cache.entries() == []


class TestEnvironmentLifetime:
    def test_finished_runs_free_their_simulator(self, monkeypatch):
        """A finished stock run leaves no live ``Simulator``: reference
        counting frees the environment as soon as the last reference to
        it drops, with no cyclic garbage left for the collector."""
        simulators = []
        build = common.build_environment

        def capturing_build(config, cores=8):
            env = build(config, cores=cores)
            simulators.append(weakref.ref(env.sim))
            return env

        monkeypatch.setattr(common, "build_environment", capturing_build)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for name in ("Baseline", "BabelFish"):
                config = config_by_name(name)
                for call in (
                        lambda **kw: run_app("httpd", config, **kw),
                        lambda **kw: run_functions(config, dense=True, **kw)):
                    call(**SMALL)
                    live = call(use_cache=False, **SMALL)
                    assert live.env is not None
                    del live
                    assert len(simulators) == 2
                    assert [ref() for ref in simulators] == [None, None]
                    simulators.clear()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestDiskCacheEntryFuzz:
    """A real stored entry, damaged: ``load`` returns the stored payload
    or None, never raises, and counts a hit only when it returns one."""

    KEY = {"kind": "app", "app": "httpd", "cores": 1}
    PAYLOAD = {"stats": {"accesses_d": 12, "l1_hits_d": 9},
               "request_latency": [[1, 40]]}

    def _load(self, cache):
        hits, misses = cache.hits, cache.misses
        got = cache.load(self.KEY)
        assert got is None or got == self.PAYLOAD
        hit = got is not None
        assert (cache.hits - hits, cache.misses - misses) == (
            (1, 0) if hit else (0, 1))
        return got

    @_FUZZ
    @given(data=st.data())
    def test_truncated_entry(self, tmp_path, data):
        cache = DiskRunCache(tmp_path, fingerprint="fp-a")
        path = cache.store(self.KEY, self.PAYLOAD)
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob)))
        path.write_bytes(blob[:cut])
        assert (self._load(cache) is not None) == (cut == len(blob))

    @_FUZZ
    @given(value=_NOT_AN_ENTRY)
    @example(value=[])
    @example(value=None)
    @example(value="x")
    @example(value={"key": {}, "code": "fp-a"})
    @example(value={"payload": None})
    def test_replaced_entry(self, tmp_path, value):
        cache = DiskRunCache(tmp_path, fingerprint="fp-a")
        path = cache.store(self.KEY, self.PAYLOAD)
        assert self._load(cache) == self.PAYLOAD
        path.write_text(json.dumps(value))
        assert self._load(cache) is None


def _result_signature(run):
    """Everything the report reads off a result. Pid-keyed maps compare
    by value sequence: pids depend on process history, the cycles don't."""
    result = run.result
    return (result.stats.as_dict(), sorted(result.request_latency.items()),
            sorted(result.core_cycles.items()),
            [v for _k, v in sorted(result.process_cycles.items())],
            [v for _k, v in sorted(result.completion_cycles.items())])


class TestParallelRunner:
    MATRIX = [
        RunRequest(kind="app", app="httpd", config_name="Baseline", **SMALL),
        RunRequest(kind="app", app="httpd", config_name="BabelFish", **SMALL),
        RunRequest(kind="functions", config_name="Baseline", dense=True,
                   **SMALL),
        RunRequest(kind="functions", config_name="BabelFish", dense=True,
                   **SMALL),
    ]

    def test_parallel_equals_sequential(self):
        sequential = execute(self.MATRIX, jobs=1)
        signatures = [_result_signature(run) for run in sequential]
        clear_run_cache()
        parallel = execute(self.MATRIX, jobs=2)
        assert [_result_signature(run) for run in parallel] == signatures

    def test_execute_seeds_run_cache(self):
        before = simulation_run_count()
        execute(self.MATRIX[:2], jobs=2)
        # The harness path (run_app) must now hit the seeded memo without
        # simulating in this process.
        run_app("httpd", config_by_name("Baseline"), **SMALL)
        run_app("httpd", config_by_name("BabelFish"), **SMALL)
        assert simulation_run_count() == before

    def test_parallel_workers_populate_disk_cache(self, tmp_path):
        cache = DiskRunCache(tmp_path, fingerprint="fp-a")
        set_disk_cache(cache)
        execute(self.MATRIX[:2], jobs=2)
        assert len(cache.entries()) == 2

    def test_execute_deduplicates(self):
        before = simulation_run_count()
        runs = execute([self.MATRIX[0], self.MATRIX[0]], jobs=1)
        assert len(runs) == 2
        assert runs[0] is runs[1]
        assert simulation_run_count() == before + 1

    def test_overrides_reach_config(self):
        request = RunRequest(kind="app", app="httpd",
                             config_name="Baseline",
                             overrides=request_overrides(thp_enabled=False),
                             **SMALL)
        assert request.config().thp_enabled is False

    def test_matrices_cover_report(self):
        matrix = fig11.requests(cores=2, scale=0.25)
        apps = {r.app for r in matrix if r.kind == "app"}
        assert len(apps) == 5
        assert len(matrix) == len(set(matrix))

    def test_parallel_map_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], jobs=2) == [9, 1, 4]

    def test_parallel_progress_counts_completed_futures(self):
        """Under ``jobs > 1`` the parent advances the monitor once per
        completed future; cache hits only bump the ``cached`` counter."""
        execute(self.MATRIX[:1], jobs=1)
        lines = []
        monitor = ProgressMonitor(unit="runs", label="matrix",
                                  clock=lambda: 0.0, emit=lines.append)
        execute(self.MATRIX[:3], jobs=2, monitor=monitor)
        assert monitor.total == 2
        assert monitor.done == 2
        assert monitor.counters == {"cached": 1}
        assert lines[-1].startswith("[matrix] done:")


HARNESSES = {
    "fig10": (run_fig10, {}),
    "fig11": (fig11.run_fig11, {}),
    "table2": (run_table2, {}),
    "bringup": (run_bringup, {}),
    "comparison": (run_comparison, {}),
    "density": (run_density_sweep, {"densities": (2, 3)}),
    "aslr": (ablations.run_aslr_ablation, {}),
    "orpc": (ablations.run_orpc_ablation, {}),
    "quantum": (ablations.run_quantum_ablation, {}),
}


class TestHarnessJobs:
    @pytest.mark.parametrize("name", sorted(HARNESSES))
    def test_parallel_rows_equal_sequential(self, name):
        """Each harness runs its one request list through ``execute``;
        the worker-pool path must give the rows the in-process loop
        gives."""
        harness, kwargs = HARNESSES[name]
        sequential = harness(cores=1, scale=0.05, jobs=1, **kwargs)
        clear_run_cache()
        before = simulation_run_count()
        parallel = harness(cores=1, scale=0.05, jobs=2, **kwargs)
        assert simulation_run_count() == before
        assert parallel == sequential

    def test_fig10_runs_only_its_rows(self, tmp_path):
        """Figure 10 for one app stores its six runs (the app and both
        functions workloads, Baseline and BabelFish), not Figure 11's
        whole run set."""
        cache = DiskRunCache(tmp_path)
        set_disk_cache(cache)
        run_fig10(apps=("httpd",), cores=1, scale=0.05, jobs=2)
        assert len(cache.entries()) == 6


class TestReportMemo:
    def test_report_simulates_each_run_once(self, capsys):
        """The report reads Figures 10/11, bring-up and resources off one
        run matrix: each of its 14 runs simulates once (bring-up reuses
        Figure 11's functions runs from memory), plus Figure 9's uncached
        functions run."""
        from repro import report
        before = simulation_run_count()
        assert report.main(["--cores", "1", "--scale", "0.05",
                            "--no-disk-cache"]) == 0
        assert len(set(fig11.requests(cores=1, scale=0.05))) == 14
        assert simulation_run_count() == before + 15
        assert "Bring-up" in capsys.readouterr().out


def _square(value):
    return value * value
