"""Self-tests of the benchmark harness: ``python3 perfbench/selftest.py``.

They cover the harness, not the simulator: self-time arithmetic on
synthetic nested spans, that a perturbed ``RunResult`` counts as a
failed run, that every wrapped method is back in place once the
instrumentation exits, and the speed clock's rescaling.
"""

import dataclasses
import pathlib
import signal
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.spans = layers.Spans(clock=self.clock)

    def nest(self, outer_inclusive=False):
        clock, spans = self.clock, self.spans

        def inner():
            clock.advance(2)

        inner = spans.timed("inner", inner, count="inner.calls")

        def middle():
            clock.advance(3)
            inner()
            inner()

        middle = spans.timed("middle", middle)

        def outer():
            clock.advance(1)
            middle()
            clock.advance(1)

        return spans.timed("outer", outer, inclusive=outer_inclusive)

    def test_self_time_excludes_children(self):
        self.nest()()
        self.assertEqual(self.spans.self_s,
                         {"inner": 4, "middle": 3, "outer": 2})
        self.assertEqual(self.spans.count("inner.calls"), 2)

    def test_inclusive_span_keeps_children_and_parent_still_excludes_it(self):
        outer = self.nest(outer_inclusive=True)
        top = self.spans.timed("top", lambda: (self.clock.advance(5),
                                               outer()))
        top()
        self.assertEqual(self.spans.self_s["outer"], 1 + 3 + 2 * 2 + 1)
        self.assertEqual(self.spans.self_s["middle"], 3)
        self.assertEqual(self.spans.self_s["top"], 5)

    def test_exception_still_closes_the_span(self):
        def boom():
            self.clock.advance(4)
            raise ValueError("x")

        boom = self.spans.timed("boom", boom, count="booms")
        outer = self.spans.timed("outer", lambda: boom())
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual(self.spans.self_s, {"boom": 4, "outer": 0})
        self.assertEqual(self.spans.count("booms"), 1)

    def test_per_record_spans(self):
        clock, spans = self.clock, self.spans
        child = spans.timed("child", lambda: clock.advance(2))

        def records(n):
            for i in range(n):
                clock.advance(1)
                child()
                yield i

        timed = spans.timed_records("gen", records, "gen.records")
        consumer = spans.timed("loop", lambda: list(timed(3)))
        self.assertEqual(consumer(), [0, 1, 2])
        self.assertEqual(spans.self_s, {"child": 6, "gen": 3, "loop": 0})
        self.assertEqual(spans.count("gen.records"), 3)


def pinned_pass(result):
    """A worker pass result holding one run, and its pinned entry."""
    data = {"ok": True, "digests": [worker.digest(result.as_dict())],
            "violations": [len(result.coherence_violations)],
            "stats": worker.stat_totals([result]), "table": None,
            "round_trip_errors": []}
    expected = {"digests": list(data["digests"]),
                "stats": dict(data["stats"]), "table": None}
    return data, expected


class OutputCheckTest(unittest.TestCase):
    def make_result(self):
        from repro.sim.stats import RunResult
        result = RunResult("Baseline")
        result.stats.instructions = 1000
        result.stats.walks = 7
        result.core_cycles = {0: 5000, 1: 4000}
        result.process_cycles = {11: 3000, 12: 6000}
        return result

    def test_matching_pass_is_clean(self):
        data, expected = pinned_pass(self.make_result())
        self.assertEqual(run.check_pass(expected, data), (1, 0, []))

    def test_perturbed_run_counts_as_failed(self):
        result = self.make_result()
        _data, expected = pinned_pass(result)
        result.stats.walks += 1
        data, _ = pinned_pass(result)
        attempted, failed, problems = run.check_pass(expected, data)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertTrue(any("drifted" in p for p in problems))

    def test_coherence_violation_counts_as_failed(self):
        result = self.make_result()
        data, expected = pinned_pass(result)
        data["violations"] = [1]
        self.assertEqual(run.check_pass(expected, data)[:2], (1, 1))

    def test_raised_pass_fails_every_pinned_run(self):
        _data, expected = pinned_pass(self.make_result())
        expected["digests"] *= 3
        attempted, failed, problems = run.check_pass(
            expected, {"ok": False, "error": "Traceback: boom"})
        self.assertEqual((attempted, failed), (3, 3))
        self.assertEqual(problems, ["Traceback: boom"])

    def test_table_and_round_trip_problems_are_reported(self):
        data, expected = pinned_pass(self.make_result())
        expected["table"] = ["a"]
        data["table"] = ["b"]
        data["round_trip_errors"] = ["rehydrated run differs"]
        _attempted, failed, problems = run.check_pass(expected, data)
        self.assertEqual(failed, 0)
        self.assertEqual(len(problems), 2)


class RestoreTest(unittest.TestCase):
    def test_every_wrapped_method_is_restored(self):
        import json
        import repro.report  # noqa: F401  (loads every experiment module)
        from repro.experiments.runcache import DiskRunCache
        from repro.sim.simulator import Simulator

        design = json.loads(run.DESIGN.read_text())
        targets = [t for layer in design["layers"] for t in layer["wraps"]]
        targets += list(layers.TRACE_GENERATORS)
        pairs = [pair for t in targets for pair in layers.resolve(t)]
        pairs += [(Simulator, "run"), (Simulator, "reset_measurement"),
                  (DiskRunCache, "store")]
        before = {(id(o), n): vars(o).get(n) for o, n in pairs}

        patcher = layers.Patcher()
        with patcher:
            layers.install_seed_variant(patcher, 12345)
            layers.Windows().install(patcher)
            patcher.patch(DiskRunCache, "store", lambda store: store)
            layers.install_spans(patcher, layers.Spans(), design["layers"])
            wrapped = [(o, n) for o, n in pairs
                       if vars(o).get(n) is not before[(id(o), n)]]
            self.assertGreater(len(wrapped), len(design["layers"]))
        self.assertEqual(patcher.leftovers(), [])
        for owner, name in pairs:
            self.assertIs(vars(owner).get(name), before[(id(owner), name)],
                          "%r.%s" % (owner, name))


class SeedVariantTest(unittest.TestCase):
    def test_shift_changes_stream_not_shape(self):
        from repro.workloads import functions
        from repro.workloads.profiles import FUNCTION_PROFILES
        profile = dataclasses.replace(FUNCTION_PROFILES["parse"], passes=1)

        def stream():
            return list(functions.function_trace(profile, False, 0, 0, 0))

        stock = stream()
        with layers.Patcher() as patcher:
            layers.install_seed_variant(patcher, 0)
            self.assertEqual(patcher.leftovers(), [])
            self.assertEqual(stream(), stock)
            layers.install_seed_variant(patcher, 1000003)
            shifted = stream()
        self.assertEqual(len(shifted), len(stock))
        self.assertNotEqual(shifted, stock)
        self.assertEqual(stream(), stock)


class SpeedClockTest(unittest.TestCase):
    def test_slices_scale_by_the_probe_before_them(self):
        clock = FakeClock()
        durations = iter([0.25, 0.125])
        speed_clock = speed.SpeedClock(reference_s=0.125, interval_s=1000,
                                       rounds=1, clock=clock)
        previous = signal.getsignal(signal.SIGALRM)
        original_probe = speed.probe
        speed.probe = lambda rounds: clock.advance(next(durations))
        try:
            # The first probe takes twice the reference: half speed.
            speed_clock.start()
            self.assertEqual(speed_clock(), 0.0)
            clock.advance(1.0)
            self.assertEqual(speed_clock(), 0.5)
            # The next one takes the reference, and itself counts nothing.
            speed_clock._probe()
            self.assertEqual(speed_clock(), 0.5)
            clock.advance(2.0)
            self.assertEqual(speed_clock(), 2.5)
        finally:
            speed.probe = original_probe
            speed_clock.stop()
        self.assertEqual(speed_clock.probes, [0.25, 0.125])
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)


class TierTest(unittest.TestCase):
    def test_tier_switches_are_refused(self):
        env = {"PATH": "/bin", "REPRO_BATCH_NUMPY": "0",
               "REPRO_FASTPATH": "1", "REPRO_OTHER": "x"}
        self.assertEqual(run.tier_violations(env),
                         ["REPRO_BATCH_NUMPY", "REPRO_FASTPATH"])
        with self.assertRaises(run.BenchmarkError):
            run.check_environment(env)


if __name__ == "__main__":
    unittest.main()
