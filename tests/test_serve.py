"""The serving daemon: framing, request mapping, scheduling, cache
concurrency, and end-to-end serving with crash recovery.

The end-to-end class drives a real in-process daemon (unix socket, one
spawned pool worker) through the full client surface: a warm run, a
cache hit, fault-injected worker death with a bit-identical retry, and
the typed framing errors. The drain test exercises the CLI daemon as a
subprocess under SIGTERM.
"""

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import runner
from repro.experiments.common import clear_run_cache, set_disk_cache
from repro.experiments.runcache import DiskRunCache
from repro.obs import perfwatch
from repro.obs.__main__ import main as obs_main
from repro.serve import loadgen, protocol
from repro.serve.daemon import Job, ServeDaemon, TwoClassScheduler
from repro.sim.stats import percentile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOAD = {"app": "mongodb", "config_name": "BabelFish",
            "cores": 1, "scale": 0.02}


@pytest.fixture(autouse=True)
def _isolated_caches():
    previous = set_disk_cache(None)
    clear_run_cache()
    yield
    set_disk_cache(previous)
    clear_run_cache()


def canonical(summary):
    return json.dumps(summary, sort_keys=True, separators=(",", ":"))


# -- framing ------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        frame = protocol.encode_frame({"op": "ping", "id": 7})
        decoder = protocol.FrameDecoder()
        decoder.feed(frame)
        assert list(decoder.frames()) == [{"op": "ping", "id": 7}]
        assert decoder.at_boundary()

    def test_byte_at_a_time_and_pipelined(self):
        frames = (protocol.encode_frame({"id": 1})
                  + protocol.encode_frame({"id": 2}))
        decoder = protocol.FrameDecoder()
        seen = []
        for index in range(len(frames)):
            decoder.feed(frames[index:index + 1])
            seen.extend(decoder.frames())
        assert seen == [{"id": 1}, {"id": 2}]

    def test_oversized_declared_length_raises_before_payload(self):
        decoder = protocol.FrameDecoder(max_frame=64)
        decoder.feed((1 << 20).to_bytes(4, "big"))
        with pytest.raises(protocol.FrameTooLarge):
            list(decoder.frames())

    def test_oversized_encode_refused(self):
        with pytest.raises(protocol.FrameTooLarge):
            protocol.encode_frame({"blob": "x" * 128}, max_frame=64)

    def test_garbage_payloads(self):
        for payload in (b"not json", b"[1, 2]", b"\xff\xfe\x00"):
            with pytest.raises(protocol.FrameGarbage):
                protocol.decode_payload(payload)

    def test_error_codes_are_stable(self):
        assert protocol.error_body(protocol.FrameTooLarge("x"))["code"] \
            == "frame_too_large"
        assert protocol.error_body(protocol.FrameTruncated("x"))["code"] \
            == "frame_truncated"
        assert protocol.error_body(protocol.FrameGarbage("x"))["code"] \
            == "frame_garbage"
        assert protocol.error_body(protocol.BadRequest("x"))["code"] \
            == "bad_request"
        assert protocol.error_body(ValueError("x"))["code"] == "internal"

    def test_read_frame_clean_eof_is_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await protocol.read_frame(reader)
        assert asyncio.run(scenario()) is None

    def test_read_frame_truncated_header_and_payload(self):
        async def scenario(data):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await protocol.read_frame(reader)
        with pytest.raises(protocol.FrameTruncated):
            asyncio.run(scenario(b"\x00\x00"))
        with pytest.raises(protocol.FrameTruncated):
            asyncio.run(scenario(b"\x00\x00\x00\x09{\"op\""))

    def test_read_frame_oversized_without_reading_payload(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data((1 << 30).to_bytes(4, "big"))
            return await protocol.read_frame(reader, max_frame=1024)
        with pytest.raises(protocol.FrameTooLarge):
            asyncio.run(scenario())


# -- request mapping ----------------------------------------------------------


class TestWireRequest:
    def test_round_trip_preserves_the_request(self):
        request = runner.RunRequest(
            kind="app", app="httpd", config_name="BabelFish",
            overrides=runner.request_overrides(thp_enabled=False),
            cores=2, scale=0.5, containers_per_core=3, dense=True)
        wire = protocol.request_to_wire(request)
        assert protocol.wire_to_request(json.loads(json.dumps(wire))) \
            == request

    def test_rejections_name_the_field(self):
        bad = [
            ({"kind": "nope"}, "kind"),
            ({"app": "excel"}, "app"),
            ({"app": "mongodb", "config_name": "NoSuch"}, "config"),
            ({"app": "mongodb", "overrides": [1]}, "overrides"),
            ({"app": "mongodb", "overrides": {"thp_enabled": [1]}},
             "scalar"),
            ({"app": "mongodb", "overrides": {"batch": True}}, "batch"),
            ({"app": "mongodb", "cores": 0}, "cores"),
            ({"app": "mongodb", "cores": True}, "cores"),
            ({"app": "mongodb", "scale": -1}, "scale"),
            ({"app": "mongodb", "containers_per_core": 0},
             "containers_per_core"),
            ({"app": "mongodb", "dense": 1}, "dense"),
        ]
        for body, needle in bad:
            with pytest.raises(protocol.BadRequest) as err:
                protocol.wire_to_request(body)
            assert needle in str(err.value)

    def test_request_key_matches_direct_runs(self):
        wire = {"app": "mongodb", "config_name": "BabelFish",
                "cores": 1, "scale": 0.05}
        request = protocol.wire_to_request(wire)
        direct = runner.RunRequest(kind="app", app="mongodb",
                                   config_name="BabelFish",
                                   cores=1, scale=0.05)
        assert runner.request_key_data(request) \
            == runner.request_key_data(direct)


# -- scheduling ---------------------------------------------------------------


class TestTwoClassScheduler:
    def test_interactive_preempts_batch_fifo_within_class(self):
        async def scenario():
            sched = TwoClassScheduler()
            jobs = [Job({"n": 0}, "batch"), Job({"n": 1}, "interactive"),
                    Job({"n": 2}, "batch"), Job({"n": 3}, "interactive")]
            for job in jobs:
                sched.push(job)
            assert sched.depth() == {"interactive": 2, "batch": 2}
            order = [await sched.get() for _ in range(4)]
            return jobs, order, sched
        jobs, order, sched = asyncio.run(scenario())
        assert order == [jobs[1], jobs[3], jobs[0], jobs[2]]
        assert sched.pushed == {"interactive": 2, "batch": 2}
        assert sched.depth() == {"interactive": 0, "batch": 0}

    def test_get_waits_for_a_late_push(self):
        async def scenario():
            sched = TwoClassScheduler()

            async def late():
                await asyncio.sleep(0.01)
                sched.push(Job({"late": True}, "batch"))
            asyncio.ensure_future(late())
            job = await asyncio.wait_for(sched.get(), timeout=5)
            return job.payload
        assert asyncio.run(scenario()) == {"late": True}


# -- open-loop arrival plan -------------------------------------------------


class TestArrivalPlan:
    def test_warm_floor(self):
        # A sparse draw (the smoke's 2 s at 3/s is about 6 arrivals) is
        # padded to WARM_FLOOR warm-class arrivals, enough that the
        # nearest-rank p95 is not the slowest one, spread over the same
        # window, with both classes and both priorities present.
        assert loadgen.WARM_FLOOR == 20
        for seed in range(20):
            plan = loadgen.arrival_plan(random.Random(seed), 3.0, 2.0)
            warm = [spec for spec in plan if spec[2] == "warm"]
            assert len(warm) >= loadgen.WARM_FLOOR
            service = [float(n) for n in range(len(warm))]
            assert percentile(service, 95) < max(service)
            assert [spec[0] for spec in plan] == list(range(len(plan)))
            offsets = [spec[1] for spec in plan]
            assert offsets == sorted(offsets)
            assert 0.0 <= offsets[0] and offsets[-1] < 2.0
            assert {spec[2] for spec in plan} == {"warm", "cache"}
            assert {spec[3] for spec in plan} == {"batch", "interactive"}
        # A draw that already meets the floor is left as it is.
        draw = loadgen.poisson_arrivals(random.Random(5), 40.0, 2.0)
        assert loadgen._warm_count(len(draw)) >= loadgen.WARM_FLOOR
        plan = loadgen.arrival_plan(random.Random(5), 40.0, 2.0)
        assert [spec[1] for spec in plan] == draw


# -- run-cache concurrency ----------------------------------------------------


class TestRunCacheConcurrency:
    def test_stale_truncated_tmp_files_are_invisible(self, tmp_path):
        """Regression: leftover staging files from a crashed writer must
        never be read, collide with, or count as entries."""
        cache = DiskRunCache(tmp_path, fingerprint="fp")
        key = {"k": 1}
        final = cache.store(key, {"v": 1})
        # A dead writer's truncated staging files, both the old shared
        # name and a modern unique one.
        final.with_name(final.stem + ".tmp").write_text('{"key": {"k')
        final.with_name(final.stem + ".tmp.999.0").write_text('{"pay')
        assert cache.load(key) == {"v": 1}
        assert cache.entries() == [final]
        assert cache.store(key, {"v": 2}) == final
        assert cache.load(key) == {"v": 2}

    def test_torn_final_entry_is_a_miss_and_repairable(self, tmp_path):
        cache = DiskRunCache(tmp_path, fingerprint="fp")
        key = {"k": 2}
        path = cache.store(key, {"v": 1})
        path.write_text('{"payload": {"v"')  # torn by external fault
        assert cache.load(key) is None
        cache.store(key, {"v": 3})
        assert cache.load(key) == {"v": 3}

    def test_concurrent_same_key_writers_never_tear_a_read(self, tmp_path):
        """N writers hammering one key while a reader polls: every load
        observes either a miss or one complete payload, every staged
        tmp file is gone afterwards, and no writer errors out."""
        key = {"k": 3}
        payload = {"rows": list(range(200)), "nested": {"deep": "x" * 64}}
        errors = []
        stop = threading.Event()

        def write():
            cache = DiskRunCache(tmp_path, fingerprint="fp")
            try:
                for _ in range(40):
                    cache.store(key, payload)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        def read():
            cache = DiskRunCache(tmp_path, fingerprint="fp")
            while not stop.is_set():
                got = cache.load(key)
                if got is not None and got != payload:
                    errors.append(AssertionError("torn read"))
                    return

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write) for _ in range(6)]
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
        assert errors == []
        cache = DiskRunCache(tmp_path, fingerprint="fp")
        assert cache.load(key) == payload
        assert list(tmp_path.glob("*.tmp.*")) == []


# -- perfwatch gating of the serve trajectory ---------------------------------


class TestPerfwatchServeGate:
    @staticmethod
    def _trajectory(warm_speedup, identical=True):
        return {"tiers": {"serve": {"warm_speedup": warm_speedup,
                                    "identical": identical}}}

    def test_watched_override_gates_the_serve_ratio(self):
        base = self._trajectory(2.0)
        ok = self._trajectory(1.8)
        bad = self._trajectory(0.5)
        watched = ("warm_speedup",)
        assert perfwatch.compare(ok, base, watched=watched,
                                 default_tolerance=0.5)[1] == []
        _rows, regressions = perfwatch.compare(bad, base, watched=watched,
                                               default_tolerance=0.5)
        assert [r["metric"] for r in regressions] == ["warm_speedup"]

    def test_identity_failure_is_unconditional(self):
        _rows, regressions = perfwatch.compare(
            self._trajectory(9.9, identical=False), self._trajectory(2.0),
            watched=("warm_speedup",))
        assert [r["metric"] for r in regressions] == ["identical"]

    def test_cli_bench_and_ratio_flags(self, tmp_path):
        base = tmp_path / "BENCH_serve_base.json"
        fresh = tmp_path / "BENCH_serve.json"
        base.write_text(json.dumps(self._trajectory(2.0)))
        fresh.write_text(json.dumps(self._trajectory(1.9)))
        assert obs_main(["perfwatch", "--bench", str(fresh),
                         "--baseline", str(base),
                         "--ratio", "warm_speedup",
                         "--tolerance", "serve=0.5"]) == 0
        fresh.write_text(json.dumps(self._trajectory(0.4)))
        assert obs_main(["perfwatch", "--bench", str(fresh),
                         "--baseline", str(base),
                         "--ratio", "warm_speedup",
                         "--tolerance", "serve=0.5"]) == 1


# -- end to end ---------------------------------------------------------------


async def _call(reader, writer, frame, timeout=240):
    """Send one frame; return the first non-progress reply (and the
    count of progress frames that preceded it)."""
    await protocol.write_frame(writer, frame)
    progress = 0
    while True:
        reply = await asyncio.wait_for(protocol.read_frame(reader),
                                       timeout=timeout)
        assert reply is not None, "connection closed mid-call"
        if reply.get("kind") == "progress":
            progress += 1
            continue
        reply["progress_frames"] = progress
        return reply


class TestServeDaemonEndToEnd:
    def test_serve_cache_crash_retry_and_framing_errors(self, tmp_path):
        """One daemon, one worker, the whole client surface: warm run,
        cache hit, chaos-killed worker retried bit-identically, typed
        framing/request errors, stats, graceful drain."""
        summaries = asyncio.run(self._scenario(tmp_path))
        warm, cached, retried, direct = summaries
        assert canonical(warm) == canonical(cached)
        assert canonical(warm) == canonical(retried)
        assert canonical(warm) == canonical(direct)

    async def _scenario(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        daemon = ServeDaemon(pool_size=1,
                             cache_root=str(tmp_path / "cache"),
                             warm=False)
        await daemon.start(socket_path=socket_path)
        try:
            reader, writer = await asyncio.open_unix_connection(socket_path)

            pong = await _call(reader, writer, {"op": "ping", "id": 0})
            assert pong["ok"] and not pong["draining"]

            # 1. First run simulates on the (cold-started) pool worker.
            run_frame = {"op": "run", "id": 1, "request": WORKLOAD,
                         "stream": True, "progress_interval": 0.01}
            first = await _call(reader, writer, run_frame)
            assert first["kind"] == "result"
            assert first["served"] == "warm"
            assert first["worker_pid"] not in (None, os.getpid())
            assert not first["retried"]

            # 2. The repeat is answered from the disk cache, no pool.
            second = await _call(reader, writer,
                                 {"op": "run", "id": 2,
                                  "request": WORKLOAD})
            assert second["served"] == "cache"
            assert second["worker_pid"] is None
            assert second["timings"]["queue_s"] == 0.0

            # 3. Chaos: the worker dies mid-request; the job retries on
            # a fresh worker and still returns the identical bytes.
            chaos = await _call(reader, writer,
                                {"op": "run", "id": 3, "request": WORKLOAD,
                                 "use_cache": False, "chaos": "exit"})
            assert chaos["kind"] == "result"
            assert chaos["served"] == "warm-retry"
            assert chaos["retried"]
            assert chaos["worker_pid"] != first["worker_pid"]

            # 4. Typed request errors leave the connection usable.
            bad_app = await _call(reader, writer,
                                  {"op": "run", "id": 4,
                                   "request": {"app": "excel"}})
            assert bad_app["kind"] == "error"
            assert bad_app["error"]["code"] == "bad_request"
            bad_prio = await _call(reader, writer,
                                   {"op": "run", "id": 5,
                                    "request": WORKLOAD,
                                    "priority": "turbo"})
            assert bad_prio["error"]["code"] == "bad_request"
            bad_op = await _call(reader, writer, {"op": "warp", "id": 6})
            assert bad_op["error"]["code"] == "bad_op"

            stats = await _call(reader, writer, {"op": "stats", "id": 7})
            counts = stats["stats"]
            assert counts["cache"] == 1
            assert counts["warm"] == 1
            assert counts["warm-retry"] == 1
            assert counts["worker_crashes"] == 1
            assert counts["pool"]["crashes"] == 1

            writer.close()
            await writer.wait_closed()

            # 5. Framing garbage gets one typed error, then the stream
            # closes (framing is lost, nothing hangs).
            g_reader, g_writer = await asyncio.open_unix_connection(
                socket_path)
            g_writer.write(b"\x00\x00\x00\x08notjson!")
            await g_writer.drain()
            error = await asyncio.wait_for(protocol.read_frame(g_reader),
                                           timeout=60)
            assert error["error"]["code"] == "frame_garbage"
            assert await asyncio.wait_for(protocol.read_frame(g_reader),
                                          timeout=60) is None
            g_writer.close()
            await g_writer.wait_closed()

            # 6. Direct in-process run of the same request for the
            # bit-identity comparison (fresh simulation, no caches).
            request = protocol.wire_to_request(WORKLOAD)
            run = await asyncio.get_running_loop().run_in_executor(
                None, lambda: runner.run_request(request, use_cache=False))
            direct = runner.request_summary(request, run)
            return (first["summary"], second["summary"], chaos["summary"],
                    json.loads(canonical(direct)))
        finally:
            await daemon.drain()


class TestDaemonDrainUnderSignal:
    def test_sigterm_drains_cleanly(self, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO, "src"),
                   REPRO_RUN_CACHE_DIR=str(tmp_path / "cache"))
        socket_path = str(tmp_path / "serve.sock")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "daemon",
             "--socket", socket_path, "--pool", "1", "--no-warm"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO)
        try:
            ready = self._await_line(proc, "ready on", timeout=120)
            assert socket_path in ready
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        assert proc.returncode == 0, out
        assert "repro-serve: draining" in out
        assert "drained after 0 request(s)" in out
        assert not os.path.exists(socket_path)

    @staticmethod
    def _await_line(proc, needle, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line and proc.poll() is not None:
                raise AssertionError("daemon exited before %r" % needle)
            if needle in line:
                return line
        raise AssertionError("timed out waiting for %r" % needle)
