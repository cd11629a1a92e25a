"""Live telemetry: streaming sinks and progress monitoring.

Two pieces, both usable independently of the simulator:

- **Streaming sinks** (:class:`StreamingSink` and its codec subclasses):
  a newline-delimited-JSON event stream the tracer drains to in chunks
  at ring-wrap, so long runs keep O(1) memory instead of dropping the
  oldest events. Writes go to a ``<path>.tmp`` staging file; ``close()``
  atomically renames it into place (the BENCH_hotpath.json idiom), so a
  killed run never leaves a truncated trace behind.
- **ProgressMonitor**: throughput/ETA tracking with periodic snapshot
  lines, built on an injectable clock so tests can drive it
  deterministically. The simulation packages never read wall time
  (BF202); they only call :meth:`ProgressMonitor.advance`, and the
  clock read happens here, inside ``obs``. Under a process-pool
  fan-out the parent advances its monitor once per completed future
  (:func:`repro.experiments.runner.execute`); workers report nothing.
"""

import json
import os
import sys
import time

from repro.obs import events as ev
from repro.obs import export


# -- streaming sinks -----------------------------------------------------------


class StreamingSink:
    """Plain-JSONL streaming event sink (and the sink protocol).

    The protocol the tracer relies on: ``write_events(iterable) -> n``
    (durable once returned), ``reset()`` (discard everything written so
    far — measurement reset), ``close() -> path`` (atomic finalize,
    idempotent), ``abort()`` (drop the staging file), ``snapshot()``
    (JSON-ready accounting dict).
    """

    codec = "jsonl"

    def __init__(self, path):
        self.path = str(path)
        self.tmp_path = self.path + ".tmp"
        self.events_written = 0
        self.flushes = 0
        self.finalized = False
        self._handle = self._open()

    def _open(self):
        return export.open_text(self.tmp_path, "w", codec=self._codec_name())

    def _codec_name(self):
        return {"jsonl": "plain", "gzip": "gzip", "zstd": "zstd"}[self.codec]

    def write_events(self, events):
        """Append a chunk of event tuples as JSONL; returns the count.

        The handle is flushed before returning so everything written is
        durable even if the process dies before ``close()`` (the staging
        file is then a complete prefix of the stream, just not yet
        renamed into place).
        """
        handle = self._handle
        dumps = json.dumps
        to_dict = ev.event_to_dict
        count = 0
        for event in events:
            handle.write(dumps(to_dict(event), sort_keys=True))
            handle.write("\n")
            count += 1
        handle.flush()
        self.events_written += count
        self.flushes += 1
        return count

    def reset(self):
        """Truncate the stream (warm-up events discarded at
        ``reset_measurement``, exactly like the in-memory ring)."""
        self._handle.close()
        self._handle = self._open()
        self.events_written = 0
        self.flushes = 0

    def close(self):
        """Finalize: flush, close, and atomically rename the staging
        file to the real path. Idempotent; returns the final path."""
        if not self.finalized:
            self._handle.close()
            os.replace(self.tmp_path, self.path)
            self.finalized = True
        return self.path

    def abort(self):
        """Close and remove the staging file without finalizing."""
        if not self.finalized:
            self._handle.close()
            try:
                os.remove(self.tmp_path)
            except OSError:
                pass

    def snapshot(self):
        return {"path": self.path, "codec": self.codec,
                "events_written": self.events_written,
                "flushes": self.flushes, "finalized": self.finalized}


class JsonlSink(StreamingSink):
    codec = "jsonl"


class GzipSink(StreamingSink):
    codec = "gzip"


class ZstdSink(StreamingSink):
    """Optional: requires stdlib ``compression.zstd`` (3.14+) or the
    ``zstandard`` package; :meth:`_open` raises RuntimeError otherwise."""

    codec = "zstd"


_SINK_BY_CODEC = {"plain": JsonlSink, "gzip": GzipSink, "zstd": ZstdSink}


def open_sink(path):
    """A streaming sink for ``path``, codec chosen by suffix
    (``.jsonl`` plain, ``.gz`` gzip, ``.zst`` zstd)."""
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return _SINK_BY_CODEC[export.codec_of(path)](path)


# -- progress monitoring -------------------------------------------------------


def _stderr_emit(line):
    print(line, file=sys.stderr, flush=True)


class ProgressMonitor:
    """Throughput/ETA tracker emitting periodic snapshot lines.

    Producers call :meth:`advance` with work deltas; a snapshot line is
    emitted whenever ``interval`` seconds have passed since the last one.
    The clock and the emit function are injectable, so tests drive it
    with a fake clock and capture lines in a list.
    """

    def __init__(self, total=None, unit="records", label="progress",
                 interval=1.0, clock=time.perf_counter, emit=None):
        self.total = total
        self.unit = unit
        self.label = label
        self.interval = interval
        self.clock = clock
        self.emit = _stderr_emit if emit is None else emit
        self.started = clock()
        self.done = 0
        self.counters = {}
        self.lines_emitted = 0
        self._last_time = self.started
        self._last_done = 0

    # -- producers ---------------------------------------------------------

    def advance(self, amount=0):
        self.done += amount
        now = self.clock()
        if now - self._last_time >= self.interval:
            self._emit_line(now)

    def advance_to(self, done_total):
        """Absolute form of :meth:`advance` (never moves backwards)."""
        self.advance(max(0, done_total - self.done))

    def count(self, name, amount=1):
        """A named auxiliary counter (launches, kills, cache hits...)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- derived quantities ------------------------------------------------

    def rate(self, now=None):
        """Whole-run throughput in units/second."""
        now = self.clock() if now is None else now
        elapsed = now - self.started
        return self.done / elapsed if elapsed > 0 else 0.0

    def window_rate(self, now=None):
        """Throughput since the last emitted line (falls back to the
        whole-run rate before the first line)."""
        now = self.clock() if now is None else now
        window = now - self._last_time
        if window <= 0:
            return self.rate(now)
        return (self.done - self._last_done) / window

    def eta_seconds(self, now=None):
        """Seconds to completion from the window rate; None when no
        total is known or nothing has moved yet."""
        if self.total is None:
            return None
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        rate = self.window_rate(now)
        if rate <= 0:
            rate = self.rate(now)
        if rate <= 0:
            return None
        return remaining / rate

    # -- lines -------------------------------------------------------------

    def snapshot_line(self, now=None):
        now = self.clock() if now is None else now
        parts = ["[%s]" % self.label]
        if self.total is not None:
            pct = 100.0 * self.done / self.total if self.total else 100.0
            parts.append("%s/%s %s (%.1f%%)"
                         % (_human(self.done), _human(self.total),
                            self.unit, pct))
        else:
            parts.append("%s %s" % (_human(self.done), self.unit))
        parts.append("%s %s/s" % (_human_rate(self.window_rate(now)),
                                  self.unit))
        for name in sorted(self.counters):
            parts.append("%s %s" % (name, _human(self.counters[name])))
        eta = self.eta_seconds(now)
        if eta is not None:
            parts.append("eta %s" % _human_seconds(eta))
        parts.append("elapsed %s" % _human_seconds(now - self.started))
        return " | ".join(parts)

    def _emit_line(self, now):
        self.emit(self.snapshot_line(now))
        self.lines_emitted += 1
        self._last_time = now
        self._last_done = self.done

    def finish(self):
        """Emit (and return) a final whole-run summary line."""
        now = self.clock()
        parts = ["[%s] done:" % self.label,
                 "%s %s" % (_human(self.done), self.unit),
                 "%s %s/s" % (_human_rate(self.rate(now)), self.unit)]
        for name in sorted(self.counters):
            parts.append("%s %s" % (name, _human(self.counters[name])))
        parts.append("elapsed %s" % _human_seconds(now - self.started))
        line = " | ".join(parts)
        self.emit(line)
        self.lines_emitted += 1
        return line

    def as_dict(self):
        now = self.clock()
        return {"label": self.label, "unit": self.unit, "done": self.done,
                "total": self.total,
                "counters": dict(sorted(self.counters.items())),
                "rate": self.rate(now), "elapsed": now - self.started,
                "lines_emitted": self.lines_emitted}


def _human(value):
    return format(int(value), ",d")


def _human_rate(value):
    if value >= 1_000_000:
        return "%.2fM" % (value / 1_000_000)
    if value >= 10_000:
        return "%.1fk" % (value / 1_000)
    return "%.1f" % value


def _human_seconds(seconds):
    if seconds >= 3600:
        return "%dh%02dm" % (seconds // 3600, (seconds % 3600) // 60)
    if seconds >= 60:
        return "%dm%02ds" % (seconds // 60, seconds % 60)
    return "%.1fs" % seconds
