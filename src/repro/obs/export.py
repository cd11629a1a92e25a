"""Trace files: the JSONL event stream and Chrome ``trace_event`` JSON.

The JSONL stream is the machine-readable firehose (one event dict per
line, grep/jq-friendly). :class:`StreamingSink` is its one writer: the
tracer drains its ring into a sink at ring-wrap, and :func:`write_jsonl`
writes a whole event list through one. The Chrome exporter produces the
subset of the `trace_event format <https://docs.google.com/document/d/
1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_ that ``chrome://tracing``
and Perfetto load: one track (tid) per core under a single "simulator"
process, complete events ("ph": "X") for scheduler quanta, and instant
events ("ph": "i") for faults and TLB invalidations. Timestamps are
core-local cycles presented as microseconds — relative spans are what
matter.

Every writer here is atomic (tmp file + ``os.replace``, the same idiom
the perf harness uses for BENCH_hotpath.json): a killed run leaves
either the previous complete artifact or a stray ``*.tmp``, never a
truncated ``trace.jsonl``. A ``.gz`` suffix selects gzip on both the
read and the write side. ``.zst`` is refused with ValueError: the
standard library has no zstd codec before Python 3.14.
"""

import gzip
import json
import os

from repro.obs import events as ev

#: The single chrome-trace process all core tracks live under.
_TRACE_PID = 0


def codec_of(path):
    """``"gzip"`` for a ``.gz`` path, else ``"jsonl"``; ValueError for
    ``.zst`` (it would otherwise be written as plain text)."""
    name = str(path)
    if name.endswith(".zst"):
        raise ValueError("%s: zstd streams are not supported; use .gz or "
                         "plain .jsonl" % name)
    return "gzip" if name.endswith(".gz") else "jsonl"


def open_text(path, mode="r", codec=None):
    """Open a text file for ``mode`` ``"r"`` or ``"w"``, gzip-compressed
    when the codec (default: from the path's suffix) is ``"gzip"``.

    ``codec`` overrides suffix detection — the streaming sink writes to
    a ``<path>.tmp`` staging file whose suffix no longer names the codec.
    """
    if (codec or codec_of(path)) == "gzip":
        return gzip.open(path, mode + "t")
    return open(path, mode)


# -- JSONL event streams --------------------------------------------------------


class StreamingSink:
    """A JSONL event stream written through a ``<path>.tmp`` staging file.

    The protocol the tracer relies on: ``write_events(iterable) -> n``
    (durable once returned), ``reset()`` (discard everything written so
    far — measurement reset), ``close() -> path`` (atomic finalize,
    idempotent), ``snapshot()`` (JSON-ready accounting dict). The codec
    comes from the path's suffix (:func:`codec_of`).
    """

    def __init__(self, path):
        self.path = str(path)
        self.codec = codec_of(self.path)
        self.tmp_path = self.path + ".tmp"
        self.events_written = 0
        self.flushes = 0
        self.finalized = False
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open_text(self.tmp_path, "w", codec=self.codec)

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
        self._handle = open_text(self.tmp_path, "w", codec=self.codec)
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


def write_jsonl(events, path):
    """Atomically write events as JSON Lines; returns the number
    written. A ``.gz`` suffix compresses the stream."""
    sink = StreamingSink(path)
    try:
        count = sink.write_events(events)
    except BaseException:
        sink.abort()
        raise
    sink.close()
    return count


def read_jsonl(path):
    with open_text(path) as source:
        return [json.loads(line) for line in source if line.strip()]


def chrome_trace_events(events):
    """Chrome ``traceEvents`` list for a run's event stream."""
    out = []
    cores = sorted({event[1] for event in events})
    for core in cores:
        out.append({"name": "thread_name", "ph": "M", "pid": _TRACE_PID,
                    "tid": core, "args": {"name": "core %d" % core}})
    for event in events:
        etype, core, cycle, pid = event[0], event[1], event[2], event[3]
        if etype == ev.QUANTUM:
            end_cycle, instructions = event[4], event[5]
            out.append({"name": "pid %d" % pid, "cat": "sched", "ph": "X",
                        "pid": _TRACE_PID, "tid": core, "ts": cycle,
                        "dur": max(0, end_cycle - cycle),
                        "args": {"pid": pid, "instructions": instructions}})
        elif etype == ev.FAULT:
            vpn, kind = event[4], event[5]
            out.append({"name": "fault:%s" % kind, "cat": "fault", "ph": "i",
                        "s": "t", "pid": _TRACE_PID, "tid": core, "ts": cycle,
                        "args": {"pid": pid, "vpn": vpn,
                                 "cycles": event[6]}})
        elif etype == ev.INVALIDATION:
            vpn, scope = event[4], event[5]
            out.append({"name": "inval:%s" % scope, "cat": "tlb", "ph": "i",
                        "s": "t", "pid": _TRACE_PID, "tid": core, "ts": cycle,
                        "args": {"pid": pid, "vpn": vpn}})
    return out


def chrome_trace(events, metadata=None):
    """The full JSON-object form of the trace_event format."""
    doc = {"traceEvents": chrome_trace_events(events),
           "displayTimeUnit": "ms"}
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc


def write_chrome_trace(events, path, metadata=None):
    doc = chrome_trace(events, metadata)
    path = str(path)
    tmp = path + ".tmp"
    try:
        with open_text(tmp, "w", codec=codec_of(path)) as out:
            json.dump(doc, out, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return len(doc["traceEvents"])
