"""Live progress monitoring: throughput/ETA with periodic snapshot lines.

:class:`ProgressMonitor` is built on an injectable clock so tests can
drive it deterministically. The simulation packages never read wall
time (BF202); they only call :meth:`ProgressMonitor.advance`, and the
clock read happens here, inside ``obs``. Under a process-pool fan-out
the parent advances its monitor once per completed future
(:func:`repro.experiments.runner.execute`); workers report nothing.
"""

import sys
import time


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
