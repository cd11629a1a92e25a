"""Metrics registry: labelled counters and log2 histograms.

The registry is the aggregation side of the observability stack: the
:class:`~repro.obs.tracer.Tracer` folds every event into it online, so
summaries survive the bounded event ring. Snapshots are plain JSON-ready
dicts with deterministic ordering, so a worker process can return one
inside its :class:`~repro.sim.stats.RunResult` summary and the disk run
cache can store it.

Histograms use fixed log2 buckets — bucket ``b`` counts values in
``[2**(b-1), 2**b)`` (bucket 0 counts zeros) — so cycle-count
distributions (walk latency, request latency) come for free without
configuring bucket boundaries per metric.
"""

import math


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


def bucket_of(value):
    """Log2 bucket index for a non-negative value (0 for value 0)."""
    return int(value).bit_length()


class Histogram:
    """Fixed log2-bucket histogram of non-negative values."""

    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self):
        self.buckets = {}
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None

    def observe(self, value):
        bucket = bucket_of(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def percentile(self, pct):
        """Nearest-rank percentile, resolved to its bucket's upper bound
        (exact for the min/max, approximate in between).

        The rank is the true nearest-rank definition — ``ceil(p/100*N)``
        clamped to at least 1 — matching :func:`repro.sim.stats.
        percentile` on the same data, so the histogram summaries and the
        exact-value summaries report the same element for a given
        ``pct`` (the histogram answer is that element's bucket upper
        bound). The old ``int(round(...))`` rank disagreed with the
        exact implementation on half-way counts (banker's rounding
        picked the lower rank), skewing p50/p95 one element low.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(pct / 100.0 * self.count))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                # Uniform upper bound: bucket b holds [2**(b-1), 2**b),
                # so the inclusive upper bound is 2**b - 1 — which is 0
                # for bucket 0 (the zero bucket), no special case.
                return float((1 << bucket) - 1)
        return float(self.max)


_KINDS = {"counters": Counter, "histograms": Histogram}


class MetricsRegistry:
    """Get-or-create store of labelled metrics.

    Labels are keyword arguments (``registry.counter("faults",
    kind="cow", pid=3)``); each distinct (name, label set) is its own
    time series, as in Prometheus-style registries.
    """

    def __init__(self):
        self._metrics = {}  # (kind, name, ((label, value), ...)) -> metric

    def _get(self, kind, name, labels):
        key = (kind, name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = _KINDS[kind]()
        return metric

    def counter(self, name, **labels):
        return self._get("counters", name, labels)

    def histogram(self, name, **labels):
        return self._get("histograms", name, labels)

    def snapshot(self):
        """JSON-ready dict of every metric, deterministically ordered.

        The ``gauges`` list is always empty: it keeps the snapshot schema
        that existing ``summary.json`` captures carry."""
        out = {"counters": [], "gauges": [], "histograms": []}
        for (kind, name, labels) in sorted(self._metrics,
                                           key=_key_sort_key):
            metric = self._metrics[(kind, name, labels)]
            entry = {"name": name, "labels": {k: v for k, v in labels}}
            if kind == "histograms":
                entry["buckets"] = {str(b): n
                                    for b, n in sorted(metric.buckets.items())}
                entry["count"] = metric.count
                entry["sum"] = metric.sum
                entry["min"] = metric.min
                entry["max"] = metric.max
            else:
                entry["value"] = metric.value
            out[kind].append(entry)
        return out


def _key_sort_key(key):
    kind, name, labels = key
    return (kind, name, [(k, repr(v)) for k, v in labels])


def _entry_sort_key(entry):
    return (entry["name"],
            [(k, repr(v)) for k, v in sorted(entry["labels"].items())])


def map_label(snapshot, label, mapping, default=-1):
    """A copy of a registry snapshot with one label's values remapped.

    Used by :meth:`repro.sim.stats.RunResult.as_dict` to renumber raw
    pids to dense creation-order indices, so the same run summarized in a
    worker process and in the parent is bit-identical (pids come from a
    process-global counter).
    """
    out = {}
    for kind, entries in snapshot.items():
        rewritten = []
        for entry in entries:
            labels = dict(entry["labels"])
            if label in labels:
                labels[label] = mapping.get(labels[label], default)
            rewritten.append(dict(entry, labels=labels))
        out[kind] = sorted(rewritten, key=_entry_sort_key)
    return out
