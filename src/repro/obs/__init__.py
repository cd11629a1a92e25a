"""repro.obs — observability for the simulator stack.

Three layers, importable by any other package (obs itself imports
nothing above the standard library, so it sits at the bottom of the
BF101 layering DAG):

- **event tracing** (:mod:`repro.obs.tracer`, :mod:`repro.obs.events`):
  a bounded ring of typed events emitted from hook points in the MMU,
  walker, fault path, and scheduler, gated by ``SimConfig(trace=...)``
  and costing nothing when disabled;
- **metrics** (:mod:`repro.obs.metrics`): labelled counters/gauges/log2
  histograms with snapshot and merge semantics matching the parallel
  runner's worker fan-out;
- **phase profiling + exporters** (:mod:`repro.obs.profile`,
  :mod:`repro.obs.export`, :mod:`repro.obs.summary`): wall-clock spans
  for the harness, JSONL and Chrome ``trace_event`` sinks, and the
  ``python -m repro.obs`` summarize/diff/perfwatch CLI;
- **live telemetry** (:mod:`repro.obs.live`, :mod:`repro.obs.perfwatch`):
  streaming event sinks (JSONL/gzip/optional-zstd, atomic tmp+rename
  finalize) the tracer drains at ring-wrap, a ProgressMonitor with
  throughput/ETA snapshot lines (advanced in the parent, per completed
  future, under the process-pool fan-out), and the perf-regression
  watchdog over BENCH_hotpath.json trajectories.
"""

from repro.obs.events import event_from_dict, event_to_dict
from repro.obs.live import (
    GzipSink,
    JsonlSink,
    ProgressMonitor,
    StreamingSink,
    ZstdSink,
    open_sink,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    map_label,
    merge_snapshots,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.tracer import (
    TraceOptions,
    Tracer,
    replay_events,
    resolve_trace_options,
)
from repro.obs.export import (
    chrome_trace,
    open_text,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.summary import diff, flatten, format_summary, summarize

__all__ = [
    "Counter", "Gauge", "GzipSink", "Histogram", "JsonlSink",
    "MetricsRegistry", "PhaseProfiler", "ProgressMonitor",
    "StreamingSink", "TraceOptions", "Tracer", "ZstdSink",
    "chrome_trace", "diff", "event_from_dict", "event_to_dict",
    "flatten", "format_summary", "map_label", "merge_snapshots",
    "open_sink", "open_text", "replay_events", "resolve_trace_options",
    "summarize", "write_chrome_trace", "write_jsonl",
]
