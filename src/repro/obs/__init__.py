"""repro.obs — observability for the simulator stack.

Importable by any other package (obs itself imports nothing above the
standard library, so it sits at the bottom of the BF101 layering DAG):

- **event tracing** (:mod:`repro.obs.tracer`, :mod:`repro.obs.events`):
  a bounded ring of typed events emitted from hook points in the MMU,
  walker, fault path, and scheduler, gated by ``SimConfig(trace=...)``
  and costing nothing when disabled;
- **metrics** (:mod:`repro.obs.metrics`): labelled counters and log2
  histograms the tracer folds every event into, with JSON-ready
  snapshots that travel inside a run's summary;
- **trace files** (:mod:`repro.obs.export`): the JSONL event stream
  (plain or ``.gz``, written through :class:`StreamingSink` with an
  atomic tmp+rename finalize; the tracer drains into one at ring-wrap)
  and the Chrome ``trace_event`` exporter;
- **commands** (:mod:`repro.obs.summary`, :mod:`repro.obs.perfwatch`,
  ``python -m repro.obs``): summarize/diff over captured runs and the
  perf-regression watchdog over benchmark trajectories;
- **live progress** (:mod:`repro.obs.live`): a ProgressMonitor with
  throughput/ETA snapshot lines, advanced in the parent, per completed
  future, under the process-pool fan-out.
"""

from repro.obs.events import event_from_dict, event_to_dict
from repro.obs.export import (
    StreamingSink,
    chrome_trace,
    open_text,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.live import ProgressMonitor
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, map_label
from repro.obs.tracer import (
    TraceOptions,
    Tracer,
    replay_events,
    resolve_trace_options,
)
from repro.obs.summary import diff, flatten, format_summary, summarize

__all__ = [
    "Counter", "Histogram", "MetricsRegistry", "ProgressMonitor",
    "StreamingSink", "TraceOptions", "Tracer", "chrome_trace", "diff",
    "event_from_dict", "event_to_dict", "flatten", "format_summary",
    "map_label", "open_text", "replay_events", "resolve_trace_options",
    "summarize", "write_chrome_trace", "write_jsonl",
]
