"""Dynamic instruction traces.

The timing simulator is trace-driven: the functional simulator executes a
benchmark kernel and captures one :class:`TraceRecord` per architecturally
executed instruction; the out-of-order engine then replays the record stream
against the microarchitecture model.  Trace-driven timing simulation is the
standard methodology for this class of study — the paper's own simulator
(a modified SimpleScalar ``sim-outorder``) derives timing from the same
per-instruction facts captured here.
"""

from repro.trace.record import TraceRecord
from repro.trace.capture import capture_trace, iter_trace, trace_program
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.synthetic import (
    SyntheticTraceConfig,
    generate_synthetic_trace,
    iter_synthetic_trace,
)
from repro.trace.binary import TraceWriter, dumps_trace, loads_trace, open_trace
from repro.trace.columnar import ColumnarTrace, as_columnar
from repro.trace.cache import (
    cache_info,
    cached_trace,
    clear_cache,
    warm_cache,
)

__all__ = [
    "TraceRecord",
    "capture_trace",
    "iter_trace",
    "trace_program",
    "TraceStats",
    "compute_stats",
    "SyntheticTraceConfig",
    "generate_synthetic_trace",
    "iter_synthetic_trace",
    "TraceWriter",
    "dumps_trace",
    "loads_trace",
    "open_trace",
    "ColumnarTrace",
    "as_columnar",
    "cache_info",
    "cached_trace",
    "clear_cache",
    "warm_cache",
]
