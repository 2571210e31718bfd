"""Latency-event observability: tracing, histograms, timeline export.

The paper's contribution is a *vocabulary* of latency events — the named
delays (Execution–Equality, Equality–Verification, …) through which value
speculation manifests — yet a simulation normally surfaces only end-of-run
aggregate counters.  This package makes the event chains themselves
visible:

* :mod:`repro.obs.tracer` — a zero-cost-when-disabled tracer bound at
  engine construction.  The default :data:`NULL_TRACER` keeps the hot
  cycle loop at one attribute check; a :class:`PipelineTracer` records
  per-instruction lifecycle marks and latency-event measurements into
  bounded ring buffers.
* :mod:`repro.obs.aggregate` — per-kind / per-opcode histograms and
  percentiles over the recorded latency events.
* :mod:`repro.obs.export` — exporters: Chrome trace-event JSON (loadable
  in Perfetto / ``chrome://tracing``, one track per RUU station slot),
  CSV/JSON metrics, and a text latency-event summary table.
* :mod:`repro.obs.run` — one-call instrumented runs of suite kernels,
  micro kernels, and harness sweep points.

Surfaced as the ``repro obs trace|histo|export`` CLI subcommand and via
:func:`repro.harness.sweeps.instrument_variant`.
"""

import importlib

#: Where each package-level name lives.  They resolve on first use
#: (PEP 562), so ``import repro.obs.tracer`` — the engine's only import
#: from this package — loads neither the exporters nor the run helpers.
_EXPORTS = {
    "LatencyEventKind": "repro.core.events",
    "EventRing": "repro.obs.tracer",
    "LatencyEvent": "repro.obs.tracer",
    "LifecycleMark": "repro.obs.tracer",
    "NullTracer": "repro.obs.tracer",
    "NULL_TRACER": "repro.obs.tracer",
    "PipelineTracer": "repro.obs.tracer",
    "LatencyHistogram": "repro.obs.aggregate",
    "aggregate_latency_events": "repro.obs.aggregate",
    "aggregate_by_opcode": "repro.obs.aggregate",
    "lifecycle_spans": "repro.obs.aggregate",
    "chrome_trace": "repro.obs.export",
    "metrics_csv": "repro.obs.export",
    "metrics_dict": "repro.obs.export",
    "summary_table": "repro.obs.export",
    "validate_chrome_trace": "repro.obs.export",
    "InstrumentedRun": "repro.obs.run",
    "run_instrumented": "repro.obs.run",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
