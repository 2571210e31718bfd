"""Observability subsystem: tracer, aggregation, exporters, wiring."""

from __future__ import annotations

import json

import pytest

from repro.core.events import LatencyEventKind
from repro.obs import (
    EventRing,
    LatencyHistogram,
    NULL_TRACER,
    NullTracer,
    PipelineTracer,
    aggregate_by_opcode,
    aggregate_latency_events,
    chrome_trace,
    lifecycle_spans,
    metrics_csv,
    metrics_dict,
    run_instrumented,
    summary_table,
    validate_chrome_trace,
)
from repro.obs.tracer import LatencyEvent, LifecycleMark


@pytest.fixture(scope="module")
def fib_good():
    """One instrumented micro:fib run under the good model (module-shared:
    the run is deterministic and every test only reads from it)."""
    return run_instrumented("micro:fib", model="good", max_instructions=8000)


# -- ring buffer ----------------------------------------------------------


def test_ring_append_order_and_clear():
    ring = EventRing(capacity=8)
    for i in range(5):
        ring.append(i)
    assert ring.items() == [0, 1, 2, 3, 4]
    assert ring.dropped == 0
    ring.clear()
    assert ring.items() == [] and ring.dropped == 0


def test_ring_overwrites_oldest_and_counts_drops():
    ring = EventRing(capacity=4)
    for i in range(10):
        ring.append(i)
    assert ring.items() == [6, 7, 8, 9]  # oldest evicted, order kept
    assert ring.dropped == 6


def test_ring_rejects_bad_capacity():
    with pytest.raises(ValueError):
        EventRing(capacity=0)


# -- tracers --------------------------------------------------------------


def test_null_tracer_is_inert():
    assert NullTracer.enabled is False
    assert NULL_TRACER.enabled is False
    NULL_TRACER.bind(object())
    NULL_TRACER.mark(1, 2, 3, "fetch")
    NULL_TRACER.latency(LatencyEventKind.EXEC_EQUALITY, 1, 2, 3, 4)


def test_pipeline_tracer_records_marks_and_latencies():
    tracer = PipelineTracer(capacity=16)
    assert tracer.enabled is True
    tracer.mark(5, 1, 0, "dispatch", "d")
    tracer.latency(LatencyEventKind.EXEC_EQUALITY, 1, 0, 5, 9, "add")
    marks = tracer.lifecycle_marks()
    events = tracer.latency_events()
    assert marks == [LifecycleMark(5, 1, 0, "dispatch", "d")]
    assert events == [LatencyEvent(LatencyEventKind.EXEC_EQUALITY, 1, 0, 5, 9, "add")]
    assert events[0].latency == 4
    assert tracer.kinds_seen() == {LatencyEventKind.EXEC_EQUALITY}


# -- paper taxonomy -------------------------------------------------------


def test_eight_kinds_with_paper_names():
    assert len(LatencyEventKind) == 8
    names = {kind.paper_name for kind in LatencyEventKind}
    assert "Execution - Equality" in names
    assert "Invalidation - Reissue" in names
    assert len(names) == 8


def test_all_eight_kinds_observed_on_fib_good(fib_good):
    assert fib_good.kinds_seen == set(LatencyEventKind)


def test_instrumented_runs_attribute_their_engine_path(fib_good):
    """One engine runs every point, so results carry no engine-path
    label; the run is attributed by the tracer's configuration label."""
    from repro.engine.sim import simulator_class

    assert simulator_class()[1] == "generic"
    assert not hasattr(fib_good.result, "engine_path")
    assert fib_good.tracer.config_label == fib_good.result.config.label


# -- zero-cost / bit-exactness -------------------------------------------


def test_instrumented_counters_bit_identical(fib_good):
    from repro.core.model import named_models
    from repro.engine.config import paper_config
    from repro.engine.sim import run_trace
    from repro.obs.run import resolve_trace

    trace = resolve_trace("micro:fib", 8000)
    plain = run_trace(trace, paper_config("8/48"), named_models()["good"],
                      confidence="real", update_timing="D")
    null = run_trace(trace, paper_config("8/48"), named_models()["good"],
                     confidence="real", update_timing="D", tracer=NULL_TRACER)
    assert plain.counters == null.counters == fib_good.result.counters


# -- aggregation ----------------------------------------------------------


def test_histogram_stats_and_percentiles():
    hist = LatencyHistogram()
    for value in (1, 2, 2, 3, 10):
        hist.add(value)
    assert hist.count == 5
    assert (hist.min, hist.max) == (1, 10)
    assert hist.mean == pytest.approx(3.6)
    assert hist.percentile(50) == 2
    assert hist.percentile(90) == 10
    assert hist.percentile(100) == 10
    summary = hist.as_dict()
    assert summary["count"] == 5 and summary["p50"] == 2


def test_histogram_merge():
    a, b = LatencyHistogram(), LatencyHistogram()
    a.add(1)
    b.add(3)
    b.add(3)
    a.merge(b)
    assert a.count == 3 and a.max == 3


def test_aggregate_latency_events(fib_good):
    by_kind = aggregate_latency_events(fib_good.tracer)
    assert by_kind[LatencyEventKind.EXEC_EQUALITY].count > 0
    assert by_kind[LatencyEventKind.INVALIDATION_REISSUE].count > 0
    by_op = aggregate_by_opcode(fib_good.tracer)
    ops = set(by_op[LatencyEventKind.EXEC_EQUALITY])
    assert ops  # at least one opcode bucket


def test_lifecycle_spans_pair_consecutive_marks():
    tracer = PipelineTracer(capacity=16)
    tracer.mark(1, 7, -1, "fetch")
    tracer.mark(3, 7, 4, "dispatch")
    tracer.mark(9, 7, 4, "retire")
    spans = lifecycle_spans(tracer)
    assert [(s.name, s.start, s.end) for s in spans] == [
        ("fetch→dispatch", 1, 3),
        ("dispatch→retire", 3, 9),
    ]
    assert spans[0].sid == 4  # backfilled from the later mark


# -- exporters ------------------------------------------------------------


def test_chrome_trace_schema_valid(fib_good):
    doc = chrome_trace(fib_good.tracer, label="fib")
    assert validate_chrome_trace(doc) == []
    json.dumps(doc)  # serialisable
    phases = {event["ph"] for event in doc["traceEvents"]}
    assert "X" in phases and "M" in phases


def test_validate_chrome_trace_flags_problems():
    bad = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0}]}
    problems = validate_chrome_trace(bad)
    assert problems  # missing name and dur


def test_metrics_exports(fib_good):
    csv_text = metrics_csv(fib_good.histograms)
    assert csv_text.splitlines()[0].startswith("kind,")
    assert "exec-equality" in csv_text
    payload = metrics_dict(fib_good.histograms, label="fib")
    assert payload["config"] == "fib"
    assert "exec-equality" in payload["latency_events"]
    table = summary_table(fib_good.histograms, title="fib")
    # the table is a coverage checklist: all eight kinds always get a row
    for kind in LatencyEventKind:
        assert kind.paper_name in table


# -- harness + viz wiring -------------------------------------------------


def test_instrument_variant_reproduces_sweep_point():
    from repro.core.model import named_models
    from repro.engine.config import paper_config
    from repro.harness.sweeps import SweepVariant, instrument_variant

    variant = SweepVariant(
        "good D/R", paper_config("8/48"), named_models()["good"],
        confidence="R", update_timing="D",
    )
    run = instrument_variant(variant, "micro:fib", max_instructions=2000)
    assert run.model_name == "good"
    assert run.tracer.lifecycle_marks()
    assert run.result.counters.retired > 0


def test_samples_from_tracer_matches_counters(fib_good):
    from repro.viz import render_timeline, samples_from_tracer

    samples = samples_from_tracer(fib_good.tracer, interval=100)
    assert samples[-1][1] == fib_good.result.counters.retired
    assert all(occ >= 0 for _, _, occ in samples)
    assert "IPC" in render_timeline(samples, label="fib")
    with pytest.raises(ValueError):
        samples_from_tracer(fib_good.tracer, interval=0)


# -- CLI ------------------------------------------------------------------


def test_cli_obs_histo_and_export(capsys):
    from repro.cli import main

    assert main(["obs", "histo", "micro:fib", "--model", "good",
                 "--max-instructions", "2000"]) == 0
    out = capsys.readouterr().out
    assert "Execution - Equality" in out

    assert main(["obs", "export", "micro:fib", "--model", "good",
                 "--max-instructions", "2000", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "latency_events" in payload


def test_cli_obs_trace_writes_valid_json(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "fib.trace.json"
    assert main(["obs", "trace", "micro:fib", "--model", "good",
                 "--max-instructions", "2000", "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert validate_chrome_trace(doc) == []


def test_tracer_import_leaves_exporters_and_run_helpers_unloaded():
    """``repro.obs`` resolves its package-level names lazily: importing
    the tracer loads neither the exporters nor the run helpers, and the
    package-level names still import."""
    import subprocess
    import sys

    probe = (
        "import sys\n"
        "import repro.obs.tracer\n"
        "assert 'repro.obs.export' not in sys.modules\n"
        "assert 'repro.obs.run' not in sys.modules\n"
        "from repro.obs import run_instrumented, chrome_trace\n"
        "from repro.obs.run import run_instrumented as direct\n"
        "assert run_instrumented is direct and callable(chrome_trace)\n"
        "import repro.obs\n"
        "assert set(repro.obs.__all__) <= set(dir(repro.obs))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
