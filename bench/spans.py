"""Spans around calls into the simulator's layers, recorded from outside ``src/``.

The benchmark measures per-layer time without changing the program: it
replaces the module attributes through which one layer calls the next
(``repro.harness.parallel.run_trace``, ``repro.trace.cache.load_trace``,
...) with wrappers that record a span around the original function.  The
callers look these names up when they call, so every call made after
:func:`install` goes through a wrapper.  A span is a dict: ``id``,
``parent`` (the span open on the same thread when it started), ``name``,
``start``, ``end``, ``pid``, ``tid``, ``run`` and whatever the wrapper
read off the result (instructions and cycles of an engine run, whether a
load hit, ...).

Spans stay in memory in the process that created the :class:`Recorder`.
Pool workers forked from it inherit the wrappers and append each span to
``spans-<pid>.jsonl`` in the spill directory as it ends, because a pool
worker exits without running exit handlers; the owning process merges
those files with :func:`load_spilled`.  Times come from
``time.monotonic``, one clock for every process on Linux, so spans from
different processes share a timeline.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, span name): the call sites between layers.  A
#: function imported into several modules is wrapped in each of them.
LAYER_BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("repro.trace.cache", "cached_trace", "trace.cached"),
    ("repro.trace.cache", "load_trace", "trace.load"),
    ("repro.harness.parallel", "run_baseline", "engine.run"),
    ("repro.harness.parallel", "run_trace", "engine.run"),
    ("repro.engine.sim", "simulator_class", "engine.specialize"),
    ("repro.harness.parallel", "run_jobs", "harness.run_jobs"),
    ("repro.harness.figure3", "run_jobs", "harness.run_jobs"),
    ("repro.harness.sweeps", "run_jobs", "harness.run_jobs"),
    ("repro.harness.parallel", "plan_units", "harness.plan"),
    ("repro.cluster.serial", "job_key", "harness.job_key"),
    ("repro.service.server", "job_key", "harness.job_key"),
    ("repro.service.client", "job_key", "harness.job_key"),
    ("repro.service.results", "load_wire", "store.read"),
    ("repro.service.results", "store_result", "store.write"),
    ("repro.harness.figure3", "render_figure3", "report.render"),
    ("repro.harness.figure3", "figure3_table", "report.render"),
    ("repro.harness.figure3", "render_table", "report.render"),
    ("repro.harness.render", "render_table", "report.render"),
)


def _engine_attrs(result) -> dict:
    return {
        "instructions": result.counters.retired,
        "cycles": result.counters.cycles,
    }


def _specialize_attrs(result) -> dict:
    engine, _path = result
    return {"key": getattr(engine, "__specialization_key__", None)}


def _hit_attrs(result) -> dict:
    return {"hit": result is not None}


def _records_attrs(result) -> dict:
    return {"records": len(result)}


#: What each span keeps from its call's result.
DESCRIBE = {
    "engine.run": _engine_attrs,
    "engine.specialize": _specialize_attrs,
    "trace.load": _hit_attrs,
    "trace.cached": _records_attrs,
    "store.read": _hit_attrs,
}

#: Unit of every per-layer metric :func:`layer_metrics` computes.
UNITS: dict[str, str] = {
    "trace.capture_s": "s",
    "trace.capture_records": "count",
    "trace.capture_rps": "1/s",
    "trace.load_s": "s",
    "trace.load_calls": "count",
    "engine.run_s": "s",
    "engine.calls": "count",
    "engine.instructions": "count",
    "engine.cycles": "count",
    "engine.ips": "instr/s",
    "engine.share": "ratio",
    "engine.specialize_s": "s",
    "engine.specialize_calls": "count",
    "engine.specialize_classes": "count",
    "harness.run_jobs_s": "s",
    "harness.self_s": "s",
    "harness.plan_s": "s",
    "harness.job_key_s": "s",
    "harness.worker_busy_frac": "ratio",
    "store.read_s": "s",
    "store.read_calls": "count",
    "store.hit_frac": "ratio",
    "store.write_s": "s",
    "store.write_calls": "count",
    "service.warm_p50_ms": "ms",
    "service.cold_p50_ms": "ms",
    "service.p99_ms": "ms",
    "service.cold_frac": "ratio",
    "service.rejected": "count",
    "service.executed": "count",
    "report.render_s": "s",
    "bench.unaccounted_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
}


class Recorder:
    """Collects the spans of one pass; see the module docstring."""

    def __init__(self, spill_dir: str | os.PathLike, run_id: str):
        self.pid = os.getpid()
        self.run_id = run_id
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as one span; yields the attrs dict,
        which the block may extend."""
        stack = self._stack()
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield attrs
        finally:
            end = time.monotonic()
            stack.pop()
            self._finish({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "pid": os.getpid(),
                "tid": threading.get_native_id(), "run": self.run_id,
                **attrs,
            })

    def wrap(self, name: str, fn, describe=None):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(result))
                return result

        return wrapper

    def _finish(self, span: dict) -> None:
        if span["pid"] == self.pid:
            self.spans.append(span)
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{span['pid']}.jsonl", "a") as spill:
            spill.write(json.dumps(span) + "\n")

    def dump(self) -> None:
        """Write this process's spans to its spill file (for a process,
        like the service, whose spans another process merges)."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a") as spill:
            for span in self.spans:
                spill.write(json.dumps(span) + "\n")

    def span_cost(self, calls: int = 2000) -> float:
        """Seconds one wrapped call adds over a direct call, measured on a
        no-op; its calibration spans are discarded."""

        def noop():
            return None

        wrapped = self.wrap("bench.calibrate", noop)
        begin = time.monotonic()
        for _ in range(calls):
            noop()
        direct = time.monotonic() - begin
        begin = time.monotonic()
        for _ in range(calls):
            wrapped()
        traced = time.monotonic() - begin
        del self.spans[-calls:]
        return max(traced - direct, 0.0) / calls


def install(recorder: Recorder):
    """Wrap every binding in :data:`LAYER_BINDINGS`; returns a callable
    that puts the originals back."""
    originals = []
    for module_name, attribute, span_name in LAYER_BINDINGS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        originals.append((module, attribute, original))
        setattr(
            module, attribute,
            recorder.wrap(span_name, original, DESCRIBE.get(span_name)),
        )

    def restore() -> None:
        for module, attribute, original in reversed(originals):
            setattr(module, attribute, original)

    return restore


def load_spilled(spill_dir: str | os.PathLike) -> dict[int, list[dict]]:
    """Spans other processes spilled, by pid."""
    spilled: dict[int, list[dict]] = {}
    for path in sorted(Path(spill_dir).glob("spans-*.jsonl")):
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        if spans:
            spilled[spans[0]["pid"]] = spans
    return spilled


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the time its same-process children
    cover (a pool worker's spans name the parent's span that forked it,
    which they do not shorten)."""
    by_id = {span["id"]: span for span in spans}
    children = defaultdict(float)
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            children[parent["id"]] += span["end"] - span["start"]
    return {
        span["id"]: span["end"] - span["start"] - children[span["id"]]
        for span in spans
    }


def covered(spans: list[dict], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` during which any of ``spans`` is open."""
    intervals = sorted(
        (max(span["start"], start), min(span["end"], end)) for span in spans
    )
    total = 0.0
    reach = start
    for low, high in intervals:
        low = max(low, reach)
        if high > low:
            total += high - low
            reach = high
    return total


def layer_metrics(
    spans: list[dict],
    *,
    pid: int,
    start: float,
    end: float,
    jobs: int,
    span_cost: float,
    requests: list[dict] = (),
    service_stats: dict | None = None,
) -> dict[str, float]:
    """Every metric in :data:`UNITS` from one pass's merged spans.

    ``pid`` is the process that timed ``[start, end]``; ``jobs`` the
    number of processes running the engine (the engine's shares are of
    ``jobs`` times the wall time); ``requests`` the service client's
    records (``latency_ms``, ``cold``) and ``service_stats`` the
    service's ``/v1/status`` counters, for the ``service.*`` metrics.
    """
    wall = end - start
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    layer = [span for span in spans if not span["name"].startswith("bench.")]

    def named(name: str) -> list[dict]:
        return [span for span in spans if span["name"] == name]

    def self_sum(name: str) -> float:
        return sum(own[span["id"]] for span in named(name))

    missed_loads = {
        span["parent"] for span in named("trace.load") if not span["hit"]
    }
    captures = [span for span in named("trace.cached") if span["id"] in missed_loads]
    capture_s = sum(own[span["id"]] for span in captures)
    capture_records = sum(span["records"] for span in captures)

    engine = named("engine.run")
    engine_s = self_sum("engine.run")
    instructions = sum(span["instructions"] for span in engine)
    specialize = named("engine.specialize")

    outermost_jobs = [
        span for span in named("harness.run_jobs")
        if by_id.get(span["parent"], {}).get("name") != "harness.run_jobs"
    ]
    reads = named("store.read")
    top = [
        span for span in layer
        if span["pid"] == pid
        and by_id.get(span["parent"], {"name": "bench."})["name"].startswith("bench.")
    ]

    warm = [r["latency_ms"] for r in requests if not r["cold"]]
    cold = [r["latency_ms"] for r in requests if r["cold"]]
    stats = service_stats or {}
    return {
        "trace.capture_s": capture_s,
        "trace.capture_records": capture_records,
        "trace.capture_rps": capture_records / capture_s if capture_s else 0.0,
        "trace.load_s": self_sum("trace.load"),
        "trace.load_calls": len(named("trace.load")),
        "engine.run_s": engine_s,
        "engine.calls": len(engine),
        "engine.instructions": instructions,
        "engine.cycles": sum(span["cycles"] for span in engine),
        "engine.ips": instructions / engine_s if engine_s else 0.0,
        "engine.share": engine_s / (jobs * wall),
        "engine.specialize_s": self_sum("engine.specialize"),
        "engine.specialize_calls": len(specialize),
        "engine.specialize_classes": len(
            {(span["pid"], span["key"]) for span in specialize if span["key"]}
        ),
        "harness.run_jobs_s": sum(s["end"] - s["start"] for s in outermost_jobs),
        "harness.self_s": self_sum("harness.run_jobs"),
        "harness.plan_s": self_sum("harness.plan"),
        "harness.job_key_s": self_sum("harness.job_key"),
        "harness.worker_busy_frac": (
            sum(span["end"] - span["start"] for span in engine) / (jobs * wall)
        ),
        "store.read_s": self_sum("store.read"),
        "store.read_calls": len(reads),
        "store.hit_frac": (
            sum(span["hit"] for span in reads) / len(reads) if reads else 0.0
        ),
        "store.write_s": self_sum("store.write"),
        "store.write_calls": len(named("store.write")),
        "service.warm_p50_ms": nearest_rank(warm, 50),
        "service.cold_p50_ms": nearest_rank(cold, 50),
        "service.p99_ms": nearest_rank([r["latency_ms"] for r in requests], 99),
        "service.cold_frac": len(cold) / len(requests) if requests else 0.0,
        "service.rejected": stats.get("rejected", 0),
        "service.executed": stats.get("executed", 0),
        "report.render_s": self_sum("report.render"),
        "bench.unaccounted_frac": 1.0 - covered(top, start, end) / wall,
        "bench.trace_overhead_frac": len(spans) * span_cost / wall,
    }


def nearest_rank(values: list[float], p: float) -> float:
    """The ``p``-th nearest-rank percentile of ``values``; 0 when empty."""
    from repro.obs.aggregate import LatencyHistogram

    return LatencyHistogram(values).percentile(p)


def chrome_trace(spans: list[dict], origin: float, names: dict[int, str]) -> dict:
    """Chrome trace-event JSON: one ``X`` event per span, microseconds
    from ``origin``; ``names`` labels each pid's track."""
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": label}}
        for pid, label in sorted(names.items())
    ]
    for span in spans:
        args = {
            key: value for key, value in span.items()
            if key not in ("name", "start", "end", "pid", "tid")
        }
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "pid": span["pid"],
            "tid": span["tid"],
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
