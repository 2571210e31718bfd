"""Engine throughput in simulated instructions per second.

Unlike the pytest-benchmark microbenchmarks in ``test_bench_engine.py``,
this module measures the end-to-end quantity the optimisation work is
judged by — simulated instructions retired per CPU-second across the
standard benchmark grid — and records it in ``BENCH_engine_perf.json``
at the repository root so CI can archive the trend (and
``scripts/perf_diff.py`` can diff a fresh run against the committed
record).

Methodology (see docs/PERFORMANCE.md): CPU time via
``time.process_time`` (robust against other tenants of the machine),
best-of-``_REPS`` per grid point, aggregate throughput = total
instructions / sum of per-point best times.  The grid is the
``conftest`` one: three kernels x two configurations x {base, great,
good}.  Cross-engine comparisons (the seed and PR 1 reference blocks)
were measured *paired* — both engines run back-to-back on the same host
in the same time window — because absolute ips numbers drift with host
load and CPU frequency; only paired ratios are meaningful.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

from conftest import BENCH_CONFIGS, BENCH_TRACE_LIMIT
from repro.core.model import GOOD_MODEL, GREAT_MODEL
from repro.engine.sim import run_baseline, run_trace

_REPS = 3
_OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine_perf.json"

#: Seed-engine reference, measured on the development host with the same
#: grid and methodology (best-of-5, paired back-to-back with the current
#: engine in the same time window).  The ratio is only meaningful on
#: comparable hosts — recompute the reference when changing machines.
_SEED_REFERENCE_IPS = 22_093
_SEED_REFERENCE_DATE = "2026-08-05"

#: PR 1 engine reference (bitmask taints + event-driven wakeup), measured
#: paired against the current engine on the development host: interleaved
#: subprocess runs over the full grid, best-of-3 reps per point, best of
#: 3 interleaved rounds.  Keyed by model because the optimisation targets
#: are per-model (the PR 2 acceptance bar is great/good >= 1.25x PR 1).
_PR1_REFERENCE = {
    "commit": "427469b",
    "measured": "2026-08-06",
    "aggregate_ips": {"base": 63_350, "great": 41_517, "good": 40_648},
    "note": (
        "paired interleaved run on the development host; compare only "
        "against numbers measured in the same time window on the same "
        "machine"
    ),
}

#: PR 3 engine reference (latency-event observability baseline the
#: columnar trace plane's engine rework is measured against), measured
#: paired on the development host: alternating single-rep passes over
#: the full grid between the PR 3 worktree and the current tree, taking
#: the per-cell (benchmark x config x model) minimum seconds per side
#: across 12 passes.  Per-cell minima are what make the paired ratio
#: robust to host-throughput drift on minute timescales — means of
#: interleaved rounds were observed swinging +-9% on the same code.
_PR3_REFERENCE = {
    "commit": "7600837",
    "measured": "2026-08-06",
    "aggregate_ips": {"base": 62_354, "great": 48_561, "good": 48_569},
    "note": (
        "paired interleaved run (per-cell min over 12 alternating "
        "passes) on the development host; compare only against numbers "
        "measured in the same time window on the same machine"
    ),
}

#: CI-safe sanity floor: far below any real measurement (the pure-Python
#: seed engine already exceeded 10k ips on a shared single core), so the
#: assertion catches catastrophic regressions, not machine variance.
_MIN_AGGREGATE_IPS = 3_000

_MODELS = (
    ("base", lambda t, c: run_baseline(t, c)),
    ("great", lambda t, c: run_trace(t, c, GREAT_MODEL)),
    ("good", lambda t, c: run_trace(t, c, GOOD_MODEL)),
)


def _git_revision() -> str:
    """Current commit (short hash, ``-dirty`` suffixed), or ``unknown``."""
    root = Path(__file__).resolve().parent.parent
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        if not revision:
            return "unknown"
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout
        # The record file itself is rewritten by this benchmark run, so
        # its modification must not mark the measurement dirty.
        dirty = [
            line
            for line in status.splitlines()
            if line.strip() and not line.endswith(_OUT_PATH.name)
        ]
        return f"{revision}-dirty" if dirty else revision
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _measure(fn) -> float:
    best = float("inf")
    for _ in range(_REPS):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


def test_bench_perf_grid(bench_traces):
    points = []
    total_instructions = 0
    total_seconds = 0.0
    model_instructions = {name: 0 for name, _ in _MODELS}
    model_seconds = {name: 0.0 for name, _ in _MODELS}
    for config in BENCH_CONFIGS:
        for model_name, run in _MODELS:
            for name, trace in bench_traces.items():
                seconds = _measure(lambda: run(trace, config))
                instructions = len(trace)
                points.append(
                    {
                        "benchmark": name,
                        "config": config.label,
                        "model": model_name,
                        "instructions": instructions,
                        "best_seconds": round(seconds, 6),
                        "ips": round(instructions / seconds),
                    }
                )
                total_instructions += instructions
                total_seconds += seconds
                model_instructions[model_name] += instructions
                model_seconds[model_name] += seconds

    aggregate_ips = total_instructions / total_seconds
    model_aggregate_ips = {
        name: round(model_instructions[name] / model_seconds[name])
        for name, _ in _MODELS
    }
    report = {
        "generated_by": "benchmarks/test_bench_perf.py",
        "git_revision": _git_revision(),
        "trace_limit": BENCH_TRACE_LIMIT,
        "reps_best_of": _REPS,
        "timer": "time.process_time",
        "points": points,
        "aggregate_ips": round(aggregate_ips),
        "model_aggregate_ips": model_aggregate_ips,
        # Relative cost of simulating speculation: great-model throughput
        # over base throughput on this same run (host effects cancel).
        "great_base_ratio": round(
            model_aggregate_ips["great"] / model_aggregate_ips["base"], 3
        ),
        "seed_reference": {
            "aggregate_ips": _SEED_REFERENCE_IPS,
            "measured": _SEED_REFERENCE_DATE,
            "note": (
                "seed engine on the development host, same grid and "
                "methodology, paired back-to-back run; the ratio below "
                "is host-dependent"
            ),
        },
        "pr1_reference": _PR1_REFERENCE,
        "pr3_reference": _PR3_REFERENCE,
        "speedup_vs_seed_reference": round(
            aggregate_ips / _SEED_REFERENCE_IPS, 2
        ),
    }
    _OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    assert aggregate_ips > _MIN_AGGREGATE_IPS
    assert len(points) == len(BENCH_CONFIGS) * len(_MODELS) * len(bench_traces)


def test_bench_perf_report_readable():
    """The written report round-trips and has the fields CI consumes."""
    if not _OUT_PATH.exists():  # ordering safety if run alone
        return
    report = json.loads(_OUT_PATH.read_text())
    assert report["aggregate_ips"] > 0
    assert {
        "points",
        "git_revision",
        "model_aggregate_ips",
        "great_base_ratio",
        "seed_reference",
        "pr1_reference",
        "pr3_reference",
        "speedup_vs_seed_reference",
    } <= set(report)
    assert set(report["model_aggregate_ips"]) == {"base", "great", "good"}
