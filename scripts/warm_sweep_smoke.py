#!/usr/bin/env python3
"""Warm-vs-cold sweep smoke (the CI `perf-smoke` warm step, runnable locally).

Runs the same small sweep grid three times, the first two against a
fresh private trace cache:

1. **Cold** — captures each distinct (benchmark, limit) trace exactly
   once and populates the VSRT v5 cache.
2. **Warm, fanned** — re-runs the grid with ``--jobs N`` workers under
   ``REPRO_TRACE_STRICT=1``, so any worker that would fall back to
   functional capture *fails the run* instead: the sweep completing is
   the proof that warm sweeps perform **zero trace regenerations**
   (workers are served entirely from cache entries).
3. **Cache off, fanned** — re-runs the grid with ``--jobs N`` workers,
   ``REPRO_TRACE_STRICT=1`` and the cache disabled: the parent stages
   each trace once into a per-run temp directory, and strict workers
   must be served from those entries.

The script also asserts both fanned results are bit-identical to the
cold ones, counts functional-simulator captures directly (the cold and
cache-off runs must capture once per benchmark, the warm run zero times
in the parent), and reports wall times, the cold pass's capture
throughput (records captured per second inside ``KernelSpec.capture``)
and peak RSS (parent and worker maxima) — appended to
``$GITHUB_STEP_SUMMARY`` as a markdown table when that variable is set.
Exit status is the check result.

Usage::

    PYTHONPATH=src python scripts/warm_sweep_smoke.py [--jobs 4]
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time
from pathlib import Path


def _peak_rss_mib() -> tuple[float, float]:
    """(parent, worker-max) peak RSS in MiB.  ``ru_maxrss`` is KiB on
    Linux; RUSAGE_CHILDREN covers the reaped pool workers."""
    scale = 1024.0  # KiB -> MiB
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / scale
    return own, children


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--benchmarks", nargs="+", default=["compress", "m88ksim", "perl"]
    )
    parser.add_argument("--max-instructions", type=int, default=1500)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="trace cache directory (default: a fresh temp dir, so the "
        "first pass is genuinely cold)",
    )
    args = parser.parse_args(argv)

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-warm-smoke-")
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    os.environ.pop("REPRO_TRACE_STRICT", None)

    from repro.core.model import GOOD_MODEL, GREAT_MODEL
    from repro.engine.config import ProcessorConfig
    from repro.harness import parallel
    from repro.programs.suite import KernelSpec

    # Count functional-simulator captures through both entry points: the
    # in-memory KernelSpec.trace and KernelSpec.capture (the trace
    # cache's one capture path), and time the cache's captures.
    captures = {"count": 0, "records": 0, "seconds": 0.0}
    original_trace = KernelSpec.trace
    original_capture = KernelSpec.capture

    def counting_trace(self, max_instructions=None):
        captures["count"] += 1
        return original_trace(self, max_instructions)

    def counting_capture(self, writer, max_instructions=None):
        captures["count"] += 1
        start = time.perf_counter()
        records = original_capture(self, writer, max_instructions)
        captures["seconds"] += time.perf_counter() - start
        captures["records"] += records
        return records

    KernelSpec.trace = counting_trace
    KernelSpec.capture = counting_capture

    config = ProcessorConfig(issue_width=4, window_size=24)
    jobs = [
        parallel.SimJob(name, config, model, args.max_instructions)
        for name in args.benchmarks
        for model in (None, GREAT_MODEL, GOOD_MODEL)
    ]

    status = 0

    start = time.perf_counter()
    cold = parallel.run_jobs(jobs, jobs=1)
    cold_seconds = time.perf_counter() - start
    cold_captures = captures["count"]
    capture_rps = (
        captures["records"] / captures["seconds"] if captures["seconds"] else 0.0
    )
    if cold_captures != len(args.benchmarks):
        print(
            f"FAIL: cold sweep captured {cold_captures} traces, expected "
            f"one per benchmark ({len(args.benchmarks)})"
        )
        status = 1

    # A new sweep process would start with an empty per-process memo;
    # clear it so the warm pass exercises the staged entries, not the memo.
    parallel._TRACE_CACHE.clear()
    os.environ["REPRO_TRACE_STRICT"] = "1"
    start = time.perf_counter()
    try:
        warm = parallel.run_jobs(jobs, jobs=args.jobs)
    except Exception as exc:
        print(f"FAIL: warm sweep regenerated a trace: {exc}")
        return 1
    warm_seconds = time.perf_counter() - start
    warm_captures = captures["count"] - cold_captures
    if warm_captures:
        print(f"FAIL: warm sweep captured {warm_captures} traces in the parent")
        status = 1

    # Cache off: the pool stages into a per-run temp directory, and the
    # strict workers must still never capture.
    parallel._TRACE_CACHE.clear()
    os.environ["REPRO_TRACE_CACHE"] = "off"
    start = time.perf_counter()
    try:
        uncached = parallel.run_jobs(jobs, jobs=args.jobs)
    except Exception as exc:
        print(f"FAIL: cache-off sweep regenerated a trace in a worker: {exc}")
        return 1
    uncached_seconds = time.perf_counter() - start
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    uncached_captures = captures["count"] - cold_captures - warm_captures
    if uncached_captures != len(args.benchmarks):
        print(
            f"FAIL: cache-off sweep captured {uncached_captures} traces, "
            f"expected one per benchmark ({len(args.benchmarks)})"
        )
        status = 1

    for label, fanned in (("warm", warm), ("cache-off", uncached)):
        if [r.counters for r in fanned] != [r.counters for r in cold] or [
            r.cycles for r in fanned
        ] != [r.cycles for r in cold]:
            print(f"FAIL: {label} fanned results differ from cold inline results")
            status = 1

    own_rss, worker_rss = _peak_rss_mib()
    entries = sorted(Path(cache_dir).glob("*.vsrt5"))
    cache_bytes = sum(path.stat().st_size for path in entries)

    rows = [
        ("grid points", str(len(jobs))),
        ("cold (jobs=1, capture+store)", f"{cold_seconds:.2f} s"),
        (f"warm (jobs={args.jobs}, strict)", f"{warm_seconds:.2f} s"),
        (
            f"cache off (jobs={args.jobs}, strict, temp-dir staging)",
            f"{uncached_seconds:.2f} s",
        ),
        ("cold captures", str(cold_captures)),
        (
            "cold capture throughput",
            f"{capture_rps:,.0f} records/s ({captures['records']:,} records)",
        ),
        ("warm captures (must be 0)", str(warm_captures)),
        ("cache-off captures (one per benchmark)", str(uncached_captures)),
        ("cache entries", f"{len(entries)} ({cache_bytes:,} bytes)"),
        ("peak RSS, parent", f"{own_rss:.1f} MiB"),
        ("peak RSS, worker max", f"{worker_rss:.1f} MiB"),
        ("result", "ok" if status == 0 else "FAIL"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        lines = [
            "### Warm-sweep smoke (zero trace regenerations)",
            "",
            "| check | value |",
            "|---|---|",
        ]
        lines += [f"| {label} | {value} |" for label, value in rows]
        lines.append("")
        with open(summary_path, "a") as handle:
            handle.write("\n".join(lines) + "\n")

    return status


if __name__ == "__main__":
    sys.exit(main())
