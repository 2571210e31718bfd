#!/usr/bin/env python3
"""Streaming trace-plane smoke (the CI `streaming-smoke` step).

Two checks, each runnable locally:

1. **Bounded memory** — captures a multi-million-record synthetic
   workload through the chunked (VSRT v4) writer in a fresh subprocess
   and reads that process's peak RSS.  A second subprocess captures a
   trace several times longer; peak RSS must *not* scale with trace
   length (it tracks the chunk size), which is the streaming plane's
   O(chunk) memory claim measured end to end.
2. **Bit-identity** — a streamed capture read back chunk by chunk must
   equal the same workload materialized in memory, record for record.

Results are appended to ``$GITHUB_STEP_SUMMARY`` as a markdown table
when that variable is set.  Exit status is the combined check result.

Usage::

    PYTHONPATH=src python scripts/streaming_smoke.py [--records 5000000]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

_CAPTURE_SNIPPET = """
import json, resource, sys
from repro.trace.binary import ChunkWriter, read_trace_chunked
from repro.trace.synthetic import SyntheticTraceConfig, iter_synthetic_trace

length, chunk, path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
config = SyntheticTraceConfig(length=length, seed=7)
with ChunkWriter(path, chunk) as writer:
    writer.extend(iter_synthetic_trace(config))
trace = read_trace_chunked(path)
print(json.dumps({
    "total": writer.total,
    "chunks": trace.chunk_count,
    "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _capture_in_subprocess(records: int, chunk: int, path: str) -> dict:
    """Stream ``records`` synthetic records to ``path`` in a fresh
    interpreter; returns the subprocess's own report (peak RSS etc.)."""
    result = subprocess.run(
        [sys.executable, "-c", _CAPTURE_SNIPPET,
         str(records), str(chunk), path],
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=5_000_000,
                        help="long-capture length (default 5M)")
    parser.add_argument("--baseline-records", type=int, default=1_000_000,
                        help="short-capture length the RSS is compared to")
    parser.add_argument("--chunk", type=int, default=1_000_000)
    parser.add_argument("--rss-growth-limit", type=float, default=1.5,
                        help="max allowed peak-RSS ratio long/short")
    args = parser.parse_args(argv)

    from repro.trace.binary import dumps_trace_chunked, loads_trace_chunked
    from repro.trace.synthetic import SyntheticTraceConfig, generate_synthetic_trace

    status = 0
    rows: list[tuple[str, str]] = []

    # 1. Bounded memory: peak RSS must track the chunk, not the trace.
    with tempfile.TemporaryDirectory() as tmp:
        short = _capture_in_subprocess(
            args.baseline_records, args.chunk, os.path.join(tmp, "short.vsrt4")
        )
        long = _capture_in_subprocess(
            args.records, args.chunk, os.path.join(tmp, "long.vsrt4")
        )
    growth = short["ru_maxrss_kb"] and (
        long["ru_maxrss_kb"] / short["ru_maxrss_kb"]
    )
    rows += [
        ("short capture", f"{short['total']:,} records, "
                          f"{short['ru_maxrss_kb'] / 1024:.0f} MiB peak"),
        ("long capture", f"{long['total']:,} records, "
                         f"{long['ru_maxrss_kb'] / 1024:.0f} MiB peak"),
        ("peak-RSS growth (limit "
         f"{args.rss_growth_limit}x)", f"{growth:.2f}x"),
    ]
    if long["total"] != args.records or long["chunks"] != (
        args.records + args.chunk - 1
    ) // args.chunk:
        print(f"FAIL: long capture wrong shape: {long}")
        status = 1
    if growth > args.rss_growth_limit:
        print(
            f"FAIL: peak RSS grew {growth:.2f}x for a "
            f"{args.records / args.baseline_records:.0f}x longer trace"
        )
        status = 1

    # 2. Bit-identity of the streamed representation (small scale).
    records = generate_synthetic_trace(
        SyntheticTraceConfig(length=100_000, seed=7)
    )
    streamed = loads_trace_chunked(dumps_trace_chunked(records, 16_000))
    identical = list(streamed) == records
    rows.append(("streamed == in-memory (100k)", "yes" if identical else "NO"))
    if not identical:
        print("FAIL: chunked round trip is not bit-identical")
        status = 1

    rows.append(("result", "ok" if status == 0 else "FAIL"))
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        lines = [
            "### Streaming trace-plane smoke (bounded RSS + bit-identity)",
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
