#!/usr/bin/env python3
"""Load generator + SLO report for the always-on simulation service.

Drives a service (an in-process one by default, or a running instance
via ``--connect``) through a measured load profile and reports the
latency/throughput SLOs documented in docs/SERVICE.md:

1. **Cold phase** — one client submits the whole job pool once, so
   every key lands in the result store (and the cold-path latency is
   recorded separately).
2. **Warm ramp** — for each client count in ``--ramp``, that many
   concurrent clients issue ``--requests`` blocking ``/v1/run``
   requests each over the warm pool, every request's wall latency is
   recorded, and per-step throughput is computed.  The *saturation
   point* is the client count with the highest observed throughput —
   beyond it, adding clients adds queueing, not requests per second.
3. **Report** — p50/p95/p99 warm latency (aggregated across the ramp),
   peak throughput, warm-hit ratio (requests answered entirely from
   the store), and any 429 backpressure responses (counted, not
   hidden; rejected requests retry after the advised delay and are
   excluded from the latency population).

The JSON report is written to ``--out`` (CI uploads it as an
artifact); ``--record BENCH_engine_perf.json`` additionally merges the
summary under the record's ``service`` key so ``scripts/perf_diff.py``
renders it next to the engine-throughput diff.  Absolute numbers are
host-dependent — like every perf record here, the report is
informational, never a CI gate.

Usage::

    PYTHONPATH=src python scripts/service_load.py [--out slo.json]
    PYTHONPATH=src python scripts/service_load.py --connect HOST:PORT
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


def _build_pool(benchmarks: list[str], max_instructions: int) -> list:
    from repro.core.model import GOOD_MODEL, GREAT_MODEL
    from repro.engine.config import paper_config
    from repro.harness.figure3 import SETTINGS
    from repro.harness.parallel import SimJob

    config = paper_config("4/24")
    pool = [SimJob(n, config, None, max_instructions) for n in benchmarks]
    for timing, conf in SETTINGS:
        for model in (GOOD_MODEL, GREAT_MODEL):
            pool.extend(
                SimJob(n, config, model, max_instructions,
                       confidence=conf, update_timing=timing)
                for n in benchmarks
            )
    return pool


def _client_worker(
    make_client, pool, requests: int, offset: int, record: dict
) -> None:
    """One load client: blocking ``/v1/run`` calls round-robin over the
    pool, honoring backpressure advice."""
    from repro.service.client import ServiceError

    client = make_client()
    latencies: list[float] = []
    warm = 0
    rejected = 0
    errors = 0
    for i in range(requests):
        job = pool[(offset + i) % len(pool)]
        started = time.perf_counter()
        try:
            doc = client.run_sync([job], timeout=120.0)
        except ServiceError as error:
            if getattr(error, "status", None) == 429:
                rejected += 1
                time.sleep(min(getattr(error, "retry_after", 0.5), 2.0))
                continue
            errors += 1
            continue
        except OSError:
            errors += 1
            continue
        latencies.append(time.perf_counter() - started)
        if doc.get("dispositions") and all(
            d in ("store", "done") for d in doc["dispositions"]
        ):
            warm += 1
    record["latencies"] = latencies
    record["warm"] = warm
    record["rejected"] = rejected
    record["errors"] = errors


def run_profile(
    make_client, pool, ramp: list[int], requests: int
) -> dict:
    """The measured profile: cold pass, then the warm client ramp."""
    started = time.perf_counter()
    cold_client = make_client()
    cold_doc = cold_client.run_sync(pool, timeout=600.0)
    cold_seconds = time.perf_counter() - started
    cold_warm = all(d == "store" for d in cold_doc.get("dispositions", []))

    steps = []
    all_latencies: list[float] = []
    total_warm = 0
    total_served = 0
    total_rejected = 0
    total_errors = 0
    for clients in ramp:
        records = [dict() for _ in range(clients)]
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(make_client, pool, requests, i * 7, records[i]),
            )
            for i in range(clients)
        ]
        step_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - step_start
        latencies = sorted(
            lat for record in records for lat in record["latencies"]
        )
        served = len(latencies)
        warm = sum(record["warm"] for record in records)
        rejected = sum(record["rejected"] for record in records)
        errors = sum(record["errors"] for record in records)
        steps.append(
            {
                "clients": clients,
                "requests": served,
                "throughput_rps": round(served / wall, 3) if wall else 0.0,
                "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
                "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
                "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
                "warm_hits": warm,
                "rejected_429": rejected,
                "errors": errors,
            }
        )
        all_latencies.extend(latencies)
        total_warm += warm
        total_served += served
        total_rejected += rejected
        total_errors += errors

    all_latencies.sort()
    best = max(steps, key=lambda step: step["throughput_rps"], default=None)
    return {
        "pool_jobs": len(pool),
        "cold_seconds": round(cold_seconds, 3),
        "cold_served_from_store": cold_warm,
        "ramp": steps,
        "p50_ms": round(_percentile(all_latencies, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(all_latencies, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(all_latencies, 0.99) * 1e3, 3),
        "mean_ms": round(
            statistics.fmean(all_latencies) * 1e3, 3
        ) if all_latencies else 0.0,
        "throughput_rps": best["throughput_rps"] if best else 0.0,
        "saturation_clients": best["clients"] if best else 0,
        "warm_hit_ratio": round(total_warm / total_served, 4)
        if total_served else 0.0,
        "requests_served": total_served,
        "rejected_429": total_rejected,
        "errors": total_errors,
    }


def render(report: dict) -> str:
    rows = [
        ("job pool", str(report["pool_jobs"])),
        ("cold pass", f"{report['cold_seconds']:.2f} s"),
        ("warm requests served", str(report["requests_served"])),
        ("warm-hit ratio", f"{report['warm_hit_ratio']:.2%}"),
        ("latency p50 / p95 / p99",
         f"{report['p50_ms']:.1f} / {report['p95_ms']:.1f} / "
         f"{report['p99_ms']:.1f} ms"),
        ("peak throughput",
         f"{report['throughput_rps']:.1f} req/s "
         f"at {report['saturation_clients']} clients"),
        ("429 rejections", str(report["rejected_429"])),
        ("transport errors", str(report["errors"])),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [f"{label:<{width}}  {value}" for label, value in rows]
    lines.append("per-step ramp:")
    for step in report["ramp"]:
        lines.append(
            f"  {step['clients']:3d} clients  "
            f"{step['throughput_rps']:8.1f} req/s  "
            f"p95 {step['p95_ms']:7.1f} ms  "
            f"429s {step['rejected_429']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="measure a running service (default: start one in-process)",
    )
    parser.add_argument("--benchmarks", nargs="+", default=["compress", "perl"])
    parser.add_argument("--max-instructions", type=int, default=600)
    parser.add_argument(
        "--ramp", default="1,2,4,8", metavar="N,N,...",
        help="client counts for the warm ramp (default: 1,2,4,8)",
    )
    parser.add_argument(
        "--requests", type=int, default=25,
        help="warm requests per client per ramp step (default: 25)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=256,
        help="queue bound for the in-process service",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--record", default=None, metavar="PATH",
        help="merge the SLO summary under this perf record's `service` key",
    )
    args = parser.parse_args(argv)
    ramp = [int(n) for n in args.ramp.split(",") if n.strip()]

    os.environ.setdefault(
        "REPRO_TRACE_CACHE", tempfile.mkdtemp(prefix="repro-service-load-")
    )
    from repro.service.client import ServiceClient

    pool = _build_pool(args.benchmarks, args.max_instructions)

    service = None
    if args.connect:
        from repro.service.client import parse_address

        host, port = parse_address(args.connect)
    else:
        from repro.service.server import ServiceConfig, SimulationService

        store = tempfile.mkdtemp(prefix="repro-service-load-store-")
        service = SimulationService(
            ServiceConfig(store=store, max_queue=args.max_queue)
        )
        host, port = service.start()

    counter = [0]

    def make_client() -> ServiceClient:
        counter[0] += 1
        return ServiceClient(host, port, client_id=f"load-{counter[0]}")

    try:
        report = run_profile(make_client, pool, ramp, args.requests)
    finally:
        if service is not None:
            service.stop()

    print(render(report))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    if args.record:
        record_path = Path(args.record)
        try:
            record = json.loads(record_path.read_text())
        except (OSError, json.JSONDecodeError):
            record = {}
        if isinstance(record, dict):
            record["service"] = {
                key: report[key]
                for key in (
                    "p50_ms", "p95_ms", "p99_ms", "throughput_rps",
                    "warm_hit_ratio", "saturation_clients",
                )
            }
            record_path.write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n"
            )
            print(f"merged service SLO into {record_path}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        lines = [
            "### Simulation service SLO (service_load.py)",
            "",
            "| metric | value |",
            "|---|---|",
            f"| warm-hit ratio | {report['warm_hit_ratio']:.2%} |",
            f"| latency p50 | {report['p50_ms']:.1f} ms |",
            f"| latency p95 | {report['p95_ms']:.1f} ms |",
            f"| latency p99 | {report['p99_ms']:.1f} ms |",
            f"| peak throughput | {report['throughput_rps']:.1f} req/s |",
            f"| saturation point | {report['saturation_clients']} clients |",
            f"| 429 rejections | {report['rejected_429']} |",
            "",
        ]
        with open(summary_path, "a") as handle:
            handle.write("\n".join(lines) + "\n")
    return 0 if report["errors"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
