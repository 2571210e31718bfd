#!/usr/bin/env python3
"""Cluster sweep smoke (the CI `cluster-smoke` job, runnable locally).

Drives the simulation service's worker plane (``backend="cluster"``)
through the full acceptance scenario on one host:

1. Runs a small Figure 3 grid inline (``jobs=1``) as the reference.
2. Starts a service over a result store plus two ``repro cluster work``
   subprocesses, one carrying an injected ``kill_on_lease`` fault — it
   SIGKILLs itself upon its first lease, mid-sweep.
3. Submits the same grid, waits until at least one point is stored,
   then **kills the service** and restarts a fresh one on the same
   port over the same store (a forced restart with total in-memory
   state loss).
4. Lets the resumed sweep finish and asserts:

   * every per-point ``SimCounters`` — and their merged sum — is
     bit-identical to the inline reference,
   * the faulty worker really died of SIGKILL,
   * every point completed before the restart was *replayed* from the
     store by the resubmission (zero recomputed pre-restart points), and
   * the store holds exactly one entry per grid point.

The store (``store/``) is left in ``--out-dir`` for CI to upload as an
artifact; a summary table is appended to ``$GITHUB_STEP_SUMMARY`` when
set.

Usage::

    PYTHONPATH=src python scripts/cluster_smoke.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="cluster-artifacts")
    parser.add_argument(
        "--benchmarks", nargs="+", default=["compress", "perl"]
    )
    parser.add_argument("--max-instructions", type=int, default=800)
    parser.add_argument(
        "--kill-lease", type=int, default=1,
        help="worker 0 SIGKILLs itself on this lease (1 = its first)",
    )
    args = parser.parse_args(argv)

    # A private warm trace cache: the inline reference pass populates
    # it, so the workers read entries instead of re-capturing.
    os.environ.setdefault(
        "REPRO_TRACE_CACHE", tempfile.mkdtemp(prefix="repro-cluster-smoke-")
    )

    from repro.cluster.faults import FaultPlan
    from repro.cluster.serial import job_key, job_to_blob
    from repro.cluster.worker import reap, spawn_worker
    from repro.core.model import GOOD_MODEL, GREAT_MODEL
    from repro.engine.config import paper_config
    from repro.harness.figure3 import SETTINGS
    from repro.harness.parallel import SimJob, run_jobs
    from repro.metrics.counters import SimCounters
    from repro.service import results as result_store
    from repro.service.client import ServiceClient
    from repro.service.server import (
        ServiceConfig,
        ServiceTracer,
        SimulationService,
    )

    # A small Figure 3 grid: one configuration, the paper's four
    # settings, two models — baselines included, exactly as
    # run_figure3 lays it out.
    config = paper_config("4/24")
    names = args.benchmarks
    grid = [SimJob(n, config, None, args.max_instructions) for n in names]
    for timing, conf in SETTINGS:
        for model in (GOOD_MODEL, GREAT_MODEL):
            grid.extend(
                SimJob(n, config, model, args.max_instructions,
                       confidence=conf, update_timing=timing)
                for n in names
            )

    start = time.perf_counter()
    reference = run_jobs(grid, jobs=1)
    serial_seconds = time.perf_counter() - start

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = out_dir / "store"
    result_store.clear_store(store)

    def stored_keys() -> set[str]:
        return {path.stem for path in result_store.store_entries(store)}

    supervision = dict(
        store=store,
        backend="cluster",
        heartbeat_timeout=1.0,
        lease_timeout=60.0,
        poll_interval=0.05,
    )
    tracer = ServiceTracer()  # shared by both incarnations
    first = SimulationService(ServiceConfig(**supervision), tracer=tracer)
    address = first.start()
    workers = [
        spawn_worker(address, faults=FaultPlan(kill_on_lease=args.kill_lease),
                     reconnect_deadline=120.0),
        spawn_worker(address, reconnect_deadline=120.0),
    ]
    client = ServiceClient(*address)
    blobs = [{"key": job_key(job), "blob": job_to_blob(job)} for job in grid]

    status = 0
    start = time.perf_counter()
    try:
        client.submit(grid)
        deadline = time.monotonic() + 120.0
        while not stored_keys():
            if time.monotonic() > deadline:
                print("FAIL: no stored point before the forced restart")
                return 1
            time.sleep(0.05)
        first.stop()  # forced restart: all in-memory state is lost
        pre_restart = stored_keys()

        second = SimulationService(
            ServiceConfig(port=address[1], **supervision), tracer=tracer
        )
        second.start()
        try:
            _, _, receipt = client._request(
                "POST", "/v1/submit", {"jobs": blobs}
            )
            replayed = receipt.get("dispositions", []).count("store")
            if replayed < len(pre_restart):
                print(
                    f"FAIL: only {replayed}/{len(pre_restart)} pre-restart "
                    "points replayed from the store (recompute happened)"
                )
                status = 1
            results = client.run(grid, timeout=300.0)
        finally:
            second.drain()
            reap(workers, timeout=60)
            second.stop()
    finally:
        reap(workers, timeout=0)
    leased_seconds = time.perf_counter() - start

    killed_rc = workers[0].returncode
    if killed_rc != -signal.SIGKILL:
        print(f"FAIL: faulty worker exited {killed_rc}, expected SIGKILL")
        status = 1

    if [r.counters for r in results] != [r.counters for r in reference]:
        print("FAIL: leased results differ from the jobs=1 reference")
        status = 1
    merged_ref = SimCounters.merged(r.counters for r in reference)
    merged_leased = SimCounters.merged(r.counters for r in results)
    if merged_ref != merged_leased:
        print("FAIL: merged SimCounters differ from the jobs=1 reference")
        status = 1

    # Every pre-restart point was recorded once before the restart, so
    # a second result-recorded event for it means it was recomputed.
    recorded = Counter(
        detail["key"] for _, kind, detail in tracer.items()
        if kind == "result-recorded"
    )
    recomputed = [key for key in pre_restart if recorded[key] > 1]
    if recomputed:
        print(f"FAIL: {len(recomputed)} pre-restart point(s) recomputed")
        status = 1
    grid_keys = {job_key(job) for job in grid}
    entries = stored_keys()
    if entries != grid_keys:
        print(
            f"FAIL: store holds {len(entries)} entries for a "
            f"{len(grid_keys)}-point grid"
        )
        status = 1

    rows = [
        ("grid points", str(len(grid))),
        ("inline reference (jobs=1)", f"{serial_seconds:.2f} s"),
        ("leased (kill + restart)", f"{leased_seconds:.2f} s"),
        ("points stored before restart", str(len(pre_restart))),
        ("pre-restart points recomputed", str(len(recomputed))),
        ("faulty worker exit", f"signal {-killed_rc}"
         if killed_rc is not None and killed_rc < 0 else str(killed_rc)),
        ("store entries", str(len(entries))),
        ("merged SimCounters identical", "yes" if merged_ref ==
         merged_leased else "NO"),
        ("result", "ok" if status == 0 else "FAIL"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        lines = [
            "### Cluster sweep smoke (worker kill + service restart)",
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
