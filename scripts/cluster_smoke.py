#!/usr/bin/env python3
"""Cluster sweep smoke (the CI `cluster-smoke` job, runnable locally).

Drives the fault-tolerant sweep service (``repro.cluster``) through the
full acceptance scenario on one host:

1. Runs a small Figure 3 grid inline (``jobs=1``) as the reference.
2. Starts a scheduler (journal attached) plus two worker subprocesses,
   one carrying an injected ``kill_on_lease`` fault — it SIGKILLs
   itself upon its first lease, mid-sweep.
3. Submits the same grid, waits until at least one point is journaled,
   then **kills the scheduler** and restarts a fresh one on the same
   port over the same journal (a forced restart with total in-memory
   state loss).
4. Lets the resumed sweep finish and asserts:

   * every per-point ``SimCounters`` — and their merged sum — is
     bit-identical to the inline reference,
   * the faulty worker really died of SIGKILL,
   * every point completed before the restart was *replayed* from the
     journal by the resubmission (zero recomputed jobs), and
   * the journal holds exactly one record per grid point.

The journal is left in ``--out-dir`` for CI to upload as an artifact;
a summary table is appended to ``$GITHUB_STEP_SUMMARY`` when set.

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
    # it, so cluster workers read entries instead of re-capturing.
    os.environ.setdefault(
        "REPRO_TRACE_CACHE", tempfile.mkdtemp(prefix="repro-cluster-smoke-")
    )

    from repro.cluster.client import ClusterClient, spawn_worker
    from repro.cluster.faults import FaultPlan
    from repro.cluster.journal import SweepJournal
    from repro.cluster.scheduler import ClusterScheduler, SchedulerConfig
    from repro.core.model import GOOD_MODEL, GREAT_MODEL
    from repro.engine.config import paper_config
    from repro.harness.figure3 import SETTINGS
    from repro.harness.parallel import SimJob, run_jobs
    from repro.metrics.counters import SimCounters

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
    journal_path = out_dir / "journal.jsonl"
    journal_path.unlink(missing_ok=True)

    supervision = dict(
        heartbeat_interval=0.1,
        heartbeat_timeout=1.0,
        lease_timeout=60.0,
        poll_interval=0.05,
        monitor_interval=0.05,
        backoff_base=0.05,
        backoff_cap=0.25,
    )
    first = ClusterScheduler(
        SchedulerConfig(journal_path=journal_path, **supervision)
    )
    address = first.start()
    workers = [
        spawn_worker(address, faults=FaultPlan(kill_on_lease=args.kill_lease),
                     reconnect_deadline=120.0),
        spawn_worker(address, reconnect_deadline=120.0),
    ]
    client = ClusterClient(address)

    status = 0
    start = time.perf_counter()
    try:
        client.submit(grid)
        reader = SweepJournal(journal_path)
        deadline = time.monotonic() + 120.0
        while not reader.replay():
            if time.monotonic() > deadline:
                print("FAIL: no journaled point before the forced restart")
                return 1
            time.sleep(0.05)
        first.stop()  # forced restart: all in-memory state is lost
        pre_restart = set(reader.replay())

        second = ClusterScheduler(
            SchedulerConfig(port=address[1], journal_path=journal_path,
                            **supervision)
        )
        second.start()
        try:
            receipt = client.submit(grid)
            replayed = int(receipt.get("replayed", 0))
            if replayed < len(pre_restart):
                print(
                    f"FAIL: only {replayed}/{len(pre_restart)} pre-restart "
                    "points replayed from the journal (recompute happened)"
                )
                status = 1
            results = client.run(grid, poll=0.05, timeout=300.0)
        finally:
            second.drain()
            for process in workers:
                try:
                    process.wait(timeout=60)
                except Exception:
                    pass
            second.stop()
    finally:
        for process in workers:
            if process.poll() is None:
                process.kill()
                process.wait()
    cluster_seconds = time.perf_counter() - start

    killed_rc = workers[0].returncode
    if killed_rc != -signal.SIGKILL:
        print(f"FAIL: faulty worker exited {killed_rc}, expected SIGKILL")
        status = 1

    if [r.counters for r in results] != [r.counters for r in reference]:
        print("FAIL: cluster results differ from the jobs=1 reference")
        status = 1
    merged_ref = SimCounters.merged(r.counters for r in reference)
    merged_cluster = SimCounters.merged(r.counters for r in results)
    if merged_ref != merged_cluster:
        print("FAIL: merged SimCounters differ from the jobs=1 reference")
        status = 1

    records = SweepJournal(journal_path).records()
    keys = [record["key"] for record in records]
    if len(keys) != len(set(keys)) or len(set(keys)) != len(grid):
        print(
            f"FAIL: journal holds {len(keys)} records / {len(set(keys))} "
            f"unique keys for a {len(grid)}-point grid"
        )
        status = 1

    rows = [
        ("grid points", str(len(grid))),
        ("inline reference (jobs=1)", f"{serial_seconds:.2f} s"),
        ("cluster (kill + restart)", f"{cluster_seconds:.2f} s"),
        ("points journaled before restart", str(len(pre_restart))),
        ("pre-restart points recomputed", "0"
         if status == 0 else "(see failures)"),
        ("faulty worker exit", f"signal {-killed_rc}"
         if killed_rc is not None and killed_rc < 0 else str(killed_rc)),
        ("journal records", str(len(records))),
        ("merged SimCounters identical", "yes" if merged_ref ==
         merged_cluster else "NO"),
        ("result", "ok" if status == 0 else "FAIL"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        lines = [
            "### Cluster sweep smoke (worker kill + scheduler restart)",
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
