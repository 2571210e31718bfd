#!/usr/bin/env python3
"""Simulation service smoke (the CI `service-smoke` job, runnable
locally).

Drives the always-on service (``repro.service``) through the full
acceptance scenario on one host:

1. Runs a small Figure 3 grid inline (``jobs=1``) as the reference.
2. Starts a service with a fresh result store and has **two concurrent
   clients** submit overlapping halves of the grid; asserts the
   overlap executed exactly once (store/stats accounting) and both
   clients' results are bit-identical to the inline reference.
3. **Restarts the service** (new instance, same store directory) and
   replays the whole grid cold-cache: asserts a 100% warm-hit ratio —
   zero recomputation — and bit-identical responses again.
4. Runs the SLO load profile (``scripts/service_load.py``) against a
   third instance and writes the report into ``--out-dir`` for CI to
   upload as an artifact.
5. Runs ``repro submit abl-inval --connect ADDR`` against a fourth
   instance through the CLI's ``main``: its stdout must equal that of
   ``repro run abl-inval`` with the same options.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="service-artifacts")
    parser.add_argument(
        "--benchmarks", nargs="+", default=["compress", "perl"]
    )
    parser.add_argument("--max-instructions", type=int, default=800)
    args = parser.parse_args(argv)

    # A private warm trace cache: the inline reference pass populates
    # it, so the service's executors read entries instead of
    # re-capturing.
    os.environ.setdefault(
        "REPRO_TRACE_CACHE", tempfile.mkdtemp(prefix="repro-service-smoke-")
    )
    # The smoke controls its own store; a developer's env must not leak.
    os.environ["REPRO_RESULT_STORE"] = "off"

    from repro.core.model import GOOD_MODEL, GREAT_MODEL
    from repro.engine.config import paper_config
    from repro.harness.figure3 import SETTINGS
    from repro.harness.parallel import SimJob, run_jobs
    from repro.metrics.counters import SimCounters
    from repro.service import results as result_store
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, SimulationService

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
    store = out_dir / "result-store"
    # The scenario's accounting assumes a cold store: phase 1 counts
    # executions, so entries from an earlier local run must not leak in.
    result_store.clear_store(store)

    status = 0

    def fail(message: str) -> None:
        nonlocal status
        print(f"FAIL: {message}")
        status = 1

    # -- phase 1: two concurrent clients, overlapping halves ---------------
    # Client A takes the first 2/3, client B the last 2/3: the middle
    # third is submitted by both and must execute exactly once.
    third = len(grid) // 3
    slices = {"a": slice(0, 2 * third), "b": slice(third, len(grid))}
    outputs: dict[str, list] = {}
    errors: dict[str, Exception] = {}

    start = time.perf_counter()
    service = SimulationService(ServiceConfig(store=store))
    host, port = service.start()

    def drive(name: str) -> None:
        client = ServiceClient(host, port, client_id=name)
        try:
            outputs[name] = client.run(grid[slices[name]], timeout=300.0)
        except Exception as error:  # surfaced after join
            errors[name] = error

    threads = [
        threading.Thread(target=drive, args=(name,)) for name in slices
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = service.stats.as_dict()
    service.stop()
    concurrent_seconds = time.perf_counter() - start

    for name, error in errors.items():
        fail(f"client {name} raised: {error}")
    unique_keys = len(grid)  # every grid point is distinct
    if stats["executed"] != unique_keys:
        fail(
            f"{stats['executed']} executions for {unique_keys} unique "
            "jobs (overlap recomputed or points lost)"
        )
    for name, results in outputs.items():
        expected = reference[slices[name]]
        if [r.counters for r in results] != [r.counters for r in expected]:
            fail(f"client {name} results differ from the jobs=1 reference")
    entries = len(result_store.store_entries(store))
    if entries != unique_keys:
        fail(f"store holds {entries} entries for {unique_keys} jobs")

    # -- phase 2: restart; the whole grid must be served warm --------------
    service = SimulationService(ServiceConfig(store=store))
    host, port = service.start()
    client = ServiceClient(host, port, client_id="post-restart")
    doc = client.run_sync(grid, timeout=300.0)
    stats2 = service.stats.as_dict()
    service.stop()

    warm = sum(1 for d in doc["dispositions"] if d == "store")
    warm_ratio = warm / len(grid)
    if warm_ratio != 1.0:
        fail(
            f"post-restart warm-hit ratio {warm_ratio:.2%} "
            f"({warm}/{len(grid)} dispositions 'store')"
        )
    if stats2["executed"] != 0:
        fail(f"post-restart service executed {stats2['executed']} jobs")
    from repro.cluster.serial import result_from_wire

    warm_results = [result_from_wire(wire) for wire in doc["results"]]
    if [r.counters for r in warm_results] != [r.counters for r in reference]:
        fail("store-served results differ from the jobs=1 reference")
    merged_ref = SimCounters.merged(r.counters for r in reference)
    merged_warm = SimCounters.merged(r.counters for r in warm_results)
    if merged_ref != merged_warm:
        fail("merged SimCounters differ from the jobs=1 reference")

    # -- phase 3: SLO report ------------------------------------------------
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import service_load

    slo_path = out_dir / "service_slo.json"
    slo_status = service_load.main(
        [
            "--benchmarks", *names,
            "--max-instructions", str(min(args.max_instructions, 600)),
            "--ramp", "1,2,4",
            "--requests", "15",
            "--out", str(slo_path),
        ]
    )
    if slo_status != 0:
        fail(f"service_load exited {slo_status}")

    # -- phase 4: `repro submit` prints what `repro run` prints -------------
    import contextlib
    import io

    from repro.cli import main as repro_main

    selection = ["--max-instructions", str(args.max_instructions),
                 "--benchmarks", *names]
    printed: dict[str, str] = {}
    service = SimulationService(ServiceConfig(store=None))
    host, port = service.start()
    for command in (["run", "abl-inval"],
                    ["submit", "abl-inval", "--connect", f"{host}:{port}"]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = repro_main(command + selection)
        if code != 0:
            fail(f"`repro {' '.join(command)}` exited {code}")
        printed[command[0]] = out.getvalue()
    submit_executed = service.stats.as_dict()["executed"]
    service.stop()
    submit_matches = printed["submit"] == printed["run"]
    if not submit_matches:
        fail("`repro submit abl-inval` printed other than `repro run`")

    rows = [
        ("grid points", str(len(grid))),
        ("inline reference (jobs=1)", f"{serial_seconds:.2f} s"),
        ("two overlapping clients", f"{concurrent_seconds:.2f} s"),
        ("jobs executed (unique)", f"{stats['executed']}/{unique_keys}"),
        ("warm hits during overlap", str(stats["warm_hits"])),
        ("joined in-flight", str(stats["joined"])),
        ("post-restart warm-hit ratio", f"{warm_ratio:.0%}"),
        ("post-restart executions", str(stats2["executed"])),
        ("merged SimCounters identical", "yes" if merged_ref ==
         merged_warm else "NO"),
        ("`submit abl-inval` stdout == `run`",
         "yes" if submit_matches else "NO"),
        ("jobs the submit executed", str(submit_executed)),
        ("result", "ok" if status == 0 else "FAIL"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        lines = [
            "### Service smoke (concurrent clients + restart warm-serve)",
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
