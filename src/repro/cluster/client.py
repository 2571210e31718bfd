"""Client side of the cluster service: submit, wait, fetch, spawn.

Two ways in:

* **Service mode** — a scheduler is already running (``repro cluster
  serve``) with its own long-lived workers; point
  ``REPRO_CLUSTER_ADDR`` (or ``address=``) at it and
  :func:`run_jobs_cluster` submits the grid there.  The client is
  stateless and restart-proof: every request rides a fresh connection,
  and if the scheduler bounces mid-sweep the client simply resubmits —
  the journal makes resubmission free for completed points.
* **Ephemeral mode** — no address configured: :class:`LocalCluster`
  stands up an in-process scheduler plus N worker *subprocesses*, runs
  the grid, and tears everything down.  This is what
  ``run_jobs(..., backend="cluster")`` uses, giving any harness entry
  point worker-death survival without deployment ceremony.

Merging is by submission order, exactly like
:func:`repro.harness.parallel.run_jobs`: results come back positionally
aligned with the submitted job list, so callers cannot tell the two
backends apart (and the tests assert they are bit-identical).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.cluster import protocol
from repro.cluster.faults import FAULTS_ENV_VAR, FaultPlan
from repro.cluster.scheduler import ClusterScheduler, SchedulerConfig, SchedulerTracer
from repro.cluster.serial import job_key, job_to_blob, result_from_wire
from repro.engine.sim import SimulationResult
from repro.harness.parallel import SimJob

#: Env var: ``host:port`` of a running scheduler for service mode.
ADDR_ENV_VAR = "REPRO_CLUSTER_ADDR"

#: Env var: journal path used by ephemeral local clusters (so even
#: one-shot ``backend="cluster"`` sweeps can resume across invocations).
JOURNAL_ENV_VAR = "REPRO_CLUSTER_JOURNAL"


class ClusterSweepError(RuntimeError):
    """The sweep cannot complete: jobs exhausted their attempt budget."""

    def __init__(self, failures: list[dict]):
        self.failures = failures
        detail = "; ".join(
            f"{f.get('key')}: {f.get('error')} (attempts={f.get('attempts')})"
            for f in failures[:5]
        )
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        super().__init__(f"{len(failures)} job(s) failed: {detail}{more}")


class ClusterClient:
    """Thin request client for one scheduler address."""

    def __init__(self, address: tuple[str, int], *, timeout: float = 30.0):
        self.address = address
        self.timeout = timeout

    def _request(self, message: dict) -> dict:
        """One request on a fresh connection (restart-proof statelessness
        matters more than connection reuse at client rates)."""
        with protocol.connect(self.address, timeout=self.timeout) as sock:
            return protocol.request(sock, message)

    # -- primitives --------------------------------------------------------

    def submit(self, job_list: list[SimJob], sweep_id: str | None = None) -> dict:
        """Submit a grid; returns the receipt (sweep_id/total/replayed)."""
        entries = [
            {"key": job_key(job), "blob": job_to_blob(job)} for job in job_list
        ]
        message: dict = {"type": "submit", "jobs": entries}
        if sweep_id is not None:
            message["sweep_id"] = sweep_id
        reply = self._request(message)
        if reply.get("type") != "ok":
            raise RuntimeError(f"submit rejected: {reply.get('reason', reply)!r}")
        return reply

    def status(self) -> dict:
        return self._request({"type": "status"})

    def fetch(self, sweep_id: str) -> list[SimulationResult] | None:
        """The sweep's results in submission order, or ``None`` while
        jobs are still outstanding.  Raises :class:`ClusterSweepError`
        once any job has exhausted its attempt budget."""
        reply = self._request({"type": "fetch", "sweep_id": sweep_id})
        kind = reply.get("type")
        if kind == "results":
            return [result_from_wire(doc) for doc in reply["results"]]
        if kind == "pending":
            return None
        if reply.get("failures"):
            raise ClusterSweepError(reply["failures"])
        raise RuntimeError(f"fetch failed: {reply.get('reason', reply)!r}")

    def shutdown(self, *, drain: bool = False) -> dict:
        return self._request({"type": "shutdown", "drain": drain})

    # -- the sweep loop ----------------------------------------------------

    def run(
        self,
        job_list: list[SimJob],
        *,
        poll: float = 0.1,
        timeout: float | None = None,
    ) -> list[SimulationResult]:
        """Submit a grid and wait for its results.

        Survives a scheduler restart mid-sweep: when the service drops
        (connection refused) or forgets the sweep (restarted with only
        the journal), the client resubmits the identical grid — the
        journal replays every completed point, so resubmission costs
        nothing and recomputes nothing.
        """
        if not job_list:
            return []
        deadline = None if timeout is None else time.monotonic() + timeout
        receipt: dict | None = None
        while True:
            results = None
            if receipt is None:
                try:
                    receipt = self.submit(job_list)
                except (OSError, protocol.ProtocolError):
                    receipt = None  # scheduler down/restarting: retry
            if receipt is not None:
                try:
                    results = self.fetch(receipt["sweep_id"])
                except ClusterSweepError:
                    raise
                except (OSError, protocol.ProtocolError, RuntimeError):
                    # Dropped connection, or a restarted scheduler that
                    # no longer knows the sweep: resubmit (free — the
                    # journal replays completed points).
                    receipt = None
            if results is not None:
                return results
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"cluster sweep incomplete after {timeout}s"
                )
            time.sleep(poll)


# -- worker process management --------------------------------------------


def spawn_worker(
    address: tuple[str, int],
    *,
    faults: FaultPlan | None = None,
    strict: bool = False,
    reconnect_deadline: float = 30.0,
    quiet: bool = True,
) -> subprocess.Popen:
    """Start one worker subprocess pointed at ``address``.

    The child gets this interpreter and this checkout (``src`` is put on
    ``PYTHONPATH`` explicitly, so spawning works from any cwd), inherits
    the environment — trace-cache location included — and carries its
    fault plan, if any, in ``REPRO_CLUSTER_FAULTS``.
    """
    env = os.environ.copy()
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if faults is not None and faults.any():
        env[FAULTS_ENV_VAR] = faults.to_env()
    else:
        env.pop(FAULTS_ENV_VAR, None)
    command = [
        sys.executable,
        "-m",
        "repro.cluster.worker",
        "--connect",
        f"{address[0]}:{address[1]}",
        "--reconnect-deadline",
        str(reconnect_deadline),
    ]
    if strict:
        command.append("--strict")
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.DEVNULL if quiet else None,
        stderr=subprocess.DEVNULL if quiet else None,
    )


class LocalCluster:
    """An ephemeral scheduler + N worker subprocesses on this host.

    Context-manager shaped: entering starts everything, exiting drains
    the workers (they exit at their next lease), then reaps and stops.
    ``worker_faults`` assigns a :class:`FaultPlan` per worker slot —
    how the tests and the CI smoke arrange a mid-sweep worker kill.
    """

    def __init__(
        self,
        config: SchedulerConfig,
        workers: int = 2,
        *,
        worker_faults: dict[int, FaultPlan] | None = None,
        tracer: SchedulerTracer | None = None,
        reconnect_deadline: float = 30.0,
    ):
        self.scheduler = ClusterScheduler(config, tracer=tracer)
        self.n_workers = max(1, workers)
        self.worker_faults = worker_faults or {}
        self.reconnect_deadline = reconnect_deadline
        self.processes: list[subprocess.Popen] = []

    @property
    def address(self) -> tuple[str, int]:
        assert self.scheduler.address is not None
        return self.scheduler.address

    def client(self) -> ClusterClient:
        return ClusterClient(self.address)

    def start(self) -> "LocalCluster":
        address = self.scheduler.start()
        for slot in range(self.n_workers):
            self.processes.append(
                spawn_worker(
                    address,
                    faults=self.worker_faults.get(slot),
                    reconnect_deadline=self.reconnect_deadline,
                )
            )
        return self

    def stop(self) -> None:
        self.scheduler.drain()
        deadline = time.monotonic() + 5.0
        for proc in self.processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self.processes.clear()
        self.scheduler.stop()

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _warm_local_cache(job_list: list[SimJob]) -> None:
    """Capture each distinct trace once, parent-side, into the shared
    disk cache, so every worker's first touch is a warm read (and
    strict workers never trip on a cold cache)."""
    from repro.trace import cache as trace_cache

    if not trace_cache.cache_enabled():
        return
    for benchmark, limit in dict.fromkeys(
        (job.benchmark, job.max_instructions) for job in job_list
    ):
        trace_cache.cached_trace(benchmark, limit)


def run_jobs_cluster(
    job_list: list[SimJob],
    jobs: int | None = None,
    *,
    address: tuple[str, int] | None = None,
    timeout: float | None = None,
) -> list[SimulationResult]:
    """Execute a grid on the cluster backend.

    With an address (argument or ``REPRO_CLUSTER_ADDR``), the grid goes
    to that running service and ``jobs`` is ignored — capacity belongs
    to the service's workers.  Otherwise an ephemeral local cluster
    with ``jobs`` workers runs it; ``REPRO_CLUSTER_JOURNAL`` may pin
    the journal so even ephemeral sweeps resume across invocations.
    """
    if not job_list:
        return []
    if address is None:
        configured = os.environ.get(ADDR_ENV_VAR, "").strip()
        if configured:
            address = protocol.parse_address(configured)
    if address is not None:
        return ClusterClient(address).run(job_list, timeout=timeout)

    from repro.harness.parallel import effective_jobs

    _warm_local_cache(job_list)
    workers = effective_jobs(jobs if jobs is not None else 1, len(job_list))
    journal_override = os.environ.get(JOURNAL_ENV_VAR, "").strip()
    tmpdir: tempfile.TemporaryDirectory | None = None
    if journal_override:
        journal_path = Path(journal_override)
    else:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        journal_path = Path(tmpdir.name) / "journal.jsonl"
    config = SchedulerConfig(
        journal_path=journal_path,
        heartbeat_interval=0.2,
        heartbeat_timeout=2.0,
        lease_timeout=120.0,
        poll_interval=0.05,
        monitor_interval=0.1,
    )
    try:
        with LocalCluster(config, workers=workers) as cluster:
            return cluster.client().run(
                job_list, poll=0.05, timeout=timeout
            )
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
