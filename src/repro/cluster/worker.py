"""The cluster worker: lease, execute, report, heartbeat.

A worker is a long-lived process that repeatedly leases one job from
the simulation service's worker plane (:mod:`repro.service.server`,
``backend="cluster"``), executes it with *exactly* the local harness's
job runner (:func:`repro.harness.parallel._execute` — same
content-derived per-job RNG, same collaborator factories), and reports
the result.  A parallel heartbeat thread proves liveness so a worker
busy inside a long simulation still beats.

Only job descriptions and results cross the wire; the engine itself is
the same in-process :class:`~repro.engine.pipeline.PipelineSimulator`
the local harness runs.

Traces reach a worker the one way they reach a local pool worker: as a
VSRT v4 entry of the configured trace cache (:mod:`repro.trace.cache`),
opened by :func:`repro.harness.parallel._trace_for` with every chunk
CRC-checked.  A miss (or a corrupt entry) falls back to functional
capture *unless* ``REPRO_TRACE_STRICT`` is set, in which case the job
fails rather than silently re-materialize.

Workers are crash-first: every request rides a fresh HTTP connection,
and any connection failure — a service restart, a network blip — is
retried until the reconnect deadline.  Results are safe to resend: the
service treats duplicates as idempotent because re-execution is
deterministic, and each result carries its job blob so a restarted
service can verify and adopt it.

Run one with ``repro cluster work --connect HOST:PORT``; the fault
plan of the tests and the CI smoke arrives via ``REPRO_CLUSTER_FAULTS``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.cluster.faults import FAULTS_ENV_VAR, FaultPlan, corrupt_bytes
from repro.cluster.serial import job_from_blob, result_to_wire
from repro.harness import parallel
from repro.service.client import ServiceClient


class WorkerShutdown(Exception):
    """The worker should exit (drain, refusal, or reconnect deadline)."""

    def __init__(self, message: str, code: int = 0):
        super().__init__(message)
        self.code = code


def make_worker_id() -> str:
    """A stable, globally unique worker identity, generated worker-side
    so it survives service restarts."""
    host = socket.gethostname().split(".", 1)[0]
    return f"w-{host}-{os.getpid()}-{os.urandom(3).hex()}"


class ClusterWorker:
    """One worker's execution loop against one service address."""

    def __init__(
        self,
        address: tuple[str, int],
        *,
        strict: bool | None = None,
        faults: FaultPlan | None = None,
        reconnect_deadline: float = 30.0,
    ):
        self.worker_id = make_worker_id()
        self.client = ServiceClient(*address, client_id=self.worker_id)
        self.strict = parallel.strict_no_capture() if strict is None else strict
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.reconnect_deadline = reconnect_deadline
        self.heartbeat_interval = 1.0
        self.poll_interval = 0.25
        self.jobs_done = 0
        self._stop = threading.Event()
        self._lease_count = 0
        self._result_count = 0

    def _post(self, path: str, message: dict, *, corrupt: bool = False) -> dict:
        """POST one worker-plane message and return the service's reply,
        retrying connection failures until the reconnect deadline.

        ``corrupt`` injects the corrupt-result fault: the first
        transmission is mangled (the service must answer ``400`` and
        stay healthy), then the clean body is resent — exactly the
        recovery a real corrupting link needs.
        """
        message = {"worker_id": self.worker_id, **message}
        raw = corrupt_bytes(json.dumps(message).encode()) if corrupt else None
        deadline = time.monotonic() + self.reconnect_deadline
        while True:
            if self.faults.delay_request_s > 0:
                time.sleep(self.faults.delay_request_s)
            try:
                status, _, reply = self.client._request(
                    "POST", path, None if raw else message, raw=raw
                )
            except (OSError, http.client.HTTPException):
                if time.monotonic() > deadline:
                    raise WorkerShutdown(
                        "service unreachable past reconnect deadline", code=3
                    ) from None
                if self._stop.wait(0.2):
                    raise WorkerShutdown("stopped while reconnecting") from None
                continue
            if raw is not None:
                raw = None  # the mangled body was refused: resend it clean
                continue
            if status in (200, 503):  # 503: a transient lease error
                return reply
            raise WorkerShutdown(
                f"service refused {path} ({status}): {reply.get('error')}",
                code=2,
            )

    # -- heartbeats --------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        beats = 0
        while not self._stop.wait(self.heartbeat_interval):
            if (
                self.faults.drop_heartbeats_after
                and beats >= self.faults.drop_heartbeats_after
            ):
                continue  # injected partition: alive but silent
            try:
                self.client._request("POST", "/v1/heartbeat",
                                     {"worker_id": self.worker_id})
                beats += 1
            except (OSError, http.client.HTTPException):
                pass  # retry on the next tick

    # -- execution ---------------------------------------------------------

    def _run_job(self, lease: dict) -> None:
        report = {"key": lease["key"], "blob": lease["blob"],
                  "attempt": int(lease.get("attempt", 1))}
        try:
            job = job_from_blob(lease["blob"])
            report["result"] = result_to_wire(parallel._execute(job))
            report["ok"] = True
        except Exception as error:
            report["ok"] = False
            report["error"] = f"{type(error).__name__}: {error}"
        self._result_count += 1
        self._post("/v1/result", report,
                   corrupt=self._result_count == self.faults.corrupt_result)
        if report["ok"]:
            self.jobs_done += 1

    # -- main loop ---------------------------------------------------------

    def run(self) -> int:
        # The pool workers' trace rule, against the configured cache.
        parallel._init_worker(None, self.strict)
        heartbeats = threading.Thread(
            target=self._heartbeat_loop, name="worker-heartbeat", daemon=True
        )
        heartbeats.start()
        try:
            while True:
                reply = self._post("/v1/lease", {})
                self.heartbeat_interval = float(
                    reply.get("heartbeat_interval", self.heartbeat_interval)
                )
                kind = reply.get("type")
                if kind == "shutdown":
                    return 0
                if kind == "job":
                    self._lease_count += 1
                    if self.faults.kill_on_lease == self._lease_count:
                        # Injected mid-job death: no cleanup, no goodbye —
                        # exactly what OOM-kill or a node loss looks like.
                        os.kill(os.getpid(), signal.SIGKILL)
                    self._run_job(reply)
                    continue
                # idle, or an injected/transient lease error: back off.
                delay = float(reply.get("retry_after", self.poll_interval))
                self._stop.wait(min(delay, 2.0))
        except WorkerShutdown as shutdown:
            return shutdown.code
        finally:
            self._stop.set()


# -- worker process management --------------------------------------------


def spawn_worker(
    address: tuple[str, int],
    *,
    faults: FaultPlan | None = None,
    reconnect_deadline: float = 30.0,
    quiet: bool = True,
) -> subprocess.Popen:
    """Start one ``repro cluster work`` subprocess against ``address``.

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
        sys.executable, "-m", "repro", "cluster", "work",
        "--connect", f"{address[0]}:{address[1]}",
        "--reconnect-deadline", str(reconnect_deadline),
    ]
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.DEVNULL if quiet else None,
        stderr=subprocess.DEVNULL if quiet else None,
    )


def reap(processes: list[subprocess.Popen], timeout: float = 5.0) -> None:
    """Wait for worker processes to exit; terminate (then kill) any
    still running after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    for proc in processes:
        try:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


@contextmanager
def local_workers(service, count: int, *,
                  faults: dict[int, FaultPlan] | None = None,
                  reconnect_deadline: float = 30.0):
    """``count`` worker subprocesses leasing from a started ``service``
    (a :class:`~repro.service.server.SimulationService` with
    ``backend="cluster"``).  On exit the service is drained, so the
    workers leave at their next lease, and they are reaped.
    ``faults`` assigns a :class:`FaultPlan` per worker slot."""
    processes = [
        spawn_worker(service.address, faults=(faults or {}).get(slot),
                     reconnect_deadline=reconnect_deadline)
        for slot in range(count)
    ]
    try:
        yield processes
    finally:
        service.drain()
        reap(processes)
