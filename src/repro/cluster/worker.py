"""The cluster worker: lease, execute, report, heartbeat.

A worker is a long-lived process that repeatedly leases one job from
the scheduler, executes it with *exactly* the local harness's job
runner (:func:`repro.harness.parallel._execute` — same content-derived
per-job RNG, same collaborator factories), and reports the result.  A
parallel heartbeat thread proves liveness on a second connection so a
worker busy inside a long simulation still beats.

Only job descriptions and results cross the wire; the engine itself is
the same in-process :class:`~repro.engine.pipeline.PipelineSimulator`
the local harness runs.

Traces come from the persistent VSRT v4 disk cache
(:mod:`repro.trace.cache`): a warm entry is read with zero parse cost,
a cold miss falls back to functional capture *unless*
``REPRO_TRACE_STRICT`` is set, in which case the job fails rather than
silently re-materialize (the same strictness contract the local pool
workers honor).

Workers are crash-first: any connection failure — scheduler restart,
network blip, a corrupt frame the scheduler refused — is handled by
reconnecting (with the worker's stable, self-generated id) and
retrying, up to a reconnect deadline.  Results are safe to resend: the
scheduler treats duplicates as idempotent because re-execution is
deterministic.

Run one with ``repro cluster work --connect HOST:PORT`` or
``python -m repro.cluster.worker --connect HOST:PORT``.  Fault
injection (tests/CI only) arrives via ``REPRO_CLUSTER_FAULTS``.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time

from repro.cluster import protocol
from repro.cluster.faults import FaultPlan, corrupt_bytes
from repro.cluster.serial import job_from_blob, result_to_wire
from repro.harness import parallel


class WorkerShutdown(Exception):
    """The worker should exit (drain, or reconnect deadline exceeded)."""

    def __init__(self, message: str, code: int = 0):
        super().__init__(message)
        self.code = code


def make_worker_id() -> str:
    """A stable, globally unique worker identity, generated worker-side
    so it survives scheduler restarts and reconnects."""
    host = socket.gethostname().split(".", 1)[0]
    return f"w-{host}-{os.getpid()}-{os.urandom(3).hex()}"


class ClusterWorker:
    """One worker's connection state and execution loop."""

    def __init__(
        self,
        address: tuple[str, int],
        *,
        strict: bool | None = None,
        faults: FaultPlan | None = None,
        reconnect_deadline: float = 30.0,
    ):
        self.address = address
        self.worker_id = make_worker_id()
        self.strict = parallel.strict_no_capture() if strict is None else strict
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.reconnect_deadline = reconnect_deadline
        self.heartbeat_interval = 1.0
        self.poll_interval = 0.25
        self.jobs_done = 0
        self._sock: socket.socket | None = None
        self._stop = threading.Event()
        self._lease_count = 0
        self._result_count = 0

    # -- connection management --------------------------------------------

    def _connect(self) -> None:
        """(Re)open the control connection and register."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        sock = protocol.connect(self.address, timeout=10.0)
        reply = protocol.request(sock, {
            "type": "register",
            "worker_id": self.worker_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        })
        if reply.get("type") != "ok":
            sock.close()
            raise OSError(f"register rejected: {reply!r}")
        self.heartbeat_interval = float(
            reply.get("heartbeat_interval", self.heartbeat_interval)
        )
        self.poll_interval = float(reply.get("poll_interval", self.poll_interval))
        self._sock = sock

    def _reconnect_until_deadline(self, deadline: float) -> None:
        while True:
            try:
                self._connect()
                return
            except (OSError, protocol.ProtocolError):
                if time.monotonic() > deadline:
                    raise WorkerShutdown(
                        "scheduler unreachable past reconnect deadline", code=3
                    ) from None
                self._stop.wait(0.2)
                if self._stop.is_set():
                    raise WorkerShutdown("stopped while reconnecting") from None

    def _request(self, message: dict, *, corrupt_once: bool = False) -> dict:
        """Send one request, reconnecting/resending as needed.

        ``corrupt_once`` injects the corrupt-frame fault: the first
        transmission is mangled (the scheduler must reject it and stay
        healthy), then the clean frame is resent on a fresh connection —
        which is exactly the recovery a real corrupting link needs.
        """
        deadline = time.monotonic() + self.reconnect_deadline
        corrupted = not (corrupt_once and self._take_corrupt_slot(message))
        while True:
            try:
                if self._sock is None:
                    self._reconnect_until_deadline(deadline)
                assert self._sock is not None
                if self.faults.delay_frame_s > 0:
                    time.sleep(self.faults.delay_frame_s)
                frame = protocol.encode_frame(message)
                if not corrupted:
                    corrupted = True
                    self._sock.sendall(corrupt_bytes(frame))
                    try:
                        protocol.recv_frame(self._sock)  # error or EOF
                    except protocol.ProtocolError:
                        pass
                    raise OSError("resend after injected frame corruption")
                self._sock.sendall(frame)
                reply = protocol.recv_frame(self._sock)
                if reply is None:
                    raise OSError("scheduler closed the connection")
                return reply
            except (OSError, protocol.ProtocolError):
                self._sock = None
                self._reconnect_until_deadline(deadline)

    def _take_corrupt_slot(self, message: dict) -> bool:
        if message.get("type") != "result" or self.faults.corrupt_result <= 0:
            return False
        return self._result_count + 1 == self.faults.corrupt_result

    # -- heartbeats --------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        beats = 0
        sock: socket.socket | None = None
        while not self._stop.wait(self.heartbeat_interval):
            if (
                self.faults.drop_heartbeats_after
                and beats >= self.faults.drop_heartbeats_after
            ):
                continue  # injected partition: alive but silent
            try:
                if sock is None:
                    sock = protocol.connect(self.address, timeout=5.0)
                protocol.request(sock, {
                    "type": "heartbeat",
                    "worker_id": self.worker_id,
                })
                beats += 1
            except (OSError, protocol.ProtocolError):
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                sock = None  # retry on the next tick
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- execution ---------------------------------------------------------

    def _ensure_trace(self, benchmark: str, max_instructions: int | None) -> None:
        """Warm the process-local memo from the disk cache so
        :func:`parallel._execute` finds the trace without capturing."""
        key = (benchmark, max_instructions)
        if key in parallel._TRACE_CACHE:
            return
        from repro.programs.suite import kernel
        from repro.trace import cache as trace_cache

        trace = None
        if trace_cache.cache_enabled():
            trace = trace_cache.load_trace(
                benchmark, kernel(benchmark).source, max_instructions
            )
        if trace is None:
            if self.strict:
                raise RuntimeError(
                    f"{parallel.STRICT_ENV_VAR}: no warm disk-cache entry "
                    f"for {key!r} and capture is forbidden in workers"
                )
            trace = trace_cache.cached_trace(benchmark, max_instructions)
        parallel._TRACE_CACHE[key] = trace

    def _run_job(self, lease: dict) -> None:
        key = lease["key"]
        attempt = int(lease.get("attempt", 1))
        report = {
            "type": "result",
            "worker_id": self.worker_id,
            "key": key,
            "attempt": attempt,
        }
        try:
            job = job_from_blob(lease["blob"])
            self._ensure_trace(job.benchmark, job.max_instructions)
            result = parallel._execute(job)
            report["ok"] = True
            report["result"] = result_to_wire(result)
        except Exception as error:
            report["ok"] = False
            report["error"] = f"{type(error).__name__}: {error}"
        self._request(report, corrupt_once=True)
        self._result_count += 1
        if report["ok"]:
            self.jobs_done += 1

    # -- main loop ---------------------------------------------------------

    def run(self) -> int:
        try:
            self._connect()
        except (OSError, protocol.ProtocolError):
            deadline = time.monotonic() + self.reconnect_deadline
            try:
                self._reconnect_until_deadline(deadline)
            except WorkerShutdown as shutdown:
                return shutdown.code
        heartbeats = threading.Thread(
            target=self._heartbeat_loop, name="worker-heartbeat", daemon=True
        )
        heartbeats.start()
        try:
            while True:
                reply = self._request({
                    "type": "lease",
                    "worker_id": self.worker_id,
                })
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
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass


def worker_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cluster work",
        description="Run one cluster sweep worker (see docs/CLUSTER.md)",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="scheduler address",
    )
    parser.add_argument(
        "--reconnect-deadline", type=float, default=30.0,
        help="seconds to keep retrying an unreachable scheduler",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help=f"fail jobs on cold traces (same as {parallel.STRICT_ENV_VAR}=1)",
    )
    args = parser.parse_args(argv)
    worker = ClusterWorker(
        protocol.parse_address(args.connect),
        strict=True if args.strict else None,
        reconnect_deadline=args.reconnect_deadline,
    )
    return worker.run()


if __name__ == "__main__":
    sys.exit(worker_main())
