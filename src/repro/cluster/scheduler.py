"""The cluster scheduler: lease-based assignment with crash recovery.

One scheduler process owns a sweep's truth: the set of jobs and who is
computing what.  Workers are *leased* jobs one at a time and prove
liveness with heartbeats; a worker that stops heartbeating (killed,
wedged, partitioned) has its lease revoked and its job requeued with
exponential backoff and a bounded attempt budget.  Completed results
are written (and fsynced) to the content-addressed result store
(:mod:`repro.service.results`) *before* the worker is acknowledged, so
a scheduler crash never loses an acknowledged point.  Resume happens at
submit time: a restarted scheduler over the same store looks up every
submitted key it does not hold, serves the stored ones as done, and
recomputes only the rest.

Correctness stance: because jobs are deterministic pure functions
(:func:`repro.harness.parallel._execute` with a content-derived seed),
*at-least-once* execution plus first-result-wins merging is exactly
as good as exactly-once — duplicate completions of a job carry
bit-identical results, so the scheduler just keeps the first and flags
later ones as duplicates.  Fault tolerance therefore never trades away
the repo's core invariant (cluster == ``jobs=1``, bit for bit).

Threading model: an accept loop spawns one (daemon) thread per
connection; every handler runs under one lock over the job/worker/sweep
tables (hold times are microseconds — the heavy work happens in the
workers); a monitor thread expires dead workers and stale leases.
"""

from __future__ import annotations

import hashlib
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.faults import FaultPlan
from repro.cluster.protocol import (
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.service import results as result_store


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables for one scheduler instance.

    The defaults suit a real deployment (seconds-scale supervision);
    tests and the CI smoke shrink the intervals to keep fault-recovery
    walls under a second.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from .address
    #: Result-store directory completed points persist to and resume
    #: from (``None``: results live only in memory).
    store_dir: Path | None = None
    #: Workers are told to beat this often...
    heartbeat_interval: float = 2.0
    #: ...and are presumed dead after this long without a beat.
    heartbeat_timeout: float = 8.0
    #: Fallback revocation for a leased job whose worker never
    #: heartbeats at all (heartbeats extend the lease).
    lease_timeout: float = 60.0
    #: Total attempts a job may consume before the sweep fails.
    max_attempts: int = 3
    #: Exponential backoff between a job's attempts: base * 2^(n-1),
    #: capped, with multiplicative jitter in [1, 1+jitter].
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    backoff_jitter: float = 0.25
    #: Suggested idle-worker poll interval (sent in lease/idle replies).
    poll_interval: float = 0.25
    monitor_interval: float = 0.1
    #: Scheduler-side fault injection (see repro.cluster.faults).
    faults: FaultPlan = field(default_factory=FaultPlan)


class SchedulerTracer:
    """Optional observability hook: scheduler lifecycle events.

    Events land in a bounded :class:`repro.obs.tracer.EventRing` as
    ``(wall_time, kind, detail)`` tuples — the same oldest-overwrite
    discipline the pipeline tracer uses, so a tracer left attached to a
    long-lived service keeps the most recent window and bounded memory.
    """

    def __init__(self, capacity: int = 4096):
        from repro.obs.tracer import EventRing

        self.events = EventRing(capacity)

    def record(self, kind: str, **detail) -> None:
        self.events.append((time.time(), kind, detail))

    def items(self) -> list:
        return self.events.items()

    def kinds(self) -> set[str]:
        return {kind for _, kind, _ in self.events.items()}


@dataclass
class _JobState:
    key: str
    blob: str | None  # None for orphan-adopted entries
    status: str = "pending"  # pending | leased | done | failed
    attempts: int = 0  # leases granted so far
    next_eligible: float = 0.0
    worker: str | None = None
    lease_deadline: float = 0.0
    result: dict | None = None  # wire form (serial.result_to_wire)
    error: str | None = None
    replayed: bool = False  # served from the result store, not computed here


@dataclass
class _WorkerState:
    worker_id: str
    last_beat: float
    leased: str | None = None


def sweep_id_for(keys: list[str]) -> str:
    """Deterministic sweep id: a hash of the submitted keys in order.

    Resubmitting the same grid (the resume path) maps to the same sweep
    without the client having to remember anything across restarts.
    """
    digest = hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()
    return f"sweep-{digest[:12]}"


class ClusterScheduler:
    """The sweep service.  See the module docstring for the design."""

    def __init__(self, config: SchedulerConfig | None = None,
                 tracer: SchedulerTracer | None = None):
        self.config = config or SchedulerConfig()
        self.tracer = tracer
        self._lock = threading.RLock()
        self._jobs: dict[str, _JobState] = {}
        self._workers: dict[str, _WorkerState] = {}
        self._sweeps: dict[str, list[str]] = {}
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._stopping = threading.Event()
        self._draining = False
        self._rng = random.Random()
        self._fail_leases_left = self.config.faults.fail_leases
        self.address: tuple[str, int] | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and start the accept + monitor threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(64)
        self._listener = listener
        self.address = listener.getsockname()
        for target, name in (
            (self._accept_loop, "cluster-accept"),
            (self._monitor_loop, "cluster-monitor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        self._trace("scheduler-started", host=self.address[0], port=self.address[1])
        return self.address

    def stop(self) -> None:
        """Stop serving."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()
        self._trace("scheduler-stopped")

    def drain(self) -> None:
        """Tell workers to exit: subsequent lease requests get
        ``shutdown`` instead of ``idle``/``job``."""
        with self._lock:
            self._draining = True
        self._trace("drain-requested")

    def __enter__(self) -> "ClusterScheduler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _trace(self, kind: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.record(kind, **detail)

    # -- socket plumbing ---------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="cluster-conn", daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    message = recv_frame(conn)
                except OSError:
                    break  # connection reset, or closed under us by stop()
                except ProtocolError as error:
                    # Corrupt/truncated/oversized frame: answer if the
                    # socket still works, then drop the connection — one
                    # bad peer must not wedge the service.
                    self._trace("protocol-error", error=str(error))
                    try:
                        send_frame(conn, {"type": "error",
                                          "reason": f"protocol: {error}"})
                    except OSError:
                        pass
                    break
                if message is None:
                    break
                try:
                    reply = self._dispatch(message)
                except Exception as error:  # defensive: never kill the loop
                    reply = {"type": "error", "reason": f"internal: {error}"}
                    self._trace("handler-error", error=repr(error))
                try:
                    send_frame(conn, reply)
                except OSError:
                    break
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, message: dict) -> dict:
        handlers = {
            "register": self._handle_register,
            "heartbeat": self._handle_heartbeat,
            "lease": self._handle_lease,
            "result": self._handle_result,
            "submit": self._handle_submit,
            "status": self._handle_status,
            "fetch": self._handle_fetch,
            "shutdown": self._handle_shutdown,
        }
        handler = handlers.get(message.get("type"))
        if handler is None:
            self._trace("unknown-message", type=str(message.get("type")))
            return {
                "type": "error",
                "reason": f"unknown-message-type: {message.get('type')!r}",
            }
        return handler(message)

    # -- worker plane ------------------------------------------------------

    def _touch_worker(self, worker_id: str) -> _WorkerState:
        """Upsert a worker record (heartbeats auto-register, so worker
        identity survives scheduler restarts without a re-register
        dance — worker ids are generated worker-side)."""
        state = self._workers.get(worker_id)
        if state is None:
            state = _WorkerState(worker_id=worker_id, last_beat=time.monotonic())
            self._workers[worker_id] = state
        else:
            state.last_beat = time.monotonic()
        return state

    def _handle_register(self, message: dict) -> dict:
        worker_id = str(message.get("worker_id", ""))
        if not worker_id:
            return {"type": "error", "reason": "register without worker_id"}
        with self._lock:
            self._touch_worker(worker_id)
        self._trace("worker-registered", worker=worker_id,
                    pid=message.get("pid"), host=message.get("host"))
        return {
            "type": "ok",
            "worker_id": worker_id,
            "heartbeat_interval": self.config.heartbeat_interval,
            "poll_interval": self.config.poll_interval,
        }

    def _handle_heartbeat(self, message: dict) -> dict:
        worker_id = str(message.get("worker_id", ""))
        with self._lock:
            state = self._touch_worker(worker_id)
            if state.leased is not None:
                job = self._jobs.get(state.leased)
                if job is not None and job.status == "leased":
                    # A live worker keeps its lease: heartbeats extend
                    # the deadline so long jobs aren't revoked mid-run.
                    job.lease_deadline = (
                        time.monotonic() + self.config.lease_timeout
                    )
        return {"type": "ok"}

    def _handle_lease(self, message: dict) -> dict:
        worker_id = str(message.get("worker_id", ""))
        now = time.monotonic()
        with self._lock:
            self._touch_worker(worker_id)
            if self._draining:
                return {"type": "shutdown"}
            if self._fail_leases_left > 0:
                self._fail_leases_left -= 1
                self._trace("lease-fault-injected", worker=worker_id,
                            remaining=self._fail_leases_left)
                return {"type": "error", "reason": "injected-lease-fault"}
            job = self._next_eligible(now)
            if job is None:
                return {"type": "idle",
                        "retry_after": self.config.poll_interval}
            job.status = "leased"
            job.attempts += 1
            job.worker = worker_id
            job.lease_deadline = now + self.config.lease_timeout
            self._workers[worker_id].leased = job.key
            self._trace("lease-granted", worker=worker_id, key=job.key,
                        attempt=job.attempts)
            return {
                "type": "job",
                "key": job.key,
                "blob": job.blob,
                "attempt": job.attempts,
            }

    def _next_eligible(self, now: float) -> _JobState | None:
        best: _JobState | None = None
        for job in self._jobs.values():
            if job.status != "pending" or job.next_eligible > now:
                continue
            if best is None or job.next_eligible < best.next_eligible:
                best = job
        return best

    def _handle_result(self, message: dict) -> dict:
        key = str(message.get("key", ""))
        worker_id = str(message.get("worker_id", ""))
        ok = bool(message.get("ok", False))
        # A result for a key this scheduler never issued may already be
        # in the store (a previous incarnation recorded it but the ack
        # was lost): look it up before taking the lock.
        stored = self._load(key) if ok and key not in self._jobs else None
        with self._lock:
            worker = self._touch_worker(worker_id)
            if worker.leased == key:
                worker.leased = None
            job = self._jobs.get(key)
            adopted = False
            if job is None:
                if not ok:
                    return {"type": "ok", "known": False}
                # An orphan result: the worker finished a job leased by
                # a previous incarnation before a restart.  Keys are
                # content hashes, so the result is adoptable as-is —
                # the resubmitted sweep will find it already done.
                job = _JobState(key=key, blob=None,
                                attempts=int(message.get("attempt", 1)))
                self._jobs[key] = job
                if stored is not None:
                    job.status, job.result, job.replayed = "done", stored, True
                else:
                    adopted = True
                    self._trace("orphan-result-adopted", key=key,
                                worker=worker_id)
            if job.status == "done":
                # Deterministic re-execution: a duplicate completion is
                # bit-identical to the recorded one.  Keep the first.
                self._trace("result-duplicate", key=key, worker=worker_id)
                return {"type": "ok", "duplicate": True}
            if ok:
                job.status = "done"
                job.worker = worker_id
                job.result = message.get("result")
                job.error = None
                self._persist(job)
                self._trace("result-recorded", key=key, worker=worker_id,
                            attempt=job.attempts)
                return ({"type": "ok", "adopted": True} if adopted
                        else {"type": "ok"})
            self._fail_attempt(job, str(message.get("error", "worker error")))
            return {"type": "ok", "requeued": job.status == "pending"}

    def _load(self, key: str) -> dict | None:
        """The stored result for ``key`` (``None``: a miss, a corrupt
        entry, or no store)."""
        if self.config.store_dir is None:
            return None
        return result_store.load_wire(key, self.config.store_dir)

    def _persist(self, job: _JobState) -> None:
        """Durably store a completed result before the worker is
        acknowledged.  A failed write keeps the result in memory only."""
        if self.config.store_dir is None or not isinstance(job.result, dict):
            return
        if result_store.store_result(job.key, job.result,
                                     self.config.store_dir) is None:
            self._trace("store-write-failed", key=job.key,
                        dir=str(self.config.store_dir))

    def _fail_attempt(self, job: _JobState, error: str) -> None:
        """One attempt burned (worker error, death, or lease expiry):
        requeue with backoff, or fail the job at the attempt budget."""
        if job.attempts >= self.config.max_attempts:
            job.status = "failed"
            job.error = error
            job.worker = None
            self._trace("job-failed", key=job.key, attempts=job.attempts,
                        error=error)
            return
        cfg = self.config
        delay = min(cfg.backoff_cap,
                    cfg.backoff_base * (2 ** max(0, job.attempts - 1)))
        delay *= 1.0 + cfg.backoff_jitter * self._rng.random()
        job.status = "pending"
        job.worker = None
        job.next_eligible = time.monotonic() + delay
        job.error = error
        self._trace("job-requeued", key=job.key, attempt=job.attempts,
                    backoff=round(delay, 3), error=error)

    # -- client plane ------------------------------------------------------

    def _handle_submit(self, message: dict) -> dict:
        jobs = message.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            return {"type": "error", "reason": "submit without jobs"}
        entries: list[tuple[str, str]] = []
        for entry in jobs:
            key = str(entry.get("key", ""))
            blob = entry.get("blob")
            if not key or not isinstance(blob, str):
                return {"type": "error",
                        "reason": "submit entry without key/blob"}
            entries.append((key, blob))
        keys = [key for key, _ in entries]
        # Resume: a key this scheduler does not hold may have been
        # stored by a previous run.  Disk reads stay outside the lock.
        stored = {key: self._load(key) for key in keys if key not in self._jobs}
        replayed = completed = fresh = 0
        with self._lock:
            for key, blob in entries:
                job = self._jobs.get(key)
                if job is None:
                    wire = stored.get(key)
                    if wire is None:
                        self._jobs[key] = _JobState(key=key, blob=blob)
                        fresh += 1
                        continue
                    job = _JobState(key=key, blob=blob, status="done",
                                    result=wire, replayed=True)
                    self._jobs[key] = job
                if job.blob is None:
                    job.blob = blob  # orphan entries learn their spec
                if job.status == "done":
                    completed += 1
                    if job.replayed:
                        replayed += 1
                elif job.status == "failed":
                    # A resubmission asks for another try with a fresh
                    # attempt budget (the operator's retry button).
                    job.status = "pending"
                    job.attempts = 0
                    job.next_eligible = 0.0
                    job.error = None
            sweep_id = str(message.get("sweep_id") or sweep_id_for(keys))
            self._sweeps[sweep_id] = keys
        self._trace("sweep-submitted", sweep=sweep_id, total=len(keys),
                    completed=completed, replayed=replayed, fresh=fresh)
        return {
            "type": "ok",
            "sweep_id": sweep_id,
            "total": len(keys),
            "completed": completed,
            "replayed": replayed,
        }

    def _handle_status(self, message: dict) -> dict:
        with self._lock:
            counts = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
            for job in self._jobs.values():
                counts[job.status] += 1
            sweeps = {}
            for sweep_id, keys in self._sweeps.items():
                done = sum(
                    1 for k in keys if self._jobs[k].status == "done"
                )
                failed = sum(
                    1 for k in keys if self._jobs[k].status == "failed"
                )
                sweeps[sweep_id] = {
                    "total": len(keys), "done": done, "failed": failed,
                }
            workers = {
                w.worker_id: {
                    "leased": w.leased,
                    "age": round(time.monotonic() - w.last_beat, 3),
                }
                for w in self._workers.values()
            }
        return {
            "type": "status",
            "jobs": counts,
            "sweeps": sweeps,
            "workers": workers,
            "draining": self._draining,
            "store": result_store.store_info(self.config.store_dir),
        }

    def _handle_fetch(self, message: dict) -> dict:
        sweep_id = str(message.get("sweep_id", ""))
        with self._lock:
            keys = self._sweeps.get(sweep_id)
            if keys is None:
                return {"type": "error", "reason": f"unknown sweep {sweep_id!r}"}
            failures = [
                {"key": k, "error": self._jobs[k].error, "attempts":
                 self._jobs[k].attempts}
                for k in keys if self._jobs[k].status == "failed"
            ]
            if failures:
                return {"type": "error", "reason": "sweep has failed jobs",
                        "failures": failures}
            done = sum(1 for k in keys if self._jobs[k].status == "done")
            if done < len(keys):
                return {"type": "pending", "done": done, "total": len(keys)}
            results = [self._jobs[k].result for k in keys]
        self._trace("sweep-fetched", sweep=sweep_id, total=len(keys))
        return {"type": "results", "sweep_id": sweep_id, "results": results}

    def _handle_shutdown(self, message: dict) -> dict:
        if message.get("drain"):
            self.drain()
            return {"type": "ok", "draining": True}
        self._trace("shutdown-requested")
        # Reply first, then stop from a helper thread so this handler's
        # send still goes out on a live socket.
        threading.Thread(target=self.stop, daemon=True).start()
        return {"type": "ok", "stopping": True}

    # -- supervision -------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.config.monitor_interval):
            now = time.monotonic()
            with self._lock:
                self._expire_workers(now)
                self._expire_leases(now)

    def _expire_workers(self, now: float) -> None:
        for worker_id in list(self._workers):
            state = self._workers[worker_id]
            if now - state.last_beat <= self.config.heartbeat_timeout:
                continue
            del self._workers[worker_id]
            self._trace("worker-dead", worker=worker_id, leased=state.leased)
            if state.leased is not None:
                job = self._jobs.get(state.leased)
                if job is not None and job.status == "leased" and \
                        job.worker == worker_id:
                    self._fail_attempt(job, f"worker {worker_id} stopped "
                                            "heartbeating")

    def _expire_leases(self, now: float) -> None:
        for job in self._jobs.values():
            if job.status == "leased" and now > job.lease_deadline:
                self._fail_attempt(job, f"lease expired on {job.worker}")
