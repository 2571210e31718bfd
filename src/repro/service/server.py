"""The simulation service: an HTTP/JSON front door over the simulation
backends, and the one scheduler of simulation jobs, with in-flight
dedup and a persistent result store.

Where ``run_jobs`` executes a grid and exits, the service accepts
sweep/experiment/single-point requests from many concurrent clients
indefinitely and guarantees that **previously computed results are
never recomputed**:

* a request whose job key is already in the persistent result store
  (:mod:`repro.service.results`) is answered straight from disk — a
  *warm hit*, zero simulation;
* a request whose job key is already queued or running *joins* the
  in-flight execution — one execution per ``job_key``, every waiter
  shares the result;
* only genuinely new keys are admitted to the bounded queue, which
  is drained in arrival order, and executed, then persisted to the
  store before waiters are released, so a service restart mid-burst
  serves every completed point from disk.

How admitted keys execute is the backend: ``serial`` and ``pool`` run
them in a dispatcher thread through ``run_jobs``'s store-free
execution core (inline, or a process pool ``jobs`` wide), so each
result is stored once, in the service's store, whatever
``REPRO_RESULT_STORE`` says; ``cluster`` leases them, one key at a
time, to ``repro cluster work`` processes on any host — the *worker
plane*:

* ``POST /v1/lease`` hands a worker one queued key with a deadline (a
  worker that asks again while its lease runs gets the same key back);
  ``/v1/heartbeat`` proves the worker alive and extends its lease;
  ``/v1/result`` reports the outcome, which is fsynced into the store
  *before* the worker is answered, so a service crash never loses an
  acknowledged point.
* A monitor thread presumes a worker dead after ``heartbeat_timeout``
  seconds without any request, and requeues its key, as it does a key
  whose lease lapsed.  Every lease burns one of the key's
  ``max_attempts``; a requeued key waits out exponential backoff with
  jitter, and a key out of attempts fails.
* Jobs are deterministic pure functions, so at-least-once execution
  with first-result-wins is as good as exactly-once: a later
  completion is flagged ``duplicate`` and not stored again.
* A result for a key this service does not hold (a previous
  incarnation leased it before a restart) is adopted into the store —
  but only when the job blob it carries hashes to the key.

Protocol: plain HTTP/1.1 with JSON bodies on the stdlib threaded
server (``http.server.ThreadingHTTPServer`` — one thread per
connection).  Jobs travel as ``{"key": <job_key>, "blob": <base64
pickle>}``; the server re-derives the key from the blob and rejects
mismatches, so a confused client or worker cannot poison the store.
Job blobs are pickles: only expose the service to hosts already
trusted to run the code (see docs/SERVICE.md).

Endpoints (all JSON)::

    GET  /v1/healthz          liveness probe
    GET  /v1/status           service status
    GET  /v1/store            result-store location/size summary
    GET  /v1/result/<key>     one job's state/result
    POST /v1/submit           enqueue jobs, return per-key dispositions
    POST /v1/fetch            results for a key list (or pending counts)
    POST /v1/run              submit + wait: the synchronous front door
    POST /v1/lease            worker plane: lease one key
    POST /v1/heartbeat        worker plane: liveness, extends the lease
    POST /v1/result           worker plane: report a leased key's outcome

Request bodies above :data:`~repro.service.client.MAX_BODY` draw
``413`` before a byte of them is read.  Backpressure: a submission that
does not fit the queue bound is rejected whole with ``429`` and a
``Retry-After`` header computed from the observed per-job execution
rate — load beyond capacity surfaces as explicit, measurable pushback
rather than unbounded latency.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.cluster.serial import (
    job_from_blob,
    job_key,
    result_to_wire,
)
from repro.harness import parallel
from repro.service import results as result_store
from repro.service.client import MAX_BODY

#: How admitted jobs execute (see the module docstring).
BACKENDS = ("serial", "pool", "cluster")

#: A requeued key waits ``BACKOFF_BASE * 2^(n-1)`` seconds after its
#: n-th attempt, capped at ``BACKOFF_CAP``, times a jitter factor drawn
#: from ``[1, 1 + BACKOFF_JITTER]``.
BACKOFF_BASE = 0.25
BACKOFF_CAP = 5.0
BACKOFF_JITTER = 0.25

#: The ``Retry-After`` advice of a 429 is clamped to this range (seconds).
RETRY_AFTER_FLOOR = 0.5
RETRY_AFTER_CAP = 30.0

#: The worker-plane endpoints (``backend="cluster"`` only).
WORKER_PLANE = ("/v1/lease", "/v1/heartbeat", "/v1/result")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from .address
    #: Result store: ``AUTO_STORE`` (env var, service default dir),
    #: a path, or ``None``/a disabled spelling (results live only in
    #: memory) — see :func:`repro.service.results.resolve_store`.
    store: object = result_store.AUTO_STORE
    #: How admitted jobs execute: ``serial`` (inline in the dispatcher),
    #: ``pool`` (``run_jobs`` process pool, ``jobs`` wide) or
    #: ``cluster`` (leased to ``repro cluster work`` workers).
    backend: str = "serial"
    #: Jobs the dispatcher drains per cycle, and the ``pool`` width;
    #: below 1 means every core, as ``parallel.effective_jobs`` reads it.
    jobs: int = 1
    #: Queue bound: queued-but-not-dispatched jobs across all clients.
    max_queue: int = 256
    #: Result-store entry budget, enforced after each dispatch cycle
    #: and each worker result (``None`` = unbounded).
    store_max_entries: int | None = None
    # The worker plane (backend="cluster").  The defaults suit a real
    # deployment; tests shrink them to keep recovery sub-second.
    #: A worker is presumed dead after this long without any request;
    #: workers heartbeat four times as often.
    heartbeat_timeout: float = 8.0
    #: Revocation of a lease whose worker stopped heartbeating for it
    #: (heartbeats extend the lease).
    lease_timeout: float = 600.0
    #: Leases one key may consume before it fails.
    max_attempts: int = 3
    #: Idle workers poll, and the monitor checks liveness, this often.
    poll_interval: float = 0.25
    #: Fault injection: answer the first ``n`` lease requests with an
    #: error, so workers must back off and retry rather than die.
    fail_leases: int = 0

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown service backend {self.backend!r} "
                f"(expected one of {BACKENDS})"
            )
        for name in ("max_queue", "max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1, got {getattr(self, name)}"
                )
        for name in ("heartbeat_timeout", "lease_timeout", "poll_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also NaN
                raise ValueError(
                    f"{name} must be a positive number of seconds, "
                    f"got {value}"
                )
        if self.store_max_entries is not None and self.store_max_entries < 0:
            raise ValueError(
                f"store_max_entries must be at least 0, "
                f"got {self.store_max_entries}"
            )


class Backpressure(Exception):
    """The queue bound rejected a submission; retry after a delay."""

    def __init__(self, retry_after: float, depth: int):
        self.retry_after = retry_after
        self.depth = depth
        super().__init__(
            f"admission queue full ({depth} queued); "
            f"retry after {retry_after:.1f}s"
        )


class _Entry:
    """One job key's lifecycle inside the service.

    There is at most one live entry per key — the in-flight dedup
    invariant.  A done entry holds its result in ``wire``, so a key
    stays servable after a failed store write or after
    ``store_max_entries`` evicts its file.  ``attempts``,
    ``worker``, ``deadline`` and ``eligible`` are the worker plane's
    lease bookkeeping.
    """

    __slots__ = ("key", "job", "blob", "state", "wire", "source", "error",
                 "done", "attempts", "worker", "deadline", "eligible")

    def __init__(self, key: str, job=None, blob: str | None = None):
        self.key = key
        self.job = job
        self.blob = blob
        self.state = "queued"  # queued | running | done | failed
        self.wire: dict | None = None
        self.source: str | None = None  # store | computed
        self.error: str | None = None
        self.done = threading.Event()
        self.attempts = 0  # leases granted so far
        self.worker: str | None = None
        self.deadline = 0.0  # lease revocation time
        self.eligible = 0.0  # a requeued key's backoff end


class _Worker:
    __slots__ = ("worker_id", "last_beat", "leased")

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self.last_beat = time.monotonic()
        self.leased: str | None = None


class ServiceTracer:
    """Optional observability hook: scheduling lifecycle events.

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


def verified_job(key: str, blob):
    """The job a ``(key, blob)`` pair carries; ``ValueError`` unless the
    blob decodes and hashes to the key."""
    if not key or not isinstance(blob, str):
        raise ValueError("job entry without key/blob")
    try:
        job = job_from_blob(blob)
    except Exception as error:
        raise ValueError(f"undecodable job blob for {key}: {error}")
    derived = job_key(job)
    if derived != key:
        raise ValueError(
            f"job key mismatch: client claimed {key}, "
            f"content hashes to {derived}"
        )
    return job


@dataclass
class _Stats:
    """Monotonic service counters (reset only by restart)."""

    requests: int = 0
    submitted: int = 0
    warm_hits: int = 0  # answered from the result store, zero simulation
    joined: int = 0  # shared an in-flight execution
    executed: int = 0  # jobs actually simulated by this instance
    failed: int = 0
    rejected: int = 0  # 429 backpressure rejections
    dispatch_cycles: int = 0
    #: EWMA of per-job execution seconds (drives Retry-After).
    ewma_job_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "submitted": self.submitted,
            "warm_hits": self.warm_hits,
            "joined": self.joined,
            "executed": self.executed,
            "failed": self.failed,
            "rejected": self.rejected,
            "dispatch_cycles": self.dispatch_cycles,
            "ewma_job_seconds": round(self.ewma_job_seconds, 6),
        }


class SimulationService:
    """The always-on front door.  See the module docstring."""

    def __init__(self, config: ServiceConfig | None = None,
                 tracer: ServiceTracer | None = None):
        self.config = config or ServiceConfig()
        self.tracer = tracer
        self.store_dir = result_store.resolve_store(self.config.store)
        #: Jobs per dispatch cycle and the pool width, resolved once.
        self.width = (self.config.jobs if self.config.jobs >= 1
                      else os.cpu_count() or 1)
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        # Admitted keys awaiting the dispatcher or a lease, in arrival
        # order; ``_ready`` (on ``_lock``) wakes the dispatcher.
        self._queue: deque[_Entry] = deque()
        self._ready = threading.Condition(self._lock)
        self.stats = _Stats()
        self._stopping = threading.Event()
        self._httpd: ThreadingHTTPServer | None = None
        self._threads: list[threading.Thread] = []
        self._started = time.monotonic()
        self.address: tuple[str, int] | None = None
        # The worker plane.
        self._workers: dict[str, _Worker] = {}
        self._retry: list[_Entry] = []  # requeued keys in backoff
        self._draining = False
        self._rng = random.Random()
        self._fail_leases_left = self.config.fail_leases

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and start the HTTP thread plus the dispatcher
        (``serial``/``pool``) or the worker monitor (``cluster``)."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self.address = self._httpd.server_address[:2]
        self._started = time.monotonic()
        executor = ((self._monitor_loop, "service-monitor")
                    if self.config.backend == "cluster"
                    else (self._dispatch_loop, "service-dispatch"))
        for target, name in ((self._httpd.serve_forever, "service-http"),
                             executor):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def stop(self) -> None:
        with self._lock:  # refuse further submissions, wake the dispatcher
            self._stopping.set()
            self._ready.notify_all()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        # Release any waiter still parked on an unfinished entry.
        with self._lock:
            for entry in self._entries.values():
                if entry.state in ("queued", "running"):
                    entry.state = "failed"
                    entry.error = "service stopped"
                    entry.done.set()

    def drain(self) -> None:
        """Tell workers to exit: later lease requests get ``shutdown``."""
        with self._lock:
            self._draining = True
        self._trace("drain-requested")

    def __enter__(self) -> "SimulationService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _trace(self, kind: str, **detail) -> None:
        if self.tracer is not None:
            self.tracer.record(kind, **detail)

    # -- submission (HTTP handler side) ------------------------------------

    def submit(self, jobs: list[dict]) -> dict:
        """Admit a job list; returns the receipt with per-key
        dispositions: ``store`` (already in the persistent store),
        ``done`` (computed earlier by this instance), ``joined``
        (shares an execution already in flight), ``queued`` (admitted
        for execution).  Only ``queued`` costs simulation; ``store``
        and ``done`` are warm hits.

        Raises :class:`Backpressure` — admitting *nothing* — when the
        new work does not fit the queue bound or the service is
        stopping, and ``ValueError`` for a malformed or key-mismatched
        entry (nothing admitted either).
        """
        parsed: list[tuple[str, object, str]] = []
        for doc in jobs:
            if not isinstance(doc, dict):
                raise ValueError("job entries must be objects")
            key, blob = str(doc.get("key", "")), doc.get("blob")
            parsed.append((key, verified_job(key, blob), blob))

        dispositions: list[str] = []
        with self._lock:
            self.stats.requests += 1
            fresh: list[_Entry] = []
            fresh_keys: set[str] = set()
            for key, job, blob in parsed:
                entry = self._entries.get(key)
                if entry is not None and entry.state == "failed":
                    # A resubmission is the operator's retry button: the
                    # failed entry is replaced by a fresh attempt.
                    entry = None
                if entry is None and key in fresh_keys:
                    # Duplicate key inside one submission: joins the
                    # sibling entry created a moment ago.
                    dispositions.append("joined")
                    continue
                if entry is not None:
                    if entry.state == "done":
                        dispositions.append(
                            "store" if entry.source == "store" else "done"
                        )
                    else:
                        dispositions.append("joined")
                    continue
                wire = result_store.load_wire(key, self.store_dir)
                if wire is not None:
                    done = _Entry(key)
                    done.state = "done"
                    done.source = "store"
                    done.wire = wire
                    done.done.set()
                    self._entries[key] = done
                    dispositions.append("store")
                    continue
                dispositions.append("queued")
                fresh.append(_Entry(key, job, blob))
                fresh_keys.add(key)
            full = len(self._queue) + len(fresh) > self.config.max_queue
            if fresh and (full or self._stopping.is_set()):
                self.stats.rejected += 1
                raise Backpressure(self._retry_after(), len(self._queue))
            for entry in fresh:
                self._entries[entry.key] = entry
            self._queue.extend(fresh)
            self._ready.notify()
            warm = dispositions.count("store") + dispositions.count("done")
            self.stats.submitted += len(parsed)
            self.stats.warm_hits += warm
            self.stats.joined += dispositions.count("joined")
        return {
            "type": "ok",
            "total": len(parsed),
            "queued": dispositions.count("queued"),
            "warm": warm,
            "joined": dispositions.count("joined"),
            "dispositions": dispositions,
        }

    def _retry_after(self) -> float:
        """Advice for a 429: roughly one queue-drain at the observed
        rate, clamped to something a client can act on."""
        per_job = self.stats.ewma_job_seconds or RETRY_AFTER_FLOOR
        estimate = len(self._queue) * per_job / self.width
        return max(RETRY_AFTER_FLOOR, min(RETRY_AFTER_CAP, estimate))

    # -- results (HTTP handler side) ---------------------------------------

    def entry_state(self, key: str) -> dict:
        """One key's state document (the ``/v1/result/<key>`` body)."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            wire = result_store.load_wire(key, self.store_dir)
            if wire is not None:
                return {"state": "done", "source": "store", "result": wire}
            return {"state": "unknown"}
        doc: dict = {"state": entry.state}
        if entry.state == "done":
            doc["source"] = entry.source
            doc["result"] = entry.wire
        elif entry.state == "failed":
            doc["error"] = entry.error
        return doc

    def fetch(self, keys: list[str]) -> dict:
        """Results for ``keys`` in order, or progress while pending."""
        states = [self.entry_state(str(key)) for key in keys]
        failures = [
            {"key": str(key), "error": state.get("error")}
            for key, state in zip(keys, states)
            if state["state"] == "failed"
        ]
        if failures:
            return {"type": "error", "reason": "jobs failed",
                    "failures": failures}
        unknown = [
            str(key) for key, state in zip(keys, states)
            if state["state"] == "unknown"
        ]
        if unknown:
            return {"type": "error",
                    "reason": f"unknown keys: {unknown[:5]}"}
        done = sum(1 for state in states if state["state"] == "done")
        if done < len(states):
            return {"type": "pending", "done": done, "total": len(states)}
        return {
            "type": "results",
            "results": [state["result"] for state in states],
            "sources": [state["source"] for state in states],
        }

    def wait(self, keys: list[str], timeout: float | None = None) -> bool:
        """Block until every key is settled (done/failed); ``False`` on
        timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for key in keys:
            with self._lock:
                entry = self._entries.get(key)
            if entry is None:
                continue
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            if not entry.done.wait(remaining):
                return False
        return True

    # -- status ------------------------------------------------------------

    def status(self) -> dict:
        """Service status.  The ``jobs`` block counts ``pending``,
        ``leased`` (running, on any backend), ``done`` and ``failed``
        keys; a ``cluster`` service adds its ``workers``.
        """
        counts = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
        with self._lock:
            for entry in self._entries.values():
                if entry.state == "queued":
                    counts["pending"] += 1
                elif entry.state == "running":
                    counts["leased"] += 1
                else:
                    counts[entry.state] += 1
            stats = self.stats.as_dict()
            depth = len(self._queue)
            now = time.monotonic()
            workers = {
                w.worker_id: {"leased": w.leased,
                              "age": round(now - w.last_beat, 3)}
                for w in self._workers.values()
            }
        return {
            "type": "status",
            "jobs": counts,
            "queue": {"depth": depth, "max": self.config.max_queue},
            "backend": {"backend": self.config.backend, "jobs": self.width},
            "store": result_store.store_info(self.store_dir),
            "stats": stats,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            **({"workers": workers} if self.config.backend == "cluster"
               else {}),
        }

    # -- execution: the dispatcher (serial / pool) -------------------------

    def _dispatch_loop(self) -> None:
        """Run up to ``width`` queued keys per cycle, oldest first."""
        while True:
            with self._lock:
                while not self._queue and not self._stopping.is_set():
                    self._ready.wait()
                if self._stopping.is_set():
                    return
                entries = [self._queue.popleft()
                           for _ in range(min(self.width, len(self._queue)))]
                for entry in entries:
                    entry.state = "running"
            self._dispatch(entries)

    def _dispatch(self, entries: list[_Entry]) -> None:
        # The store-free execution core: the service stores each result
        # once, in its own store (``_settle``), never in
        # ``REPRO_RESULT_STORE`` as ``run_jobs`` would.
        started = time.perf_counter()
        try:
            results = parallel._run_jobs_backend(
                [entry.job for entry in entries],
                jobs=self.width if self.config.backend == "pool" else 1,
            )
        except Exception as error:  # a failed cycle fails its entries only
            with self._lock:
                for entry in entries:
                    entry.state = "failed"
                    entry.error = f"{type(error).__name__}: {error}"
                    entry.done.set()
                self.stats.failed += len(entries)
            return
        elapsed = time.perf_counter() - started
        with self._lock:
            for entry, result in zip(entries, results):
                self._settle(entry, result_to_wire(result))
            self.stats.dispatch_cycles += 1
            per_job = elapsed / len(entries)
            ewma = self.stats.ewma_job_seconds
            self.stats.ewma_job_seconds = (
                per_job if ewma == 0.0 else 0.8 * ewma + 0.2 * per_job
            )
        self._evict()

    def _settle(self, entry: _Entry, wire: dict) -> None:
        """Record a computed result (under the lock): durably store it
        — the fsync completes before this returns — then release the
        key's waiters.  The entry keeps the result in memory either way."""
        entry.wire = wire
        if result_store.store_result(entry.key, wire, self.store_dir) is None:
            if self.store_dir is not None:
                self._trace("store-write-failed", key=entry.key,
                            dir=str(self.store_dir))
        entry.job = entry.blob = None  # the job served its purpose
        entry.state = "done"
        entry.source = "computed"
        entry.error = None
        entry.done.set()
        self.stats.executed += 1
        self._trace("result-recorded", key=entry.key, worker=entry.worker,
                    attempt=entry.attempts)

    def _evict(self) -> None:
        if self.config.store_max_entries is not None:
            result_store.evict_store(
                self.store_dir, max_entries=self.config.store_max_entries
            )

    # -- execution: the worker plane (cluster) -------------------------------

    def _touch_worker(self, worker_id: str) -> _Worker:
        """Upsert a worker record: any request proves a worker alive, so
        a restarted service re-learns its fleet from the first request
        each worker sends."""
        worker = self._workers.get(worker_id)
        if worker is None:
            worker = self._workers[worker_id] = _Worker(worker_id)
        else:
            worker.last_beat = time.monotonic()
        return worker

    def lease(self, worker_id: str) -> dict:
        """``POST /v1/lease``: one queued key for ``worker_id``, or
        ``idle``/``shutdown``.

        A worker runs one job at a time, so a worker that leases again
        while its lease is still running lost the reply to its last
        lease request: it gets that same key and blob back, with its
        deadline renewed and no further attempt burned."""
        cfg = self.config
        now = time.monotonic()
        with self._lock:
            worker = self._touch_worker(worker_id)
            if self._draining:
                return {"type": "shutdown"}
            entry = self._entries.get(worker.leased or "")
            if (entry is not None and entry.state == "running"
                    and entry.worker == worker_id):
                entry.deadline = now + cfg.lease_timeout
                self._trace("lease-renewed", worker=worker_id, key=entry.key,
                            attempt=entry.attempts)
                return self._job_reply(entry)
            if self._fail_leases_left > 0:
                self._fail_leases_left -= 1
                self._trace("lease-fault-injected", worker=worker_id,
                            remaining=self._fail_leases_left)
                return {"type": "error", "reason": "injected-lease-fault"}
            entry = self._next_lease(now)
            if entry is None:
                return {"type": "idle", "retry_after": cfg.poll_interval,
                        "heartbeat_interval": cfg.heartbeat_timeout / 4}
            entry.state = "running"
            entry.attempts += 1
            entry.worker = worker_id
            entry.deadline = now + cfg.lease_timeout
            worker.leased = entry.key
            self._trace("lease-granted", worker=worker_id, key=entry.key,
                        attempt=entry.attempts)
            return self._job_reply(entry)

    def _job_reply(self, entry: _Entry) -> dict:
        return {"type": "job", "key": entry.key, "blob": entry.blob,
                "attempt": entry.attempts,
                "heartbeat_interval": self.config.heartbeat_timeout / 4}

    def _next_lease(self, now: float) -> _Entry | None:
        """Fresh keys in arrival order first, then the requeued key
        whose backoff ended earliest.  Keys settled while they waited
        (an adopted orphan result) are dropped."""
        while self._queue:
            entry = self._queue.popleft()
            if entry.state == "queued":
                return entry
        self._retry = [e for e in self._retry if e.state == "queued"]
        eligible = [e for e in self._retry if e.eligible <= now]
        if not eligible:
            return None
        entry = min(eligible, key=lambda e: e.eligible)
        self._retry.remove(entry)
        return entry

    def heartbeat(self, worker_id: str) -> dict:
        """``POST /v1/heartbeat``: a live worker keeps its lease — the
        deadline moves so long jobs are not revoked mid-run."""
        with self._lock:
            worker = self._touch_worker(worker_id)
            entry = self._entries.get(worker.leased or "")
            if entry is not None and entry.state == "running":
                entry.deadline = time.monotonic() + self.config.lease_timeout
        return {"type": "ok"}

    def record_result(self, worker_id: str, report: dict) -> dict:
        """``POST /v1/result``: settle a leased key.  ``ValueError`` for
        a malformed report or an orphan whose blob does not hash to its
        key."""
        key = str(report.get("key", ""))
        ok = bool(report.get("ok"))
        wire = report.get("result")
        if ok and not isinstance(wire, dict):
            raise ValueError("result report without a result document")
        stored = None
        with self._lock:
            known = key in self._entries
        if ok and not known:
            # An orphan: a previous incarnation leased the key before a
            # restart.  Its stored result, if the ack was lost, makes
            # this a duplicate; otherwise the blob must prove the key.
            stored = result_store.load_wire(key, self.store_dir)
            if stored is None:
                verified_job(key, report.get("blob"))
        with self._lock:
            worker = self._touch_worker(worker_id)
            if worker.leased == key:
                worker.leased = None
            entry = self._entries.get(key)
            if entry is None:
                if not ok:
                    return {"type": "ok", "known": False}
                entry = self._entries[key] = _Entry(key)
                attempt = report.get("attempt")
                entry.attempts = attempt if isinstance(attempt, int) else 1
                if stored is not None:
                    entry.state, entry.source = "done", "store"
                    entry.wire = stored
                    entry.done.set()
                else:
                    self._trace("orphan-result-adopted", key=key,
                                worker=worker_id)
            if entry.state == "done":
                # Re-execution is deterministic: a duplicate completion
                # is bit-identical to the recorded one.  Keep the first.
                self._trace("result-duplicate", key=key, worker=worker_id)
                return {"type": "ok", "duplicate": True}
            if not ok:
                # Only the lease holder's failure burns an attempt: a
                # revoked lease's key was already requeued.
                if entry.state == "running" and entry.worker == worker_id:
                    self._fail_attempt(entry, str(report.get("error")
                                                  or "worker error"))
                return {"type": "ok", "requeued": entry.state == "queued"}
            entry.worker = worker_id
            self._settle(entry, wire)
        self._evict()
        return {"type": "ok"}

    def _fail_attempt(self, entry: _Entry, error: str) -> None:
        """One attempt burned (worker error, death, or lease expiry):
        requeue with backoff, or fail the key at the attempt budget."""
        cfg = self.config
        entry.worker = None
        entry.error = error
        if entry.attempts >= cfg.max_attempts:
            entry.state = "failed"
            entry.error = f"{error} (after {entry.attempts} attempts)"
            entry.done.set()
            self.stats.failed += 1
            self._trace("job-failed", key=entry.key, attempts=entry.attempts,
                        error=error)
            return
        delay = min(BACKOFF_CAP,
                    BACKOFF_BASE * (2 ** max(0, entry.attempts - 1)))
        delay *= 1.0 + BACKOFF_JITTER * self._rng.random()
        entry.state = "queued"
        entry.eligible = time.monotonic() + delay
        self._retry.append(entry)
        self._trace("job-requeued", key=entry.key, attempt=entry.attempts,
                    backoff=round(delay, 3), error=error)

    def _monitor_loop(self) -> None:
        """Presume silent workers dead and revoke lapsed leases."""
        cfg = self.config
        while not self._stopping.wait(cfg.poll_interval):
            now = time.monotonic()
            with self._lock:
                for worker_id, worker in list(self._workers.items()):
                    dead = now - worker.last_beat > cfg.heartbeat_timeout
                    if dead:
                        del self._workers[worker_id]
                        self._trace("worker-dead", worker=worker_id,
                                    leased=worker.leased)
                    entry = self._entries.get(worker.leased or "")
                    if (entry is None or entry.state != "running"
                            or entry.worker != worker_id):
                        continue
                    if dead:
                        self._fail_attempt(entry, f"worker {worker_id} "
                                                  "stopped heartbeating")
                    elif now > entry.deadline:
                        self._fail_attempt(entry,
                                           f"lease expired on {worker_id}")


# -- the HTTP layer --------------------------------------------------------


class _Rejected(Exception):
    """A request body the handler refuses, with its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _make_handler(service: SimulationService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # The service is an API, not a file server: silence per-request
        # stderr logging (a load test would drown the console).
        def log_message(self, *args) -> None:  # noqa: D102
            pass

        def _reply(self, status: int, doc: dict,
                   headers: dict | None = None) -> None:
            payload = json.dumps(doc).encode("utf-8")
            try:  # the client may already be gone
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)
            except OSError:
                self.close_connection = True

        def _body(self) -> dict:
            """The request's JSON object body.  Raises :class:`_Rejected`
            for anything else — before reading a byte when the
            ``Content-Length`` is negative, not an integer or above
            :data:`MAX_BODY`."""
            text = self.headers.get("Content-Length", "0")
            try:
                length = int(text)
            except ValueError:
                length = -1
            if length < 0:
                raise _Rejected(400, f"bad Content-Length {text!r}")
            if length > MAX_BODY:
                raise _Rejected(413, f"request body of {length} bytes "
                                     f"exceeds MAX_BODY={MAX_BODY}")
            try:
                data = self.rfile.read(length)
                doc = json.loads(data.decode("utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                doc = None
            if not isinstance(doc, dict):
                raise _Rejected(400, "expected a JSON object body")
            return doc

        # -- GET ----------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802
            path = self.path.rstrip("/")
            if path == "/v1/healthz":
                self._reply(200, {"ok": True})
            elif path == "/v1/status":
                self._reply(200, service.status())
            elif path == "/v1/store":
                self._reply(200, result_store.store_info(service.store_dir))
            elif path.startswith("/v1/result/"):
                key = path.rsplit("/", 1)[1]
                doc = service.entry_state(key)
                status = {"done": 200, "failed": 500,
                          "unknown": 404}.get(doc["state"], 202)
                self._reply(status, doc)
            else:
                self._reply(404, {"error": f"no such endpoint {self.path!r}"})

        # -- POST ---------------------------------------------------------

        def do_POST(self) -> None:  # noqa: N802
            path = self.path.rstrip("/")
            try:
                body = self._body()
            except _Rejected as rejected:
                # The body may be unread: this connection cannot carry
                # another request.
                service._trace("bad-request", path=path,
                               status=rejected.status, error=str(rejected))
                self.close_connection = True
                self._reply(rejected.status, {"error": str(rejected)},
                            headers={"Connection": "close"})
                return
            if path == "/v1/submit":
                self._submit(body, wait=False)
            elif path == "/v1/run":
                self._submit(body, wait=True)
            elif path == "/v1/fetch":
                keys = body.get("keys")
                if not isinstance(keys, list) or not keys:
                    self._reply(400, {"error": "fetch without keys"})
                    return
                self._reply(200, service.fetch(keys))
            elif path in WORKER_PLANE:
                self._worker_plane(path, body)
            else:
                self._reply(404, {"error": f"no such endpoint {self.path!r}"})

        def _worker_plane(self, path: str, body: dict) -> None:
            if service.config.backend != "cluster":
                self._reply(409, {
                    "error": "no worker plane: this service runs its jobs "
                    f"on the {service.config.backend!r} backend"
                })
                return
            worker_id = str(body.get("worker_id") or "")
            if not worker_id:
                self._reply(400, {"error": "worker request without worker_id"})
                return
            try:
                if path == "/v1/lease":
                    reply = service.lease(worker_id)
                elif path == "/v1/heartbeat":
                    reply = service.heartbeat(worker_id)
                else:
                    reply = service.record_result(worker_id, body)
            except ValueError as error:
                self._reply(400, {"error": str(error)})
                return
            self._reply(503 if reply["type"] == "error" else 200, reply)

        def _submit(self, body: dict, *, wait: bool) -> None:
            jobs = body.get("jobs")
            if not isinstance(jobs, list) or not jobs:
                self._reply(400, {"error": "submit without jobs"})
                return
            timeout = body.get("timeout")
            if wait and timeout is not None:
                try:
                    timeout = float(timeout)
                except (TypeError, ValueError):
                    timeout = math.nan
                if not 0 <= timeout <= threading.TIMEOUT_MAX:  # also NaN
                    self._reply(400, {
                        "error": "timeout must be a number of seconds in "
                        f"[0, {threading.TIMEOUT_MAX:g}], got "
                        f"{body.get('timeout')!r}"
                    })
                    return
            try:
                receipt = service.submit(jobs)
            except Backpressure as pressure:
                self._reply(
                    429,
                    {
                        "error": "admission queue full",
                        "retry_after": round(pressure.retry_after, 3),
                        "depth": pressure.depth,
                    },
                    headers={
                        "Retry-After": str(
                            int(math.ceil(pressure.retry_after))
                        )
                    },
                )
                return
            except ValueError as error:
                self._reply(400, {"error": str(error)})
                return
            if not wait:
                self._reply(202, receipt)
                return
            keys = [str(doc.get("key")) for doc in jobs]
            if not service.wait(keys, timeout):
                self._reply(
                    504,
                    {"error": "timed out waiting for results",
                     "receipt": receipt},
                )
                return
            outcome = service.fetch(keys)
            if outcome["type"] == "results":
                outcome["dispositions"] = receipt["dispositions"]
                self._reply(200, outcome)
            else:
                self._reply(500, outcome)

    return Handler
