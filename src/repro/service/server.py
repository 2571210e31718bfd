"""The always-on simulation service: an HTTP/JSON front door over the
simulation backends with in-flight dedup and a persistent result store.

This is the long-lived, multi-tenant promotion of the sweep machinery:
where ``run_jobs`` executes a grid and exits, and the cluster scheduler
owns one sweep at a time, the service accepts sweep/experiment/single-
point requests from many concurrent clients indefinitely and guarantees
that **previously computed results are never recomputed**:

* a request whose job key is already in the persistent result store
  (:mod:`repro.service.results`) is answered straight from disk — a
  *warm hit*, zero simulation;
* a request whose job key is already queued or running *joins* the
  in-flight execution — one execution per ``job_key``, every waiter
  shares the result;
* only genuinely new keys are admitted to the bounded fair queue
  (:mod:`repro.service.admission`) and executed — on any backend
  (serial / process pool / cluster) via
  :func:`repro.harness.parallel.run_jobs` — then persisted to the
  store before waiters are released, so a service restart mid-burst
  serves every completed point from disk.

Protocol: plain HTTP/1.1 with JSON bodies on the stdlib threaded
server (``http.server.ThreadingHTTPServer`` — one thread per
connection; handler threads only enqueue and wait, the dispatcher
thread does the heavy lifting).  Jobs travel exactly as they do on the
cluster wire: ``{"key": <job_key>, "blob": <base64 pickle>}`` — the
server re-derives the key from the blob and rejects mismatches, so a
confused client cannot poison the store.  Like the cluster protocol,
job blobs are pickles: only expose the service to hosts already
trusted to run the code (see docs/SERVICE.md).

Endpoints (all JSON)::

    GET  /v1/healthz          liveness probe
    GET  /v1/status           service status (cluster-status job schema)
    GET  /v1/store            result-store location/size summary
    GET  /v1/result/<key>     one job's state/result
    POST /v1/submit           enqueue jobs, return per-key dispositions
    POST /v1/fetch            results for a key list (or pending counts)
    POST /v1/run              submit + wait: the synchronous front door

Backpressure: a submission that does not fit the queue bound is
rejected whole with ``429`` and a ``Retry-After`` header computed from
the observed per-job execution rate — load beyond capacity surfaces as
explicit, measurable pushback rather than unbounded latency.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.cluster.serial import (
    job_from_blob,
    job_key,
    result_to_wire,
)
from repro.harness import parallel
from repro.service import results as result_store
from repro.service.admission import FairQueue, clamp_weight

#: Sentinel for ``ServiceConfig.store``: resolve via ``REPRO_RESULT_STORE``
#: with the service's XDG default.
AUTO_STORE = "auto"

#: Execution backends the dispatcher knows how to drive.
BACKENDS = ("serial", "pool", "cluster")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from .address
    #: Result store: :data:`AUTO_STORE` (env var, service default dir),
    #: a path, or ``None`` (disabled — results live only in memory).
    store: object = AUTO_STORE
    #: How admitted jobs execute: ``serial`` (inline in the dispatcher),
    #: ``pool`` (``run_jobs`` process pool, ``jobs`` wide) or
    #: ``cluster`` (the :mod:`repro.cluster` sweep service).
    backend: str = "serial"
    jobs: int = 1
    #: Queue bound: queued-but-not-dispatched jobs across all clients.
    max_queue: int = 256
    #: Jobs the dispatcher drains per cycle (fairness granularity vs
    #: pool amortization); ``None`` = ``max(jobs, 1)``.
    dispatch_window: int | None = None
    default_weight: float = 1.0
    #: Result-store entry budget, enforced after each dispatch cycle
    #: (``None`` = unbounded).
    store_max_entries: int | None = None
    #: Retry-After bounds for 429 responses.
    retry_after_floor: float = 0.5
    retry_after_cap: float = 30.0

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown service backend {self.backend!r} "
                f"(expected one of {BACKENDS})"
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
    invariant.  ``wire`` holds the result only when the store cannot
    (disabled or write failure); otherwise done entries are read back
    from disk, keeping a long-lived service's memory bounded by the
    *active* keys, not every key it ever served.
    """

    __slots__ = ("key", "job", "state", "wire", "source", "error", "done")

    def __init__(self, key: str, job=None):
        self.key = key
        self.job = job
        self.state = "queued"  # queued | running | done | failed
        self.wire: dict | None = None
        self.source: str | None = None  # store | computed
        self.error: str | None = None
        self.done = threading.Event()


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

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.store_dir = self._resolve_store(self.config.store)
        self._lock = threading.RLock()
        self._entries: dict[str, _Entry] = {}
        self._queue = FairQueue(self.config.max_queue)
        self.stats = _Stats()
        self._stopping = threading.Event()
        self._httpd: ThreadingHTTPServer | None = None
        self._threads: list[threading.Thread] = []
        self._started = time.monotonic()
        self.address: tuple[str, int] | None = None

    @staticmethod
    def _resolve_store(store: object) -> Path | None:
        if store is None:
            return None
        if store == AUTO_STORE:
            # Only the auto default consults REPRO_RESULT_STORE (path
            # relocates, falsy spelling disables); an explicit
            # ``ServiceConfig.store`` path means exactly that path.
            return result_store.store_dir(
                default=result_store.default_service_dir()
            )
        return Path(store).expanduser()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and start the HTTP + dispatcher threads."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self.address = self._httpd.server_address[:2]
        self._started = time.monotonic()
        for target, name in (
            (self._httpd.serve_forever, "service-http"),
            (self._dispatch_loop, "service-dispatch"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        self._queue.close()
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

    def __enter__(self) -> "SimulationService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission (HTTP handler side) ------------------------------------

    def submit(
        self,
        jobs: list[dict],
        *,
        client: str = "anonymous",
        weight: float | None = None,
    ) -> dict:
        """Admit a job list; returns the receipt with per-key
        dispositions: ``store`` (already in the persistent store),
        ``done`` (computed earlier by this instance), ``joined``
        (shares an execution already in flight), ``queued`` (admitted
        for execution).  Only ``queued`` costs simulation; ``store``
        and ``done`` are warm hits.

        Raises :class:`Backpressure` — admitting *nothing* — when the
        new work does not fit the queue bound, and ``ValueError`` for a
        malformed or key-mismatched entry (nothing admitted either).
        """
        weight = clamp_weight(
            self.config.default_weight if weight is None else weight
        )
        parsed: list[tuple[str, object]] = []
        for doc in jobs:
            if not isinstance(doc, dict):
                raise ValueError("job entries must be objects")
            key = str(doc.get("key", ""))
            blob = doc.get("blob")
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
            parsed.append((key, job))

        dispositions: list[str] = []
        with self._lock:
            self.stats.requests += 1
            fresh: list[_Entry] = []
            fresh_keys: set[str] = set()
            for key, job in parsed:
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
                    if self.store_dir is None:  # pragma: no cover
                        done.wire = wire
                    done.done.set()
                    self._entries[key] = done
                    dispositions.append("store")
                    continue
                dispositions.append("queued")
                fresh.append(_Entry(key, job))
                fresh_keys.add(key)
            if fresh and not self._queue.offer(client, weight, fresh):
                self.stats.rejected += 1
                raise Backpressure(self._retry_after(), self._queue.depth())
            for entry in fresh:
                self._entries[entry.key] = entry
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
        cfg = self.config
        per_job = self.stats.ewma_job_seconds or cfg.retry_after_floor
        window = max(1, cfg.dispatch_window or max(cfg.jobs, 1))
        estimate = self._queue.depth() * per_job / window
        return max(cfg.retry_after_floor, min(cfg.retry_after_cap, estimate))

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
            doc["result"] = self._entry_wire(entry)
        elif entry.state == "failed":
            doc["error"] = entry.error
        return doc

    def _entry_wire(self, entry: _Entry) -> dict | None:
        if entry.wire is not None:
            return entry.wire
        return result_store.load_wire(entry.key, self.store_dir)

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
        """Service status.  The ``jobs`` block uses the cluster status
        schema (``pending``/``leased``/``done``/``failed`` — ``leased``
        counts running jobs) so tooling reads both services uniformly.
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
        return {
            "type": "status",
            "jobs": counts,
            "queue": {
                "depth": self._queue.depth(),
                "max": self.config.max_queue,
            },
            "clients": self._queue.snapshot(),
            "backend": {
                "backend": self.config.backend,
                "jobs": self.config.jobs,
            },
            "store": result_store.store_info(self.store_dir),
            "stats": stats,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }

    # -- execution (dispatcher side) ---------------------------------------

    def _dispatch_loop(self) -> None:
        window = max(1, self.config.dispatch_window or max(self.config.jobs, 1))
        while not self._stopping.is_set():
            entries = self._queue.take(window, timeout=0.1)
            if not entries:
                continue
            self._dispatch(entries)

    def _dispatch(self, entries: list[_Entry]) -> None:
        with self._lock:
            for entry in entries:
                entry.state = "running"
        started = time.perf_counter()
        try:
            results = parallel.run_jobs(
                [entry.job for entry in entries],
                jobs=self.config.jobs if self.config.backend == "pool" else 1,
                backend="cluster" if self.config.backend == "cluster"
                else "local",
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
                wire = result_to_wire(result)
                stored = result_store.store_result(
                    entry.key, wire, self.store_dir
                )
                if stored is None:
                    entry.wire = wire  # store off/unwritable: keep in memory
                entry.job = None  # the blob served its purpose
                entry.state = "done"
                entry.source = "computed"
                entry.done.set()
            self.stats.executed += len(entries)
            self.stats.dispatch_cycles += 1
            per_job = elapsed / len(entries)
            ewma = self.stats.ewma_job_seconds
            self.stats.ewma_job_seconds = (
                per_job if ewma == 0.0 else 0.8 * ewma + 0.2 * per_job
            )
        if self.config.store_max_entries is not None:
            result_store.evict_store(
                self.store_dir, max_entries=self.config.store_max_entries
            )


# -- the HTTP layer --------------------------------------------------------


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
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            try:
                self.wfile.write(payload)
            except OSError:
                pass

        def _body(self) -> dict | None:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                return None
            if length <= 0:
                return None
            try:
                doc = json.loads(self.rfile.read(length).decode("utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                return None
            return doc if isinstance(doc, dict) else None

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
            body = self._body()
            if body is None:
                self._reply(400, {"error": "expected a JSON object body"})
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
            else:
                self._reply(404, {"error": f"no such endpoint {self.path!r}"})

        def _submit(self, body: dict, *, wait: bool) -> None:
            jobs = body.get("jobs")
            if not isinstance(jobs, list) or not jobs:
                self._reply(400, {"error": "submit without jobs"})
                return
            client = str(body.get("client") or "anonymous")
            weight = body.get("weight")
            try:
                receipt = service.submit(jobs, client=client, weight=weight)
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
            timeout = body.get("timeout")
            timeout = float(timeout) if timeout is not None else None
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
