"""Client library for the simulation service.

:class:`ServiceClient` speaks the HTTP/JSON protocol of
:mod:`repro.service.server` through one submit/poll/resubmit loop
(:func:`resubmit_until_done`): submission is idempotent (jobs are
content-keyed, so resubmitting is free — warm keys come straight back
from the result store), results are polled, and a client that finds
the service down or restarted simply resubmits and keeps polling.
Backpressure (``429``) is handled by honoring ``Retry-After`` and
halving the submission chunk, so a client behind a saturated service
degrades to a slower trickle instead of failing.

:func:`run_jobs_service` is ``run_jobs(..., backend="service")``: with
an address it sends the grid to that service; without one it stands up
an in-process service plus worker subprocesses for the one grid.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import time

from repro import env
from repro.cluster.serial import job_key, job_to_blob, result_from_wire

#: Where ``--backend service`` connects when no address is given
#: explicitly (``host:port`` / ``[v6]:port``).
ENV_ADDR = "REPRO_SERVICE_ADDR"

DEFAULT_TIMEOUT = 600.0
DEFAULT_CHUNK = 32

#: Largest request body either side accepts.  A SimJob blob is a few
#: KB, so ~10k-point submissions stay under it.
MAX_BODY = 32 * 1024 * 1024


class ServiceError(RuntimeError):
    """The service reported a terminal error for this request."""


class SweepLost(Exception):
    """The service no longer knows submitted keys (it restarted);
    resubmitting the same jobs recovers them."""


def parse_address(text: str) -> tuple[str, int]:
    """Parse a ``host:port`` string (the CLI's ``--connect`` form).

    IPv6 literals use the standard bracketed form — ``[::1]:9000``
    parses to ``("::1", 9000)`` — since a bare ``rpartition(":")``
    would otherwise hand the bracketed host straight to the socket
    layer, which rejects it.  Hostnames and IPv4 stay ``host:port``.
    """
    bracketed = re.match(r"^\[([^\[\]]+)\]:(\d+)$", text)
    if bracketed:
        return bracketed.group(1), int(bracketed.group(2))
    if text.startswith("["):
        raise ValueError(
            f"expected [v6-literal]:port, got {text!r} "
            "(bracket the host and follow it with :port)"
        )
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdecimal():
        raise ValueError(f"expected host:port, got {text!r}")
    return host, int(port)


def env_address() -> tuple[str, int] | None:
    """The address in ``$REPRO_SERVICE_ADDR``, or ``None`` when it is
    unset or blank; a malformed value raises
    :class:`~repro.env.EnvError`."""
    return env.value(ENV_ADDR, parse_address)


def resubmit_until_done(submit, fetch, *, poll: float,
                        max_poll: float | None = None,
                        timeout: float | None = None):
    """Submit, then poll until results arrive, resubmitting when lost.

    ``submit()`` offers the jobs to the server; ``fetch()`` returns the
    results, ``None`` while they are pending, or raises
    :class:`SweepLost`.  A lost sweep, a dropped connection or a server
    that is down at submit time all lead to a resubmission on the next
    poll: jobs are content-keyed and results persist in the server's
    result store, so resubmitting costs nothing for completed points.
    Any other error is terminal and propagates.  Polls start ``poll``
    seconds apart and grow by half each time up to ``max_poll``
    (default: ``poll``, a fixed interval); past ``timeout`` seconds the
    loop raises :class:`TimeoutError`.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    delay = poll
    submitted = False
    while True:
        try:
            if not submitted:
                submit()
                submitted = True
            results = fetch()
            if results is not None:
                return results
        except (OSError, http.client.HTTPException, SweepLost):
            submitted = False
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"sweep incomplete after {timeout}s")
        time.sleep(delay)
        delay = min(delay * 1.5, max_poll if max_poll is not None else poll)


class ServiceClient:
    """A connection-per-request HTTP client for one service address."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str | None = None,
        timeout: float = 30.0,
        poll_interval: float = 0.05,
        chunk: int = DEFAULT_CHUNK,
    ):
        self.host = host
        self.port = int(port)
        #: Sent with each submission as ``client``; the service does not
        #: read it.
        self.client_id = client_id or f"pid-{os.getpid()}"
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.chunk = max(1, int(chunk))

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None,
                 *, raw: bytes | None = None):
        """One request on a fresh connection: ``(status, headers, doc)``.
        ``raw`` sends those bytes as the body instead of ``body``."""
        payload = raw if body is None else json.dumps(body).encode("utf-8")
        if payload is not None and len(payload) > MAX_BODY:
            raise ServiceError(
                f"request body of {len(payload)} bytes exceeds "
                f"MAX_BODY={MAX_BODY}"
            )
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            try:
                doc = json.loads(data.decode("utf-8")) if data else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                doc = {}
            return response.status, dict(response.getheaders()), doc
        finally:
            conn.close()

    # -- primitives --------------------------------------------------------

    def healthy(self) -> bool:
        try:
            status, _, _ = self._request("GET", "/v1/healthz")
        except OSError:
            return False
        return status == 200

    def status(self) -> dict:
        status, _, doc = self._request("GET", "/v1/status")
        if status != 200:
            raise ServiceError(f"status endpoint returned {status}")
        return doc

    def submit(self, job_list, *, deadline: float | None = None) -> list[str]:
        """Submit jobs (chunked, backpressure-aware); returns their keys.

        A ``429`` sleeps out the ``Retry-After`` advice and halves the
        chunk size for the rest of this submission — all-or-nothing
        admission means smaller offers fit sooner.
        """
        keys = [job_key(job) for job in job_list]
        docs = [
            {"key": key, "blob": job_to_blob(job)}
            for key, job in zip(keys, job_list)
        ]
        chunk = self.chunk
        index = 0
        while index < len(docs):
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError("timed out submitting jobs")
            batch = docs[index : index + chunk]
            status, headers, doc = self._request(
                "POST",
                "/v1/submit",
                {"jobs": batch, "client": self.client_id},
            )
            if status == 429:
                delay = _retry_after(headers, doc)
                chunk = max(1, chunk // 2)
                time.sleep(delay)
                continue
            if status not in (200, 202):
                raise ServiceError(
                    f"submit rejected ({status}): {doc.get('error')}"
                )
            index += len(batch)
        return keys

    def fetch(self, keys: list[str]) -> dict:
        status, _, doc = self._request("POST", "/v1/fetch", {"keys": keys})
        if status != 200:
            raise ServiceError(f"fetch returned {status}: {doc.get('error')}")
        return doc

    def run_sync(self, job_list, timeout: float | None = None) -> dict:
        """One blocking ``POST /v1/run`` round trip: submit the jobs and
        hold the connection until results are ready.

        Returns the raw response document (``results`` wire forms plus
        per-key ``dispositions``) so load generators can measure true
        request latency and classify warm hits; raises
        :class:`ServiceError` on rejection.  ``429`` is surfaced as a
        ``ServiceError`` with ``retry_after`` attached — a load test
        wants to *count* pushback, not hide it.
        """
        docs = [
            {"key": job_key(job), "blob": job_to_blob(job)}
            for job in job_list
        ]
        body = {"jobs": docs, "client": self.client_id}
        if timeout is not None:
            body["timeout"] = timeout
        status, headers, doc = self._request("POST", "/v1/run", body)
        if status == 429:
            error = ServiceError(f"backpressure: {doc.get('error')}")
            error.retry_after = _retry_after(headers, doc)  # type: ignore[attr-defined]
            error.status = status  # type: ignore[attr-defined]
            raise error
        if status != 200:
            error = ServiceError(f"run returned {status}: {doc.get('error')}")
            error.status = status  # type: ignore[attr-defined]
            raise error
        return doc

    # -- the high-level loop ----------------------------------------------

    def _poll(self, keys: list[str]) -> list | None:
        """The results for ``keys`` in order, or ``None`` while any is
        pending.  Raises :class:`SweepLost` when
        the service does not know a key (it restarted and lost its
        in-memory registry), :class:`ServiceError` when a job failed."""
        doc = self.fetch(keys)
        kind = doc.get("type")
        if kind == "results":
            return [result_from_wire(wire) for wire in doc["results"]]
        if kind != "error":
            return None
        reason = doc.get("reason", "")
        if reason.startswith("unknown keys"):
            raise SweepLost(reason)
        failures = doc.get("failures") or []
        detail = "; ".join(
            f"{f.get('key')}: {f.get('error')}" for f in failures[:3]
        )
        raise ServiceError(f"service reported failed jobs: {detail or reason}")

    def run(self, job_list, timeout: float | None = DEFAULT_TIMEOUT) -> list:
        """Submit the jobs and poll until every result is available.

        Restart-proof: when the service is down or no longer knows the
        keys, the client resubmits — completed keys come back from the
        persistent store, only the genuinely unfinished remainder
        re-executes.  Raises :class:`TimeoutError` past ``timeout``
        seconds (``None``: wait indefinitely).
        """
        job_list = list(job_list)
        if not job_list:
            return []
        deadline = None if timeout is None else time.monotonic() + timeout
        keys = [job_key(job) for job in job_list]
        return resubmit_until_done(
            lambda: self.submit(job_list, deadline=deadline),
            lambda: self._poll(keys),
            poll=self.poll_interval,
            max_poll=1.0,
            timeout=timeout,
        )


def _retry_after(headers: dict, doc: dict) -> float:
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return max(0.05, float(value))
            except (TypeError, ValueError):
                break
    try:
        return max(0.05, float(doc.get("retry_after")))
    except (TypeError, ValueError):
        return 0.5


def run_jobs_service(job_list, jobs: int = 1) -> list:
    """``run_jobs(..., backend="service")``: execute jobs on a service.

    With ``$REPRO_SERVICE_ADDR`` set the grid goes to that running
    service and ``jobs`` is ignored — capacity belongs to the service;
    an address that refuses the first connection raises
    :class:`~repro.harness.parallel.BackendSelectionError` at once.
    Otherwise an in-process service leases the grid to ``jobs`` worker
    subprocesses over ``REPRO_RESULT_STORE`` (no persistence when
    unset), so an interrupted sweep resumes from the points it already
    stored.
    """
    if not job_list:
        return []
    address = env_address()
    if address is not None:
        client = ServiceClient(*address)
        try:
            client._request("GET", "/v1/healthz")
        except ConnectionRefusedError:
            # Nothing listens there: fail now, not at the run's timeout.
            from repro.harness.parallel import BackendSelectionError

            raise BackendSelectionError(
                f"{ENV_ADDR}={env.value(ENV_ADDR, str)}: connection "
                "refused (is a service running there?)"
            ) from None
        except (OSError, http.client.HTTPException):
            pass  # anything else is for the run loop's retries to ride out
        return client.run(job_list)

    from repro.cluster.worker import local_workers
    from repro.harness.parallel import effective_jobs
    from repro.service import results as result_store
    from repro.service.server import ServiceConfig, SimulationService

    config = ServiceConfig(
        store=result_store.store_dir(),
        backend="cluster",
        max_queue=max(1, len(job_list)),
        heartbeat_timeout=2.0,
        lease_timeout=120.0,
        poll_interval=0.05,
    )
    with SimulationService(config) as service:
        with local_workers(service, effective_jobs(jobs, len(job_list))):
            client = ServiceClient(*service.address)
            return client.run(job_list, timeout=None)
