"""Client library for the simulation service.

:class:`ServiceClient` speaks the HTTP/JSON protocol of
:mod:`repro.service.server` through the same submit/poll/resubmit loop
as the cluster client (:func:`repro.cluster.protocol.resubmit_until_done`):
submission is idempotent (jobs are content-keyed, so resubmitting is
free — warm keys come straight back from the result store), results are
polled, and a client that finds the service down or restarted simply
resubmits and keeps polling.  Backpressure
(``429``) is handled by honoring ``Retry-After`` and halving the
submission chunk, so a client behind a saturated service degrades to a
slower trickle instead of failing.

:func:`run_jobs_service` adapts the client to the
:func:`repro.harness.parallel.run_jobs` calling convention so
``--backend service`` (or ``REPRO_SWEEP_BACKEND=service`` plus
``REPRO_SERVICE_ADDR``) routes any existing sweep through a shared
always-on service instead of local processes.
"""

from __future__ import annotations

import http.client
import json
import os
import time

from repro.cluster.protocol import SweepLost, parse_address, resubmit_until_done
from repro.cluster.serial import job_key, job_to_blob, result_from_wire

#: Where ``--backend service`` connects when no address is given
#: explicitly (``host:port`` / ``[v6]:port``).
ENV_ADDR = "REPRO_SERVICE_ADDR"

DEFAULT_TIMEOUT = 600.0
DEFAULT_CHUNK = 32


class ServiceError(RuntimeError):
    """The service reported a terminal error for this request."""


class ServiceClient:
    """A connection-per-request HTTP client for one service address."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str | None = None,
        weight: float = 1.0,
        timeout: float = 30.0,
        poll_interval: float = 0.05,
        chunk: int = DEFAULT_CHUNK,
    ):
        self.host = host
        self.port = int(port)
        self.client_id = client_id or f"pid-{os.getpid()}"
        self.weight = weight
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.chunk = max(1, int(chunk))

    @classmethod
    def from_address(cls, address: str | None = None, **kwargs) -> "ServiceClient":
        """Build a client from ``host:port`` text (or ``$REPRO_SERVICE_ADDR``)."""
        if address is None:
            address = os.environ.get(ENV_ADDR)
        if not address:
            raise ServiceError(
                "no service address: pass --connect HOST:PORT or set "
                f"{ENV_ADDR}"
            )
        host, port = parse_address(address)
        return cls(host, port, **kwargs)

    # -- transport ---------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                doc = json.loads(raw.decode("utf-8")) if raw else {}
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
                {"jobs": batch, "client": self.client_id,
                 "weight": self.weight},
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
        body = {"jobs": docs, "client": self.client_id, "weight": self.weight}
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
        pending.  Raises :class:`~repro.cluster.protocol.SweepLost` when
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

    def run(self, job_list, timeout: float = DEFAULT_TIMEOUT) -> list:
        """Submit the jobs and poll until every result is available.

        Restart-proof: when the service is down or no longer knows the
        keys, the client resubmits — completed keys come back from the
        persistent store, only the genuinely unfinished remainder
        re-executes.  Raises :class:`TimeoutError` past ``timeout``.
        """
        job_list = list(job_list)
        if not job_list:
            return []
        deadline = time.monotonic() + timeout
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


def run_jobs_service(job_list, *, address: str | None = None, **kwargs) -> list:
    """``run_jobs``-shaped entry point: execute jobs on the service at
    ``address`` (default ``$REPRO_SERVICE_ADDR``)."""
    client = ServiceClient.from_address(address, **kwargs)
    return client.run(list(job_list))
