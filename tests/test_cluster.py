"""The simulation service's worker plane (``backend="cluster"``).

Three layers of coverage:

* Edges of the building blocks — the HTTP request boundary (truncated,
  oversized, corrupt bodies), the shared submit/poll/resubmit loop,
  job content hashing and result serialization.
* The worker plane's behavior against a real service: unknown
  endpoints, key/blob mismatches at submit and in orphan results,
  duplicate results (idempotent, stored once), and resume from the
  result store (an empty store, a crashed writer's leftover temp file,
  a corrupt entry among good ones).
* End-to-end sweeps through real ``repro cluster work`` subprocesses
  with injected faults — worker SIGKILL mid-sweep, a forced service
  restart over the result store, lease failures, result corruption,
  dropped heartbeats, attempt-budget exhaustion — every one asserting
  the repo's tentpole invariant: the merged results are bit-identical
  to ``jobs=1``.
"""

import socket
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.serial import (
    job_from_blob,
    job_key,
    job_to_blob,
    result_from_wire,
    result_to_wire,
)
from repro.cluster.worker import local_workers, reap, spawn_worker
from repro.core.model import GREAT_MODEL
from repro.engine.config import ProcessorConfig
from repro.harness.parallel import SimJob, run_jobs
from repro.service import results as result_store
from repro.service.client import (
    ENV_ADDR,
    MAX_BODY,
    ServiceClient,
    ServiceError,
    SweepLost,
    parse_address,
    resubmit_until_done,
)
from repro.service.server import ServiceConfig, ServiceTracer, SimulationService

_CONFIG = ProcessorConfig(issue_width=4, window_size=24)
_LIMIT = 400

#: Sub-second supervision so fault recovery keeps test wall time low.
_FAST = dict(
    backend="cluster",
    heartbeat_timeout=1.0,
    lease_timeout=30.0,
    poll_interval=0.05,
)


def _grid() -> list[SimJob]:
    jobs = []
    for name in ("compress", "perl"):
        jobs.append(SimJob(name, _CONFIG, None, _LIMIT))
        jobs.append(SimJob(name, _CONFIG, GREAT_MODEL, _LIMIT))
    return jobs


def _counters(results) -> list:
    return [r.counters for r in results]


def _recorded(tracer: ServiceTracer) -> Counter:
    """How many times each key's result was recorded (computed and
    stored) across every service sharing ``tracer``."""
    return Counter(
        detail["key"] for _, kind, detail in tracer.items()
        if kind == "result-recorded"
    )


def _stored_keys(directory) -> list[str]:
    return [path.stem for path in result_store.store_entries(directory)]


def _service(store=None, tracer=None, **overrides) -> SimulationService:
    return SimulationService(ServiceConfig(store=store, **{**_FAST, **overrides}),
                             tracer=tracer)


@contextmanager
def _cluster(store=None, *, workers=1, faults=None, tracer=None, **overrides):
    """A started worker-plane service plus ``workers`` worker
    subprocesses; yields the service and a client for it."""
    with _service(store, tracer, **overrides) as service:
        with local_workers(service, workers, faults=faults):
            yield service, ServiceClient(*service.address)


def _post(service, path: str, body: dict):
    return ServiceClient(*service.address)._request("POST", path, body)


def _exchange(address, data: bytes, *, close_write: bool = True) -> bytes:
    """Send raw bytes to the service and read until it closes."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _status_code(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _post_bytes(path: str, body: bytes, length: int | None = None) -> bytes:
    length = len(body) if length is None else length
    return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


# -- the HTTP request boundary ------------------------------------------------


class TestProtocol:
    """What the handler does with requests that are not well-formed JSON
    objects of an acceptable size: answer with a status, and keep
    serving everyone else."""

    def test_clean_eof_is_none(self):
        # A connection closed before any request is the normal end of a
        # keep-alive connection: no reply, no error, service unaffected.
        tracer = ServiceTracer()
        with _service(tracer=tracer) as service:
            assert _exchange(service.address, b"") == b""
            assert ServiceClient(*service.address).healthy()
        assert "bad-request" not in tracer.kinds()

    def test_truncated_payload(self):
        with _service() as service:
            reply = _exchange(service.address,
                              _post_bytes("/v1/submit", b'{"jobs": [', 100))
            assert _status_code(reply) == 400
            assert ServiceClient(*service.address).healthy()

    def test_truncated_header(self):
        with _service() as service:
            _exchange(service.address, b"POST /v1/submit HTTP/1.1\r\nContent-Le")
            assert ServiceClient(*service.address).healthy()

    def test_oversized_frame_rejected_before_payload_read(self):
        # Only the headers are sent and the connection stays open: the
        # declared length alone must draw the 413 (a handler that tried
        # to read or allocate the body would time this test out).
        with _service() as service:
            reply = _exchange(service.address,
                              _post_bytes("/v1/submit", b"", 2 ** 44),
                              close_write=False)
            assert _status_code(reply) == 413
            assert ServiceClient(*service.address).healthy()

    @pytest.mark.parametrize("length", ["-5", "abc", "1.5"])
    def test_bad_content_length_is_400(self, length):
        with _service() as service:
            reply = _exchange(
                service.address,
                f"POST /v1/submit HTTP/1.1\r\nContent-Length: {length}"
                "\r\n\r\n".encode(),
                close_write=False,
            )
            assert _status_code(reply) == 400
            assert b"Content-Length" in reply

    def test_oversized_frame_refused_on_send(self):
        # Port 1 is never listening: the refusal must come before any
        # connection attempt.
        client = ServiceClient("127.0.0.1", 1)
        with pytest.raises(ServiceError, match="MAX_BODY"):
            client._request("POST", "/v1/submit",
                            {"blob": "x" * (MAX_BODY + 1)})

    def test_corrupt_payload(self):
        with _service() as service:
            reply = _exchange(service.address,
                              _post_bytes("/v1/submit", b"\xffnot json\xfe"))
            assert _status_code(reply) == 400

    def test_non_object_payload(self):
        with _service() as service:
            reply = _exchange(service.address,
                              _post_bytes("/v1/lease", b"[1,2,3]"))
            assert _status_code(reply) == 400

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7787") == ("127.0.0.1", 7787)
        assert parse_address("localhost:0") == ("localhost", 0)
        with pytest.raises(ValueError):
            parse_address("no-port-here")

    def test_parse_address_bracketed_ipv6(self):
        assert parse_address("[::1]:9000") == ("::1", 9000)
        assert parse_address("[2001:db8::2]:7787") == ("2001:db8::2", 7787)
        assert parse_address("[fe80::1%eth0]:80") == ("fe80::1%eth0", 80)

    def test_parse_address_bad_bracketed_forms(self):
        for text in ("[::1]", "[::1]:", "[::1]:abc", "[]:9000",
                     "[::1:9000", "[::1]9000"):
            with pytest.raises(ValueError):
                parse_address(text)


class TestResubmitLoop:
    """``resubmit_until_done`` with fake submit/fetch."""

    def test_lost_fetch_resubmits_exactly_once(self):
        calls = []
        replies = iter([None, SweepLost("restarted"), None, ["r"]])

        def fetch():
            calls.append("fetch")
            reply = next(replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

        result = resubmit_until_done(
            lambda: calls.append("submit"), fetch, poll=0.001, timeout=10
        )
        assert result == ["r"]
        assert calls == ["submit", "fetch", "fetch",
                         "submit", "fetch", "fetch"]

    def test_server_down_at_submit_is_retried(self):
        attempts = []

        def submit():
            attempts.append(1)
            if len(attempts) == 1:
                raise ConnectionRefusedError("down")

        assert resubmit_until_done(
            submit, lambda: "done", poll=0.001, timeout=10
        ) == "done"
        assert len(attempts) == 2

    def test_terminal_error_propagates(self):
        def fetch():
            raise ServiceError("service reported failed jobs: k: boom")

        submits = []
        with pytest.raises(ServiceError):
            resubmit_until_done(
                lambda: submits.append(1), fetch, poll=0.001, timeout=10
            )
        assert submits == [1]

    def test_deadline_raises_timeout(self):
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            resubmit_until_done(
                lambda: None, lambda: None, poll=0.01, timeout=0.05
            )
        assert time.monotonic() - start < 5.0


# -- job identity and serialization ----------------------------------------


class TestSerial:
    def test_job_key_stable_and_content_sensitive(self):
        a = SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)
        b = SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)
        assert job_key(a) == job_key(b)
        assert job_key(a) != job_key(SimJob("perl", _CONFIG, GREAT_MODEL, _LIMIT))
        assert job_key(a) != job_key(SimJob("compress", _CONFIG, None, _LIMIT))
        assert job_key(a) != job_key(SimJob("compress", _CONFIG, GREAT_MODEL, 999))

    def test_job_key_distinguishes_factory_arguments(self):
        from functools import partial

        from repro.vp.confidence import ResettingConfidenceEstimator

        two = SimJob(
            "compress", _CONFIG, GREAT_MODEL, _LIMIT,
            confidence=partial(ResettingConfidenceEstimator, counter_bits=2),
        )
        three = SimJob(
            "compress", _CONFIG, GREAT_MODEL, _LIMIT,
            confidence=partial(ResettingConfidenceEstimator, counter_bits=3),
        )
        assert job_key(two) != job_key(three)

    def test_blob_roundtrip(self):
        job = SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)
        assert job_from_blob(job_to_blob(job)) == job

    def test_result_wire_roundtrip_is_exact(self):
        import json

        result = run_jobs([SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)])[0]
        # Through actual JSON text, like the wire and the result store.
        restored = result_from_wire(json.loads(json.dumps(result_to_wire(result))))
        assert restored.counters == result.counters
        assert restored.config == result.config
        assert restored.model_name == result.model_name
        assert restored.confidence_kind == result.confidence_kind
        assert restored.update_timing == result.update_timing
        assert restored.extra == result.extra

    def test_documents_with_engine_path_still_read(self, tmp_path):
        import json

        job = SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)
        result = run_jobs([job])[0]
        # Results written while several engines existed carried the
        # engine that ran them; such documents still read, key ignored.
        old = {**result_to_wire(result), "engine_path": "generic"}
        assert "engine_path" not in result_to_wire(result)
        assert result_from_wire(json.loads(json.dumps(old))) == result
        key = job_key(job)
        result_store.store_result(key, old, tmp_path)
        assert result_store.load_result(key, tmp_path) == result


# -- the worker plane against a real service --------------------------------


def _lease(service, worker_id="w1") -> dict:
    code, _, reply = _post(service, "/v1/lease", {"worker_id": worker_id})
    assert code == 200, reply
    return reply


class TestSchedulerProtocol:
    def test_unknown_message_type_gets_error_reply(self):
        # On HTTP the endpoint path is the message type.
        with _service() as service:
            code, _, reply = _post(service, "/v1/frobnicate", {"x": 1})
        assert code == 404
        assert "no such endpoint" in reply["error"]

    def test_corrupt_frame_answered_then_service_stays_up(self):
        tracer = ServiceTracer()
        with _service(tracer=tracer) as service:
            reply = _exchange(service.address,
                              _post_bytes("/v1/result", b"garbage"))
            assert _status_code(reply) == 400
            # The bad connection was dropped; a fresh one still works.
            assert ServiceClient(*service.address).status()["type"] == "status"
        assert "bad-request" in tracer.kinds()

    def test_worker_plane_needs_the_cluster_backend(self):
        with _service(backend="serial") as service:
            code, _, reply = _post(service, "/v1/lease", {"worker_id": "w1"})
        assert code == 409 and "worker plane" in reply["error"]

    def test_mismatched_key_is_never_leased(self):
        # The key of one job with the blob of another: refused whole,
        # so no worker can store B's result under A's key.
        a = SimJob("compress", _CONFIG, None, _LIMIT)
        b = SimJob("perl", _CONFIG, None, _LIMIT)
        with _service() as service:
            code, _, reply = _post(service, "/v1/submit", {
                "jobs": [{"key": job_key(a), "blob": job_to_blob(b)}],
            })
            lease = _lease(service)
            status = service.status()
        assert code == 400 and "mismatch" in reply["error"]
        assert lease["type"] == "idle"
        assert status["jobs"] == {"pending": 0, "leased": 0, "done": 0,
                                  "failed": 0}

    def test_orphan_result_must_carry_a_blob_that_hashes_to_its_key(
        self, tmp_path
    ):
        a = SimJob("compress", _CONFIG, None, _LIMIT)
        b = SimJob("perl", _CONFIG, None, _LIMIT)
        wire_b = result_to_wire(run_jobs([b])[0])
        store = tmp_path / "store"
        orphan = {"worker_id": "w1", "key": job_key(a), "attempt": 1,
                  "ok": True, "result": wire_b}
        with _service(store) as service:
            refused = [
                _post(service, "/v1/result", dict(orphan, blob=blob))
                for blob in (None, job_to_blob(b), "!!not-base64!!")
            ]
            assert service.entry_state(job_key(a)) == {"state": "unknown"}
            # The honest orphan — B's result under B's key — is adopted.
            code, _, adopted = _post(service, "/v1/result", dict(
                orphan, key=job_key(b), blob=job_to_blob(b)))
        assert [code for code, _, _ in refused] == [400, 400, 400]
        assert "mismatch" in refused[1][2]["error"]
        assert code == 200 and adopted == {"type": "ok"}
        assert _stored_keys(store) == [job_key(b)]

    def test_duplicate_result_idempotent_and_journaled_once(self, tmp_path):
        job = SimJob("compress", _CONFIG, None, _LIMIT)
        key = job_key(job)
        wire = result_to_wire(run_jobs([job])[0])
        store = tmp_path / "store"
        tracer = ServiceTracer()
        with _service(store, tracer) as service:
            ServiceClient(*service.address).submit([job])
            lease = _lease(service)
            assert lease["type"] == "job" and lease["key"] == key
            report = {"worker_id": "w1", "key": key, "blob": lease["blob"],
                      "attempt": 1, "ok": True, "result": wire}
            _, _, first = _post(service, "/v1/result", report)
            _, _, duplicate = _post(service, "/v1/result",
                                    dict(report, attempt=2))
            status = service.status()
        assert first == {"type": "ok"}
        assert duplicate == {"type": "ok", "duplicate": True}
        assert _recorded(tracer) == {key: 1}
        assert _stored_keys(store) == [key]
        assert result_store.load_wire(key, store) == wire
        assert status["store"]["dir"] == str(store)
        assert status["store"]["entries"] == 1
        assert set(status["workers"]) == {"w1"}

    def test_failed_store_write_keeps_result_in_memory(self, tmp_path):
        job = SimJob("compress", _CONFIG, None, _LIMIT)
        key = job_key(job)
        wire = result_to_wire(run_jobs([job])[0])
        unwritable = tmp_path / "a-file"
        unwritable.write_text("not a directory")
        tracer = ServiceTracer()
        with _service(unwritable, tracer) as service:
            client = ServiceClient(*service.address)
            client.submit([job])
            lease = _lease(service)
            assert lease["key"] == key
            code, _, ack = _post(service, "/v1/result", {
                "worker_id": "w1", "key": key, "blob": lease["blob"],
                "attempt": 1, "ok": True, "result": wire,
            })
            fetched = client.fetch([key])
        assert code == 200 and ack == {"type": "ok"}
        assert "store-write-failed" in tracer.kinds()
        assert fetched["results"] == [wire]


class TestResumeFromStore:
    """A service over a result store resumes at submit time: stored
    keys come back as warm ``store`` hits, everything else is leased.
    The store's damaged-state cases map to the worker plane here."""

    def test_empty_store_is_a_fresh_sweep(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        with _service(store) as service:
            receipt = ServiceClient(*service.address)._request(
                "POST", "/v1/submit",
                {"jobs": [{"key": job_key(j), "blob": job_to_blob(j)}
                          for j in _grid()]},
            )[2]
        assert receipt["total"] == receipt["queued"] == len(_grid())
        assert receipt["warm"] == 0
        assert _stored_keys(store) == []

    def test_leftover_temp_file_is_a_miss(self, tmp_path):
        # A writer that crashed between its temp-file write and the
        # rename leaves a temp file and no entry: the key is recomputed.
        grid = _grid()[:2]
        store = tmp_path / "store"
        stored_key, torn_key = (job_key(j) for j in grid)
        result_store.store_result(stored_key, {"cycles": 10}, store)
        leftover = store / f".{torn_key}.vsres1.4242.17.tmp"
        leftover.write_bytes(b'{"v":1,"key":"' + torn_key.encode())
        with _service(store) as service:
            _, _, receipt = _post(service, "/v1/submit", {
                "jobs": [{"key": job_key(j), "blob": job_to_blob(j)}
                         for j in grid],
            })
            status = service.status()
        assert receipt["dispositions"] == ["store", "queued"]
        assert status["jobs"]["pending"] == 1
        assert status["store"]["entries"] == 1

    def test_corrupt_entry_recomputed_good_entries_replayed(self, tmp_path):
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        store = tmp_path / "store"
        keys = [job_key(j) for j in grid]
        for key, result in zip(keys, serial):
            result_store.store_result(key, result, store)
        damaged = result_store.result_path(keys[1], store)
        raw = damaged.read_bytes()
        middle = len(raw) // 2
        damaged.write_bytes(raw[:middle] + b"XX" + raw[middle + 2:])
        tracer = ServiceTracer()
        with _cluster(store, tracer=tracer) as (service, client):
            _, _, receipt = _post(service, "/v1/submit", {
                "jobs": [{"key": k, "blob": job_to_blob(j)}
                         for k, j in zip(keys, grid)],
            })
            results = client.run(grid, timeout=120)
        assert receipt["warm"] == len(grid) - 1
        assert _counters(results) == _counters(serial)
        assert _recorded(tracer) == {keys[1]: 1}
        assert sorted(_stored_keys(store)) == sorted(keys)


# -- end-to-end sweeps with injected faults --------------------------------


class TestClusterSweeps:
    def test_cluster_backend_bit_identical_to_serial(self, monkeypatch):
        # No address: an ephemeral service leases the grid to two
        # worker subprocesses.
        monkeypatch.delenv(ENV_ADDR, raising=False)
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        clustered = run_jobs(grid, jobs=2, backend="service")
        assert _counters(clustered) == _counters(serial)
        assert [r.cycles for r in clustered] == [r.cycles for r in serial]

    def test_running_service_with_two_workers_bit_identical(
        self, monkeypatch, tmp_path
    ):
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        with _cluster(tmp_path / "store", workers=2) as (service, _):
            host, port = service.address
            monkeypatch.setenv(ENV_ADDR, f"{host}:{port}")
            remote = run_jobs(grid, backend="service")
            status = service.status()
        assert _counters(remote) == _counters(serial)
        assert status["stats"]["executed"] == len(grid)
        assert len(status["workers"]) == 2

    def test_worker_killed_mid_sweep(self, tmp_path):
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        store = tmp_path / "store"
        tracer = ServiceTracer()
        # Worker 1's requests are slowed so it cannot drain the grid
        # before worker 0 has started and taken (and died on) its first
        # lease.
        faults = {0: FaultPlan(kill_on_lease=1),
                  1: FaultPlan(delay_request_s=0.2)}
        with _cluster(store, workers=2, faults=faults,
                      tracer=tracer) as (_, client):
            results = client.run(grid, timeout=120)
        assert _counters(results) == _counters(serial)
        # The kill was detected and the orphaned job requeued.
        assert {"worker-dead", "job-requeued"} <= tracer.kinds()
        keys = sorted(job_key(j) for j in grid)
        assert sorted(_recorded(tracer).elements()) == keys
        assert sorted(_stored_keys(store)) == keys

    def test_scheduler_restart_resumes_without_recompute(self, tmp_path):
        """The acceptance scenario: kill the service mid-sweep, restart
        it over the same result store, and finish — bit-identical to
        serial, with every pre-restart point replayed from disk, not
        re-run."""
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        store = tmp_path / "store"
        tracer = ServiceTracer()  # shared: counts span the restart
        first = _service(store, tracer)
        address = first.start()
        # Slowed requests keep part of the grid in flight at the kill.
        workers = [spawn_worker(address, reconnect_deadline=60.0,
                                faults=FaultPlan(delay_request_s=0.05))
                   for _ in range(2)]
        client = ServiceClient(*address)
        try:
            client.submit(grid)
            deadline = time.monotonic() + 60.0
            while not _stored_keys(store):
                assert time.monotonic() < deadline, "no progress before kill"
                time.sleep(0.05)
            first.stop()  # forced restart: drop all in-memory state
            pre_restart = set(_stored_keys(store))
            assert len(pre_restart) < len(grid), "nothing left to resume"

            second = _service(store, tracer, port=address[1])
            second.start()
            try:
                _, _, receipt = _post(second, "/v1/submit", {
                    "jobs": [{"key": job_key(j), "blob": job_to_blob(j)}
                             for j in grid],
                })
                # Every point completed before the restart was served
                # from the store — zero of them recomputed.
                assert receipt["warm"] >= len(pre_restart)
                results = client.run(grid, timeout=120)
            finally:
                second.drain()
                reap(workers, timeout=30)
                second.stop()
        finally:
            reap(workers, timeout=0)
        assert _counters(results) == _counters(serial)
        # Each key recorded exactly once across both incarnations:
        # completions were never redone and duplicates never re-stored.
        keys = sorted(job_key(j) for j in grid)
        assert sorted(_recorded(tracer).elements()) == keys
        assert sorted(_stored_keys(store)) == keys
        assert pre_restart <= set(keys)

    def test_injected_lease_failures_are_retried(self):
        grid = _grid()[:2]
        serial = run_jobs(grid, jobs=1)
        tracer = ServiceTracer()
        with _cluster(tracer=tracer, fail_leases=3) as (_, client):
            assert client.status()["type"] == "status"
            results = client.run(grid, timeout=120)
        assert _counters(results) == _counters(serial)
        assert "lease-fault-injected" in tracer.kinds()

    def test_corrupt_result_frame_resent_clean(self):
        grid = _grid()[:2]
        serial = run_jobs(grid, jobs=1)
        tracer = ServiceTracer()
        with _cluster(faults={0: FaultPlan(corrupt_result=1)},
                      tracer=tracer) as (_, client):
            results = client.run(grid, timeout=120)
        assert _counters(results) == _counters(serial)
        assert "bad-request" in tracer.kinds()
        assert sorted(_recorded(tracer)) == sorted(job_key(j) for j in grid)

    def test_silent_worker_presumed_dead_sweep_still_exact(self):
        # The worker keeps computing but stops heartbeating after its
        # first beat: the service must declare it dead and requeue; its
        # late results are adopted/deduped — never double-counted.  The
        # jobs are sized to outlast the (shrunken) heartbeat timeout,
        # since any request a worker makes also proves it alive.
        grid = [
            SimJob("compress", _CONFIG, GREAT_MODEL, 30000),
            SimJob("perl", _CONFIG, GREAT_MODEL, 30000),
        ]
        serial = run_jobs(grid, jobs=1)
        tracer = ServiceTracer()
        with _cluster(faults={0: FaultPlan(drop_heartbeats_after=1)},
                      tracer=tracer, heartbeat_timeout=0.2) as (_, client):
            results = client.run(grid, timeout=120)
        assert _counters(results) == _counters(serial)
        assert "worker-dead" in tracer.kinds()

    def test_attempt_budget_exhaustion_fails_the_sweep(self):
        grid = [
            SimJob("no-such-kernel", _CONFIG, None, _LIMIT),
            SimJob("compress", _CONFIG, None, _LIMIT),
        ]
        with _cluster(max_attempts=2) as (_, client):
            with pytest.raises(ServiceError) as info:
                client.run(grid, timeout=120)
        message = str(info.value)
        assert job_key(grid[0]) in message
        assert message.count("after 2 attempts") == 1
