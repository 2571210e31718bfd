"""The simulation service's building blocks, and its dispatcher against
a real service.

Two layers of coverage:

* Edges of the building blocks — the HTTP request boundary (truncated,
  oversized, corrupt bodies), the shared submit/poll/resubmit loop,
  job content hashing and result serialization.
* The dispatcher's behavior against a real ``serial`` service: unknown
  endpoints, a corrupt request body, a failed store write (the result
  stays servable from memory), and resume from the result store (an
  empty store, a crashed writer's leftover temp file, a corrupt entry
  among good ones), each asserting the repo's tentpole invariant where
  results are computed: bit-identical to ``jobs=1``.
"""

import socket
import time
from collections import Counter

import pytest

from repro.cluster.serial import (
    job_fingerprint,
    job_from_blob,
    job_key,
    job_to_blob,
    result_from_wire,
    result_to_wire,
)
from repro.core.model import GREAT_MODEL
from repro.engine.config import ProcessorConfig
from repro.harness.parallel import SimJob, run_jobs
from repro.service import results as result_store
from repro.service.client import (
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
    stored) by the service ``tracer`` watched."""
    return Counter(
        detail["key"] for _, kind, detail in tracer.items()
        if kind == "result-recorded"
    )


def _stored_keys(directory) -> list[str]:
    return [path.stem for path in result_store.store_entries(directory)]


def _service(store=None, tracer=None, **overrides) -> SimulationService:
    """A ``serial`` service (the default backend) over ``store``."""
    return SimulationService(ServiceConfig(store=store, **overrides),
                             tracer=tracer)


def _post(service, path: str, body: dict):
    return ServiceClient(*service.address)._request("POST", path, body)


def _submit_docs(service, jobs) -> dict:
    """``POST /v1/submit`` of ``jobs``; returns the receipt."""
    code, _, receipt = _post(service, "/v1/submit", {
        "jobs": [{"key": job_key(j), "blob": job_to_blob(j)} for j in jobs],
    })
    assert code == 202, receipt
    return receipt


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
                              _post_bytes("/v1/submit", b"[1,2,3]"))
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

    def test_documents_with_retired_config_fields_still_read(self, tmp_path):
        import json

        job = SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)
        result = run_jobs([job])[0]
        # Entries written while ProcessorConfig had an event log and
        # per-cycle sampling carry both fields at their defaults.
        wire = result_to_wire(result)
        assert "log_events" not in wire["config"]
        old = {
            **wire,
            "config": {**wire["config"], "log_events": False, "sample_interval": 0},
        }
        assert result_from_wire(json.loads(json.dumps(old))) == result
        key = job_key(job)
        result_store.store_result(key, old, tmp_path)
        assert result_store.load_result(key, tmp_path) == result

    def test_fingerprint_keeps_the_retired_config_fields(self):
        # Job keys, ablation run IDs and stored results were computed
        # from this text while the fields existed; it must not move.
        text = job_fingerprint(SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT))
        assert (
            "max_cycles=5000000, log_events=False, sample_interval=0, "
            "predict_classes='all'" in text
        )


# -- the dispatcher against a real service ---------------------------------


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
                              _post_bytes("/v1/run", b"garbage"))
            assert _status_code(reply) == 400
            # The bad connection was dropped; a fresh one still works.
            assert ServiceClient(*service.address).status()["type"] == "status"
        assert "bad-request" in tracer.kinds()

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
            assert service.wait([key], timeout=60.0)
            fetched = client.fetch([key])
        assert "store-write-failed" in tracer.kinds()
        assert _recorded(tracer) == {key: 1}
        assert fetched["results"] == [wire]
        assert fetched["sources"] == ["computed"]


class TestResumeFromStore:
    """A service over a result store resumes at submit time: stored
    keys come back as warm ``store`` hits, everything else is queued
    for the dispatcher, which computes and stores it once."""

    def test_empty_store_is_a_fresh_sweep(self, tmp_path):
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        keys = [job_key(j) for j in grid]
        store = tmp_path / "store"
        store.mkdir()
        tracer = ServiceTracer()
        with _service(store, tracer) as service:
            receipt = _submit_docs(service, grid)
            results = ServiceClient(*service.address).run(grid, timeout=120)
        assert receipt["total"] == receipt["queued"] == len(grid)
        assert receipt["warm"] == 0
        assert _counters(results) == _counters(serial)
        assert sorted(_recorded(tracer).elements()) == sorted(keys)
        assert sorted(_stored_keys(store)) == sorted(keys)

    def test_leftover_temp_file_is_a_miss(self, tmp_path):
        # A writer that crashed between its temp-file write and the
        # rename leaves a temp file and no entry: the key is recomputed.
        grid = _grid()[:2]
        store = tmp_path / "store"
        stored_key, torn_key = (job_key(j) for j in grid)
        result_store.store_result(stored_key, run_jobs(grid[:1])[0], store)
        leftover = store / f".{torn_key}.vsres1.4242.17.tmp"
        leftover.write_bytes(b'{"v":1,"key":"' + torn_key.encode())
        tracer = ServiceTracer()
        with _service(store, tracer) as service:
            receipt = _submit_docs(service, grid)
            assert service.wait([stored_key, torn_key], timeout=60.0)
            status = service.status()
        assert receipt["dispositions"] == ["store", "queued"]
        assert _recorded(tracer) == {torn_key: 1}
        assert status["stats"]["executed"] == 1
        assert sorted(_stored_keys(store)) == sorted([stored_key, torn_key])

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
        with _service(store, tracer) as service:
            receipt = _submit_docs(service, grid)
            results = ServiceClient(*service.address).run(grid, timeout=120)
        assert receipt["warm"] == len(grid) - 1
        assert _counters(results) == _counters(serial)
        assert _recorded(tracer) == {keys[1]: 1}
        assert sorted(_stored_keys(store)) == sorted(keys)
