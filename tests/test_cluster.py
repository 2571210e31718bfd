"""The fault-tolerant cluster sweep service (repro.cluster).

Three layers of coverage:

* Edges of the building blocks — wire framing (truncated, oversized,
  corrupt frames), the shared submit/poll/resubmit loop, job content
  hashing and result serialization.
* The scheduler's protocol behavior against a real socket: unknown
  message types, duplicate results (idempotent, stored once), and
  resume from the result store (an empty store, a crashed writer's
  leftover temp file, a corrupt entry among good ones).
* End-to-end sweeps through real worker subprocesses with injected
  faults — worker SIGKILL mid-sweep, a forced scheduler restart over
  the result store, lease failures, frame corruption, dropped
  heartbeats, attempt-budget exhaustion — every one asserting the
  repo's tentpole invariant: the merged results are bit-identical to
  ``jobs=1``.
"""

import socket
import struct
import time
from collections import Counter

import pytest

from repro.cluster import protocol
from repro.cluster.client import (
    ClusterClient,
    ClusterSweepError,
    LocalCluster,
    spawn_worker,
)
from repro.cluster.faults import FaultPlan
from repro.cluster.scheduler import (
    ClusterScheduler,
    SchedulerConfig,
    SchedulerTracer,
    sweep_id_for,
)
from repro.cluster.serial import (
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

_CONFIG = ProcessorConfig(issue_width=4, window_size=24)
_LIMIT = 400

#: Sub-second supervision so fault recovery keeps test wall time low.
_FAST = dict(
    heartbeat_interval=0.1,
    heartbeat_timeout=1.0,
    lease_timeout=30.0,
    poll_interval=0.05,
    monitor_interval=0.05,
    backoff_base=0.05,
    backoff_cap=0.2,
)


def _grid() -> list[SimJob]:
    jobs = []
    for name in ("compress", "perl"):
        jobs.append(SimJob(name, _CONFIG, None, _LIMIT))
        jobs.append(SimJob(name, _CONFIG, GREAT_MODEL, _LIMIT))
    return jobs


def _counters(results) -> list:
    return [r.counters for r in results]


def _recorded(tracer: SchedulerTracer) -> Counter:
    """How many times each key's result was recorded (computed and
    stored) across every scheduler sharing ``tracer``."""
    return Counter(
        detail["key"] for _, kind, detail in tracer.items()
        if kind == "result-recorded"
    )


def _stored_keys(directory) -> list[str]:
    return [path.stem for path in result_store.store_entries(directory)]


# -- wire protocol ----------------------------------------------------------


class TestProtocol:
    def _pair(self):
        return socket.socketpair()

    def test_frame_roundtrip(self):
        a, b = self._pair()
        try:
            protocol.send_frame(a, {"type": "ping", "n": 1})
            assert protocol.recv_frame(b) == {"type": "ping", "n": 1}
        finally:
            a.close(), b.close()

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_payload(self):
        a, b = self._pair()
        frame = protocol.encode_frame({"type": "lease", "worker_id": "w"})
        a.sendall(frame[:-3])
        a.close()
        try:
            with pytest.raises(protocol.TruncatedFrame):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_truncated_header(self):
        a, b = self._pair()
        a.sendall(b"\x00\x00")
        a.close()
        try:
            with pytest.raises(protocol.TruncatedFrame):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_before_payload_read(self):
        a, b = self._pair()
        # Only the 4-byte header is sent: the declared length alone must
        # trigger the rejection (no attempt to read/allocate the payload).
        a.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
        try:
            with pytest.raises(protocol.OversizedFrame):
                protocol.recv_frame(b)
        finally:
            a.close(), b.close()

    def test_oversized_frame_refused_on_send(self):
        with pytest.raises(protocol.OversizedFrame):
            protocol.encode_frame({"blob": "x" * (protocol.MAX_FRAME + 1)})

    def test_corrupt_payload(self):
        a, b = self._pair()
        payload = b"\xffnot json\xfe"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        try:
            with pytest.raises(protocol.FrameCorrupt):
                protocol.recv_frame(b)
        finally:
            a.close(), b.close()

    def test_non_object_payload(self):
        a, b = self._pair()
        payload = b"[1,2,3]"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        try:
            with pytest.raises(protocol.FrameCorrupt):
                protocol.recv_frame(b)
        finally:
            a.close(), b.close()

    def test_parse_address(self):
        assert protocol.parse_address("127.0.0.1:7787") == ("127.0.0.1", 7787)
        assert protocol.parse_address("localhost:0") == ("localhost", 0)
        with pytest.raises(ValueError):
            protocol.parse_address("no-port-here")

    def test_parse_address_bracketed_ipv6(self):
        assert protocol.parse_address("[::1]:9000") == ("::1", 9000)
        assert protocol.parse_address("[2001:db8::2]:7787") == (
            "2001:db8::2", 7787,
        )
        assert protocol.parse_address("[fe80::1%eth0]:80") == (
            "fe80::1%eth0", 80,
        )

    def test_parse_address_bad_bracketed_forms(self):
        for text in ("[::1]", "[::1]:", "[::1]:abc", "[]:9000",
                     "[::1:9000", "[::1]9000"):
            with pytest.raises(ValueError):
                protocol.parse_address(text)


class TestResubmitLoop:
    """``protocol.resubmit_until_done`` with fake submit/fetch."""

    def test_lost_fetch_resubmits_exactly_once(self):
        calls = []
        replies = iter([None, protocol.SweepLost("restarted"), None, ["r"]])

        def fetch():
            calls.append("fetch")
            reply = next(replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

        result = protocol.resubmit_until_done(
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

        assert protocol.resubmit_until_done(
            submit, lambda: "done", poll=0.001, timeout=10
        ) == "done"
        assert len(attempts) == 2

    def test_terminal_error_propagates(self):
        def fetch():
            raise ClusterSweepError([{"key": "k", "error": "boom",
                                      "attempts": 3}])

        submits = []
        with pytest.raises(ClusterSweepError):
            protocol.resubmit_until_done(
                lambda: submits.append(1), fetch, poll=0.001, timeout=10
            )
        assert submits == [1]

    def test_deadline_raises_timeout(self):
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            protocol.resubmit_until_done(
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

    def test_sweep_id_deterministic(self):
        keys = [job_key(j) for j in _grid()]
        assert sweep_id_for(keys) == sweep_id_for(list(keys))
        assert sweep_id_for(keys) != sweep_id_for(keys[:-1])


# -- scheduler protocol behavior -------------------------------------------


class TestSchedulerProtocol:
    def test_unknown_message_type_gets_error_reply(self):
        with ClusterScheduler(SchedulerConfig(**_FAST)) as scheduler:
            with protocol.connect(scheduler.address) as sock:
                reply = protocol.request(sock, {"type": "frobnicate"})
        assert reply["type"] == "error"
        assert "unknown-message-type" in reply["reason"]

    def test_corrupt_frame_answered_then_service_stays_up(self):
        with ClusterScheduler(SchedulerConfig(**_FAST)) as scheduler:
            with protocol.connect(scheduler.address) as sock:
                payload = b"garbage"
                sock.sendall(struct.pack(">I", len(payload)) + payload)
                reply = protocol.recv_frame(sock)
                assert reply["type"] == "error"
            # The bad connection was dropped; a fresh one still works.
            with protocol.connect(scheduler.address) as sock:
                reply = protocol.request(sock, {"type": "status"})
                assert reply["type"] == "status"

    def test_duplicate_result_idempotent_and_journaled_once(self, tmp_path):
        job = SimJob("compress", _CONFIG, None, _LIMIT)
        key = job_key(job)
        wire = result_to_wire(run_jobs([job])[0])
        store = tmp_path / "store"
        tracer = SchedulerTracer()
        config = SchedulerConfig(store_dir=store, **_FAST)
        with ClusterScheduler(config, tracer=tracer) as scheduler:
            with protocol.connect(scheduler.address) as sock:
                protocol.request(sock, {
                    "type": "submit",
                    "jobs": [{"key": key, "blob": job_to_blob(job)}],
                })
                protocol.request(sock, {"type": "register", "worker_id": "w1"})
                lease = protocol.request(sock, {"type": "lease",
                                                "worker_id": "w1"})
                assert lease["type"] == "job" and lease["key"] == key
                report = {"type": "result", "worker_id": "w1", "key": key,
                          "attempt": 1, "ok": True, "result": wire}
                first = protocol.request(sock, report)
                duplicate = protocol.request(sock, dict(report, attempt=2))
                status = protocol.request(sock, {"type": "status"})
        assert first["type"] == "ok" and "duplicate" not in first
        assert duplicate["type"] == "ok" and duplicate["duplicate"] is True
        assert _recorded(tracer) == {key: 1}
        assert _stored_keys(store) == [key]
        assert result_store.load_wire(key, store) == wire
        assert status["store"]["dir"] == str(store)
        assert status["store"]["entries"] == 1

    def test_failed_store_write_keeps_result_in_memory(self, tmp_path):
        job = SimJob("compress", _CONFIG, None, _LIMIT)
        key = job_key(job)
        wire = result_to_wire(run_jobs([job])[0])
        unwritable = tmp_path / "a-file"
        unwritable.write_text("not a directory")
        tracer = SchedulerTracer()
        config = SchedulerConfig(store_dir=unwritable, **_FAST)
        with ClusterScheduler(config, tracer=tracer) as scheduler:
            ClusterClient(scheduler.address).submit([job])
            with protocol.connect(scheduler.address) as sock:
                lease = protocol.request(sock, {"type": "lease",
                                                "worker_id": "w1"})
                assert lease["key"] == key
                ack = protocol.request(sock, {
                    "type": "result", "worker_id": "w1", "key": key,
                    "attempt": 1, "ok": True, "result": wire,
                })
            fetched = ClusterClient(scheduler.address).fetch(
                sweep_id_for([key])
            )
        assert ack["type"] == "ok"
        assert "store-write-failed" in tracer.kinds()
        assert _counters(fetched) == [result_from_wire(wire).counters]


class TestResumeFromStore:
    """A scheduler over a result store resumes at submit time: stored
    keys come back ``done``/``replayed``, everything else is computed.
    The store's damaged-state cases map to the scheduler here."""

    def test_empty_store_is_a_fresh_sweep(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        with ClusterScheduler(SchedulerConfig(store_dir=store,
                                              **_FAST)) as scheduler:
            receipt = ClusterClient(scheduler.address).submit(_grid())
        assert receipt["total"] == len(_grid())
        assert receipt["completed"] == receipt["replayed"] == 0
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
        with ClusterScheduler(SchedulerConfig(store_dir=store,
                                              **_FAST)) as scheduler:
            receipt = ClusterClient(scheduler.address).submit(grid)
            status = ClusterClient(scheduler.address).status()
        assert receipt["replayed"] == receipt["completed"] == 1
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
        tracer = SchedulerTracer()
        config = SchedulerConfig(store_dir=store, **_FAST)
        with LocalCluster(config, workers=1, tracer=tracer) as cluster:
            receipt = cluster.client().submit(grid)
            results = cluster.client().run(grid, poll=0.05, timeout=120)
        assert receipt["replayed"] == len(grid) - 1
        assert _counters(results) == _counters(serial)
        assert _recorded(tracer) == {keys[1]: 1}
        assert sorted(_stored_keys(store)) == sorted(keys)


# -- end-to-end sweeps with injected faults --------------------------------


class TestClusterSweeps:
    def test_cluster_backend_bit_identical_to_serial(self):
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        clustered = run_jobs(grid, jobs=2, backend="cluster")
        assert _counters(clustered) == _counters(serial)
        assert [r.cycles for r in clustered] == [r.cycles for r in serial]

    def test_worker_killed_mid_sweep(self, tmp_path):
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        store = tmp_path / "store"
        tracer = SchedulerTracer()
        config = SchedulerConfig(store_dir=store, **_FAST)
        # Worker 1's frames are slowed so it cannot drain the grid before
        # worker 0 has started and taken (and died on) its first lease.
        with LocalCluster(
            config,
            workers=2,
            worker_faults={0: FaultPlan(kill_on_lease=1),
                           1: FaultPlan(delay_frame_s=0.2)},
            tracer=tracer,
        ) as cluster:
            results = cluster.client().run(grid, poll=0.05, timeout=120)
        assert _counters(results) == _counters(serial)
        # The kill was detected and the orphaned job requeued.
        assert {"worker-dead", "job-requeued"} & tracer.kinds()
        keys = sorted(job_key(j) for j in grid)
        assert sorted(_recorded(tracer).elements()) == keys
        assert sorted(_stored_keys(store)) == keys

    def test_scheduler_restart_resumes_without_recompute(self, tmp_path):
        """The acceptance scenario: kill the scheduler mid-sweep, restart
        it over the same result store, and finish — bit-identical to
        serial, with every pre-restart point replayed from disk, not
        re-run."""
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        store = tmp_path / "store"
        tracer = SchedulerTracer()  # shared: counts span the restart
        first = ClusterScheduler(SchedulerConfig(store_dir=store, **_FAST),
                                 tracer=tracer)
        address = first.start()
        workers = [spawn_worker(address, reconnect_deadline=60.0)
                   for _ in range(2)]
        client = ClusterClient(address)
        try:
            client.submit(grid)
            deadline = time.monotonic() + 60.0
            while not _stored_keys(store):
                assert time.monotonic() < deadline, "no progress before kill"
                time.sleep(0.05)
            first.stop()  # forced restart: drop all in-memory state
            pre_restart = set(_stored_keys(store))

            second = ClusterScheduler(
                SchedulerConfig(port=address[1], store_dir=store, **_FAST),
                tracer=tracer,
            )
            second.start()
            try:
                receipt = client.submit(grid)
                # Every point completed before the restart was replayed
                # from the store — zero of them recomputed.
                assert receipt["replayed"] >= len(pre_restart)
                results = client.run(grid, poll=0.05, timeout=120)
            finally:
                second.drain()
                for process in workers:
                    process.wait(timeout=30)
                second.stop()
        finally:
            for process in workers:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        assert _counters(results) == _counters(serial)
        # Each key recorded exactly once across both schedulers:
        # completions were never redone and duplicates never re-stored.
        keys = sorted(job_key(j) for j in grid)
        assert sorted(_recorded(tracer).elements()) == keys
        assert sorted(_stored_keys(store)) == keys
        assert pre_restart <= set(keys)

    def test_injected_lease_failures_are_retried(self):
        grid = _grid()[:2]
        serial = run_jobs(grid, jobs=1)
        config = SchedulerConfig(faults=FaultPlan(fail_leases=3), **_FAST)
        tracer = SchedulerTracer()
        with LocalCluster(config, workers=1, tracer=tracer) as cluster:
            status = cluster.client().status()
            assert status["type"] == "status"
            results = cluster.client().run(grid, poll=0.05, timeout=120)
        assert _counters(results) == _counters(serial)
        assert "lease-fault-injected" in tracer.kinds()

    def test_corrupt_result_frame_resent_clean(self):
        grid = _grid()[:2]
        serial = run_jobs(grid, jobs=1)
        tracer = SchedulerTracer()
        config = SchedulerConfig(**_FAST)
        with LocalCluster(
            config,
            workers=1,
            worker_faults={0: FaultPlan(corrupt_result=1)},
            tracer=tracer,
        ) as cluster:
            results = cluster.client().run(grid, poll=0.05, timeout=120)
        assert _counters(results) == _counters(serial)
        assert "protocol-error" in tracer.kinds()

    def test_silent_worker_presumed_dead_sweep_still_exact(self):
        # The worker keeps computing but stops heartbeating after its
        # first beat: the scheduler must declare it dead and requeue;
        # its late results are adopted/deduped — never double-counted.
        # The jobs are sized to outlast the (shrunken) heartbeat timeout,
        # since any request a worker makes also proves it alive.
        grid = [
            SimJob("compress", _CONFIG, GREAT_MODEL, 30000),
            SimJob("perl", _CONFIG, GREAT_MODEL, 30000),
        ]
        serial = run_jobs(grid, jobs=1)
        tracer = SchedulerTracer()
        config = SchedulerConfig(**dict(_FAST, heartbeat_timeout=0.2))
        with LocalCluster(
            config,
            workers=1,
            worker_faults={0: FaultPlan(drop_heartbeats_after=1)},
            tracer=tracer,
        ) as cluster:
            results = cluster.client().run(grid, poll=0.05, timeout=120)
        assert _counters(results) == _counters(serial)
        assert "worker-dead" in tracer.kinds()

    def test_attempt_budget_exhaustion_fails_the_sweep(self):
        grid = [
            SimJob("no-such-kernel", _CONFIG, None, _LIMIT),
            SimJob("compress", _CONFIG, None, _LIMIT),
        ]
        config = SchedulerConfig(max_attempts=2, **_FAST)
        with LocalCluster(config, workers=1) as cluster:
            with pytest.raises(ClusterSweepError) as info:
                cluster.client().run(grid, poll=0.05, timeout=120)
        (failure,) = info.value.failures
        assert failure["key"] == job_key(grid[0])
        assert failure["attempts"] == 2
