"""The fault-tolerant cluster sweep service (repro.cluster).

Three layers of coverage:

* Edges of the building blocks — wire framing (truncated, oversized,
  corrupt frames), the crash-safe journal (torn tail, damaged middle,
  duplicate keys), job content hashing and result serialization.
* The scheduler's protocol behavior against a real socket: unknown
  message types, duplicate results (idempotent, journaled once).
* End-to-end sweeps through real worker subprocesses with injected
  faults — worker SIGKILL mid-sweep, a forced scheduler restart over
  the journal, lease failures, frame corruption, dropped heartbeats,
  attempt-budget exhaustion — every one asserting the repo's tentpole
  invariant: the merged results are bit-identical to ``jobs=1``.
"""

import socket
import struct
import time

import pytest

from repro.cluster import protocol
from repro.cluster.client import (
    ClusterClient,
    ClusterSweepError,
    LocalCluster,
    spawn_worker,
)
from repro.cluster.faults import FaultPlan
from repro.cluster.journal import SweepJournal
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
        # Through actual JSON text, like the wire and the journal.
        restored = result_from_wire(json.loads(json.dumps(result_to_wire(result))))
        assert restored.counters == result.counters
        assert restored.config == result.config
        assert restored.model_name == result.model_name
        assert restored.confidence_kind == result.confidence_kind
        assert restored.update_timing == result.update_timing
        assert restored.extra == result.extra

    def test_documents_with_engine_path_still_read(self, tmp_path):
        import json

        from repro.service import results as result_store

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


# -- the journal ------------------------------------------------------------


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.append("k1", {"cycles": 10}, attempt=1, worker="w1")
            journal.append("k2", {"cycles": 20}, attempt=2, worker="w2")
        replayed = SweepJournal(path).replay()
        assert set(replayed) == {"k1", "k2"}
        assert replayed["k1"]["result"] == {"cycles": 10}
        assert replayed["k2"]["attempt"] == 2

    def test_missing_file_is_empty_sweep(self, tmp_path):
        journal = SweepJournal(tmp_path / "absent.jsonl")
        assert journal.replay() == {}
        assert journal.records() == []

    def test_duplicate_keys_first_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.append("k1", {"cycles": 10})
            journal.append("k1", {"cycles": 10})
        replayed = SweepJournal(path).replay()
        assert list(replayed) == ["k1"]

    def test_torn_final_record_dropped_and_resumable(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.append("k1", {"cycles": 10})
            journal.append("k2", {"cycles": 20})
        # Crash mid-append: the last record loses its tail bytes.
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        resumed = SweepJournal(path)
        assert set(resumed.replay()) == {"k1"}
        assert resumed.discarded == 0  # torn tail is expected, not damage
        # Resuming the writer truncates the torn bytes before appending.
        resumed.append("k3", {"cycles": 30})
        resumed.close()
        assert set(SweepJournal(path).replay()) == {"k1", "k3"}

    def test_torn_record_without_newline_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.append("k1", {"cycles": 10})
        with open(path, "ab") as fh:
            fh.write(b'{"key": "k2", "unterminated')  # no newline
        assert set(SweepJournal(path).replay()) == {"k1"}

    def test_damaged_middle_stops_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with SweepJournal(path) as journal:
            journal.append("k1", {"cycles": 10})
            journal.append("k2", {"cycles": 20})
            journal.append("k3", {"cycles": 30})
        lines = path.read_bytes().split(b"\n")
        # Flip bytes inside the middle record: CRC no longer matches.
        lines[1] = lines[1][:12] + b"XX" + lines[1][14:]
        path.write_bytes(b"\n".join(lines))
        damaged = SweepJournal(path)
        assert set(damaged.replay()) == {"k1"}
        assert damaged.discarded == 1  # k3 was intact but after damage
        # The next writer truncates back to the last good record.
        damaged.append("k4", {"cycles": 40})
        damaged.close()
        assert set(SweepJournal(path).replay()) == {"k1", "k4"}


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
        journal_path = tmp_path / "journal.jsonl"
        config = SchedulerConfig(journal_path=journal_path, **_FAST)
        with ClusterScheduler(config) as scheduler:
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
        assert first["type"] == "ok" and "duplicate" not in first
        assert duplicate["type"] == "ok" and duplicate["duplicate"] is True
        assert [r["key"] for r in SweepJournal(journal_path).records()] == [key]


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
        journal_path = tmp_path / "journal.jsonl"
        tracer = SchedulerTracer()
        config = SchedulerConfig(journal_path=journal_path, **_FAST)
        with LocalCluster(
            config,
            workers=2,
            worker_faults={0: FaultPlan(kill_on_lease=1)},
            tracer=tracer,
        ) as cluster:
            results = cluster.client().run(grid, poll=0.05, timeout=120)
        assert _counters(results) == _counters(serial)
        # The kill was detected and the orphaned job requeued.
        assert {"worker-dead", "job-requeued"} & tracer.kinds()
        journaled = [r["key"] for r in SweepJournal(journal_path).records()]
        assert sorted(journaled) == sorted(job_key(j) for j in grid)

    def test_scheduler_restart_resumes_without_recompute(self, tmp_path):
        """The acceptance scenario: kill the scheduler mid-sweep, restart
        it over the same journal, and finish — bit-identical to serial,
        with every pre-restart point replayed from disk, not re-run."""
        grid = _grid()
        serial = run_jobs(grid, jobs=1)
        journal_path = tmp_path / "journal.jsonl"
        first = ClusterScheduler(SchedulerConfig(journal_path=journal_path,
                                                 **_FAST))
        address = first.start()
        workers = [spawn_worker(address, reconnect_deadline=60.0)
                   for _ in range(2)]
        client = ClusterClient(address)
        try:
            client.submit(grid)
            reader = SweepJournal(journal_path)
            deadline = time.monotonic() + 60.0
            while not reader.replay():
                assert time.monotonic() < deadline, "no progress before kill"
                time.sleep(0.05)
            first.stop()  # forced restart: drop all in-memory state
            pre_restart = set(reader.replay())

            second = ClusterScheduler(
                SchedulerConfig(port=address[1], journal_path=journal_path,
                                **_FAST)
            )
            second.start()
            try:
                receipt = client.submit(grid)
                # Every point completed before the restart was replayed
                # from the journal — zero of them recomputed.
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
        # Each key journaled exactly once: completions were never redone
        # and duplicates were never re-acknowledged into the journal.
        journaled = [r["key"] for r in SweepJournal(journal_path).records()]
        assert len(journaled) == len(set(journaled)) == len(grid)
        assert pre_restart <= set(journaled)

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
