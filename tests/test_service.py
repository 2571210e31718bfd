"""The always-on simulation service: result store, admission queue,
HTTP front door, and the run_jobs integration.

The store tests mirror tests/test_trace_cache.py's discipline — every
degraded-entry path (version mismatch, corruption, wrong key,
concurrent writers) must read as a *miss*, never an error and never a
wrong result — and the golden-point test pins the store's headline
guarantee: a store-served result is bit-identical to a freshly
computed one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.cluster.serial import job_key, job_to_blob
from repro.core.model import GREAT_MODEL
from repro.engine.config import ProcessorConfig, paper_config
from repro.harness.parallel import SimJob, run_jobs
from repro.service import results as rs
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import (
    Backpressure,
    ServiceConfig,
    SimulationService,
)

_CONFIG = paper_config("4/24")
_LIMIT = 300


def _job(benchmark: str = "compress", **overrides) -> SimJob:
    settings = dict(
        benchmark=benchmark, config=_CONFIG, model=GREAT_MODEL,
        max_instructions=_LIMIT, confidence="R", update_timing="D",
    )
    settings.update(overrides)
    return SimJob(**settings)


@pytest.fixture(scope="module")
def computed():
    """One job and its freshly computed result, shared by store tests."""
    job = _job()
    return job, run_jobs([job])[0]


# -- the result store ------------------------------------------------------


class TestResultStore:
    def test_roundtrip_hit(self, computed, tmp_path):
        job, result = computed
        key = job_key(job)
        path = rs.store_result(key, result, tmp_path)
        assert path is not None and path.is_file()
        assert path.name == key + ".vsres1"
        loaded = rs.load_result(key, tmp_path)
        assert loaded == result
        assert loaded.counters == result.counters

    def test_absent_key_is_miss(self, tmp_path):
        assert rs.load_wire("0" * 24, tmp_path) is None
        assert rs.load_result("0" * 24, tmp_path) is None

    def test_disabled_paths_are_none(self, monkeypatch):
        monkeypatch.delenv(rs.ENV_VAR, raising=False)
        assert rs.store_dir() is None
        assert rs.result_path("ab" * 12) is None
        assert rs.store_result("ab" * 12, {"cycles": 1}) is None
        assert rs.load_wire("ab" * 12) is None

    def test_no_directory_is_store_off_whatever_the_environment_says(
        self, computed, monkeypatch, tmp_path
    ):
        """Only ``store_dir`` reads ``REPRO_RESULT_STORE``: a ``None``
        directory neither writes, reads, lists, evicts nor clears the
        environment's store."""
        job, result = computed
        key = job_key(job)
        env_store = tmp_path / "env"
        monkeypatch.setenv(rs.ENV_VAR, str(env_store))
        assert rs.store_result(key, result, None) is None
        assert not env_store.exists()
        rs.store_result(key, result, env_store)
        assert rs.result_path(key, None) is None
        assert rs.load_wire(key, None) is None
        assert rs.load_result(key, None) is None
        assert rs.store_entries(None) == []
        assert rs.evict_store(None, max_entries=0) == 0
        assert rs.clear_store(None) == 0
        assert rs.store_entries(env_store) == [rs.result_path(key, env_store)]

    @pytest.mark.parametrize(
        "spelling", ["", "0", "off", "none", "disabled", "false", "no",
                     " OFF ", "None"]
    )
    def test_falsy_spellings_disable_even_with_default(
        self, monkeypatch, tmp_path, spelling
    ):
        monkeypatch.setenv(rs.ENV_VAR, spelling)
        assert rs.store_dir() is None
        assert rs.store_dir(default=tmp_path) is None

    def test_env_path_relocates(self, monkeypatch, tmp_path):
        monkeypatch.setenv(rs.ENV_VAR, str(tmp_path / "elsewhere"))
        assert rs.store_dir() == tmp_path / "elsewhere"
        assert rs.store_dir(default=tmp_path / "ignored") == (
            tmp_path / "elsewhere"
        )

    def test_version_mismatch_is_miss_and_deleted(self, computed, tmp_path):
        job, result = computed
        key = job_key(job)
        path = rs.store_result(key, result, tmp_path)
        doc = json.loads(path.read_text())
        doc["v"] = rs._VERSION + 1
        doc["crc"] = rs._entry_crc(doc)  # CRC valid — version alone rejects
        path.write_text(json.dumps(doc))
        assert rs.load_wire(key, tmp_path) is None
        assert not path.exists()

    def test_entry_from_a_newer_version_is_miss_and_kept(
        self, computed, monkeypatch, tmp_path
    ):
        """A CRC-valid entry whose counters carry a field this version
        lacks reads as a miss, is left for the version that wrote it,
        and makes run_jobs recompute the point."""
        job, result = computed
        key = job_key(job)
        path = rs.store_result(key, result, tmp_path)
        doc = json.loads(path.read_text())
        doc["result"]["counters"]["stall_future_counter"] = 7
        doc["crc"] = rs._entry_crc(doc)
        path.write_text(json.dumps(doc))
        assert rs.load_wire(key, tmp_path) is None
        assert rs.load_result(key, tmp_path) is None
        assert path.exists()

        import repro.harness.parallel as parallel

        executed: list = []
        real = parallel._run_jobs_backend

        def counting(job_list, *args, **kwargs):
            executed.extend(job_list)
            return real(job_list, *args, **kwargs)

        monkeypatch.setattr(parallel, "_run_jobs_backend", counting)
        monkeypatch.setenv(rs.ENV_VAR, str(tmp_path))
        assert run_jobs([job]) == [result]
        assert executed == [job]

    def test_crc_mismatch_is_miss_and_deleted(self, computed, tmp_path):
        job, result = computed
        key = job_key(job)
        path = rs.store_result(key, result, tmp_path)
        doc = json.loads(path.read_text())
        counters = doc["result"]["counters"]
        counters["cycles"] = counters["cycles"] + 1  # bit flip
        path.write_text(json.dumps(doc))  # stale crc
        assert rs.load_wire(key, tmp_path) is None
        assert not path.exists()

    def test_truncated_entry_is_miss_and_deleted(self, computed, tmp_path):
        job, result = computed
        key = job_key(job)
        path = rs.store_result(key, result, tmp_path)
        path.write_bytes(path.read_bytes()[: 40])  # torn write
        assert rs.load_wire(key, tmp_path) is None
        assert not path.exists()

    def test_wrong_key_in_entry_is_miss(self, computed, tmp_path):
        """An entry renamed (or hard-linked) to another key must not be
        served under it — the recorded key is part of the integrity
        check."""
        job, result = computed
        key = job_key(job)
        path = rs.store_result(key, result, tmp_path)
        other = "f" * len(key)
        path.rename(tmp_path / (other + ".vsres1"))
        assert rs.load_wire(other, tmp_path) is None

    def test_concurrent_writers_leave_a_valid_entry(self, computed, tmp_path):
        job, result = computed
        key = job_key(job)
        barrier = threading.Barrier(8)

        def write():
            barrier.wait()
            for _ in range(5):
                rs.store_result(key, result, tmp_path)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert rs.load_result(key, tmp_path) == result
        assert len(rs.store_entries(tmp_path)) == 1
        assert not list(tmp_path.glob("*.tmp"))  # no temp-file litter

    def test_eviction_is_oldest_first_and_bounded(self, computed, tmp_path):
        job, result = computed
        keys = [f"{i:024d}" for i in range(5)]
        for i, key in enumerate(keys):
            path = rs.store_result(key, result, tmp_path)
            stamp = 1_000_000 + i
            import os as _os

            _os.utime(path, (stamp, stamp))
        assert rs.evict_store(tmp_path) == 0  # no budget, no eviction
        assert rs.evict_store(tmp_path, max_entries=3) == 2
        survivors = {p.stem for p in rs.store_entries(tmp_path)}
        assert survivors == set(keys[2:])  # the two oldest evicted
        # Entry sizes differ by a byte or so (the CRC is written as a
        # decimal int), so budget exactly the newest entry's size.
        newest = rs.result_path(keys[4], tmp_path).stat().st_size
        assert rs.evict_store(tmp_path, max_bytes=newest) == 2
        assert {p.stem for p in rs.store_entries(tmp_path)} == {keys[4]}

    def test_info_and_clear(self, computed, tmp_path):
        job, result = computed
        assert rs.store_info(None) == {
            "enabled": False, "dir": None, "entries": 0, "bytes": 0,
        }
        rs.store_result(job_key(job), result, tmp_path)
        info = rs.store_info(tmp_path)
        assert info["enabled"] and info["entries"] == 1 and info["bytes"] > 0
        assert rs.clear_store(tmp_path) == 1
        assert rs.store_entries(tmp_path) == []

    def test_write_is_fsynced_around_the_rename(self, computed, tmp_path,
                                                monkeypatch):
        import os
        import stat

        job, result = computed
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(rs.os, "fsync", fsync)
        monkeypatch.setattr(rs.os, "replace", replace)
        key = job_key(job)
        rs.store_result(key, result, tmp_path)
        # The entry's bytes are durable before it becomes visible, and
        # its directory entry is durable before the call returns.
        assert calls == [("fsync", False), ("replace", key + ".vsres1"),
                         ("fsync", True)]

    def test_clear_removes_crash_leftovers(self, computed, tmp_path):
        # A writer killed between its temp-file write and the rename
        # leaves a dot-prefixed temp file: a miss to readers, and gone
        # after a clear.
        job, result = computed
        key = job_key(job)
        rs.store_result(key, result, tmp_path)
        leftover = tmp_path / f".{key}.vsres1.4242.17.tmp"
        leftover.write_bytes(b'{"v":1,"key"')
        unrelated = tmp_path / "notes.txt"
        unrelated.write_text("kept")
        assert len(rs.store_entries(tmp_path)) == 1
        assert rs.clear_store(tmp_path) == 2
        assert not leftover.exists()
        assert unrelated.exists()
        assert rs.load_wire(key, tmp_path) is None

    @pytest.mark.parametrize(
        "spelling", ["off", "none", "0", "false", "no", "disabled", ""]
    )
    def test_disabled_spellings_turn_the_store_off(
        self, spelling, tmp_path, monkeypatch
    ):
        from repro.cli import _store_option, build_parser

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_RESULT_STORE", spelling)
        assert rs.store_dir() is None
        assert rs.resolve_store() is None
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env"))
        assert rs.resolve_store(spelling.upper()) is None
        assert SimulationService(ServiceConfig(store=spelling)).store_dir is None
        args = build_parser().parse_args(["serve", "--store", spelling])
        assert _store_option(args) is None
        assert list(tmp_path.iterdir()) == []

    def test_store_option_default_and_path(self, tmp_path, monkeypatch):
        from repro.cli import _store_option, build_parser

        parser = build_parser()
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env"))
        assert _store_option(parser.parse_args(["serve"])) == tmp_path / "env"
        args = parser.parse_args(["serve", "--store", str(tmp_path / "s")])
        assert _store_option(args) == tmp_path / "s"
        monkeypatch.delenv("REPRO_RESULT_STORE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert rs.resolve_store() == tmp_path / "xdg" / "repro" / "results"


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SNAPSHOTS = sorted(GOLDEN_DIR.glob("*.json"))


@pytest.mark.parametrize(
    "path", GOLDEN_SNAPSHOTS, ids=[p.stem for p in GOLDEN_SNAPSHOTS]
)
def test_store_roundtrip_is_bit_identical_on_golden_points(path, tmp_path):
    """Every golden point's result survives the store bit-for-bit: the
    serialized entry rebuilds to a SimulationResult whose counters equal
    both the fresh run's and the committed snapshot's."""
    from tests.test_golden_counters import _load_trace, counters_dict
    from repro.engine.sim import run_trace

    snapshot = json.loads(path.read_text())
    trace = _load_trace(snapshot["workload"])
    config = ProcessorConfig(
        issue_width=snapshot["config"]["issue_width"],
        window_size=snapshot["config"]["window_size"],
    )
    fresh = run_trace(trace, config, GREAT_MODEL, confidence="R",
                      update_timing="D")
    key = f"{path.stem:>024.24}".replace(" ", "0")
    rs.store_result(key, fresh, tmp_path)
    served = rs.load_result(key, tmp_path)
    assert served == fresh
    assert counters_dict(served.counters) == counters_dict(fresh.counters)
    assert counters_dict(served.counters) == snapshot["vp"]


# -- run_jobs integration --------------------------------------------------


class TestRunJobsStore:
    def test_warm_jobs_skip_execution(self, monkeypatch, tmp_path):
        monkeypatch.setenv(rs.ENV_VAR, str(tmp_path))
        grid = [_job(), _job(update_timing="I"), _job(model=None)]
        first = run_jobs(grid)
        assert len(rs.store_entries(tmp_path)) == len(grid)

        import repro.harness.parallel as parallel

        def refuse(*args, **kwargs):
            raise AssertionError("warm grid reached the execution backend")

        monkeypatch.setattr(parallel, "_run_jobs_backend", refuse)
        assert run_jobs(grid) == first

    def test_duplicate_keys_execute_once(self, monkeypatch, tmp_path):
        monkeypatch.setenv(rs.ENV_VAR, str(tmp_path))
        import repro.harness.parallel as parallel

        executed: list = []
        real = parallel._run_jobs_backend

        def counting(job_list, *args, **kwargs):
            executed.extend(job_list)
            return real(job_list, *args, **kwargs)

        monkeypatch.setattr(parallel, "_run_jobs_backend", counting)
        grid = [_job(), _job(), _job(update_timing="I")]
        results = run_jobs(grid)
        assert len(executed) == 2  # two distinct keys for three jobs
        assert results[0] == results[1]
        assert results[0].counters != results[2].counters

    def test_cold_and_warm_results_identical(self, monkeypatch, tmp_path):
        grid = [_job(), _job(update_timing="I")]
        reference = run_jobs(grid)  # store off (conftest)
        monkeypatch.setenv(rs.ENV_VAR, str(tmp_path))
        assert run_jobs(grid) == reference  # cold: computes + stores
        assert run_jobs(grid) == reference  # warm: served from disk

    def test_unset_env_disables_for_harness(self, monkeypatch):
        monkeypatch.delenv(rs.ENV_VAR, raising=False)
        assert rs.store_dir() is None


# -- the HTTP service ------------------------------------------------------


def _post(client: ServiceClient, path: str, body: dict):
    return client._request("POST", path, body)


class TestServiceHTTP:
    def test_status_schema_matches_cluster_jobs_block(self, tmp_path):
        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            client = ServiceClient(*service.address)
            assert client.healthy()
            status = client.status()
        assert status["type"] == "status"
        # the jobs count schema, exactly
        assert set(status["jobs"]) == {"pending", "leased", "done", "failed"}
        assert "workers" not in status  # serial: no worker plane
        assert set(status["backend"]) == {"backend", "jobs"}
        assert status["store"]["enabled"] is True
        assert status["queue"] == {"depth": 0, "max": 256}

    def test_submit_verifies_client_claimed_keys(self, tmp_path):
        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            client = ServiceClient(*service.address)
            job = _job()
            code, _, doc = _post(
                client, "/v1/submit",
                {"jobs": [{"key": "0" * 24, "blob": job_to_blob(job)}]},
            )
            assert code == 400
            assert "mismatch" in doc["error"]
            # nothing was admitted
            assert service.status()["jobs"]["pending"] == 0

    def test_submit_rejects_undecodable_blob(self, tmp_path):
        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            client = ServiceClient(*service.address)
            code, _, doc = _post(
                client, "/v1/submit",
                {"jobs": [{"key": "0" * 24, "blob": "!!not-base64!!"}]},
            )
            assert code == 400 and "undecodable" in doc["error"]

    @pytest.mark.parametrize("timeout", ["abc", -1, [5], "nan", "inf"])
    def test_run_rejects_a_bad_timeout_before_admitting(self, tmp_path,
                                                        timeout):
        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            client = ServiceClient(*service.address)
            job = _job()
            code, _, doc = _post(
                client, "/v1/run",
                {"jobs": [{"key": job_key(job), "blob": job_to_blob(job)}],
                 "timeout": timeout},
            )
            assert code == 400 and "timeout" in doc["error"]
            # nothing was admitted
            assert service.status()["stats"]["submitted"] == 0

    def test_unknown_endpoint_and_result_states(self, tmp_path):
        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            client = ServiceClient(*service.address)
            code, _, _ = client._request("GET", "/v1/nope")
            assert code == 404
            code, _, doc = client._request("GET", "/v1/result/" + "0" * 24)
            assert code == 404 and doc["state"] == "unknown"
            key = client.submit([_job()])[0]
            assert service.wait([key], timeout=30.0)
            code, _, doc = client._request("GET", f"/v1/result/{key}")
            assert code == 200 and doc["state"] == "done"
            assert doc["source"] == "computed"

    def test_store_entry_from_a_newer_version_is_recomputed(
        self, computed, tmp_path
    ):
        """A CRC-valid stored entry whose counters carry a field this
        version lacks is a miss for the service too: the job runs and
        the client gets a fresh result instead of a document it cannot
        rebuild."""
        job, result = computed
        store = tmp_path / "s"
        path = rs.store_result(job_key(job), result, store)
        doc = json.loads(path.read_text())
        doc["result"]["counters"]["stall_future_counter"] = 7
        doc["crc"] = rs._entry_crc(doc)
        path.write_text(json.dumps(doc))
        with SimulationService(ServiceConfig(store=store)) as service:
            [served] = ServiceClient(*service.address).run([job])
            stats = service.status()["stats"]
        assert served.counters == result.counters
        assert stats["executed"] == 1 and stats["warm_hits"] == 0

    @pytest.mark.parametrize("own_store", [False, True])
    def test_results_are_stored_only_in_the_service_store(
        self, own_store, monkeypatch, tmp_path
    ):
        """The service stores each result once, in its own store: with
        ``REPRO_RESULT_STORE`` set, the environment's directory stays
        empty whether the service's store is off or elsewhere."""
        env_store = tmp_path / "env-store"
        monkeypatch.setenv(rs.ENV_VAR, str(env_store))
        own = tmp_path / "s" if own_store else None
        jobs = [_job(), _job("perl")]
        with SimulationService(ServiceConfig(store=own)) as service:
            ServiceClient(*service.address).run(jobs)
        assert not env_store.exists() or not list(env_store.iterdir())
        if own_store:
            assert sorted(path.stem for path in rs.store_entries(own)) == (
                sorted(job_key(job) for job in jobs)
            )

    def test_results_outlive_the_eviction_of_their_store_entries(
        self, tmp_path
    ):
        """An entry budget smaller than the sweep evicts a key's file
        before its client fetches it; the key is still served, because
        every done entry keeps its result in memory."""
        jobs = [_job(name) for name in ("compress", "perl", "go")]
        expected = run_jobs(jobs)
        config = ServiceConfig(store=tmp_path / "s", store_max_entries=1)
        with SimulationService(config) as service:
            served = ServiceClient(*service.address).run(jobs)
        assert [r.counters for r in served] == [r.counters for r in expected]

    def test_inflight_dedup_executes_once(self, tmp_path, monkeypatch):
        """Two clients submitting the same job while it is queued share
        one execution: the second joins, nothing runs twice."""
        from repro.service import server as server_module

        gate = threading.Event()
        calls: list = []
        real = server_module.parallel._run_jobs_backend

        def gated(job_list, **kwargs):
            gate.wait(timeout=30.0)
            calls.append(list(job_list))
            return real(job_list, **kwargs)

        monkeypatch.setattr(server_module.parallel, "_run_jobs_backend", gated)
        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            job = _job()
            first = ServiceClient(*service.address, client_id="one")
            second = ServiceClient(*service.address, client_id="two")
            keys = first.submit([job])
            receipt_code, _, doc = _post(
                second, "/v1/submit",
                {"jobs": [{"key": keys[0], "blob": job_to_blob(job)}],
                 "client": "two"},
            )
            assert receipt_code == 202
            assert doc["dispositions"] == ["joined"]
            gate.set()
            assert service.wait(keys, timeout=30.0)
            assert first.fetch(keys)["type"] == "results"
            stats = service.stats.as_dict()
        assert sum(len(c) for c in calls) == 1
        assert stats["executed"] == 1 and stats["joined"] == 1

    def test_backpressure_429_with_retry_after(self, tmp_path, monkeypatch):
        from repro.service import server as server_module

        gate = threading.Event()
        real = server_module.parallel._run_jobs_backend

        def gated(job_list, **kwargs):
            gate.wait(timeout=30.0)
            return real(job_list, **kwargs)

        monkeypatch.setattr(server_module.parallel, "_run_jobs_backend", gated)
        config = ServiceConfig(store=tmp_path / "s", max_queue=1)
        with SimulationService(config) as service:
            client = ServiceClient(*service.address)
            blocked = _job()
            client.submit([blocked])  # dispatcher takes it, blocks on gate
            queued = _job(update_timing="I")
            deadline = time.monotonic() + 5.0
            while True:  # the dispatcher must drain the first job first
                code, headers, doc = _post(
                    client, "/v1/submit",
                    {"jobs": [{"key": job_key(queued),
                               "blob": job_to_blob(queued)}]},
                )
                if code == 202 or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            assert code == 202
            overflow = _job(confidence="O")
            code, headers, doc = _post(
                client, "/v1/submit",
                {"jobs": [{"key": job_key(overflow),
                           "blob": job_to_blob(overflow)}]},
            )
            assert code == 429
            retry_after = {k.lower(): v for k, v in headers.items()}[
                "retry-after"
            ]
            assert int(retry_after) >= 1
            assert doc["retry_after"] > 0
            gate.set()
            assert service.wait([job_key(blocked), job_key(queued)],
                                timeout=30.0)
            assert service.stats.as_dict()["rejected"] == 1

    def test_failed_jobs_report_and_requeue_on_resubmit(
        self, tmp_path, monkeypatch
    ):
        from repro.service import server as server_module

        real = server_module.parallel._run_jobs_backend
        fail_once = [True]

        def flaky(job_list, *args, **kwargs):
            if fail_once[0]:
                fail_once[0] = False
                raise RuntimeError("injected executor fault")
            return real(job_list, *args, **kwargs)

        monkeypatch.setattr(server_module.parallel, "_run_jobs_backend", flaky)
        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            client = ServiceClient(*service.address)
            job = _job()
            keys = client.submit([job])
            assert service.wait(keys, timeout=30.0)
            doc = client.fetch(keys)
            assert doc["type"] == "error"
            assert "injected executor fault" in doc["failures"][0]["error"]
            code, _, _ = client._request("GET", f"/v1/result/{keys[0]}")
            assert code == 500
            # resubmission replaces the failed entry with a fresh attempt
            results = client.run([job], timeout=30.0)
            assert results[0] == run_jobs([job])[0]
            assert service.stats.as_dict()["failed"] == 1


# -- admission: one bounded queue, drained in arrival order ----------------


def _doc(job: SimJob) -> dict:
    return {"key": job_key(job), "blob": job_to_blob(job)}


@pytest.mark.parametrize("setting", [
    {"max_queue": 0}, {"max_attempts": 0}, {"heartbeat_timeout": 0.0},
    {"lease_timeout": -1.0}, {"poll_interval": float("nan")},
    {"store_max_entries": -1},
])
def test_config_refuses_out_of_range_settings(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=name):
        ServiceConfig(**setting)


class TestAdmission:
    def test_submission_that_does_not_fit_is_refused_whole(self, tmp_path):
        pair = [_job(), _job("perl")]
        config = ServiceConfig(store=tmp_path / "s", max_queue=1)
        with SimulationService(config) as service:
            client = ServiceClient(*service.address)
            code, headers, doc = _post(client, "/v1/submit",
                                       {"jobs": [_doc(job) for job in pair]})
            assert code == 429 and doc["depth"] == 0
            assert int({k.lower(): v for k, v in headers.items()}
                       ["retry-after"]) >= 1
            assert [service.entry_state(job_key(job)) for job in pair] == [
                {"state": "unknown"}, {"state": "unknown"}]
            assert service.status()["jobs"]["pending"] == 0
            code, _, doc = _post(client, "/v1/submit",
                                 {"jobs": [_doc(pair[0])]})
            assert code == 202 and doc["dispositions"] == ["queued"]
            assert service.wait([job_key(pair[0])], timeout=30.0)
            assert service.stats.as_dict()["rejected"] == 1

    def test_serial_dispatcher_runs_keys_in_submission_order(
        self, tmp_path, monkeypatch
    ):
        from repro.service import server as server_module

        gate = threading.Event()
        order: list = []
        real = server_module.parallel._run_jobs_backend

        def gated(job_list, **kwargs):
            gate.wait(timeout=30.0)
            order.extend(job_key(job) for job in job_list)
            return real(job_list, **kwargs)

        monkeypatch.setattr(server_module.parallel, "_run_jobs_backend", gated)
        names = ("compress", "perl", "go", "m88ksim", "vortex")
        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            threads = list(service._threads)
            keys: list = []
            for number, name in enumerate(names):
                client = ServiceClient(*service.address,
                                       client_id=f"client-{number % 2}")
                keys += client.submit([_job(name)])
            gate.set()
            assert service.wait(keys, timeout=30.0)
        assert order == keys
        assert not any(thread.is_alive() for thread in threads)

    def test_leases_go_out_in_submission_order(self, tmp_path):
        first, second = [_job(), _job("perl")], [_job("go")]
        config = ServiceConfig(store=tmp_path / "s", backend="cluster")
        with SimulationService(config) as service:
            for client_id, jobs in (("one", first), ("two", second)):
                ServiceClient(*service.address,
                              client_id=client_id).submit(jobs)
            leased = [
                _post(ServiceClient(*service.address), "/v1/lease",
                      {"worker_id": f"w{number}"})[2]["key"]
                for number in range(3)
            ]
        assert leased == [job_key(job) for job in first + second]

    def test_stop_refuses_submissions_and_releases_waiters(self, tmp_path):
        config = ServiceConfig(store=tmp_path / "s", backend="cluster")
        service = SimulationService(config)
        service.start()
        threads = list(service._threads)
        keys = ServiceClient(*service.address).submit([_job()])
        settled: list = []
        waiter = threading.Thread(
            target=lambda: settled.append(service.wait(keys, timeout=30.0))
        )
        waiter.start()
        time.sleep(0.05)  # let the waiter park on the queued key
        service.stop()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive() and settled == [True]
        assert service.entry_state(keys[0]) == {"state": "failed",
                                                "error": "service stopped"}
        with pytest.raises(Backpressure):
            service.submit([_doc(_job("perl"))])
        assert not any(thread.is_alive() for thread in threads)

    def test_pool_with_jobs_0_runs_every_core_per_cycle(
        self, tmp_path, monkeypatch
    ):
        from repro.service import server as server_module

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        batches: list = []
        real = server_module.parallel._run_jobs_backend

        def recording(job_list, **kwargs):
            batches.append((len(job_list), kwargs["jobs"]))
            return real(job_list, jobs=1)

        monkeypatch.setattr(server_module.parallel, "_run_jobs_backend", recording)
        jobs = [_job(name) for name in ("compress", "perl", "go", "m88ksim")]
        config = ServiceConfig(store=tmp_path / "s", backend="pool", jobs=0)
        with SimulationService(config) as service:
            keys = ServiceClient(*service.address).submit(jobs)
            assert service.wait(keys, timeout=60.0)
            width = service.status()["backend"]["jobs"]
        assert batches == [(2, 2), (2, 2)] and width == 2


# -- the acceptance scenario -----------------------------------------------


def _figure3_grid(benchmarks=("compress", "perl"), limit=_LIMIT):
    from repro.harness.figure3 import SETTINGS

    grid = [SimJob(n, _CONFIG, None, limit) for n in benchmarks]
    for timing, conf in SETTINGS:
        grid.extend(
            SimJob(n, _CONFIG, GREAT_MODEL, limit,
                   confidence=conf, update_timing=timing)
            for n in benchmarks
        )
    return grid


class TestAcceptance:
    def test_concurrent_overlapping_clients_execute_each_point_once(
        self, tmp_path
    ):
        grid = _figure3_grid()
        reference = run_jobs(grid, jobs=1)
        third = len(grid) // 3
        slices = {"a": slice(0, 2 * third), "b": slice(third, len(grid))}
        outputs: dict = {}
        errors: dict = {}

        with SimulationService(ServiceConfig(store=tmp_path / "s")) as service:
            def drive(name: str) -> None:
                client = ServiceClient(*service.address, client_id=name)
                try:
                    outputs[name] = client.run(grid[slices[name]],
                                               timeout=120.0)
                except Exception as error:  # pragma: no cover - surfaced below
                    errors[name] = error

            threads = [threading.Thread(target=drive, args=(name,))
                       for name in slices]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats.as_dict()

        assert not errors
        # identical jobs executed exactly once, store holds each point
        assert stats["executed"] == len(grid)
        assert len(rs.store_entries(tmp_path / "s")) == len(grid)
        # both clients bit-identical to the scalar serial run
        for name, results in outputs.items():
            expected = reference[slices[name]]
            assert [r.counters for r in results] == [
                r.counters for r in expected
            ]

    def test_restart_serves_completed_prefix_with_zero_recompute(
        self, tmp_path
    ):
        grid = _figure3_grid()
        reference = run_jobs(grid, jobs=1)
        prefix = grid[: len(grid) // 2]
        store = tmp_path / "s"

        with SimulationService(ServiceConfig(store=store)) as service:
            client = ServiceClient(*service.address, client_id="pre")
            assert client.run(prefix, timeout=120.0) == reference[: len(prefix)]
        # the service died mid-burst; the completed prefix is on disk
        assert len(rs.store_entries(store)) == len(prefix)

        with SimulationService(ServiceConfig(store=store)) as revived:
            client = ServiceClient(*revived.address, client_id="post")
            doc = client.run_sync(grid, timeout=120.0)
            stats = revived.stats.as_dict()
        dispositions = doc["dispositions"]
        assert dispositions[: len(prefix)] == ["store"] * len(prefix)
        assert stats["executed"] == len(grid) - len(prefix)
        assert stats["warm_hits"] == len(prefix)
        from repro.cluster.serial import result_from_wire

        served = [result_from_wire(wire) for wire in doc["results"]]
        assert [r.counters for r in served] == [
            r.counters for r in reference
        ]
