"""The parallel fan-out must never change a result.

Every test here pins the tentpole invariant of
:mod:`repro.harness.parallel`: a grid run with N worker processes is
bit-identical to the same grid run inline, because jobs are stateless
descriptions, factories build collaborators fresh per job, and merge is
by submission index.
"""

import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.core.model import GREAT_MODEL
from repro.engine.config import ProcessorConfig
from repro.harness.parallel import (
    SimJob,
    effective_jobs,
    resolve_backend,
    run_grid,
    run_jobs,
)

_CONFIG = ProcessorConfig(issue_width=4, window_size=24)
_LIMIT = 800


def _kamikaze_confidence(flag_path: str):
    """Confidence factory that SIGKILLs its worker the first time it is
    built (simulating an OOM-killed worker mid-job), then behaves
    normally — the flag file is the 'already died once' marker."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    from repro.vp.confidence import ResettingConfidenceEstimator

    return ResettingConfidenceEstimator()


def _always_kill_confidence():
    os.kill(os.getpid(), signal.SIGKILL)


def _tiny_grid() -> list[SimJob]:
    jobs = []
    for name in ("compress", "perl"):
        jobs.append(SimJob(name, _CONFIG, None, _LIMIT))
        jobs.append(SimJob(name, _CONFIG, GREAT_MODEL, _LIMIT))
    return jobs


class TestSimJob:
    def test_picklable(self):
        job = SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job

    def test_task_seed_content_derived_and_stable(self):
        a = SimJob("compress", _CONFIG, None, _LIMIT)
        b = SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)
        c = SimJob("perl", _CONFIG, None, _LIMIT)
        assert a.task_seed() == b.task_seed()  # same workload, same seed
        assert a.task_seed() != c.task_seed()
        assert SimJob("perl", _CONFIG, None, _LIMIT, seed=5).task_seed() == 5


class TestEffectiveJobs:
    def test_clamps_to_task_count(self):
        assert effective_jobs(8, 3) == 3
        assert effective_jobs(2, 3) == 2

    def test_zero_and_none_mean_all_cores(self):
        assert effective_jobs(0, 100) >= 1
        assert effective_jobs(None, 100) >= 1

    def test_empty_grid(self):
        assert effective_jobs(4, 0) == 1


class TestMergeExactness:
    def test_workers_match_inline(self):
        grid = _tiny_grid()
        inline = run_jobs(grid, jobs=1)
        fanned = run_jobs(grid, jobs=2)
        assert [r.counters for r in inline] == [r.counters for r in fanned]
        assert [r.cycles for r in inline] == [r.cycles for r in fanned]

    def test_results_positionally_aligned(self):
        grid = _tiny_grid()
        results = run_jobs(grid, jobs=2)
        # Baseline runs retire the same instruction count as the model
        # runs of the same benchmark: alignment is (base, model) pairs.
        for base, model in zip(results[::2], results[1::2]):
            assert base.counters.retired == model.counters.retired
            assert base.model_name is None  # baseline run
            assert model.model_name == "great"

    def test_run_grid_keys_in_input_order(self):
        names = ["perl", "compress"]
        results = run_grid(
            names, _CONFIG, None, max_instructions=_LIMIT, jobs=2
        )
        assert list(results) == names


class TestBackendResolution:
    def test_defaults_to_local(self):
        assert resolve_backend(None) == "local"
        assert resolve_backend("local") == "local"

    def test_env_var_selects_cluster(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "cluster")
        assert resolve_backend() == "cluster"
        assert resolve_backend("local") == "local"  # argument wins

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend("bogus")


class TestWorkerDeathRecovery:
    def test_pool_survives_worker_sigkill(self, tmp_path):
        flag = tmp_path / "died-once"
        grid = [
            SimJob(
                "compress",
                _CONFIG,
                GREAT_MODEL,
                _LIMIT,
                confidence=partial(_kamikaze_confidence, str(flag)),
            ),
            SimJob("perl", _CONFIG, GREAT_MODEL, _LIMIT),
        ]
        fanned = run_jobs(grid, jobs=2)
        assert flag.exists()  # the SIGKILL really happened
        # The flag now exists, so the inline reference run is benign and
        # must match the fanned run that survived a dead worker.
        inline = run_jobs(grid, jobs=1)
        assert [r.counters for r in fanned] == [r.counters for r in inline]
        assert [r.cycles for r in fanned] == [r.cycles for r in inline]

    def test_attempt_budget_bounds_retries(self):
        grid = [
            SimJob(
                "compress",
                _CONFIG,
                GREAT_MODEL,
                _LIMIT,
                confidence=_always_kill_confidence,
            ),
            SimJob("perl", _CONFIG, GREAT_MODEL, _LIMIT),
        ]
        with pytest.raises(BrokenProcessPool, match="lost its worker"):
            run_jobs(grid, jobs=2, max_attempts=2)


class TestStagingCleanup:
    def test_no_leaked_segments_on_staging_failure(self, monkeypatch):
        import multiprocessing.shared_memory as shm_module

        from repro.harness.parallel import _stage_traces
        from repro.trace import binary as trace_binary

        # Disable the disk cache so staging takes the shared-memory path.
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")

        created: list[str] = []
        real_shared_memory = shm_module.SharedMemory

        class RecordingSharedMemory(real_shared_memory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.name)

        monkeypatch.setattr(shm_module, "SharedMemory", RecordingSharedMemory)

        real_dumps = trace_binary.dumps_trace_chunked
        calls = {"n": 0}

        def failing_dumps(trace):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected staging failure")
            return real_dumps(trace)

        monkeypatch.setattr(trace_binary, "dumps_trace_chunked", failing_dumps)

        grid = [
            SimJob("compress", _CONFIG, None, _LIMIT),
            SimJob("perl", _CONFIG, None, _LIMIT),
        ]
        with pytest.raises(RuntimeError, match="injected staging failure"):
            _stage_traces(grid)
        # The first benchmark's segment existed when the second failed;
        # the error path must have released and unlinked it.
        assert len(created) == 1
        for name in created:
            with pytest.raises(FileNotFoundError):
                real_shared_memory(name=name)


class TestDuplicateJobDedup:
    """A grid repeating a point (ablation run sets share their baseline
    jobs) must execute each distinct key once — on every backend, store
    configured or not — with results scattered back in submission order.
    """

    def test_duplicates_execute_once_and_preserve_submission_order(
        self, monkeypatch
    ):
        import repro.harness.parallel as parallel

        base = SimJob("compress", _CONFIG, None, _LIMIT)
        vp = SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT)
        other = SimJob("perl", _CONFIG, None, _LIMIT)
        # The same base job appears three times, interleaved — the
        # shape an ablation run set flattens to.
        grid = [base, vp, base, other, base]

        executed: list[SimJob] = []
        real_execute = parallel._execute

        def counting_execute(job):
            executed.append(job)
            return real_execute(job)

        monkeypatch.setattr(parallel, "_execute", counting_execute)
        results = run_jobs(grid)

        assert [job.benchmark for job in executed] == [
            "compress", "compress", "perl"
        ]
        assert len(executed) == 3  # distinct keys, not submissions
        # Submission order preserved: every occurrence of a duplicated
        # job gets the shared result at its own position.
        assert len(results) == len(grid)
        assert results[0] == results[2] == results[4]
        assert results[1].model_name == "great"
        assert results[3].counters == real_execute(other).counters

    def test_deduped_results_match_undeduped_inline_run(self):
        vp = SimJob("perl", _CONFIG, GREAT_MODEL, _LIMIT)
        base = SimJob("perl", _CONFIG, None, _LIMIT)
        duplicated = run_jobs([vp, base, vp, vp])
        plain = run_jobs([vp, base])
        assert duplicated[0].counters == plain[0].counters
        assert duplicated[1].counters == plain[1].counters
        assert duplicated[2].counters == duplicated[0].counters
        assert duplicated[3].counters == duplicated[0].counters


class TestSweepEquality:
    def test_sweep_identical_across_worker_counts(self):
        from repro.harness.sweeps import invalidation_scheme_sweep

        kw = dict(max_instructions=_LIMIT, benchmarks=["perl"])
        assert invalidation_scheme_sweep(**kw, jobs=1) == (
            invalidation_scheme_sweep(**kw, jobs=3)
        )

    def test_stateful_factories_fresh_per_job(self):
        # The confidence sweep passes estimator *factories*; a leaked
        # shared estimator would make inline and fanned runs diverge.
        from repro.harness.sweeps import confidence_strength_sweep

        kw = dict(
            max_instructions=_LIMIT,
            benchmarks=["compress", "perl"],
            counter_bits=(2,),
        )
        assert confidence_strength_sweep(**kw, jobs=1) == (
            confidence_strength_sweep(**kw, jobs=2)
        )
