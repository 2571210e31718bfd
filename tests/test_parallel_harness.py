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


@pytest.fixture()
def submissions(monkeypatch):
    """The jobs each process pool was handed, in submission order: one
    list per pool built (a broken pool is rebuilt for the requeue)."""
    import repro.harness.parallel as parallel

    pools: list[list[SimJob]] = []

    class RecordingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append([])

        def submit(self, fn, /, *args, **kwargs):
            pools[-1].append(args[0])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    return pools


def _indices(grid: list[SimJob], submitted: list[SimJob]) -> list[int]:
    return [next(k for k, job in enumerate(grid) if job is s) for s in submitted]


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

    def test_env_var_selects_service(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "service")
        assert resolve_backend() == "service"
        assert resolve_backend("local") == "local"  # argument wins

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend("bogus")
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "cluster")
        with pytest.raises(ValueError, match="expected one of: local, service"):
            resolve_backend()


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

    def test_requeue_keeps_longest_first_order(self, tmp_path, submissions):
        flag = tmp_path / "died-once"
        grid = [
            SimJob("perl", _CONFIG, GREAT_MODEL, 400),
            SimJob(
                "compress",
                _CONFIG,
                GREAT_MODEL,
                _LIMIT,
                confidence=partial(_kamikaze_confidence, str(flag)),
            ),
            # Whole-program perl keeps the other worker busy past the
            # SIGKILL, so the requeue holds more than one unit.
            SimJob("perl", _CONFIG, GREAT_MODEL, None),
            SimJob("compress", _CONFIG, GREAT_MODEL, 400),
        ]
        fanned = run_jobs(grid, jobs=2)
        assert flag.exists()
        longest_first = [2, 1, 0, 3]  # 400-instruction ties in plan order
        first, requeue = (_indices(grid, pool) for pool in submissions)
        assert first == longest_first
        assert 1 in requeue and len(requeue) >= 2
        assert requeue == [k for k in longest_first if k in requeue]
        inline = run_jobs(grid, jobs=1)
        assert [r.counters for r in fanned] == [r.counters for r in inline]

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


def _raising_confidence():
    raise RuntimeError("injected job failure")


class TestStagingCleanup:
    """With the disk cache off, the pool stages into a per-run temp
    directory; no exit path may leave it behind."""

    @pytest.fixture()
    def temp_root(self, monkeypatch, tmp_path):
        import tempfile

        import repro.harness.parallel as parallel

        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
        return tmp_path

    def test_no_leaked_staging_dir_on_staging_failure(
        self, monkeypatch, temp_root
    ):
        from repro.trace import cache as trace_cache

        real_cached_trace = trace_cache.cached_trace
        calls = {"n": 0}

        def failing_cached_trace(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected staging failure")
            return real_cached_trace(*args, **kwargs)

        monkeypatch.setattr(trace_cache, "cached_trace", failing_cached_trace)
        grid = [
            SimJob("compress", _CONFIG, None, _LIMIT),
            SimJob("perl", _CONFIG, None, _LIMIT),
        ]
        with pytest.raises(RuntimeError, match="injected staging failure"):
            run_jobs(grid, jobs=2)
        # The first benchmark's entry existed when the second failed;
        # the error path must have removed the whole directory.
        assert calls["n"] == 2
        assert not list(temp_root.glob("repro-traces-*"))

    def test_no_leaked_staging_dir_when_a_job_raises(self, temp_root):
        grid = [
            SimJob("compress", _CONFIG, None, _LIMIT),
            SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT,
                   confidence=_raising_confidence),
        ]
        with pytest.raises(RuntimeError, match="injected job failure"):
            run_jobs(grid, jobs=2)
        assert not list(temp_root.glob("repro-traces-*"))

    def test_unwritable_cache_falls_back_to_temp_dir(
        self, monkeypatch, temp_root
    ):
        """A cache path that is a regular file cannot hold entries: the
        pool stages into a temp directory instead, and strict workers
        still never capture."""
        import repro.harness.parallel as parallel

        blocker = temp_root / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(blocker))
        grid = _tiny_grid()
        serial = run_jobs(grid, jobs=1)
        monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
        monkeypatch.setenv("REPRO_TRACE_STRICT", "1")
        fanned = run_jobs(grid, jobs=2)
        assert [r.counters for r in fanned] == [r.counters for r in serial]
        assert not list(temp_root.glob("repro-traces-*"))


class TestCorruptStagedEntry:
    """A pool worker opens its staged entry CRC-checked, so a corrupt
    entry is a miss — exactly as on the inline path — never an error in
    the middle of a simulation."""

    _GRID = [
        SimJob("compress", _CONFIG, None, 500),
        SimJob("compress", _CONFIG, GREAT_MODEL, 500),
    ]

    @pytest.fixture()
    def entry(self, monkeypatch, tmp_path):
        import repro.harness.parallel as parallel
        from repro.trace import cache as trace_cache

        monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
        monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
        trace_cache.cached_trace("compress", 500)
        (path,) = tmp_path.glob("*.vsrt5")
        return path

    @staticmethod
    def _corrupt_block(path):
        """Flip one byte of the ``next_pc`` column, mid-trace."""
        from repro.trace.binary import HEADER_SIZE, block_layout

        offsets, _size = block_layout(500)
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + offsets["next_pc"] + 8 * 250] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_pool_recaptures_like_serial(self, monkeypatch, entry):
        import repro.harness.parallel as parallel
        from repro.trace.binary import open_trace

        self._corrupt_block(entry)
        serial = run_jobs(self._GRID, jobs=1)
        self._corrupt_block(entry)
        monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
        fanned = run_jobs(self._GRID, jobs=2)
        assert [r.counters for r in fanned] == [r.counters for r in serial]
        assert len(open_trace(entry)) == 500  # a valid entry is left

    def test_strict_pool_refuses_before_simulating(self, monkeypatch, entry):
        self._corrupt_block(entry)
        monkeypatch.setenv("REPRO_TRACE_STRICT", "1")
        with pytest.raises(RuntimeError, match="REPRO_TRACE_STRICT"):
            run_jobs(self._GRID, jobs=2)


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


class TestLongestFirstDispatch:
    """The pool hands units out largest staged trace first, so a long
    whole-program point starts at once instead of ending the grid; the
    order changes which worker runs what, never a result."""

    def test_ranks_by_staged_size_ties_in_plan_order(self, tmp_path):
        from repro.harness.parallel import _longest_first, _stage_traces
        from repro.programs.suite import kernel
        from repro.trace.cache import trace_path

        grid = [
            SimJob("compress", _CONFIG, None, 400),
            SimJob("perl", _CONFIG, None, _LIMIT),
            SimJob("compress", _CONFIG, GREAT_MODEL, _LIMIT),
            SimJob("perl", _CONFIG, GREAT_MODEL, 400),
            SimJob("compress", _CONFIG, None, _LIMIT),
        ]
        sizes = _stage_traces(grid, tmp_path)
        assert sizes == {
            (job.benchmark, job.max_instructions): trace_path(
                job.benchmark, kernel(job.benchmark).source,
                job.max_instructions, directory=tmp_path,
            ).stat().st_size
            for job in grid
        }
        assert sizes[("perl", _LIMIT)] > sizes[("perl", 400)]
        assert sizes[("perl", _LIMIT)] == sizes[("compress", _LIMIT)]
        assert _longest_first(grid, sizes) == [1, 2, 4, 0, 3]
        # No sizes at all (staging could not write): plan order.
        assert _longest_first(grid, {}) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("cache", ["on", "off"])
    def test_uneven_grid_matches_inline(self, monkeypatch, cache, submissions):
        import repro.harness.parallel as parallel

        if cache == "off":  # staged into a per-run temp directory
            monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        grid = [
            SimJob("perl", _CONFIG, None, _LIMIT),
            SimJob("compress", _CONFIG, None, None),
            SimJob("perl", _CONFIG, GREAT_MODEL, _LIMIT),
            SimJob("compress", _CONFIG, GREAT_MODEL, None),
        ]
        inline = run_jobs(grid, jobs=1)
        assert submissions == []  # the inline path builds no pool
        monkeypatch.setattr(parallel, "_TRACE_CACHE", {})
        monkeypatch.setenv("REPRO_TRACE_STRICT", "1")
        fanned = run_jobs(grid, jobs=2)
        assert [_indices(grid, pool) for pool in submissions] == [[1, 3, 0, 2]]
        assert [r.counters for r in fanned] == [r.counters for r in inline]
        assert [r.cycles for r in fanned] == [r.cycles for r in inline]
        assert inline[1].counters.retired > 10 * inline[0].counters.retired
