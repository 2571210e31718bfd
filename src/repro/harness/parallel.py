"""Process-parallel fan-out for simulation grids.

Every sweep, figure and experiment in the harness reduces to a grid of
independent simulation points: one (benchmark, processor configuration,
speculation model, confidence, update timing, value predictor) tuple per
engine run.  The cycle-level engine is pure Python and single-threaded,
so the only way to use more than one core is process parallelism; this
module provides it without changing any result.

Design rules that keep ``--jobs N`` cycle-exact against ``--jobs 1``:

* A job is a *description*, not live state.  :class:`SimJob` carries the
  benchmark **name** (the worker rebuilds the trace, memoised per
  process), the frozen config/model dataclasses, and *factories* for the
  stateful collaborators (value predictor, confidence estimator).  A
  factory is constructed fresh inside each job, so no estimator or
  predictor state ever leaks between points — in either execution mode.
* Jobs are seeded deterministically.  Each job derives a seed from its
  own content (CRC of benchmark name and trace limit) and reseeds
  :mod:`random` before building the trace and running, so results do not
  depend on which worker process ran which job, how many jobs a worker
  had run before, or scheduling order.  (The kernels and the engine are
  already deterministic; the seeding is a guard rail, not a dependency.)
* Results are merged by *submission index*, never by completion order:
  ``run_jobs`` returns results positionally aligned with its input list.
  That frees the pool to *dispatch* units in any order, and it hands
  them out longest first (:func:`_longest_first`), ranked by the byte
  size of each unit's staged trace entry, so a long whole-program point
  starts at once instead of becoming the grid's tail.
* Workers run the one scalar engine in-process: ``_execute`` calls
  ``run_baseline``/``run_trace`` directly, so a worker needs no per-job
  set-up beyond its trace.

The sequential path (``jobs <= 1``) runs the exact same ``_execute``
function inline — same trace cache, same factory handling — so it is not
a separate code path that can drift.

Trace distribution never pickles records, and has one staging tier:
a VSRT v5 cache entry.  Before spawning workers, ``run_jobs`` makes sure
a staging directory holds an entry for every distinct (benchmark,
limit) the grid needs, capturing only the missing ones, once.  The
directory is the configured trace cache when it is on and writable,
else a per-run temp directory removed when the pool ends.  Workers
receive the directory's path and open entries by name, so the
instruction stream crosses the process boundary as column bytes and a
host materializes each trace at most once per sweep.  Setting
``REPRO_TRACE_STRICT=1`` makes workers *fail* instead of falling back
to functional capture, which is how the tests and the CI warm-sweep
smoke assert the zero-materialization property.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import env
from repro.core.model import SpeculativeExecutionModel
from repro.engine.config import ProcessorConfig
from repro.engine.sim import SimulationResult, run_baseline, run_trace
from repro.trace.columnar import ColumnarTrace

#: Env var: when on, workers refuse to regenerate traces (memo or
#: staged entry only).  Used by tests/CI to assert warm sweeps perform
#: zero per-worker trace materializations.
STRICT_ENV_VAR = "REPRO_TRACE_STRICT"

#: Env var: default execution backend for ``run_jobs`` when the caller
#: does not pass one — ``local`` (this module's process pool) or
#: ``service`` (the simulation service, :mod:`repro.service`: the one
#: at ``REPRO_SERVICE_ADDR``, else an ephemeral one with leased worker
#: processes).  Lets any harness entry point ride a shared backend
#: without code changes.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: The values ``run_jobs``' ``backend`` (and ``REPRO_SWEEP_BACKEND``) take.
BACKENDS = ("local", "service")

#: Default per-job attempt budget when a *worker* dies mid-grid (the
#: job itself raising is never retried — jobs are deterministic, so a
#: job error would just recur).
DEFAULT_MAX_ATTEMPTS = 3


def strict_no_capture() -> bool:
    """Whether ``REPRO_TRACE_STRICT`` asks workers to never capture."""
    return env.flag(STRICT_ENV_VAR)


@dataclass(frozen=True)
class SimJob:
    """One point of a simulation grid, picklable by construction.

    ``model=None`` requests a baseline (no value speculation) run.
    ``confidence`` may be the usual one-letter kind ("R"/"O") or a
    zero-argument callable returning a fresh estimator; ``predictor``
    is ``None`` (the model's default predictor) or a zero-argument
    callable.  Callables must be picklable — a top-level class or a
    :func:`functools.partial` over one, never a lambda.
    """

    benchmark: str
    config: ProcessorConfig
    model: SpeculativeExecutionModel | None = None
    max_instructions: int | None = None
    confidence: object = "R"
    update_timing: str = "I"
    predictor: Callable | None = None
    #: Per-task seed; derived from the job's content when ``None``.
    seed: int | None = field(default=None)

    def task_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        key = f"{self.benchmark}:{self.max_instructions}".encode()
        return zlib.crc32(key)


def plan_units(job_list: list[SimJob]) -> tuple[list[SimJob], list[list[int]]]:
    """Map submitted grid points to execution units.

    Returns ``(units, slots)``: ``units`` are the distinct jobs by
    :func:`~repro.cluster.serial.job_key`, in first-submission order, and
    ``slots[k]`` lists the ``job_list`` indices unit ``k`` serves.  A
    grid repeating a point (ablation run sets share their baseline jobs)
    thus pays for each distinct key once, on every backend, and
    :func:`_expand_units` scatters the shared result back to every
    occurrence.
    """
    from repro.cluster.serial import job_key

    units: list[SimJob] = []
    slots: list[list[int]] = []
    unit_of: dict[str, int] = {}
    for index, job in enumerate(job_list):
        key = job_key(job)
        unit = unit_of.get(key)
        if unit is None:
            unit_of[key] = len(units)
            units.append(job)
            slots.append([index])
        else:
            slots[unit].append(index)
    return units, slots


def _expand_units(
    unit_results: list[SimulationResult], slots: list[list[int]], n_jobs: int
) -> list[SimulationResult]:
    """Scatter per-unit results back to submission order."""
    results: list[SimulationResult | None] = [None] * n_jobs
    for result, indices in zip(unit_results, slots):
        for index in indices:
            results[index] = result
    return results  # type: ignore[return-value]


#: Per-process memo of built traces.  Workers are long-lived (one pool
#: services a whole grid), so each process pays trace acquisition once
#: per (benchmark, limit) no matter how many jobs it executes.
_TRACE_CACHE: dict[tuple[str, int | None], ColumnarTrace] = {}

#: The directory this run's VSRT v5 entries were staged into, installed
#: by the pool initializer; ``None`` means the configured trace cache.
_STAGING_DIR: Path | None = None

#: Worker-side strictness (parent processes are never strict — staging
#: itself may legitimately capture on a cold cache).
_WORKER_STRICT = False


def _init_worker(directory: Path | None, strict: bool) -> None:
    """Pool initializer: receive the staging directory (one path, never
    trace data) and the strictness flag."""
    global _STAGING_DIR, _WORKER_STRICT
    _STAGING_DIR = directory
    _WORKER_STRICT = strict


def _trace_for(benchmark: str, max_instructions: int | None):
    """The trace for one grid point, by one rule: the process memo,
    then the VSRT v5 entry in the staging directory (the configured
    trace cache unless the parent staged elsewhere), then — unless
    ``REPRO_TRACE_STRICT`` forbids it — functional capture through
    :func:`~repro.trace.cache.cached_trace`.

    :func:`~repro.trace.cache.load_trace` CRC-checks the entry up
    front, so a corrupt entry is a miss (and is deleted), never a
    mid-simulation error.  Under ``REPRO_TRACE_STRICT`` a worker that
    misses raises instead — the tests' proof that warm sweeps never
    re-materialize traces in workers.
    """
    key = (benchmark, max_instructions)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        return trace
    from repro.programs.suite import kernel
    from repro.trace import cache as trace_cache

    source = kernel(benchmark).source
    trace = trace_cache.load_trace(
        benchmark, source, max_instructions, directory=_STAGING_DIR
    )
    if trace is None:
        if _WORKER_STRICT:
            raise RuntimeError(
                f"{STRICT_ENV_VAR}: no valid staged trace for {key!r} and "
                "capture is forbidden in workers"
            )
        trace = trace_cache.cached_trace(
            benchmark, max_instructions, directory=_STAGING_DIR
        )
    _TRACE_CACHE[key] = trace
    return trace


def _stage_traces(
    job_list: list[SimJob], directory: Path
) -> dict[tuple[str, int | None], int] | None:
    """Make sure ``directory`` holds a VSRT v5 entry for each distinct
    trace the grid needs and return each entry's size in bytes, keyed by
    (benchmark, limit); ``None`` when one could not be written there.

    A missing entry is captured once, here in the parent; a present one
    is only stat'ed.  Workers then open every entry themselves.
    """
    from repro.programs.suite import kernel
    from repro.trace import cache as trace_cache

    sizes: dict[tuple[str, int | None], int] = {}
    for key in dict.fromkeys((job.benchmark, job.max_instructions) for job in job_list):
        benchmark, limit = key
        path = trace_cache.trace_path(
            benchmark, kernel(benchmark).source, limit, directory=directory
        )
        if not path.is_file():
            trace_cache.cached_trace(benchmark, limit, directory=directory)
            if not path.is_file():
                return None
        sizes[key] = path.stat().st_size
    return sizes


def _longest_first(
    units: list[SimJob], sizes: dict[tuple[str, int | None], int]
) -> list[int]:
    """Unit indices in dispatch order: largest staged trace first.

    An entry's columns are fixed-width (about 42 bytes a record), so its
    size ranks a unit's engine time well enough to start the long
    whole-program points first and keep them off the grid's tail.  The
    sort is stable, so equal sizes — and traces missing from ``sizes``
    — keep plan order.
    """
    return sorted(
        range(len(units)),
        key=lambda k: sizes.get((units[k].benchmark, units[k].max_instructions), 0),
        reverse=True,
    )


def _execute(job: SimJob) -> SimulationResult:
    """Run one grid point to completion (worker side; also the inline
    path).

    The job seed feeds a *local* :class:`random.Random`, not the global
    module state: reseeding the process-wide RNG from a worker would
    leak across jobs sharing the process (and, on the inline path, into
    the caller's interpreter), making results depend on job order.
    Nothing in the engine draws from global :mod:`random`; collaborators
    that want stochasticity receive this instance explicitly.
    """
    rng = random.Random(job.task_seed())
    trace = _trace_for(job.benchmark, job.max_instructions)
    if job.model is None:
        return run_baseline(trace, job.config)
    confidence = job.confidence() if callable(job.confidence) else job.confidence
    predictor = job.predictor() if job.predictor is not None else None
    return run_trace(
        trace,
        job.config,
        job.model,
        confidence=confidence,
        update_timing=job.update_timing,
        predictor=predictor,
    )


def effective_jobs(jobs: int | None, n_tasks: int) -> int:
    """Clamp a ``--jobs`` request to something sensible.

    ``None`` or values < 1 mean "use every core"; the result never
    exceeds the task count (spawning idle workers costs startup time).
    """
    if n_tasks <= 0:
        return 1
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_tasks))


class BackendSelectionError(ValueError):
    """A ``backend`` argument that is not one of :data:`BACKENDS`, or
    a ``REPRO_SERVICE_ADDR`` that refuses connections."""


def _backend(text: str) -> str:
    chosen = text.lower()
    if chosen not in BACKENDS:
        raise ValueError(
            f"unknown sweep backend; expected one of: {', '.join(BACKENDS)}"
        )
    return chosen


def resolve_backend(backend: str | None = None) -> str:
    """The effective sweep backend: explicit argument, then
    ``REPRO_SWEEP_BACKEND``, then ``local``.  The service backend's
    address is checked here, before any trace is staged."""
    if backend:
        try:
            chosen = _backend(backend)
        except ValueError as error:
            raise BackendSelectionError(f"{backend!r}: {error}") from None
    else:
        chosen = env.value(BACKEND_ENV_VAR, _backend) or "local"
    if chosen == "service":
        from repro.service.client import env_address

        env_address()
    return chosen


def _run_pool(
    job_list: list[SimJob],
    workers: int,
    directory: Path,
    results: list[SimulationResult | None],
    max_attempts: int,
    order: list[int],
) -> None:
    """Drive the process pool until every slot in ``results`` is filled.

    Jobs are submitted in ``order`` (indices into ``job_list``); results
    land at their index whatever order they complete in.

    Survives worker death (OOM kill, segfault, ``os.kill``): when the
    pool breaks, results already completed are kept, a fresh pool is
    built, and only the unfinished jobs are resubmitted, still in
    ``order`` — each with a bounded attempt budget so a job that
    reliably kills its worker cannot retry forever.  A job *raising* is
    not retried: jobs are deterministic, so the error would simply
    recur.
    """
    strict = strict_no_capture()
    attempts = [0] * len(job_list)
    outstanding = [i for i in order if results[i] is None]
    while outstanding:
        broken: BrokenProcessPool | None = None
        with ProcessPoolExecutor(
            max_workers=min(workers, len(outstanding)),
            initializer=_init_worker,
            initargs=(directory, strict),
        ) as pool:
            pending: dict = {}
            try:
                pending = {
                    pool.submit(_execute, job_list[i]): i for i in outstanding
                }
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = pending.pop(future)
                        results[index] = future.result()
            except BrokenProcessPool as error:
                # Harvest whatever finished before the break; everything
                # else (cancelled or poisoned by the dead worker) stays
                # None and is requeued below.
                broken = error
                for future, index in pending.items():
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        results[index] = future.result()
        if broken is None:
            return
        outstanding = [i for i in outstanding if results[i] is None]
        for i in outstanding:
            attempts[i] += 1
            if attempts[i] >= max_attempts:
                raise BrokenProcessPool(
                    f"job {i} ({job_list[i].benchmark}) lost its worker "
                    f"{attempts[i]} times; giving up after the attempt "
                    f"budget ({max_attempts})"
                ) from broken


def run_jobs(
    job_list: list[SimJob],
    jobs: int = 1,
    *,
    backend: str | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> list[SimulationResult]:
    """Execute a grid of simulation points, ``jobs`` processes wide.

    Returns results positionally aligned with ``job_list`` regardless of
    completion order, so callers can ``zip`` jobs with results and the
    merged output is identical for any worker count — and for any
    backend: ``backend="service"`` (or ``REPRO_SWEEP_BACKEND=service``)
    routes the grid through the simulation service (:mod:`repro.service`)
    with bit-identical results.

    The grid is planned into units first (:func:`plan_units`): a point
    submitted more than once runs once and its result fills every
    occurrence.

    The local pool survives worker death: completed results are kept,
    the pool is rebuilt, and only unfinished jobs are resubmitted, each
    with a ``max_attempts`` budget.

    When the persistent result store is configured
    (``REPRO_RESULT_STORE=<dir>``; see :mod:`repro.service.results`),
    local units whose results are already on disk are served from the
    store — *warm jobs skip execution* — and freshly computed results
    are written back, so any sweep this process runs warms the same
    store the simulation service reads.  The service backend leaves
    the store to the service.
    """
    backend = resolve_backend(backend)
    units, slots = plan_units(job_list)
    from repro.service import results as result_store

    directory = result_store.store_dir() if backend == "local" else None
    if directory is None:
        results = _run_jobs_backend(
            units, jobs, backend=backend, max_attempts=max_attempts
        )
    else:
        # Store consult: serve warm units from disk, execute only the
        # cold remainder, then persist what was computed.
        from repro.cluster.serial import job_key

        keys = [job_key(unit) for unit in units]
        results = [result_store.load_result(key, directory) for key in keys]
        cold = [k for k, result in enumerate(results) if result is None]
        if cold:
            computed = _run_jobs_backend(
                [units[k] for k in cold], jobs,
                backend=backend, max_attempts=max_attempts,
            )
            for k, result in zip(cold, computed):
                result_store.store_result(keys[k], result, directory)
                results[k] = result
    return _expand_units(results, slots, len(job_list))


def _run_jobs_backend(
    units: list[SimJob],
    jobs: int = 1,
    *,
    backend: str = "local",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> list[SimulationResult]:
    """The execution core behind :func:`run_jobs`: run planned units on
    the local pool or the service (no local store involvement), results
    aligned with ``units``."""
    if backend == "service":
        # Imported lazily: the service client depends on this module.
        from repro.service.client import run_jobs_service

        return run_jobs_service(units, jobs)
    workers = effective_jobs(jobs, len(units))
    if workers <= 1:
        return [_execute(unit) for unit in units]
    from repro.trace.cache import cache_dir

    # One staging tier: the configured trace cache when it is on and
    # writable, else a per-run temp directory removed with the pool.
    directory, temp = cache_dir(), None
    results: list = [None] * len(units)
    try:
        sizes = None if directory is None else _stage_traces(units, directory)
        if sizes is None:
            directory = temp = Path(tempfile.mkdtemp(prefix="repro-traces-"))
            sizes = _stage_traces(units, directory) or {}
        order = _longest_first(units, sizes)
        _run_pool(units, workers, directory, results, max_attempts, order)
    finally:
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)
    return results


def run_grid(
    benchmarks: list[str],
    config: ProcessorConfig,
    model: SpeculativeExecutionModel | None,
    *,
    max_instructions: int | None = None,
    confidence: object = "R",
    update_timing: str = "I",
    predictor: Callable | None = None,
    jobs: int = 1,
    backend: str | None = None,
) -> dict[str, SimulationResult]:
    """One (config, model, setting) row across a benchmark suite.

    The common harness shape: same settings, one run per benchmark,
    results keyed by benchmark name in input order.
    """
    job_list = [
        SimJob(
            benchmark=name,
            config=config,
            model=model,
            max_instructions=max_instructions,
            confidence=confidence,
            update_timing=update_timing,
            predictor=predictor,
        )
        for name in benchmarks
    ]
    return dict(zip(benchmarks, run_jobs(job_list, jobs=jobs, backend=backend)))
