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
* Workers run the one scalar engine in-process: ``_execute`` calls
  ``run_baseline``/``run_trace`` directly, so a worker needs no per-job
  set-up beyond its trace.

The sequential path (``jobs <= 1``) runs the exact same ``_execute``
function inline — same trace cache, same factory handling — so it is not
a separate code path that can drift.

Trace distribution never pickles records.  Before spawning workers,
``run_jobs`` *stages* every distinct (benchmark, limit) the grid needs
exactly once: when the persistent disk cache is enabled the stage is
just "make sure the VSRT v4 entry exists", and each worker opens the
entry file by name; when it is disabled, the parent copies the trace's
columns into one ``multiprocessing.shared_memory`` segment per key (a
v4 image, no row materialized) and workers attach to it zero-copy.
Either way the instruction stream crosses the process boundary as
column bytes, not pickled ``TraceRecord`` lists — a host materializes
each trace at most once per sweep.  Setting ``REPRO_TRACE_STRICT=1``
makes workers *fail* instead of falling back to functional capture,
which is how the tests and the CI warm-sweep smoke assert the
zero-materialization property.
"""

from __future__ import annotations

import os
import random
import tempfile
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro.core.model import SpeculativeExecutionModel
from repro.engine.config import ProcessorConfig
from repro.engine.sim import SimulationResult, run_baseline, run_trace
from repro.trace.columnar import ChunkedTrace, ColumnarTrace

#: Env var: when truthy, workers refuse to regenerate traces (memo or
#: staged handle only).  Used by tests/CI to assert warm sweeps perform
#: zero per-worker trace materializations.
STRICT_ENV_VAR = "REPRO_TRACE_STRICT"

#: Env var: default execution backend for ``run_jobs`` when the caller
#: does not pass one — ``local`` (this module's process pool),
#: ``cluster`` (the fault-tolerant sweep service, :mod:`repro.cluster`)
#: or ``service`` (the always-on HTTP front door, :mod:`repro.service`,
#: at ``REPRO_SERVICE_ADDR``).  Lets any harness entry point ride a
#: shared backend without code changes.
BACKEND_ENV_VAR = "REPRO_SWEEP_BACKEND"

#: Default per-job attempt budget when a *worker* dies mid-grid (the
#: job itself raising is never retried — jobs are deterministic, so a
#: job error would just recur).
DEFAULT_MAX_ATTEMPTS = 3

_STRICT_TRUE = frozenset({"1", "true", "yes", "on"})


def strict_no_capture() -> bool:
    """Whether ``REPRO_TRACE_STRICT`` asks workers to never capture."""
    return os.environ.get(STRICT_ENV_VAR, "").strip().lower() in _STRICT_TRUE


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
_TRACE_CACHE: dict[tuple[str, int | None], ColumnarTrace | ChunkedTrace] = {}


@dataclass(frozen=True)
class TraceHandle:
    """A picklable pointer to a staged trace's shared bytes.

    ``kind`` is ``"file"`` (``name`` is a VSRT v4 file — usually a
    disk-cache entry, sometimes a staged temp file) or ``"shm"``
    (``name`` is a ``multiprocessing.shared_memory`` segment holding
    ``nbytes`` of v4 bytes).
    """

    kind: str
    name: str
    nbytes: int


#: Handles staged by the parent, installed by the pool initializer.
_TRACE_HANDLES: dict[tuple[str, int | None], TraceHandle] = {}

#: Worker-side strictness (parent processes are never strict — staging
#: itself may legitimately capture on a cold cache).
_WORKER_STRICT = False

#: Attached shared-memory segments, kept alive for the process lifetime
#: (their buffers back live ColumnarTrace columns).
_ATTACHED_SEGMENTS: list = []


def _init_worker(
    handles: dict[tuple[str, int | None], TraceHandle], strict: bool
) -> None:
    """Pool initializer: receive staged trace handles (cheap — a few
    strings per benchmark, never trace data)."""
    global _WORKER_STRICT
    _TRACE_HANDLES.clear()
    _TRACE_HANDLES.update(handles)
    _WORKER_STRICT = strict


def _attach_handle(handle: TraceHandle):
    """Open a staged trace.

    A one-chunk trace attaches as its :class:`ColumnarTrace`; a longer
    one as a :class:`~repro.trace.columnar.ChunkedTrace`, so a worker
    simulating a long trace holds at most its chunk LRU window — never
    the whole payload — whether the handle is a file or a shared-memory
    segment (whose chunks are served zero-copy).
    """
    from repro.trace.binary import loads_trace_chunked, read_trace_chunked

    if handle.kind == "file":
        return read_trace_chunked(handle.name).collapse()
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory

    segment = SharedMemory(name=handle.name)
    try:
        # Attaching registers the segment with this process's resource
        # tracker (fixed by track=False in 3.13); unregister so a worker
        # exit does not unlink a segment the parent still owns.
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    _ATTACHED_SEGMENTS.append(segment)
    return loads_trace_chunked(segment.buf[: handle.nbytes]).collapse()


def _trace_for(benchmark: str, max_instructions: int | None):
    """The trace for one grid point: process memo, then a staged
    zero-copy handle, then the persistent on-disk cache
    (:mod:`repro.trace.cache`), then functional capture.

    The handle tier is what keeps workers off the functional simulator:
    the parent stages each distinct trace once and workers open the
    cache entry by name or attach its shared-memory copy.  The disk tier
    behind it makes trace *construction* a once-per-machine cost.  Under
    ``REPRO_TRACE_STRICT`` a worker that would fall past the handle
    tier raises instead — the regression tests' proof that warm sweeps
    never re-materialize traces in workers.
    """
    key = (benchmark, max_instructions)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        return trace
    handle = _TRACE_HANDLES.get(key)
    if handle is not None:
        try:
            trace = _attach_handle(handle)
        except Exception:
            if _WORKER_STRICT:
                raise
            trace = None
    if trace is None:
        if _WORKER_STRICT:
            raise RuntimeError(
                f"{STRICT_ENV_VAR}: no staged trace for {key!r} and "
                "capture is forbidden in workers"
            )
        from repro.trace.cache import cached_trace

        trace = cached_trace(benchmark, max_instructions)
    _TRACE_CACHE[key] = trace
    return trace


def _stage_traces(
    job_list: list[SimJob],
) -> tuple[dict[tuple[str, int | None], TraceHandle], list]:
    """Materialize each distinct trace the grid needs exactly once and
    expose it as a shared buffer; returns (handles, cleanup callables).

    Preference order per key: an existing (or freshly stored) disk-cache
    entry opened by name; a ``multiprocessing.shared_memory`` segment
    with the v4 bytes; a temp file as the last resort when shared memory
    is unavailable.  Cleanups run after the pool has shut down — and if
    staging *itself* fails partway (a capture error on the third
    benchmark after two segments exist), the segments already created
    are released before the exception escapes, so no error path leaks
    shared memory.
    """
    handles: dict[tuple[str, int | None], TraceHandle] = {}
    cleanups: list = []
    try:
        _stage_traces_into(job_list, handles, cleanups)
    except BaseException:
        for release in cleanups:
            try:
                release()
            except Exception:
                pass
        raise
    return handles, cleanups


def _stage_traces_into(
    job_list: list[SimJob],
    handles: dict[tuple[str, int | None], TraceHandle],
    cleanups: list,
) -> None:
    from repro.trace import cache as trace_cache
    from repro.trace.binary import dumps_trace_chunked

    for key in dict.fromkeys((job.benchmark, job.max_instructions) for job in job_list):
        benchmark, limit = key
        if trace_cache.cache_enabled():
            from repro.programs.suite import kernel

            source = kernel(benchmark).source
            path = trace_cache.trace_path(benchmark, source, limit)
            if not path.is_file():
                # Cold cache: capture once here in the parent (also
                # memoized, so the inline path reuses it) and store.
                _TRACE_CACHE[key] = trace_cache.cached_trace(benchmark, limit)
            if path.is_file():
                handles[key] = TraceHandle("file", str(path), path.stat().st_size)
                continue
        # Column copies only: a ChunkedTrace keeps its chunks, so workers
        # attach per-chunk zero-copy slices of the shared buffer.
        data = dumps_trace_chunked(_trace_for(benchmark, limit))
        handle = None
        try:
            from multiprocessing.shared_memory import SharedMemory

            segment = SharedMemory(create=True, size=len(data))
        except (ImportError, OSError):
            segment = None
        if segment is not None:
            segment.buf[: len(data)] = data
            handle = TraceHandle("shm", segment.name, len(data))

            def _release(segment=segment):
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass

            cleanups.append(_release)
        else:  # pragma: no cover - hosts without POSIX shared memory
            fd, tmp_path = tempfile.mkstemp(suffix=".vsrt4")
            with os.fdopen(fd, "wb") as tmp:
                tmp.write(data)
            handle = TraceHandle("file", tmp_path, len(data))
            cleanups.append(lambda tmp_path=tmp_path: os.unlink(tmp_path))
        handles[key] = handle


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


def resolve_backend(backend: str | None = None) -> str:
    """The effective sweep backend: explicit argument, then
    ``REPRO_SWEEP_BACKEND``, then ``local``."""
    chosen = backend or os.environ.get(BACKEND_ENV_VAR, "").strip() or "local"
    if chosen not in ("local", "cluster", "service"):
        raise ValueError(
            f"unknown sweep backend {chosen!r} "
            "(expected 'local', 'cluster' or 'service')"
        )
    return chosen


def _run_pool(
    job_list: list[SimJob],
    workers: int,
    handles: dict[tuple[str, int | None], TraceHandle],
    results: list[SimulationResult | None],
    max_attempts: int,
) -> None:
    """Drive the process pool until every slot in ``results`` is filled.

    Survives worker death (OOM kill, segfault, ``os.kill``): when the
    pool breaks, results already completed are kept, a fresh pool is
    built, and only the unfinished jobs are resubmitted — each with a
    bounded attempt budget so a job that reliably kills its worker
    cannot retry forever.  A job *raising* is not retried: jobs are
    deterministic, so the error would simply recur.
    """
    strict = strict_no_capture()
    attempts = [0] * len(job_list)
    outstanding = [i for i, r in enumerate(results) if r is None]
    while outstanding:
        broken: BrokenProcessPool | None = None
        with ProcessPoolExecutor(
            max_workers=min(workers, len(outstanding)),
            initializer=_init_worker,
            initargs=(handles, strict),
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
    backend: ``backend="cluster"`` (or ``REPRO_SWEEP_BACKEND=cluster``)
    routes the grid through the fault-tolerant sweep service
    (:mod:`repro.cluster`) with bit-identical results.

    The grid is planned into units first (:func:`plan_units`): a point
    submitted more than once runs once and its result fills every
    occurrence.

    The local pool survives worker death: completed results are kept,
    the pool is rebuilt, and only unfinished jobs are resubmitted, each
    with a ``max_attempts`` budget.

    When the persistent result store is configured
    (``REPRO_RESULT_STORE=<dir>``; see :mod:`repro.service.results`),
    units whose results are already on disk are served from the store —
    *warm jobs skip execution on every backend* — and freshly computed
    results are written back, so any sweep this process runs warms the
    same store the always-on simulation service reads.
    """
    backend = resolve_backend(backend)
    if backend == "service":
        # The service owns planning, dedup and the result store; jobs
        # travel as submitted points.  Imported lazily — the service
        # client depends (via repro.cluster) on this module.
        from repro.service.client import run_jobs_service

        return run_jobs_service(job_list)
    units, slots = plan_units(job_list)
    from repro.service import results as result_store

    directory = result_store.store_dir()
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
    the local pool or the cluster (no store involvement), results
    aligned with ``units``."""
    if backend == "cluster":
        # Imported lazily: repro.cluster depends on this module.
        from repro.cluster.client import run_jobs_cluster

        return run_jobs_cluster(units, jobs)
    workers = effective_jobs(jobs, len(units))
    if workers <= 1:
        return [_execute(unit) for unit in units]
    handles, cleanups = _stage_traces(units)
    results: list = [None] * len(units)
    try:
        _run_pool(units, workers, handles, results, max_attempts)
    finally:
        for release in cleanups:
            release()
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
