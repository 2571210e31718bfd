"""Ablation execution: run a planned run set on the harness.

:func:`execute_plan` flattens an :class:`~repro.ablation.plan.AblationPlan`
into one :func:`repro.harness.parallel.run_jobs` call, so an ablation
inherits every execution amenity the harness already has: the process
pool, the trace cache, and the persistent result store.  With
``REPRO_RESULT_STORE`` configured, re-running an ablation after one
component change recomputes only the runs whose jobs changed —
everything else is served warm, and the baseline jobs shared by every
leave-one-out run execute exactly once thanks to the harness's
duplicate-key dedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ablation.plan import AblationPlan, PlannedRun
from repro.engine.sim import SimulationResult
from repro.harness.parallel import SimJob, run_jobs


@dataclass(frozen=True)
class RunResults:
    """One planned run with its computed (base, speculative) results,
    positionally aligned with ``run.jobs`` / ``run.base_jobs``."""

    run: PlannedRun
    base_results: tuple[SimulationResult, ...]
    results: tuple[SimulationResult, ...]


def execute_plan(
    plan: AblationPlan,
    *,
    jobs: int = 1,
) -> list[RunResults]:
    """Execute every planned run and return results aligned with
    ``plan.runs`` (baseline first).

    The whole run set goes to
    :func:`~repro.harness.parallel.run_jobs` as one flattened job list,
    ``jobs`` processes wide.
    """
    flat: list[SimJob] = []
    for run in plan.runs:
        flat.extend(run.base_jobs)
        flat.extend(run.jobs)
    results = iter(run_jobs(flat, jobs))
    out: list[RunResults] = []
    for run in plan.runs:
        base_results = tuple(next(results) for _ in run.base_jobs)
        out.append(
            RunResults(
                run=run,
                base_results=base_results,
                results=tuple(next(results) for _ in run.jobs),
            )
        )
    return out
