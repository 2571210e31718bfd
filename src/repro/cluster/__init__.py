"""Cluster workers for the simulation service.

The harness's grids — every figure, table and ablation — reduce to a
batch of independent :class:`~repro.harness.parallel.SimJob` points.
The simulation service (:mod:`repro.service.server`) is their one
scheduler: with ``backend="cluster"`` it leases admitted points to
long-lived worker processes on one host or many, supervises them with
heartbeats, retries points whose worker died, and writes every
completed point to the content-addressed result store so an
interrupted sweep resumes without recomputing anything.  This package
holds the worker side of that plane:

* :mod:`repro.cluster.serial` — canonical job content hashes, job
  blobs, and the JSON wire form of :class:`SimulationResult`.
* :mod:`repro.cluster.faults` — the fault-injection plan used by the
  tests and the CI smoke to prove the recovery paths.
* :mod:`repro.cluster.worker` — the worker loop (``repro cluster
  work``) and the subprocess helpers behind the ephemeral
  ``run_jobs(..., backend="service")``.

Determinism: a leased sweep is bit-identical to ``jobs=1``.  Jobs are
the same stateless descriptions ``run_jobs`` executes inline, workers
run the same ``_execute`` (same per-job seeded RNG, same trace tiers),
results merge by submission key, and retried attempts are pure
re-executions whose results are identical — so duplicate completions
are trivially idempotent.
"""

from repro.cluster.faults import FaultPlan
from repro.cluster.serial import job_key

__all__ = ["FaultPlan", "job_key"]
