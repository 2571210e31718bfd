"""Fault-tolerant cluster sweep service.

The harness's grids — every figure, table and ablation — reduce to a
batch of independent :class:`~repro.harness.parallel.SimJob` points.
``harness.parallel.run_jobs`` fans such a batch over a local process
pool; this package turns the same batch into a *service*: a TCP
scheduler hands jobs to long-lived worker processes (on one host or
many) under lease/heartbeat supervision, retries jobs whose worker died,
and writes every completed point to the content-addressed result store
(:mod:`repro.service.results`) so an interrupted sweep — worker crash,
scheduler crash, whole-host reboot — resumes on resubmission without
recomputing anything.

Layering (each module usable and testable on its own):

* :mod:`repro.cluster.protocol` — length-prefixed JSON frames and the
  message vocabulary (register / lease / heartbeat / result / submit /
  status / fetch / shutdown), and the one submit/poll/resubmit loop
  both remote clients share.
* :mod:`repro.cluster.serial`   — canonical job content hashes, job
  blobs, and the JSON wire form of :class:`SimulationResult`.
* :mod:`repro.cluster.faults`   — the fault-injection plan used by the
  tests and the CI smoke to prove the recovery paths.
* :mod:`repro.cluster.scheduler` — the service: lease-based assignment,
  heartbeat-driven dead-worker detection, bounded retry with
  exponential backoff + jitter, result-store writes and resume, obs
  event recording.
* :mod:`repro.cluster.worker`   — the worker loop (``python -m
  repro.cluster.worker`` or ``repro cluster work``).
* :mod:`repro.cluster.client`   — submit/wait/fetch, plus the ephemeral
  local cluster behind ``run_jobs(..., backend="cluster")``.

Determinism: a cluster sweep is bit-identical to ``jobs=1``.  Jobs are
the same stateless descriptions ``run_jobs`` executes inline, workers
run the same ``_execute`` (same per-job seeded RNG, same trace tiers),
results merge by submission key, and retried attempts are pure
re-executions whose results are identical — so duplicate completions
are trivially idempotent.
"""

from repro.cluster.client import (
    ClusterClient,
    ClusterSweepError,
    LocalCluster,
    run_jobs_cluster,
)
from repro.cluster.faults import FaultPlan
from repro.cluster.protocol import ProtocolError
from repro.cluster.scheduler import ClusterScheduler, SchedulerConfig, SchedulerTracer
from repro.cluster.serial import job_key

__all__ = [
    "ClusterClient",
    "ClusterScheduler",
    "ClusterSweepError",
    "FaultPlan",
    "LocalCluster",
    "ProtocolError",
    "SchedulerConfig",
    "SchedulerTracer",
    "job_key",
    "run_jobs_cluster",
]
