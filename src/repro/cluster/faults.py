"""Fault injection for cluster workers.

Recovery code that is never exercised is broken code waiting for a bad
night, so every worker failure the service claims to survive has a
knob here that forces it on demand: the unit tests, the e2e tests and
the CI ``cluster-smoke`` job all drive real injected faults through the
real service rather than mocking the failure.

A :class:`FaultPlan` rides to the worker process in the
``REPRO_CLUSTER_FAULTS`` environment variable (JSON).  The one
service-side knob, ``fail_leases``, is
:attr:`repro.service.server.ServiceConfig.fail_leases`.  All knobs
default to "off"; a default plan is exactly a production run.

``kill_on_lease = n``      SIGKILL ourselves upon receiving the *n*-th
                           lease (1-based) — a worker dying mid-job.
``drop_heartbeats_after``  stop sending heartbeats after that many beats
                           while continuing to work — a wedged/partitioned
                           worker the service must presume dead.
``corrupt_result = n``     mangle the *n*-th result body so the service
                           receives garbage it must reject safely.
``delay_request_s``        sleep before every request — slow links;
                           shakes out timeout races.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

#: Environment variable carrying a worker's JSON-encoded fault plan.
FAULTS_ENV_VAR = "REPRO_CLUSTER_FAULTS"


@dataclass(frozen=True)
class FaultPlan:
    """Which failures to inject, and when.  Zero values mean "never"."""

    kill_on_lease: int = 0
    drop_heartbeats_after: int = 0
    corrupt_result: int = 0
    delay_request_s: float = 0.0

    def any(self) -> bool:
        return any(v for v in asdict(self).values())

    def to_env(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan in ``REPRO_CLUSTER_FAULTS``, or the no-fault plan.

        An unreadable value is treated as no faults: injection is a test
        facility and must never take a production worker down by itself.
        """
        raw = (environ or os.environ).get(FAULTS_ENV_VAR, "")
        if not raw.strip():
            return cls()
        try:
            doc = json.loads(raw)
            known = {f: doc[f] for f in doc if f in cls.__dataclass_fields__}
            return cls(**known)
        except (json.JSONDecodeError, TypeError, ValueError):
            return cls()


def corrupt_bytes(body: bytes) -> bytes:
    """Deterministically mangle a request body: same length, so the
    service reads all of it, then fails to decode it."""
    return bytes(b ^ 0x5A for b in body)
