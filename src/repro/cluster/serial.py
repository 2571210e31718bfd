"""Job identity and wire/result-store serialization.

Three concerns live here because they must agree with each other:

* :func:`job_key` — the *content hash* of a :class:`SimJob`.  It is the
  result-store key and the service's dedup key, so it must be stable across
  processes, interpreter restarts and hosts (no ``id()``, no
  ``PYTHONHASHSEED``-dependent ``hash()``, no pickle memo accidents):
  it hashes a canonical *text* rendering of the job built from frozen
  dataclass reprs and qualified callable names.
* :func:`job_to_blob` / :func:`job_from_blob` — how a job's full fidelity
  (nested config/model dataclasses, factory callables) crosses the wire:
  pickled, base64-armored so it embeds in a JSON request body.
* :func:`result_to_wire` / :func:`result_from_wire` — how a
  :class:`SimulationResult` travels back and is stored: plain JSON.
  Every counter is an int and JSON round-trips Python ints and floats
  exactly (``repr`` based), so a result that came over the wire or out
  of the result store compares equal — bit-identical — to one computed
  inline.  Keeping results JSON (not pickle) also makes store entries
  greppable and schema-checkable.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from dataclasses import asdict
from functools import partial

from repro.engine.config import ProcessorConfig
from repro.engine.sim import SimulationResult
from repro.harness.parallel import SimJob
from repro.metrics.counters import SimCounters

#: Hex digits of the job hash kept as the key (96 bits: collision-safe
#: for any conceivable grid, short enough to read in file names).
_KEY_CHARS = 24


def _canonical_callable(obj) -> str:
    """A stable text identity for the factories a job may carry.

    Jobs restrict callables to picklable ones — top-level classes,
    functions, or :func:`functools.partial` over them — exactly the
    shapes this renders deterministically.
    """
    if isinstance(obj, partial):
        inner = _canonical_callable(obj.func)
        kwargs = ",".join(f"{k}={v!r}" for k, v in sorted(obj.keywords.items()))
        return f"partial({inner},args={obj.args!r},kwargs=[{kwargs}])"
    name = getattr(obj, "__qualname__", None) or getattr(obj, "__name__", None)
    if name is not None:
        return f"{getattr(obj, '__module__', '?')}.{name}"
    # A pre-built instance (unusual but allowed for `confidence`): fall
    # back to its type + repr, which frozen collaborators keep stable.
    return f"{type(obj).__module__}.{type(obj).__qualname__}:{obj!r}"


def job_fingerprint(job: SimJob) -> str:
    """The canonical text a job's content hash is computed from."""
    model = job.model
    model_text = (
        "baseline"
        if model is None
        else f"{model.name}|{model.variables!r}|{model.latencies!r}"
    )
    confidence = (
        _canonical_callable(job.confidence)
        if callable(job.confidence)
        else repr(job.confidence)
    )
    predictor = (
        "default" if job.predictor is None else _canonical_callable(job.predictor)
    )
    return "\n".join(
        (
            f"benchmark={job.benchmark}",
            f"config={job.config!r}",
            f"model={model_text}",
            f"max_instructions={job.max_instructions!r}",
            f"confidence={confidence}",
            f"update_timing={job.update_timing}",
            f"predictor={predictor}",
            f"seed={job.seed!r}",
        )
    )


def job_key(job: SimJob) -> str:
    """Content hash of one grid point — the dedup and result-store key
    (:mod:`repro.service.results`).

    Two jobs with equal settings hash equal no matter which process,
    host or session computed the hash; any setting change (config field,
    model latency, predictor factory argument) changes the key, so the
    result store can never serve stale results for an edited sweep.
    """
    digest = hashlib.sha256(job_fingerprint(job).encode("utf-8")).hexdigest()
    return digest[:_KEY_CHARS]


def job_to_blob(job: SimJob) -> str:
    """A job's full fidelity as a JSON-embeddable string."""
    return base64.b64encode(pickle.dumps(job, protocol=4)).decode("ascii")


def job_from_blob(blob: str) -> SimJob:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def result_to_wire(result: SimulationResult) -> dict:
    """A result's JSON form (worker reports, service replies and
    result-store entries)."""
    return {
        "counters": asdict(result.counters),
        "config": asdict(result.config),
        "model_name": result.model_name,
        "confidence_kind": result.confidence_kind,
        "update_timing": result.update_timing,
        "extra": dict(result.extra),
    }


def result_from_wire(doc: dict) -> SimulationResult:
    """Rebuild a result; inverse of :func:`result_to_wire`.  Keys this
    version does not write, which older store entries may carry, are
    ignored."""
    counters_doc = dict(doc["counters"])
    extra = counters_doc.pop("extra", {}) or {}
    counters = SimCounters(**counters_doc)
    counters.extra.update(extra)
    return SimulationResult(
        counters=counters,
        config=ProcessorConfig(**doc["config"]),
        model_name=doc.get("model_name"),
        confidence_kind=doc.get("confidence_kind"),
        update_timing=doc.get("update_timing"),
        extra=dict(doc.get("extra") or {}),
    )
