"""The paper's primary contribution: a formal model of value-speculative
microarchitectures.

Section 4 of the paper proposes describing a value-speculative machine as a
*speculative-execution model*: a set of **model variables** (which wakeup,
selection, branch/memory-resolution, invalidation and verification policies
are in effect — :mod:`repro.core.variables`) plus a set of **latency
variables** (the cycle counts separating the microarchitectural events that
value speculation introduces — :mod:`repro.core.latency`).

This package also provides the supporting machinery those definitions imply:
the four-state operand/value lattice (:mod:`repro.core.value_state`), the
dependence-closure computations behind verification and invalidation
(:mod:`repro.core.verification`, :mod:`repro.core.invalidation`), and the
paper's named latency-event kinds (:mod:`repro.core.events`).

The three named models the paper evaluates — **super**, **great** and
**good** — are exported as :data:`SUPER_MODEL`, :data:`GREAT_MODEL` and
:data:`GOOD_MODEL`.
"""

from repro.core.value_state import ValueState, merge_states, output_state
from repro.core.latency import (
    LatencyModel,
    SUPER_LATENCIES,
    GREAT_LATENCIES,
    GOOD_LATENCIES,
    BASE_EQUIVALENT_LATENCIES,
)
from repro.core.variables import (
    ModelVariables,
    WakeupPolicy,
    SelectionPolicy,
    BranchResolution,
    MemoryResolution,
    InvalidationScheme,
    VerificationScheme,
    PAPER_VARIABLES,
)
from repro.core.model import (
    SpeculativeExecutionModel,
    SUPER_MODEL,
    GREAT_MODEL,
    GOOD_MODEL,
    named_models,
)
from repro.core.verification import successor_levels, closure
from repro.core.invalidation import invalidation_waves

__all__ = [
    "ValueState",
    "merge_states",
    "output_state",
    "LatencyModel",
    "SUPER_LATENCIES",
    "GREAT_LATENCIES",
    "GOOD_LATENCIES",
    "BASE_EQUIVALENT_LATENCIES",
    "ModelVariables",
    "WakeupPolicy",
    "SelectionPolicy",
    "BranchResolution",
    "MemoryResolution",
    "InvalidationScheme",
    "VerificationScheme",
    "PAPER_VARIABLES",
    "SpeculativeExecutionModel",
    "SUPER_MODEL",
    "GREAT_MODEL",
    "GOOD_MODEL",
    "named_models",
    "successor_levels",
    "closure",
    "invalidation_waves",
]
