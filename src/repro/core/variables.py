"""The model variables of a speculative-execution model (paper Section 4).

Each variable selects a mechanism/policy for one of the microarchitectural
functions value speculation touches.  The combinations span the design
space Section 3 surveys; :data:`PAPER_VARIABLES` is the configuration the
paper evaluates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class WakeupPolicy(enum.Enum):
    """When may an instruction wake up (become a selection candidate)?

    * ``VALID_ONLY`` — base-processor behaviour: all operands VALID.
    * ``VALID_OR_SPECULATIVE`` — the paper's choice: operands valid and/or
      speculative/predicted, and the instruction has not issued.
    * ``ANY_VALUE`` — wake up whenever a new value arrives, ignoring the
      speculative status of operands (the Rotenberg-style scheme of the
      Sodani/Sohi comparison [38]): may reissue misspeculated instructions
      faster but also issues needlessly.

    The simulator tells only ``VALID_ONLY`` apart: ``ANY_VALUE`` wakes
    exactly when ``VALID_OR_SPECULATIVE`` does (usable operands, not
    issued), so the two simulate the same machine.  Eager reissue on
    every arriving value is not modelled; the value stays so that a
    model can name the paper's third wakeup function.
    """

    VALID_ONLY = "valid-only"
    VALID_OR_SPECULATIVE = "valid-or-speculative"
    ANY_VALUE = "any-value"


class SelectionPolicy(enum.Enum):
    """How are woken instructions prioritized for issue?

    * ``PAPER`` — highest priority to branch and load instructions, then
      oldest-first; non-speculative instructions preferred over
      speculative (Sections 2.1 and 3.5).
    * ``OLDEST_FIRST`` — pure dynamic program order.
    * ``SPECULATIVE_EQUAL`` — like ``PAPER`` but without the
      non-speculative preference.
    """

    PAPER = "paper"
    OLDEST_FIRST = "oldest-first"
    SPECULATIVE_EQUAL = "speculative-equal"


class BranchResolution(enum.Enum):
    """May branches resolve with speculative/predicted operands?"""

    VALID_ONLY = "valid-only"  # the paper's choice
    SPECULATIVE_ALLOWED = "speculative-allowed"


class MemoryResolution(enum.Enum):
    """May memory instructions access memory with speculative addresses?"""

    VALID_ONLY = "valid-only"  # the paper's choice
    SPECULATIVE_ALLOWED = "speculative-allowed"


class InvalidationScheme(enum.Enum):
    """How misspeculated successors learn their operands were wrong
    (Section 3.1).

    * ``SELECTIVE_PARALLEL`` — flattened-hierarchical: all direct and
      indirect successors invalidated in one transaction (the
      verification-network functionality the paper assumes).
    * ``SELECTIVE_HIERARCHICAL`` — one dependence level per transaction,
      piggybacking on tag broadcast.
    * ``COMPLETE`` — treat a value misprediction like a branch
      misprediction: squash all younger instructions.
    """

    SELECTIVE_PARALLEL = "selective-parallel"
    SELECTIVE_HIERARCHICAL = "selective-hierarchical"
    COMPLETE = "complete"


class VerificationScheme(enum.Enum):
    """How successors of a correctly predicted instruction learn their
    operands are valid (Section 3.2).

    * ``PARALLEL_NETWORK`` — flattened-hierarchical verification over a
      dedicated network; all successors validated in parallel.
    * ``HIERARCHICAL`` — direct successors first, then theirs, one level
      per cycle.
    * ``RETIREMENT_BASED`` — verification overloaded onto retirement: only
      the w oldest instructions can validate per cycle.
    * ``HYBRID`` — retirement-based releasing plus hierarchical
      misprediction detection.
    """

    PARALLEL_NETWORK = "parallel-network"
    HIERARCHICAL = "hierarchical"
    RETIREMENT_BASED = "retirement-based"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ModelVariables:
    """The complete model-variable assignment for one microarchitecture."""

    wakeup: WakeupPolicy = WakeupPolicy.VALID_OR_SPECULATIVE
    selection: SelectionPolicy = SelectionPolicy.PAPER
    branch_resolution: BranchResolution = BranchResolution.VALID_ONLY
    memory_resolution: MemoryResolution = MemoryResolution.VALID_ONLY
    invalidation: InvalidationScheme = InvalidationScheme.SELECTIVE_PARALLEL
    verification: VerificationScheme = VerificationScheme.PARALLEL_NETWORK

    def table_rows(self) -> list[tuple[str, str]]:
        """Rows in the shape of the paper's Section 4 variables table."""
        return [
            ("WakeUp", self.wakeup.value),
            ("Selection", self.selection.value),
            ("Branch Resolution", self.branch_resolution.value),
            ("Memory Resolution", self.memory_resolution.value),
            ("Invalidation", self.invalidation.value),
            ("Verification", self.verification.value),
        ]


#: The variable assignment evaluated throughout the paper: wakeup on valid
#: or speculative operands, the branch/load-first oldest-first selection
#: with non-speculative preference, branches and memory restricted to valid
#: operands, and flattened-hierarchical (parallel) verification and
#: invalidation over the verification network.
PAPER_VARIABLES = ModelVariables()
