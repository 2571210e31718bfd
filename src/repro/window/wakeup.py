"""Wakeup functions (paper Section 3.4).

The wakeup function decides which unissued instructions become selection
candidates, filtering on the four-valued ready state of their operands.
The paper's function: "an instruction can wakeup only when its inputs are
either valid and/or speculative and the instruction has not yet issued."
Instructions without predicted or speculative operands therefore wake up
exactly as fast as on the base processor.
"""

from __future__ import annotations

from repro.core.variables import (
    BranchResolution,
    ModelVariables,
    WakeupPolicy,
)
from repro.window.station import Station


def can_wake(station: Station, variables: ModelVariables, cycle: int) -> bool:
    """May ``station`` be considered for issue in ``cycle``?

    Branch and memory instructions additionally require VALID operands when
    the resolution variables say so; the extra Verification–Branch /
    Verification-Address–Memory-Access delays on network-verified operands
    are applied by the selection stage (they gate *when*, not *whether*).
    """
    if station.issued or station.executing or station.retired:
        return False
    if cycle < station.min_issue_cycle:
        return False

    if variables.wakeup is WakeupPolicy.VALID_ONLY:
        if not station.inputs_valid:
            return False
    elif not station.inputs_usable:
        # VALID_OR_SPECULATIVE and ANY_VALUE: usable inputs.
        return False

    if station.rec.is_branch or station.rec.is_indirect:
        if variables.branch_resolution is BranchResolution.VALID_ONLY:
            return station.inputs_valid
    # Memory instructions are NOT valid-gated at wakeup: the paper splits
    # them into address generation (which may execute speculatively — the
    # Verification-Address–Memory-Access latency presupposes "a speculative
    # address generation") and the memory access, which the engine gates on
    # operand validity when memory resolution is VALID_ONLY.
    return True


def operand_state_labels(station: Station) -> str:
    """Compact four-valued operand summary, e.g. ``"V,P"`` (observability
    detail string: VALID/INVALID/PREDICTED/SPECULATIVE initials in operand
    order, empty for zero-operand instructions)."""
    return ",".join(op.state.name[0] for op in station.operands)
