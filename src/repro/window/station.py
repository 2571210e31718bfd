"""Reservation-station state.

A :class:`Station` is the dynamic instance of one instruction occupying a
window entry.  It carries the fields of the paper's modified reservation
station (Section 2.2) — per-operand ready state (four-valued, not the base
processor's single ready bit), tags, the issued/executed flags, and the
predicted flag and value — plus the simulator-side bookkeeping that makes
those fields computable: which *speculation sources* (unresolved predicted
instructions) currently taint each held value, and whether each held value
is architecturally correct.

The taint machinery is the simulator's realization of the verification
network's state: an operand is VALID exactly when it holds a value tainted
by no unresolved prediction; it is PREDICTED when the value came straight
from a producer's prediction broadcast, and SPECULATIVE when it was
computed downstream of one.

Taint sets are **integer bitmasks**: each speculation source owns one bit
index from :class:`~repro.window.taintmask.TaintBitAllocator` (recycled
when the source leaves the machine), so union/subset/clear are single int
operations and delivering a broadcast allocates nothing.  A station also
caches a one-pass summary of its operands' readiness/taint/correctness
state; whoever mutates an operand marks the summary dirty (``in_dirty``)
and the ``inputs_*`` properties recompute it lazily, so the issue and
retire loops stop re-walking the operand list on every query.  Operands
deliberately hold no back-reference to their station: stations and
operands stay acyclic, so a retired station's subgraph is reclaimed by
reference counting the moment the last event releases it.
"""

from __future__ import annotations

from repro.core.value_state import ValueState
from repro.trace.record import TraceRecord


class Operand:
    """One source-operand field of a reservation station."""

    __slots__ = (
        "reg",
        "producer_sid",
        "ready",
        "taints",
        "correct",
        "from_prediction",
        "valid_cycle",
        "via_network",
    )

    def __init__(self, reg: int, producer_sid: int | None):
        self.reg = reg
        #: Station id of the in-flight producer; None = read from the
        #: architected register file at dispatch (always VALID).
        self.producer_sid = producer_sid
        self.ready = producer_sid is None
        #: Bitmask of unresolved speculation sources affecting the held
        #: value (bit indices assigned by the engine's TaintBitAllocator).
        self.taints = 0
        #: Is the held value architecturally correct?  (Simulator ground
        #: truth; the hardware doesn't know this until verification.)
        self.correct = producer_sid is None
        #: Did the held value arrive as a producer's prediction broadcast?
        self.from_prediction = False
        #: Cycle the operand (most recently) became VALID.
        self.valid_cycle = 0
        #: True when validity arrived via a verification-network (or
        #: invalidation) transaction rather than a plain result broadcast —
        #: the condition under which the Verification–Branch and
        #: Verification-Address–Memory-Access latencies apply.
        self.via_network = False

    @property
    def state(self) -> ValueState:
        """The paper's four-valued operand state."""
        if not self.ready:
            return ValueState.INVALID
        if not self.taints:
            return ValueState.VALID
        if self.from_prediction:
            return ValueState.PREDICTED
        return ValueState.SPECULATIVE

    def deliver(
        self,
        *,
        taints: int,
        correct: bool,
        cycle: int,
        from_prediction: bool,
        via_network: bool = False,
    ) -> None:
        """Capture a broadcast value (``taints`` is a source bitmask)."""
        self.ready = True
        self.taints = taints
        self.correct = correct
        self.from_prediction = from_prediction
        if not taints:
            self.valid_cycle = cycle
            self.via_network = via_network

    def clear_taint(self, mask: int, cycle: int) -> bool:
        """Remove resolved speculation source(s); True if now VALID."""
        if self.taints & mask:
            self.taints &= ~mask
            if self.ready and not self.taints:
                self.valid_cycle = cycle
                self.via_network = True
                return True
        return False

    def reset_pending(self) -> None:
        """Revert to waiting for the producer's (re)broadcast."""
        self.ready = False
        self.taints = 0
        self.correct = False
        self.from_prediction = False
        self.via_network = False


class Station:
    """One window entry (unified RS + ROB slot)."""

    __slots__ = (
        "sid",
        "rec",
        "wrong_path",
        "operands",
        "consumers",
        "prev_writer",
        "stamp",
        "predicted",
        "predicted_confident",
        "pred_correct",
        "prediction_resolved",
        "prediction_muted",
        "pending_train",
        "spec_equal",
        "issued",
        "executing",
        "executed",
        "exec_count",
        "out_ready",
        "out_taints",
        "out_correct",
        "exec_taints",
        "taint_mask",
        "out_valid_cycle",
        "result_cycle",
        "equality_cycle",
        "verify_cycle",
        "min_issue_cycle",
        "epoch",
        "sel_priority",
        "is_ctrl",
        "branch_mispredicted",
        "retired",
        "misspeculations",
        "in_dirty",
        "in_usable",
        "in_taint_union",
        "in_correct",
        "in_spec",
        "wakeup_cycle",
        "invalidate_cycle",
    )

    def __init__(self, sid: int, rec: TraceRecord, wrong_path: bool = False):
        self.sid = sid
        self.rec = rec
        self.wrong_path = wrong_path
        self.operands: list[Operand] = []
        #: (consumer station, operand index) pairs that captured our
        #: output.  Direct references, not sids: consumers are strictly
        #: younger, so the edges keep the graph acyclic (refcount-safe)
        #: while sparing the broadcast loop a window lookup per edge.
        self.consumers: list[tuple["Station", int]] = []
        #: Sid of the previous in-flight writer of our destination
        #: register at dispatch (-1 = none) — the squash-undo link for
        #: the engine's last-writer table.
        self.prev_writer = -1
        #: Scratch mark for the engine's closure walks (monotonically
        #: increasing visit stamp; never reset).
        self.stamp = 0
        # -- value prediction state --
        self.predicted = False  # prediction broadcast to consumers
        self.predicted_confident = False
        self.pred_correct = False  # ground truth (revealed at equality)
        self.prediction_resolved = False
        #: A speculative equality mismatch provisionally "turned off" the
        #: prediction: consumers were invalidated and this station now
        #: broadcasts computed results like an unpredicted instruction.
        #: Final resolution (for retirement) still happens at the first
        #: valid-input execution.
        self.prediction_muted = False
        #: Delayed-timing training record ``(pc, actual, pred_correct,
        #: token, fold16)``, consumed when this station retires.
        self.pending_train = None
        #: Outcome of the speculative equality comparison performed at the
        #: most recent execution (meaningful once ``executed``).
        self.spec_equal = False
        # -- issue/execution state --
        self.issued = False
        self.executing = False
        self.executed = False  # produced a result at least once
        self.exec_count = 0
        # -- output state --
        self.out_ready = False
        self.out_taints = 0
        self.out_correct = False
        #: Taints of the inputs consumed by the most recent execution (the
        #: speculation sources the computed result depends on).
        self.exec_taints = 0
        #: This station's own speculation-source bit (0 when it never
        #: broadcast a confident prediction).
        self.taint_mask = 0
        self.out_valid_cycle = 0
        # -- timestamps --
        self.result_cycle = 0  # cycle the latest result becomes usable
        self.equality_cycle = 0
        self.verify_cycle = 0
        self.min_issue_cycle = 0
        #: Bumped on every nullification/squash; pending events from older
        #: epochs are stale and must be ignored.
        self.epoch = 0
        #: Selection priority class (0 = branch/load, 1 = everything
        #: else), precomputed because selection sorts on it every cycle.
        self.sel_priority = 0 if (rec.is_branch or rec.is_load) else 1
        #: Control-transfer instruction needing branch-resolution gating
        #: (checked by the wakeup predicate on every issue evaluation).
        self.is_ctrl = rec.is_branch or rec.is_indirect
        self.branch_mispredicted = False
        self.retired = False
        self.misspeculations = 0
        # -- cached input summary (recomputed lazily when dirty) --
        self.in_dirty = True
        self.in_usable = True
        self.in_taint_union = 0
        self.in_correct = True
        self.in_spec = False
        # -- observability timestamps (written only when a tracer is
        # attached; -1 = not seen) --
        self.wakeup_cycle = -1
        self.invalidate_cycle = -1

    # -- derived state ----------------------------------------------------

    @property
    def seq(self) -> int:
        return self.rec.seq

    def add_operand(self, operand: Operand) -> None:
        """Attach a source operand and dirty the cached input summary."""
        self.operands.append(operand)
        self.in_dirty = True

    def refresh_inputs(self) -> None:
        """Recompute the cached operand summary in one pass."""
        usable = correct = True
        union = 0
        spec = False
        for op in self.operands:
            if op.ready:
                taints = op.taints
                if taints:
                    union |= taints
                    spec = True
                if not op.correct:
                    correct = False
            else:
                usable = False
                correct = False
        self.in_usable = usable
        self.in_taint_union = union
        self.in_correct = correct
        self.in_spec = spec
        self.in_dirty = False

    def input_states(self) -> list[ValueState]:
        return [op.state for op in self.operands]

    @property
    def inputs_usable(self) -> bool:
        """All operands carry some value (valid/predicted/speculative)."""
        if self.in_dirty:
            self.refresh_inputs()
        return self.in_usable

    @property
    def inputs_valid(self) -> bool:
        """All operands VALID."""
        if self.in_dirty:
            self.refresh_inputs()
        return self.in_usable and not self.in_taint_union

    @property
    def inputs_correct(self) -> bool:
        """Simulator ground truth: all held values correct."""
        if self.in_dirty:
            self.refresh_inputs()
        return self.in_correct

    @property
    def speculative_inputs(self) -> bool:
        if self.in_dirty:
            self.refresh_inputs()
        return self.in_spec

    def nullify(self, min_issue_cycle: int) -> None:
        """The paper's wakeup nullification semantics (Section 3.4):
        remove the effects of previous execution and enable a future
        wakeup by resetting the issued flag."""
        self.issued = False
        self.executing = False
        self.executed = False
        # An unmuted prediction broadcast still stands for consumers.
        live_prediction = self.predicted and not self.prediction_muted
        self.out_ready = live_prediction
        self.out_taints = self.taint_mask if live_prediction else 0
        self.out_correct = False
        self.min_issue_cycle = max(self.min_issue_cycle, min_issue_cycle)
        self.epoch += 1
        self.misspeculations += 1

    def __repr__(self) -> str:
        return (
            f"Station(sid={self.sid}, seq={self.rec.seq}, "
            f"op={self.rec.opcode.mnemonic}, issued={self.issued}, "
            f"executed={self.executed}, retired={self.retired})"
        )
