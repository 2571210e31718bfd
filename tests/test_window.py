"""Instruction window, station, wakeup and selection tests."""

import pytest

from repro.core.value_state import ValueState
from repro.core.variables import (
    BranchResolution,
    ModelVariables,
    SelectionPolicy,
    WakeupPolicy,
)
from repro.isa.opcodes import Opcode
from repro.trace.record import TraceRecord
from repro.window.ruu import InstructionWindow
from repro.window.selection import selection_key
from repro.window.station import Operand, Station
from repro.window.wakeup import can_wake


def _station(sid, opcode=Opcode.ADD, srcs=(1,), dest=8):
    rec = TraceRecord(sid, 0x1000 + 8 * sid, opcode, srcs, dest, 1, next_pc=0)
    station = Station(sid, rec)
    for i, reg in enumerate(srcs):
        station.add_operand(Operand(reg, None))
    return station


def _replace_operand(station, index, operand):
    station.operands[index] = operand
    station.in_dirty = True


class TestOperand:
    def test_regfile_operand_starts_valid(self):
        operand = Operand(3, None)
        assert operand.state is ValueState.VALID
        assert operand.ready and operand.correct

    def test_pending_operand_is_invalid(self):
        operand = Operand(3, producer_sid=7)
        assert operand.state is ValueState.INVALID

    def test_deliver_prediction(self):
        operand = Operand(3, producer_sid=7)
        operand.deliver(taints=1 << 7, correct=True, cycle=5, from_prediction=True)
        assert operand.state is ValueState.PREDICTED

    def test_deliver_speculative(self):
        operand = Operand(3, producer_sid=7)
        operand.deliver(taints=1 << 2, correct=True, cycle=5, from_prediction=False)
        assert operand.state is ValueState.SPECULATIVE

    def test_clear_taint_upgrades_to_valid(self):
        operand = Operand(3, producer_sid=7)
        operand.deliver(taints=1 << 7, correct=True, cycle=5, from_prediction=True)
        assert operand.clear_taint(1 << 7, cycle=9)
        assert operand.state is ValueState.VALID
        assert operand.valid_cycle == 9 and operand.via_network

    def test_clear_taint_partial(self):
        operand = Operand(3, producer_sid=7)
        operand.deliver(taints=(1 << 7) | (1 << 8), correct=True, cycle=5, from_prediction=False)
        assert not operand.clear_taint(1 << 7, cycle=9)
        assert operand.state is ValueState.SPECULATIVE

    def test_reset_pending(self):
        operand = Operand(3, producer_sid=7)
        operand.deliver(taints=1 << 7, correct=True, cycle=5, from_prediction=True)
        operand.reset_pending()
        assert operand.state is ValueState.INVALID


class TestWindow:
    def test_insert_order_enforced(self):
        window = InstructionWindow(4)
        window.insert(_station(1))
        with pytest.raises(ValueError, match="out of order"):
            window.insert(_station(0))

    def test_capacity(self):
        window = InstructionWindow(2)
        window.insert(_station(0))
        window.insert(_station(1))
        assert window.full and window.free_slots == 0
        with pytest.raises(RuntimeError, match="full"):
            window.insert(_station(2))
        with pytest.raises(ValueError):
            InstructionWindow(0)

    def test_head_and_release(self):
        window = InstructionWindow(4)
        for sid in range(3):
            window.insert(_station(sid))
        assert window.head().sid == 0
        released = window.release_head()
        assert released.sid == 0
        assert window.head().sid == 1
        assert len(window) == 2

    def test_release_empty_rejected(self):
        with pytest.raises(RuntimeError, match="empty"):
            InstructionWindow(2).release_head()

    def test_squash_younger_than(self):
        window = InstructionWindow(8)
        for sid in range(5):
            window.insert(_station(sid))
        removed = window.squash_younger_than(2)
        assert [s.sid for s in removed] == [4, 3]  # youngest first
        assert [s.sid for s in window] == [0, 1, 2]

    def test_oldest(self):
        window = InstructionWindow(8)
        for sid in range(5):
            window.insert(_station(sid))
        assert [s.sid for s in window.oldest(2)] == [0, 1]

    def test_peak_occupancy(self):
        window = InstructionWindow(4)
        for sid in range(3):
            window.insert(_station(sid))
        window.release_head()
        assert window.peak_occupancy == 3


class TestWakeup:
    VARS = ModelVariables()

    def test_ready_valid_operands_wake(self):
        station = _station(0)
        assert can_wake(station, self.VARS, cycle=1)

    def test_issued_station_does_not_wake(self):
        station = _station(0)
        station.issued = True
        assert not can_wake(station, self.VARS, cycle=1)

    def test_min_issue_cycle_respected(self):
        station = _station(0)
        station.min_issue_cycle = 5
        assert not can_wake(station, self.VARS, cycle=4)
        assert can_wake(station, self.VARS, cycle=5)

    def test_speculative_operand_wakes_under_paper_policy(self):
        station = _station(0, srcs=(1,))
        _replace_operand(station, 0, Operand(1, producer_sid=9))
        station.operands[0].deliver(
            taints=1 << 9, correct=True, cycle=0, from_prediction=True
        )
        assert can_wake(station, self.VARS, cycle=1)
        strict = ModelVariables(wakeup=WakeupPolicy.VALID_ONLY)
        assert not can_wake(station, strict, cycle=1)

    def test_branch_requires_valid_operands(self):
        station = _station(0, opcode=Opcode.BEQ, srcs=(1, 2), dest=None)
        _replace_operand(station, 0, Operand(1, producer_sid=9))
        station.operands[0].deliver(
            taints=1 << 9, correct=True, cycle=0, from_prediction=True
        )
        assert not can_wake(station, self.VARS, cycle=1)
        permissive = ModelVariables(
            branch_resolution=BranchResolution.SPECULATIVE_ALLOWED
        )
        assert can_wake(station, permissive, cycle=1)

    def test_nullify_enables_future_wakeup(self):
        station = _station(0)
        station.issued = True
        station.executed = True
        epoch = station.epoch
        station.nullify(min_issue_cycle=7)
        assert not station.issued and not station.executed
        assert station.min_issue_cycle == 7
        assert station.epoch == epoch + 1
        assert can_wake(station, self.VARS, cycle=7)


def _select(stations, width, policy=SelectionPolicy.PAPER):
    """The ``width`` stations the engine's issue walk picks: the lowest
    selection keys."""
    return sorted(stations, key=lambda s: selection_key(s, policy))[:width]


class TestSelection:
    def test_paper_priority_branch_load_first(self):
        alu = _station(0)
        load = _station(1, opcode=Opcode.LD, srcs=(8,), dest=9)
        branch = _station(2, opcode=Opcode.BNE, srcs=(1, 2), dest=None)
        chosen = _select([alu, load, branch], 2)
        assert {s.sid for s in chosen} == {1, 2}

    def test_oldest_first_within_type(self):
        older = _station(3)
        younger = _station(5)
        chosen = _select([younger, older], 1)
        assert chosen[0].sid == 3

    def test_non_speculative_preferred(self):
        speculative = _station(0)
        _replace_operand(speculative, 0, Operand(1, producer_sid=9))
        speculative.operands[0].deliver(
            taints=1 << 9, correct=True, cycle=0, from_prediction=True
        )
        plain = _station(1)
        chosen = _select([speculative, plain], 1)
        assert chosen[0].sid == 1  # younger but non-speculative wins

    def test_speculative_equal_policy_ignores_taints(self):
        speculative = _station(0)
        _replace_operand(speculative, 0, Operand(1, producer_sid=9))
        speculative.operands[0].deliver(
            taints=1 << 9, correct=True, cycle=0, from_prediction=True
        )
        plain = _station(1)
        chosen = _select(
            [speculative, plain], 1, SelectionPolicy.SPECULATIVE_EQUAL
        )
        assert chosen[0].sid == 0  # oldest wins regardless of taints

    def test_oldest_first_policy(self):
        load = _station(4, opcode=Opcode.LD, srcs=(8,), dest=9)
        alu = _station(2)
        chosen = _select([load, alu], 1, SelectionPolicy.OLDEST_FIRST)
        assert chosen[0].sid == 2

    def test_selection_key_is_total(self):
        stations = [_station(i) for i in range(5)]
        for policy in SelectionPolicy:
            keys = [selection_key(s, policy) for s in stations]
            assert len(set(keys)) == 5
