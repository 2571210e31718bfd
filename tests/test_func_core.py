"""The functional machine's one execution core.

``Machine.step()`` (and so ``iter_trace``) and the trace cache's capture
(``KernelSpec.capture`` writing rows straight into a ``TraceWriter``)
run the same predecoded core.  These tests hold the two views to each
other on every kernel, and pin the error paths both must share.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.asm.errors import AsmError
from repro.func import Machine, MachineError, alu
from repro.isa.opcodes import Opcode
from repro.programs import suite
from repro.programs.micro import MICRO_KERNELS
from repro.programs.suite import MICRO_PREFIX, kernel, kernel_names
from repro.trace import cache as trace_cache
from repro.trace.binary import TraceWriter, dumps_trace, loads_trace
from repro.trace.capture import iter_trace
from repro.trace.columnar import ColumnarTrace, ColumnarTraceError
from repro.trace.record import TraceRecord

SPEC_LIMIT = 2000
MICRO_LIMIT = 3000

KERNELS = [(name, SPEC_LIMIT) for name in kernel_names()] + [
    (MICRO_PREFIX + name, MICRO_LIMIT) for name in sorted(MICRO_KERNELS)
]


def _capture(program, limit=None):
    """Capture ``program`` through the core into an in-memory writer:
    (rows as a trace, the machine, the error raised or None)."""
    machine = Machine(program)
    writer = TraceWriter()
    error = None
    try:
        machine.execute(writer.row, limit)
    except Exception as exc:  # noqa: BLE001 - compared by the caller
        error = exc
    return loads_trace(writer.getvalue()), machine, error


def _step_all(program, limit=None):
    """Step ``program`` record by record: (records, machine, error)."""
    machine = Machine(program)
    records = []
    try:
        records.extend(iter_trace(machine, limit))
    except Exception as exc:  # noqa: BLE001
        return records, machine, exc
    return records, machine, None


@pytest.mark.parametrize(
    "name,limit", KERNELS, ids=[f"{n}@{lim}" for n, lim in KERNELS]
)
def test_step_rows_equal_captured_entry(name, limit, tmp_path, monkeypatch):
    monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
    stepped = list(iter_trace(Machine(kernel(name).program()), limit))
    captured = trace_cache.cached_trace(name, limit)
    assert isinstance(captured, ColumnarTrace)
    assert captured == stepped
    assert (
        ColumnarTrace.from_records(stepped).column_bytes("dest_fold")
        == captured.column_bytes("dest_fold")
    )


def test_step_and_capture_leave_the_same_machine_state():
    program = kernel("perl").program()
    _rows, captured, _ = _capture(program, 5000)
    stepped = Machine(program)
    for _ in range(5000):
        stepped.step()
    assert captured.regs == stepped.regs
    assert captured.pc == stepped.pc
    assert captured.instruction_count == stepped.instruction_count == 5000
    assert captured.mem._chunks == stepped.mem._chunks


@pytest.mark.parametrize(
    "target,message",
    [(0x1003, "misaligned pc: 0x1003"),
     (0x100000, "pc outside text segment: 0x100000")],
    ids=["misaligned", "outside-text"],
)
def test_bad_jump_target_raises_same_error_from_step_and_capture(
    target, message
):
    program = assemble(f"li r1, {target}\njr r1\nhalt\n")
    records, stepped, step_error = _step_all(program)
    rows, captured, capture_error = _capture(program)
    for error in (step_error, capture_error):
        assert type(error) is AsmError
        assert str(error) == message
    # The jump itself executed and was recorded; the fetch after it failed.
    assert rows == records
    assert [r.opcode for r in records] == [Opcode.LI, Opcode.JR]
    assert records[-1].next_pc == target
    for machine in (stepped, captured):
        assert machine.pc == target
        assert machine.instruction_count == 2
        assert not machine.halted


def test_direct_jump_target_is_a_64_bit_address():
    program = assemble("j -8\n")
    records, stepped, step_error = _step_all(program)
    rows, captured, capture_error = _capture(program)
    for error in (step_error, capture_error):
        assert type(error) is AsmError
        assert str(error) == "pc outside text segment: 0xfffffffffffffff8"
    assert rows == records
    assert records[0].next_pc == stepped.pc == captured.pc == (1 << 64) - 8


def test_bad_jump_target_fails_cached_capture_without_temp_file(
    tmp_path, monkeypatch
):
    spec = suite.KernelSpec("bad-jump", "li r1, 0x1003\njr r1\nhalt\n",
                            "synthetic", 0, 0.0)
    monkeypatch.setattr(suite, "kernel", lambda name: spec)
    monkeypatch.setenv(trace_cache.ENV_VAR, str(tmp_path))
    with pytest.raises(AsmError, match="misaligned pc: 0x1003"):
        trace_cache.cached_trace("bad-jump", None)
    assert list(tmp_path.iterdir()) == []


def test_write_to_r0_is_discarded():
    program = assemble("li r0, 99\naddi r0, r0, 5\nadd r1, r0, r0\nhalt\n")
    machine = Machine(program)
    first = machine.step()
    assert first.dest_reg is None and first.dest_value is None
    assert machine.regs[0] == 0 and machine.read_reg(0) == 0
    second = machine.step()
    assert second.dest_reg is None and second.dest_value is None
    third = machine.step()
    assert third.dest_reg == 1 and third.dest_value == 0
    rows, captured, _ = _capture(program)
    assert captured.regs[0] == 0
    assert [r.dest_reg for r in rows] == [None, None, 1, None]
    assert [r.writes_register for r in rows] == [False, False, True, False]


def test_register_writes_wrap_to_64_bits():
    program = assemble("li r1, -1\naddi r2, r1, 2\nslli r3, r1, 4\nhalt\n")
    records, machine, _ = _step_all(program)
    rows, captured, _ = _capture(program)
    assert rows == records
    mask = (1 << 64) - 1
    assert [r.dest_value for r in records[:3]] == [mask, 1, (mask << 4) & mask]
    for regs in (machine.regs, captured.regs):
        assert all(0 <= value <= mask for value in regs)


def test_unimplemented_opcode_raises_machine_error(monkeypatch):
    monkeypatch.setattr(alu, "binop_function", lambda opcode: None)
    program = assemble("li r2, 3\nmul r1, r2, r2\nhalt\n")
    machine = Machine(program)  # decoding alone never faults
    machine.step()
    with pytest.raises(MachineError, match="unimplemented opcode"):
        machine.step()
    assert machine.instruction_count == 1
    _rows, _captured, error = _capture(program)
    assert isinstance(error, MachineError)
    assert "unimplemented opcode" in str(error)


def test_step_and_execute_after_halt():
    machine = Machine(assemble("halt\n"))
    assert machine.step().halted
    with pytest.raises(MachineError, match="halted"):
        machine.step()
    assert machine.execute(lambda *row: None) == 0


def test_four_source_registers_still_rejected():
    record = TraceRecord(0, 0x1000, Opcode.ADD, (1, 2, 3, 4), 5, 7,
                         next_pc=0x1008)
    with pytest.raises(ColumnarTraceError, match="source registers"):
        ColumnarTrace.from_records([record])
    with pytest.raises(ColumnarTraceError, match="source registers"):
        dumps_trace([record])
