"""Stride value predictor — ablation baseline.

Predicts ``last + stride`` where the stride is the difference between the
two most recent values, confirmed by a two-delta policy (the stride only
changes after it repeats), which avoids thrashing on alternating values.
Under delayed timing ``last`` advances speculatively with the prediction;
stride learning happens at retirement from committed values only.

Entry state lives in four flat preallocated parallel columns (speculative
last, committed last, confirmed stride, pending stride) indexed by the
PC hash — no per-entry objects, no dict on the hot path.
"""

from __future__ import annotations

from repro.isa.opcodes import INSTRUCTION_BYTES
from repro.vp.base import ValuePredictor

_MASK64 = (1 << 64) - 1
_PC_SHIFT = INSTRUCTION_BYTES.bit_length() - 1
assert 1 << _PC_SHIFT == INSTRUCTION_BYTES


class StridePredictor(ValuePredictor):
    """Two-delta stride predictor with speculative last-value advance."""

    def __init__(self, table_bits: int = 16):
        if table_bits <= 0:
            raise ValueError("table_bits must be positive")
        self._mask = (1 << table_bits) - 1
        size = 1 << table_bits
        self._last = [0] * size  # speculative front (advanced by predictions)
        self._committed_last = [0] * size  # architected last value
        self._stride = [0] * size
        self._pending_stride: list[int | None] = [None] * size

    def predict(self, pc: int) -> int:
        index = (pc >> _PC_SHIFT) & self._mask
        return (self._last[index] + self._stride[index]) & _MASK64

    def speculate(self, pc: int, predicted: int) -> None:
        self._last[(pc >> _PC_SHIFT) & self._mask] = predicted & _MASK64
        return None

    def train(
        self,
        pc: int,
        actual: int,
        token: object | None = None,
        fold16: int | None = None,
    ) -> None:
        actual &= _MASK64
        index = (pc >> _PC_SHIFT) & self._mask
        new_stride = (actual - self._committed_last[index]) & _MASK64
        if new_stride == self._stride[index]:
            self._pending_stride[index] = None
        elif self._pending_stride[index] == new_stride:
            self._stride[index] = new_stride
            self._pending_stride[index] = None
        else:
            self._pending_stride[index] = new_stride
        self._committed_last[index] = actual
        if token is None:
            # Immediate timing: the speculative front is the actual value.
            self._last[index] = actual
