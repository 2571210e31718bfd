"""Hybrid (tournament) value predictor — ablation/extension.

Combines a context-based and a stride component with a per-PC chooser of
saturating 2-bit counters, in the spirit of the two-level + stride hybrids
discussed in the follow-on literature.  Not part of the paper's headline
configuration; used by the predictor-comparison bench.
"""

from __future__ import annotations

from repro.isa.opcodes import INSTRUCTION_BYTES
from repro.vp.base import ValuePredictor
from repro.vp.context import ContextValuePredictor
from repro.vp.stride import StridePredictor

_MASK64 = (1 << 64) - 1
_PC_SHIFT = INSTRUCTION_BYTES.bit_length() - 1


class HybridPredictor(ValuePredictor):
    """Chooser-arbitrated context + stride predictor."""

    def __init__(self, table_bits: int = 16, order: int = 4):
        self.context = ContextValuePredictor(
            history_bits=table_bits, context_bits=table_bits, order=order
        )
        self.stride = StridePredictor(table_bits=table_bits)
        self._chooser_mask = (1 << table_bits) - 1
        # 2-bit counter; >= 2 selects the context component.
        self._chooser = bytearray([2] * (1 << table_bits))

    def _index(self, pc: int) -> int:
        return (pc >> _PC_SHIFT) & self._chooser_mask

    def predict(self, pc: int) -> int:
        ctx_pred = self.context.predict(pc)
        stride_pred = self.stride.predict(pc)
        use_context = self._chooser[self._index(pc)] >= 2
        return ctx_pred if use_context else stride_pred

    def speculate(self, pc: int, predicted: int) -> tuple:
        """Both components advance speculatively; the component predictions
        live in the token so the chooser can train at retirement."""
        ctx_pred = self.context.predict(pc)
        stride_pred = self.stride.predict(pc)
        ctx_token = self.context.speculate(pc, predicted)
        stride_token = self.stride.speculate(pc, predicted)
        return (ctx_token, stride_token, ctx_pred, stride_pred)

    def train(
        self,
        pc: int,
        actual: int,
        token: object | None = None,
        fold16: int | None = None,
    ) -> None:
        actual &= _MASK64
        if token is None:
            ctx_pred = self.context.predict(pc)
            stride_pred = self.stride.predict(pc)
            self._train_chooser(pc, ctx_pred == actual, stride_pred == actual)
            self.context.train(pc, actual, fold16=fold16)
            self.stride.train(pc, actual, fold16=fold16)
        else:
            ctx_token, stride_token, ctx_pred, stride_pred = token
            self._train_chooser(pc, ctx_pred == actual, stride_pred == actual)
            self.context.train(pc, actual, ctx_token, fold16)
            self.stride.train(pc, actual, stride_token, fold16)

    def _train_chooser(self, pc: int, ctx_right: bool, stride_right: bool) -> None:
        index = self._index(pc)
        counter = self._chooser[index]
        if ctx_right and not stride_right and counter < 3:
            self._chooser[index] = counter + 1
        elif stride_right and not ctx_right and counter > 0:
            self._chooser[index] = counter - 1
