"""Last-value predictor [Lipasti et al. 1996] — ablation baseline.

Predicts that an instruction produces the same value as its previous
dynamic instance.  The simplest useful value predictor; the gap between it
and the context-based predictor shows how much context history buys.
"""

from __future__ import annotations

from repro.isa.opcodes import INSTRUCTION_BYTES
from repro.vp.base import ValuePredictor

_MASK64 = (1 << 64) - 1
_PC_SHIFT = INSTRUCTION_BYTES.bit_length() - 1
assert 1 << _PC_SHIFT == INSTRUCTION_BYTES


class LastValuePredictor(ValuePredictor):
    """Direct-mapped table of most recent values, untagged, stored as one
    flat preallocated column (cold entries predict 0, exactly as the
    seed's dict-with-default did).

    Under delayed timing the table is updated speculatively with the
    prediction (which, for a last-value predictor, is a no-op when the
    prediction equals the stored value) and corrected at retirement.
    """

    def __init__(self, table_bits: int = 16):
        if table_bits <= 0:
            raise ValueError("table_bits must be positive")
        self._mask = (1 << table_bits) - 1
        self._values = [0] * (1 << table_bits)

    def _index(self, pc: int) -> int:
        return (pc >> _PC_SHIFT) & self._mask

    def predict(self, pc: int) -> int:
        return self._values[(pc >> _PC_SHIFT) & self._mask]

    def speculate(self, pc: int, predicted: int) -> None:
        self._values[(pc >> _PC_SHIFT) & self._mask] = predicted & _MASK64
        return None

    def train(
        self,
        pc: int,
        actual: int,
        token: object | None = None,
        fold16: int | None = None,
    ) -> None:
        self._values[(pc >> _PC_SHIFT) & self._mask] = actual & _MASK64
