"""Confidence estimation for value predictions.

The paper (Section 5.2): "a confidence table is indexed using the PC of the
predicted instruction and contains resetting counters that are incremented
by 1 on correct predictions and reset to 0 on incorrect predictions.  A
prediction is considered confident when the confidence value is at
maximum."  The evaluated configuration uses 64K entries of 3-bit counters.
"""

from __future__ import annotations

import abc

from repro.isa.opcodes import INSTRUCTION_BYTES

#: PC -> counter-index shift (instructions are fixed-size and aligned);
#: the confidence tables are flat ``bytearray`` columns of saturating
#: counters, so a confidence probe is one shift-mask and one byte read.
_PC_SHIFT = INSTRUCTION_BYTES.bit_length() - 1
assert 1 << _PC_SHIFT == INSTRUCTION_BYTES


class ConfidenceEstimator(abc.ABC):
    """Assigns high/low confidence to each value prediction."""

    @abc.abstractmethod
    def confident(self, pc: int, prediction_correct: bool) -> bool:
        """High confidence for the prediction at ``pc``?

        ``prediction_correct`` is ground truth known to the simulator; a
        realistic estimator must ignore it (it exists for the oracle).
        """

    @abc.abstractmethod
    def update(self, pc: int, correct: bool) -> None:
        """Learn a resolved prediction outcome."""


class SaturatingConfidenceEstimator(ConfidenceEstimator):
    """Up/down saturating counters with a confidence threshold.

    The alternative Section 3.6 alludes to via Calder et al.'s confidence
    levels: instead of resetting to zero on a misprediction, the counter
    steps down, so a single miss in a long correct run does not forfeit
    all accumulated confidence.  More coverage, more misspeculation than
    the resetting scheme.
    """

    def __init__(
        self,
        table_bits: int = 16,
        counter_bits: int = 3,
        threshold: int | None = None,
        down_step: int = 1,
    ):
        if table_bits <= 0 or counter_bits <= 0:
            raise ValueError("table_bits and counter_bits must be positive")
        if down_step <= 0:
            raise ValueError("down_step must be positive")
        self.max_count = (1 << counter_bits) - 1
        self.threshold = self.max_count if threshold is None else threshold
        if not 0 < self.threshold <= self.max_count:
            raise ValueError("threshold must be in (0, max_count]")
        self.down_step = down_step
        self._mask = (1 << table_bits) - 1
        self._counters = bytearray(1 << table_bits)

    def _index(self, pc: int) -> int:
        return (pc >> _PC_SHIFT) & self._mask

    def counter(self, pc: int) -> int:
        return self._counters[self._index(pc)]

    def confident(self, pc: int, prediction_correct: bool) -> bool:
        return self._counters[(pc >> _PC_SHIFT) & self._mask] >= self.threshold

    def update(self, pc: int, correct: bool) -> None:
        index = (pc >> _PC_SHIFT) & self._mask
        if correct:
            if self._counters[index] < self.max_count:
                self._counters[index] += 1
        else:
            self._counters[index] = max(
                0, self._counters[index] - self.down_step
            )


class HistoryConfidenceEstimator(ConfidenceEstimator):
    """Outcome-history confidence in the spirit of Bekerman et al. [2].

    Each entry records the last ``history_bits`` prediction outcomes for
    the PC; a prediction is confident only when the recent pattern shows
    no misses.  "Associate with a mispredicted instruction part of the
    history that lead to it; in the case of future match, a prediction is
    assigned low confidence" — approximated here pattern-free: any miss in
    the recorded window blocks confidence until it ages out.
    """

    def __init__(self, table_bits: int = 16, history_bits: int = 4):
        if table_bits <= 0 or history_bits <= 0:
            raise ValueError("table_bits and history_bits must be positive")
        self.history_bits = history_bits
        self._full = (1 << history_bits) - 1
        self._mask = (1 << table_bits) - 1
        #: per-entry outcome shift register; 1 = correct.  Entries start
        #: at zero so cold instructions are low-confidence.
        self._history = bytearray(1 << table_bits)

    def _index(self, pc: int) -> int:
        return (pc >> _PC_SHIFT) & self._mask

    def confident(self, pc: int, prediction_correct: bool) -> bool:
        return self._history[(pc >> _PC_SHIFT) & self._mask] == self._full

    def update(self, pc: int, correct: bool) -> None:
        index = (pc >> _PC_SHIFT) & self._mask
        pattern = ((self._history[index] << 1) | int(correct)) & self._full
        self._history[index] = pattern


class AlwaysConfidentEstimator(ConfidenceEstimator):
    """Confidence gating disabled: every prediction is used.

    The ablation framework's lesion for the confidence component — the
    machine acts on every prediction the value predictor produces, so
    the report isolates what the confidence table itself buys.  Keeping
    it module-level keeps it picklable for the pool/service backends.
    """

    def confident(self, pc: int, prediction_correct: bool) -> bool:
        return True

    def update(self, pc: int, correct: bool) -> None:
        pass


class ResettingConfidenceEstimator(ConfidenceEstimator):
    """The paper's realistic estimator: PC-indexed resetting counters."""

    def __init__(self, table_bits: int = 16, counter_bits: int = 3):
        if table_bits <= 0 or counter_bits <= 0:
            raise ValueError("table_bits and counter_bits must be positive")
        self.table_bits = table_bits
        self.max_count = (1 << counter_bits) - 1
        self._mask = (1 << table_bits) - 1
        self._counters = bytearray(1 << table_bits)

    def _index(self, pc: int) -> int:
        return (pc >> _PC_SHIFT) & self._mask

    def counter(self, pc: int) -> int:
        """Current counter value for ``pc`` (tests/inspection)."""
        return self._counters[self._index(pc)]

    def confident(self, pc: int, prediction_correct: bool) -> bool:
        return self._counters[(pc >> _PC_SHIFT) & self._mask] == self.max_count

    def update(self, pc: int, correct: bool) -> None:
        index = (pc >> _PC_SHIFT) & self._mask
        if correct:
            if self._counters[index] < self.max_count:
                self._counters[index] += 1
        else:
            self._counters[index] = 0
