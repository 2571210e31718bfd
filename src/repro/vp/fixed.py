"""Scripted predictor and confidence estimators for controlled experiments.

The Figure 1 reproduction needs exact control over which instructions are
predicted and whether their predictions are correct; these classes provide
that control without touching the engine.
"""

from __future__ import annotations

from repro.vp.base import ValuePredictor
from repro.vp.confidence import ConfidenceEstimator

_MASK64 = (1 << 64) - 1


class FixedValuePredictor(ValuePredictor):
    """Predicts a scripted value per PC; unlisted PCs predict a sentinel
    that never matches (so confidence gating keeps them unspeculated)."""

    def __init__(self, values_by_pc: dict[int, int], default: int = 0xDEAD_BEEF):
        self.values_by_pc = {pc: v & _MASK64 for pc, v in values_by_pc.items()}
        self.default = default & _MASK64

    def predict(self, pc: int) -> int:
        return self.values_by_pc.get(pc, self.default)

    def speculate(self, pc: int, predicted: int) -> None:
        return None

    def train(
        self,
        pc: int,
        actual: int,
        token: object | None = None,
        fold16: int | None = None,
    ) -> None:
        """Scripted predictors do not learn."""


class AlwaysConfident(ConfidenceEstimator):
    """Speculate on every prediction (used to force misspeculation)."""

    def confident(self, pc: int, prediction_correct: bool) -> bool:
        return True

    def update(self, pc: int, correct: bool) -> None:
        """Nothing to learn."""


class ConfidentForPCs(ConfidenceEstimator):
    """Speculate only on a scripted set of PCs."""

    def __init__(self, pcs: set[int]):
        self.pcs = set(pcs)

    def confident(self, pc: int, prediction_correct: bool) -> bool:
        return pc in self.pcs

    def update(self, pc: int, correct: bool) -> None:
        """Nothing to learn."""
