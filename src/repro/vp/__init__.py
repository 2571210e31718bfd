"""Value prediction and confidence estimation.

The paper's predictor (Section 5.2) is the two-level context-based (FCM)
predictor of Sazeides & Smith: a 64K-entry direct-mapped history table
indexed by instruction PC holds a hash (the *context*) of the most recent
four result values; the context indexes a 64K-entry prediction table whose
entries carry the predicted value and a one-bit replacement counter.

Confidence comes from a separate 64K-entry table of 3-bit resetting
counters (increment on correct, reset on incorrect; confident only at the
maximum count), compared against an oracle estimator that is confident
exactly when the prediction is correct.

Update timing is a first-class dimension: *immediate* (I) trains the
predictor with the correct value right after each prediction; *delayed*
(D) trains at retirement while speculatively inserting the predicted value
into the history table at prediction time.
"""

from repro.vp.base import ValuePredictor
from repro.vp.context import ContextValuePredictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor
from repro.vp.hybrid import HybridPredictor
from repro.vp.tagged import TaggedContextPredictor
from repro.vp.confidence import (
    ConfidenceEstimator,
    HistoryConfidenceEstimator,
    ResettingConfidenceEstimator,
    SaturatingConfidenceEstimator,
)
from repro.vp.oracle import OracleConfidence
from repro.vp.update_timing import UpdateTiming

__all__ = [
    "ValuePredictor",
    "ContextValuePredictor",
    "LastValuePredictor",
    "StridePredictor",
    "HybridPredictor",
    "TaggedContextPredictor",
    "ConfidenceEstimator",
    "ResettingConfidenceEstimator",
    "SaturatingConfidenceEstimator",
    "HistoryConfidenceEstimator",
    "OracleConfidence",
    "UpdateTiming",
]
