"""Value-predictor interface shared by every implementation."""

from __future__ import annotations

import abc


class ValuePredictor(abc.ABC):
    """A PC-indexed predictor of instruction output values.

    The engine drives predictors through these calls, matching the
    paper's two update-timing policies (Section 5.2):

    * Under **immediate** (I) timing the engine calls :meth:`predict` at
      dispatch and then ``train(pc, actual, None, fold16)`` right away:
      internal history advances with the correct value and the
      prediction structures learn instantly.

    * Under **delayed** (D) timing the engine calls
      ``predicted, token = predict_speculate(pc)`` at dispatch — the
      history is updated *speculatively with the prediction* (and never
      repaired) — and ``train(pc, actual, token, fold16)`` at
      retirement, which trains the prediction structures using the
      context that was live at prediction time without touching the
      history again.

    * When a squash removes an in-flight delayed-timing prediction the
      engine calls :meth:`flush_speculative` for its PC.
    """

    @abc.abstractmethod
    def predict(self, pc: int) -> int:
        """Predicted output value for the instruction at ``pc``."""

    @abc.abstractmethod
    def speculate(self, pc: int, predicted: int) -> object:
        """Speculatively advance the history for ``pc`` with ``predicted``;
        returns an opaque token to pass back to :meth:`train` at
        retirement."""

    @abc.abstractmethod
    def train(
        self,
        pc: int,
        actual: int,
        token: object | None = None,
        fold16: int | None = None,
    ) -> None:
        """Train with the architecturally correct value.

        ``token=None`` is immediate timing: the history also advances with
        ``actual``.  A token from :meth:`speculate` is delayed timing: only
        the prediction structures are trained (against the saved context);
        the speculatively-updated history is left as is.

        ``fold16`` is an optional precomputed 16-bit XOR-fold of ``actual``
        (``TraceRecord.dest_fold``) — a pure caching hint.  Predictors that
        hash value folds use it when their fold width is 16 bits and must
        recompute otherwise; passing it never changes any result.
        """

    def predict_speculate(self, pc: int) -> tuple[int, object]:
        """Fused :meth:`predict` + :meth:`speculate` (delayed timing's
        dispatch-time pair).  Semantically identical to calling both;
        implementations may override to share the per-PC entry lookup."""
        predicted = self.predict(pc)
        return predicted, self.speculate(pc, predicted)

    def flush_speculative(self, pc: int) -> None:
        """Hook for squash recovery; predictors whose speculative state
        self-corrects (the paper's choice) need not override."""
