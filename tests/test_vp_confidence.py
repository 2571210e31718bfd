"""Confidence estimator tests."""

import pytest

from repro.vp.confidence import ResettingConfidenceEstimator
from repro.vp.fixed import AlwaysConfident, ConfidentForPCs, FixedValuePredictor
from repro.vp.oracle import OracleConfidence


class TestResettingCounters:
    def test_confident_only_at_maximum(self):
        estimator = ResettingConfidenceEstimator(counter_bits=3)
        pc = 0x1000
        for i in range(7):
            assert not estimator.confident(pc, True)
            estimator.update(pc, True)
        assert estimator.confident(pc, True)
        assert estimator.counter(pc) == 7

    def test_incorrect_resets_to_zero(self):
        estimator = ResettingConfidenceEstimator(counter_bits=3)
        pc = 0x1000
        for __ in range(7):
            estimator.update(pc, True)
        estimator.update(pc, False)
        assert estimator.counter(pc) == 0
        assert not estimator.confident(pc, True)

    def test_counter_saturates(self):
        estimator = ResettingConfidenceEstimator(counter_bits=2)
        for __ in range(10):
            estimator.update(0x1000, True)
        assert estimator.counter(0x1000) == 3

    def test_ground_truth_is_ignored(self):
        estimator = ResettingConfidenceEstimator()
        assert estimator.confident(0x1000, True) == estimator.confident(
            0x1000, False
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ResettingConfidenceEstimator(table_bits=0)
        with pytest.raises(ValueError):
            ResettingConfidenceEstimator(counter_bits=0)


class TestOracle:
    def test_tracks_ground_truth_exactly(self):
        oracle = OracleConfidence()
        assert oracle.confident(0x1000, True)
        assert not oracle.confident(0x1000, False)

    def test_update_is_noop(self):
        oracle = OracleConfidence()
        oracle.update(0x1000, False)
        assert oracle.confident(0x1000, True)


class TestScriptedHelpers:
    def test_fixed_predictor(self):
        predictor = FixedValuePredictor({0x1000: 5})
        assert predictor.predict(0x1000) == 5
        assert predictor.predict(0x2000) == 0xDEADBEEF
        predictor.train(0x1000, 9)  # no-op
        assert predictor.predict(0x1000) == 5

    def test_always_confident(self):
        assert AlwaysConfident().confident(0x1, False)

    def test_confident_for_pcs(self):
        estimator = ConfidentForPCs({0x1000})
        assert estimator.confident(0x1000, False)
        assert not estimator.confident(0x2000, True)
