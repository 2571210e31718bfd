"""Context-based (FCM) value predictor tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import INSTRUCTION_BYTES
from repro.vp.context import ContextValuePredictor, fold_value


def _train_sequence(predictor, pc, values, repeats):
    for __ in range(repeats):
        for value in values:
            predictor.predict(pc)
            predictor.train(pc, value)


class TestImmediateTiming:
    def test_learns_constant(self):
        predictor = ContextValuePredictor()
        _train_sequence(predictor, 0x1000, [7], 6)
        assert predictor.predict(0x1000) == 7

    def test_learns_periodic_sequence(self):
        predictor = ContextValuePredictor(order=4)
        values = [10, 20, 30, 40]
        _train_sequence(predictor, 0x1000, values, 4)
        # after warmup every next value is predicted correctly
        correct = 0
        for __ in range(2):
            for value in values:
                if predictor.predict(0x1000) == value:
                    correct += 1
                predictor.train(0x1000, value)
        assert correct == 8

    def test_period_longer_than_order_still_learns(self):
        # period 6 > order 4, but contexts are still distinct per phase
        predictor = ContextValuePredictor(order=4)
        values = [3, 1, 4, 1, 5, 9]
        _train_sequence(predictor, 0x1000, values, 6)
        correct = 0
        for v in values:
            if predictor.predict(0x1000) == v:
                correct += 1
            predictor.train(0x1000, v)
        assert correct >= 5

    def test_counting_sequence_is_unpredictable(self):
        predictor = ContextValuePredictor()
        hits = 0
        for i in range(200):
            if predictor.predict(0x1000) == i:
                hits += 1
            predictor.train(0x1000, i)
        assert hits < 10  # fresh contexts every time

    def test_l2_shared_across_pcs(self):
        """Instructions producing identical sequences share level-2 state
        (the context indexes by value history only)."""
        teacher = 0x1000
        student = 0x80000  # different L1 entry
        predictor = ContextValuePredictor()
        _train_sequence(predictor, teacher, [5, 6, 7, 8], 5)
        # warm the student's history with the same values but do not let
        # its own training matter: one pass to set L1 history
        for value in (5, 6, 7, 8):
            predictor.train(student, value)
        assert predictor.predict(student) == 5  # learned from the teacher


class TestDelayedTiming:
    def test_speculative_history_sustains_correct_chains(self):
        predictor = ContextValuePredictor(order=4)
        values = [10, 20, 30, 40]
        _train_sequence(predictor, 0x1000, values, 5)  # warm committed state
        # now predict 8 in flight before any retire, chained speculatively
        tokens, predictions = [], []
        expected = values * 2
        for v in expected:
            prediction = predictor.predict(0x1000)
            predictions.append(prediction)
            tokens.append(predictor.speculate(0x1000, prediction))
        assert predictions == expected
        # retire them in order
        for token, v in zip(tokens, expected):
            predictor.train(0x1000, v, token)
        assert predictor.speculative_depth(0x1000) == 0

    def test_mispredicted_chain_is_squashed(self):
        predictor = ContextValuePredictor(order=2)
        p1 = predictor.predict(0x1000)
        t1 = predictor.speculate(0x1000, p1)
        p2 = predictor.predict(0x1000)
        t2 = predictor.speculate(0x1000, p2)
        assert predictor.speculative_depth(0x1000) == 2
        predictor.train(0x1000, p1 + 1, t1)  # mismatch: chain dies
        assert predictor.speculative_depth(0x1000) == 0
        predictor.train(0x1000, 5, t2)  # token already squashed: no error

    def test_correct_retire_removes_only_own_entry(self):
        predictor = ContextValuePredictor()
        p1 = predictor.predict(0x1000)
        t1 = predictor.speculate(0x1000, p1)
        p2 = predictor.predict(0x1000)
        predictor.speculate(0x1000, p2)
        predictor.train(0x1000, p1, t1)  # correct
        assert predictor.speculative_depth(0x1000) == 1

    def test_flush_speculative(self):
        predictor = ContextValuePredictor()
        predictor.speculate(0x1000, 1)
        predictor.speculate(0x1000, 2)
        predictor.flush_speculative(0x1000)
        assert predictor.speculative_depth(0x1000) == 0


def test_fold_value():
    assert fold_value(0, 16) == 0
    assert fold_value(0xFFFF, 16) == 0xFFFF
    assert fold_value(0x1_0001, 16) == 0  # chunks XOR out
    assert 0 <= fold_value(0xDEADBEEFCAFEBABE, 16) < (1 << 16)


@given(value=st.integers(0, (1 << 64) - 1), bits=st.integers(1, 32))
def test_fold_value_in_range(value, bits):
    assert 0 <= fold_value(value, bits) < (1 << bits)


def test_committed_history_introspection():
    predictor = ContextValuePredictor(order=3)
    for value in (1, 2, 3, 4):
        predictor.train(0x1000, value)
    assert predictor.committed_history(0x1000) == (2, 3, 4)


def test_validation():
    with pytest.raises(ValueError):
        ContextValuePredictor(order=0)
    with pytest.raises(ValueError):
        ContextValuePredictor(history_bits=0)


# Four PCs over a 2-entry level-1 table, so entries alias in pairs.
_PCS = [0x1000 + i * INSTRUCTION_BYTES for i in range(4)]
_VALUES = [1, 2, 7, 0xFFFF, 0x1_0001, (1 << 64) - 1]

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("predict"), st.sampled_from(_PCS)),
        st.tuples(
            st.just("train"),
            st.integers(0, 15),  # which outstanding prediction retires
            st.sampled_from([None, *_VALUES]),  # None: the prediction
        ),
        st.tuples(st.just("flush"), st.sampled_from(_PCS)),
    ),
    max_size=60,
)


def _assert_same_state(fused, split):
    for pc in _PCS:
        assert fused.context_of(pc) == split.context_of(pc)
        assert fused.speculative_depth(pc) == split.speculative_depth(pc)
        assert fused.committed_history(pc) == split.committed_history(pc)


@settings(max_examples=400)
@given(
    ops=_ops,
    context_bits=st.sampled_from([16, 8]),  # 16 uses the trace's fold16
    order=st.integers(1, 4),
)
def test_predict_speculate_matches_predict_then_speculate(
    ops, context_bits, order
):
    """The engine's one delayed-timing dispatch call is a hand-fused copy
    of ``predict`` + ``speculate``; both must evolve identical state under
    any interleaving of predictions, retirements and squash flushes."""
    fused = ContextValuePredictor(
        history_bits=1, context_bits=context_bits, order=order
    )
    split = ContextValuePredictor(
        history_bits=1, context_bits=context_bits, order=order
    )
    outstanding = []  # (pc, token, predicted), oldest first
    for op in ops:
        if op[0] == "predict":
            pc = op[1]
            predicted, token = fused.predict_speculate(pc)
            split_predicted = split.predict(pc)
            split_token = split.speculate(pc, split_predicted)
            assert (predicted, token) == (split_predicted, split_token)
            outstanding.append((pc, token, predicted))
        elif op[0] == "train":
            if not outstanding:
                continue
            pc, token, predicted = outstanding.pop(op[1] % len(outstanding))
            actual = predicted if op[2] is None else op[2]
            fold16 = fold_value(actual, 16)
            fused.train(pc, actual, token, fold16)
            split.train(pc, actual, token, fold16)
        else:
            fused.flush_speculative(op[1])
            split.flush_speculative(op[1])
        _assert_same_state(fused, split)
