"""Unit tests for stride, VTAGE, oracle and no-VP predictors."""

import pytest

from repro.errors import PredictorError
from repro.vp.base import AccessKey
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor
from repro.vp.oracle import OracleTargetPredictor
from repro.vp.stride import StridePredictor
from repro.vp.vtage import VtagePredictor


def key(pc=0x1000, addr=0x100, pid=0):
    return AccessKey(pc=pc, addr=addr, pid=pid)


class TestNoPredictor:
    def test_never_predicts(self):
        predictor = NoPredictor()
        for value in range(10):
            predictor.train(key(), 42)
        assert predictor.predict(key()) is None
        assert predictor.stats.no_predictions == 1

    def test_reset_is_noop(self):
        NoPredictor().reset()


class TestStride:
    def test_learns_constant_stride(self):
        predictor = StridePredictor(confidence_threshold=2)
        for value in (10, 20, 30, 40):
            predictor.train(key(), value)
        prediction = predictor.predict(key())
        assert prediction is not None
        assert prediction.value == 50

    def test_constant_value_is_zero_stride(self):
        # A trained stride predictor subsumes LVP: same attack surface.
        predictor = StridePredictor(confidence_threshold=2)
        for _ in range(4):
            predictor.train(key(), 42)
        assert predictor.predict(key()).value == 42

    def test_stride_change_resets(self):
        predictor = StridePredictor(confidence_threshold=2)
        for value in (10, 20, 30):
            predictor.train(key(), value)
        predictor.train(key(), 100)
        assert predictor.predict(key()) is None

    def test_capacity_eviction(self):
        predictor = StridePredictor(confidence_threshold=1, capacity=1)
        predictor.train(key(pc=0x10), 1)
        predictor.train(key(pc=0x14), 2)
        assert predictor.stats.evictions == 1

    def test_validation(self):
        with pytest.raises(PredictorError):
            StridePredictor(confidence_threshold=0)
        with pytest.raises(PredictorError):
            StridePredictor(capacity=0)


class TestVtage:
    def test_constant_value_predicted(self):
        predictor = VtagePredictor(confidence_threshold=4)
        for _ in range(5):
            predictor.train(key(), 42)
        prediction = predictor.predict(key())
        assert prediction is not None
        assert prediction.value == 42

    def test_single_conflicting_access_invalidates_base(self):
        predictor = VtagePredictor(confidence_threshold=4)
        for _ in range(5):
            predictor.train(key(), 42)
        predictor.train(key(), 99)
        prediction = predictor.predict(key())
        # The base entry reset; a tagged component may or may not have
        # re-learnt 99 yet, but it must not still predict 42.
        assert prediction is None or prediction.value != 42

    def test_different_pcs_are_independent(self):
        predictor = VtagePredictor(confidence_threshold=2)
        for _ in range(3):
            predictor.train(key(pc=0x10), 1)
        assert predictor.predict(key(pc=0x20)) is None

    def test_reset(self):
        predictor = VtagePredictor(confidence_threshold=2)
        for _ in range(3):
            predictor.train(key(), 1)
        predictor.reset()
        assert predictor.predict(key()) is None

    def test_history_length_validation(self):
        with pytest.raises(PredictorError):
            VtagePredictor(history_lengths=())
        with pytest.raises(PredictorError):
            VtagePredictor(history_lengths=(8, 4))


class TestOracle:
    def test_only_targets_predicted(self):
        inner = LastValuePredictor(confidence_threshold=2)
        oracle = OracleTargetPredictor(inner, target_pcs=[0x10])
        for _ in range(3):
            oracle.train(key(pc=0x10), 1)
            oracle.train(key(pc=0x20), 2)
        assert oracle.predict(key(pc=0x10)) is not None
        assert oracle.predict(key(pc=0x20)) is None

    def test_inner_still_trains_non_targets(self):
        inner = LastValuePredictor(confidence_threshold=2)
        oracle = OracleTargetPredictor(inner, target_pcs=[])
        for _ in range(3):
            oracle.train(key(pc=0x20), 2)
        # Adding the target later exposes the already-trained entry.
        oracle.add_target(0x20)
        assert oracle.predict(key(pc=0x20)) is not None

    def test_remove_target(self):
        inner = LastValuePredictor(confidence_threshold=1)
        oracle = OracleTargetPredictor(inner, target_pcs=[0x10])
        oracle.train(key(pc=0x10), 1)
        oracle.remove_target(0x10)
        assert oracle.predict(key(pc=0x10)) is None

    def test_requires_inner(self):
        with pytest.raises(PredictorError):
            OracleTargetPredictor(None)
