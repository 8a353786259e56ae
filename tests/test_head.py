import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.errors import ConfigError, DimensionError
from peftlab.head import LinearHead, predict_top1, top1_accuracy
from peftlab.rng import Rng
from peftlab.tensor import Tensor


def test_identity_weight_passes_features_through():
    head = LinearHead(4, 4)
    head.W.data[:] = np.eye(4)
    z = Rng(0).normal((4,))
    np.testing.assert_array_equal(head.forward(Tensor(z)).data, z)


def test_zero_weight_gives_zero_logits():
    head = LinearHead(3, 5)
    z = Tensor(Rng(1).normal((7, 5)))
    np.testing.assert_array_equal(head.forward(z).data, np.zeros((7, 3)))


def test_hand_oracle():
    # W = [[1,0],[0,2]], z = [3,4] -> y = [3, 8]
    head = LinearHead(2, 2)
    head.W.data[:] = [[1.0, 0.0], [0.0, 2.0]]
    np.testing.assert_array_equal(head.forward(Tensor([3.0, 4.0])).data, [3.0, 8.0])


def test_width_mismatch():
    head = LinearHead(3, 5)
    with pytest.raises(DimensionError):
        head.forward(Tensor(np.ones(4)))


def test_needs_two_classes():
    with pytest.raises(ConfigError):
        LinearHead(1, 8)


def test_predict_top1():
    assert predict_top1(np.array([0.1, 0.9])) == 1
    assert predict_top1(np.array([0.5, 0.5, 0.5])) == 0  # tie -> lowest index
    logits = Rng(2).normal((6, 4))
    np.testing.assert_array_equal(predict_top1(logits + 10.0), predict_top1(logits))
    with pytest.raises(DimensionError):
        predict_top1(np.zeros(0))


def test_scale_covariance():
    head = LinearHead(3, 4)
    head.W.data[:] = Rng(3).normal((3, 4))
    z = Tensor(Rng(4).normal((5, 4)))
    y1 = head.forward(z).data.copy()
    head.W.data *= 2.5
    np.testing.assert_allclose(head.forward(z).data, 2.5 * y1, rtol=1e-12)
    np.testing.assert_array_equal(predict_top1(2.5 * y1), predict_top1(y1))


def test_probe_isolation():
    # gradients land on head parameters only when features are detached
    head = LinearHead(3, 4, use_bias=True)
    feats = Tensor(Rng(5).normal((6, 4)), requires_grad=False)
    loss = T.softmax_cross_entropy(head.forward(feats), np.array([0, 1, 2, 0, 1, 2]))
    loss.backward()
    assert head.W.grad is not None and head.b.grad is not None
    assert feats.grad is None


def test_top1_accuracy():
    logits = np.array([[2.0, 1.0], [0.0, 1.0], [3.0, 0.0]])
    assert top1_accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2.0 / 3.0)
