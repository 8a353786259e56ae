"""Linear classification head: logits y = W z on extracted features.

W is zero-initialized, so a fresh head (with a zero-init LoRA) predicts
the uniform distribution: step-0 loss is ln(c) on the nose. Bias is off
by default; a flag exists because real probes often add one.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .tensor import Tensor


class LinearHead:
    def __init__(self, num_classes: int, feature_dim: int, use_bias: bool = False, precision: str = "f64"):
        if num_classes < 2:
            raise ConfigError(f"head needs at least 2 classes, got {num_classes}")
        dt = T.resolve_dtype(precision)
        self.W = Tensor(np.zeros((num_classes, feature_dim), dtype=dt), requires_grad=True, name="head.W")
        self.b = (
            Tensor(np.zeros(num_classes, dtype=dt), requires_grad=True, name="head.b")
            if use_bias else None
        )

    @property
    def num_classes(self) -> int:
        return self.W.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.W.shape[1]

    def parameters(self) -> dict[str, Tensor]:
        out = {"head.W": self.W}
        if self.b is not None:
            out["head.b"] = self.b
        return out

    def forward(self, z: Tensor) -> Tensor:
        if z.shape[-1] != self.feature_dim:
            raise DimensionError(f"feature width {z.shape} does not match head ({self.feature_dim})")
        return T.linear(z, self.W, self.b)


def predict_top1(logits) -> np.ndarray | int:
    """Argmax class index; ties break to the lowest index."""
    arr = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise DimensionError("empty logits")
    idx = np.argmax(arr, axis=-1)
    return int(idx) if arr.ndim == 1 else idx


def top1_accuracy(logits, labels) -> float:
    pred = predict_top1(logits)
    return float(np.mean(np.asarray(pred) == np.asarray(labels)))
