"""AdamW (decoupled weight decay) with an optional cosine schedule.

The optimizer owns its parameters' storage: construction copies every
parameter into its slice of one flat buffer and rebinds `p.data` to a
view of that slice, so a step updates all of them in place with a few
ufunc passes over the flat buffer and the flat `m` and `v`. Rebinding a
parameter's `.data` after construction detaches it: the optimizer keeps
updating the old slice, and the parameter no longer sees the updates.
`load_adapters` and `LoraPair.merge` rebind `.data`, on tensors that no
optimizer owns at that point.

Per element, a step performs the same IEEE operations, in the same
order, as the textbook per-tensor expressions, so results are
bit-identical to them and trajectories are bit-reproducible for a given
seed/config/precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import Tensor


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr at step 0 toward zero at total_steps."""
    if total_steps <= 0:
        return base_lr
    frac = min(max(step / total_steps, 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


class AdamW:
    def __init__(
        self,
        params: list[Tensor],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 1e-2,
        schedule: str = "cosine",
        max_steps: int | None = None,
    ):
        if schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown schedule {schedule!r}")
        if schedule == "cosine" and max_steps is None:
            raise ConfigError("cosine schedule needs max_steps")
        self.params = list(params)
        dtypes = sorted({str(p.data.dtype) for p in self.params})
        if len(dtypes) > 1:
            raise ConfigError(f"AdamW parameters must share one dtype, got {', '.join(dtypes)}")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ConfigError("AdamW got the same parameter twice")
        # Python floats, so that an f32 buffer stays f32 (NEP 50 weak scalars)
        self.lr = float(lr)
        self.b1, self.b2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.schedule = schedule
        self.max_steps = max_steps
        self.t = 0
        # parameter i owns data[bounds[i]:bounds[i + 1]], and the same slice of m and v
        self.bounds = [0]
        for p in self.params:
            self.bounds.append(self.bounds[-1] + p.data.size)
        dtype = np.dtype(dtypes[0]) if dtypes else np.dtype(np.float64)
        self.data = np.empty(self.bounds[-1], dtype=dtype)
        for p, lo, hi in zip(self.params, self.bounds, self.bounds[1:]):
            self.data[lo:hi] = p.data.reshape(-1)
            p.data = self.data[lo:hi].reshape(p.data.shape)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        # work buffers: the gathered gradient, later reused as scratch, and one scratch
        self._grad = np.empty_like(self.data)
        self._scratch = np.empty_like(self.data)

    def current_lr(self) -> float:
        if self.schedule == "cosine":
            return cosine_lr(self.lr, self.t, self.max_steps)
        return self.lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _gather(self) -> list[tuple[int, int]]:
        """Copy every gradient into the flat gradient buffer; return the
        maximal runs [lo, hi) of consecutive parameters that have one."""
        runs: list[tuple[int, int]] = []
        for p, lo, hi in zip(self.params, self.bounds, self.bounds[1:]):
            if p.grad is None:
                continue
            self._grad[lo:hi] = p.grad.reshape(-1)
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return runs

    def step(self) -> None:
        lr_t = self.current_lr()
        self.t += 1
        runs = self._gather()
        if not all(np.isfinite(self._grad[lo:hi]).all() for lo, hi in runs):
            for p in self.params:
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise NumericError(f"non-finite gradient for {p.name or 'parameter'} at step {self.t}")
        b1, b2, eps, wd = self.b1, self.b2, self.eps, self.weight_decay
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        lr = self.data.dtype.type(lr_t)
        for lo, hi in runs:
            p, m, v = self.data[lo:hi], self.m[lo:hi], self.v[lo:hi]
            g, s = self._grad[lo:hi], self._scratch[lo:hi]
            # m = b1 * m + (1 - b1) * g
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            # v = b2 * v + ((1 - b2) * g) * g
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            # u = (m / bc1) / (sqrt(v / bc2) + eps) + wd * p, with g free for scratch
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += eps
            np.divide(m, bc1, out=s)
            s /= g
            np.multiply(p, wd, out=g)
            s += g
            # p = p - lr * u
            s *= lr
            p -= s
