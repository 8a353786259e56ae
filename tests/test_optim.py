"""AdamW over its flat, optimizer-owned buffer against the per-tensor
textbook update, bit for bit."""

import math

import numpy as np
import pytest

from peftlab.errors import ConfigError, NumericError
from peftlab.optim import AdamW, cosine_lr
from peftlab.rng import Rng
from peftlab.tensor import Tensor
from peftlab.vit import PRESETS, ViTModel

# 1-D biases, a (17, 32) matrix and a (5, 32) head
SHAPES = {"b0": (32,), "pos": (17, 32), "b1": (128,), "head.W": (5, 32), "head.b": (5,)}


class ReferenceAdamW:
    """The per-parameter AdamW step, one expression per moment, no buffers shared."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-2,
                 schedule="cosine", max_steps=None):
        self.params = list(params)
        self.lr = float(lr)
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.schedule = schedule
        self.max_steps = max_steps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        lr_t = cosine_lr(self.lr, self.t, self.max_steps) if self.schedule == "cosine" else self.lr
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for {p.name or 'parameter'} at step {self.t}")
            self.m[i] = self.b1 * self.m[i] + (1.0 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1.0 - self.b2) * g * g
            mhat = self.m[i] / (1.0 - self.b1**self.t)
            vhat = self.v[i] / (1.0 - self.b2**self.t)
            update = mhat / (np.sqrt(vhat) + self.eps) + self.weight_decay * p.data
            p.data = p.data - p.data.dtype.type(lr_t) * update.astype(p.data.dtype)


def make_params(dtype, seed=0):
    rng = Rng(seed)
    return [Tensor(rng.normal(shape, std=0.5).astype(dtype), requires_grad=True, name=name)
            for name, shape in SHAPES.items()]


def moments(opt, i):
    """(m, v) of parameter i, shaped like it."""
    lo, hi = opt.bounds[i], opt.bounds[i + 1]
    shape = opt.params[i].shape
    return opt.m[lo:hi].reshape(shape), opt.v[lo:hi].reshape(shape)


def set_grads(pairs, rng, skip=()):
    """Give the i-th parameter of both lists the same gradient (None for i in skip)."""
    for i, (a, b) in enumerate(pairs):
        if i in skip:
            a.grad = b.grad = None
            continue
        # a spread of magnitudes, so tiny and large second moments both occur
        g = rng.normal(a.shape) * 10.0 ** rng.uniform(a.shape, low=-6.0, high=1.0)
        a.grad = g.astype(a.data.dtype)
        b.grad = g.astype(b.data.dtype)


def assert_same_state(ref, opt):
    for i, (r, p) in enumerate(zip(ref.params, opt.params)):
        m, v = moments(opt, i)
        assert p.data.dtype == r.data.dtype and m.dtype == ref.m[i].dtype
        assert p.data.tobytes() == r.data.tobytes(), f"{p.name}: data"
        assert m.tobytes() == ref.m[i].tobytes(), f"{p.name}: m"
        assert v.tobytes() == ref.v[i].tobytes(), f"{p.name}: v"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("schedule", ["cosine", "constant"])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_step_matches_reference_bitwise(dtype, schedule, weight_decay):
    steps = 30
    kw = dict(lr=3e-2, weight_decay=weight_decay, schedule=schedule, max_steps=steps)
    ref = ReferenceAdamW(make_params(dtype), **kw)
    opt = AdamW(make_params(dtype), **kw)
    assert opt.data.dtype == dtype
    rng = Rng(1)
    for _ in range(steps):
        set_grads(zip(ref.params, opt.params), rng)
        ref.step()
        opt.step()
        assert_same_state(ref, opt)
        opt.zero_grad()
    assert all(p.grad is None for p in opt.params)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("skip", [(0,), (2,), (4,), (1, 3), (0, 1, 2, 3, 4)])
def test_none_gradient_leaves_parameter_and_moments_untouched(dtype, skip):
    kw = dict(lr=1e-2, schedule="cosine", max_steps=6)
    ref = ReferenceAdamW(make_params(dtype), **kw)
    opt = AdamW(make_params(dtype), **kw)
    rng = Rng(2)
    for step in range(6):
        set_grads(zip(ref.params, opt.params), rng, skip=skip if step in (2, 3) else ())
        before = [(p.data.copy(), *(x.copy() for x in moments(opt, i)))
                  for i, p in enumerate(opt.params)]
        ref.step()
        opt.step()
        assert_same_state(ref, opt)
        if step in (2, 3):
            for i in skip:
                data, m, v = before[i]
                now_m, now_v = moments(opt, i)
                assert opt.params[i].data.tobytes() == data.tobytes()
                assert now_m.tobytes() == m.tobytes() and now_v.tobytes() == v.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_names_the_first_offender_before_any_update(bad):
    opt = AdamW(make_params(np.float64), lr=1e-2, schedule="constant")
    for p in opt.params:
        p.grad = np.ones_like(p.data)
    opt.params[1].grad[3, 4] = bad
    opt.params[3].grad[0, 0] = np.nan
    data, m, v = opt.data.copy(), opt.m.copy(), opt.v.copy()
    with pytest.raises(NumericError, match=r"non-finite gradient for pos at step 1"):
        opt.step()
    assert opt.data.tobytes() == data.tobytes()
    assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


def test_unnamed_parameter_with_non_finite_gradient():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = AdamW([p], lr=1e-2, schedule="constant")
    p.grad = np.array([0.0, np.inf, 0.0])
    with pytest.raises(NumericError, match="non-finite gradient for parameter at step 1"):
        opt.step()


def test_mixed_dtypes_and_repeated_parameters_are_rejected():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigError, match="one dtype"):
        AdamW([a, b], lr=1e-2, schedule="constant")
    with pytest.raises(ConfigError, match="same parameter"):
        AdamW([a, a], lr=1e-2, schedule="constant")


def test_construction_keeps_values_and_the_model_sees_updates_in_place():
    model = ViTModel.init(PRESETS["tiny"], seed=3)
    named = model.parameters()
    before = {name: (p.data.shape, p.data.tobytes()) for name, p in named.items()}
    opt = AdamW(list(named.values()), lr=1e-2, schedule="cosine", max_steps=4)
    after = {name: (p.data.shape, p.data.tobytes()) for name, p in model.parameters().items()}
    assert after == before
    assert opt.data.size == sum(p.data.size for p in named.values())

    ref = ReferenceAdamW(
        [Tensor(p.data.copy(), requires_grad=True) for p in named.values()],
        lr=1e-2, schedule="cosine", max_steps=4,
    )
    set_grads(zip(ref.params, named.values()), Rng(4))
    ref.step()
    opt.step()
    # the model's own tensors, reached through the model, hold the update
    for (name, p), r in zip(model.parameters().items(), ref.params):
        assert np.shares_memory(p.data, opt.data), name
        assert p.data.tobytes() == r.data.tobytes(), name
    blk = model.blocks[0]
    assert blk.Wq.data.tobytes() == named["block0.attn.Wq"].data.tobytes()


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0.1, 0, 100) == 0.1
    assert math.isclose(cosine_lr(0.1, 50, 100), 0.05, rel_tol=1e-15)
    assert cosine_lr(0.1, 100, 100) == 0.0
    assert cosine_lr(0.1, 250, 100) == 0.0  # clamped past the end
    assert cosine_lr(0.1, 7, 0) == 0.1      # no horizon: constant
