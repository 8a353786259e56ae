import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peftlab import tensor as T
from peftlab.errors import ConfigError, DimensionError, LabelError, NumericError
from peftlab.rng import Rng
from peftlab.tensor import Tensor, grad_check


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# -- matmul ------------------------------------------------------------------


def test_matmul_identity():
    a = t(np.eye(2))
    b = t([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_hand_oracle():
    # by hand: [1*5+2*6, 3*5+4*6] = [17, 39]
    out = T.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_backward_hand_oracle():
    # C = A @ B with dC = ones: dA = dC B^T, dB = A^T dC
    a = t(np.eye(2), rg=True)
    b = t([[2.0], [3.0]], rg=True)
    T.tsum(T.matmul(a, b)).backward()
    np.testing.assert_array_equal(b.grad, [[1.0], [1.0]])
    np.testing.assert_array_equal(a.grad, [[2.0, 3.0], [2.0, 3.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(t(np.ones((2, 2, 3))), t(np.ones((3, 3, 2))))


def test_matmul_batched_matches_slices():
    rng = Rng(0)
    a = Tensor(rng.normal((4, 3, 5)))
    b = Tensor(rng.normal((4, 5, 2)))
    out = T.matmul(a, b).data
    for i in range(4):
        np.testing.assert_array_equal(out[i], a.data[i] @ b.data[i])


# -- elementwise --------------------------------------------------------------


def test_scale_zero_annihilates():
    x = t([[1.0, -2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.scale(0.0, x).data, np.zeros((2, 2)))


def test_add_zero_identity():
    x = t([1.0, -2.0, 3.5])
    np.testing.assert_array_equal(T.add(x, 0.0).data, x.data)


def test_add_shape_mismatch():
    with pytest.raises(DimensionError):
        T.add(t(np.ones(3)), t(np.ones(4)))


def test_gelu_values():
    # tanh approximation evaluated independently
    def ref(x):
        return 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))

    assert T.gelu(t([0.0])).data[0] == 0.0
    got = T.gelu(t([3.0])).data[0]
    assert got == pytest.approx(ref(3.0), rel=1e-12)
    assert got == pytest.approx(2.9964, abs=1e-4)


def test_mixed_dtype_rejected():
    a = Tensor(np.ones(3), dtype="f64")
    b = Tensor(np.ones(3), dtype="f32")
    with pytest.raises(ConfigError):
        T.add(a, b)


def test_non_finite_raises():
    x = t([1.0, 0.0])
    big = t([1e308, 1e308])
    with pytest.raises(NumericError):
        T.mul(big, big)
    with pytest.raises(NumericError):
        Tensor(np.array([np.nan]))
    del x


# -- layer norm ---------------------------------------------------------------


def test_layer_norm_constant_row_is_zero():
    x = t([[5.0, 5.0, 5.0, 5.0]])
    g, b = t(np.ones(4)), t(np.zeros(4))
    np.testing.assert_allclose(T.layer_norm(x, g, b, eps=1e-5).data, np.zeros((1, 4)), atol=1e-12)


def test_layer_norm_hand_oracle():
    # row [1,3]: mean 2, population std 1 -> [-1, 1] as eps -> 0
    x = t([[1.0, 3.0]])
    g, b = t(np.ones(2)), t(np.zeros(2))
    np.testing.assert_allclose(T.layer_norm(x, g, b, eps=1e-12).data, [[-1.0, 1.0]], atol=1e-9)


def test_layer_norm_zero_gain_gives_bias():
    x = t(Rng(3).normal((2, 4)))
    g, b = t(np.zeros(4)), t([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(T.layer_norm(x, g, b).data, np.broadcast_to(b.data, (2, 4)))


def test_layer_norm_errors():
    with pytest.raises(ConfigError):
        T.layer_norm(t(np.ones((1, 4))), t(np.ones(4)), t(np.zeros(4)), eps=0.0)
    with pytest.raises(DimensionError):
        T.layer_norm(t(np.ones((1, 4))), t(np.ones(3)), t(np.zeros(3)))


# -- cross entropy -------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    for c in (2, 5, 25):
        logits = t(np.zeros((3, c)))
        loss = T.softmax_cross_entropy(logits, np.zeros(3, dtype=np.int64))
        assert loss.item() == pytest.approx(math.log(c), abs=1e-12)


def test_cross_entropy_saturated():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1000.0
    loss = T.softmax_cross_entropy(t(logits), np.array([2]))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_hand_oracle():
    # logits [0,1], label 0: loss = log(e^0 + e^1) - 0 = log(1+e)
    loss = T.softmax_cross_entropy(t([[0.0, 1.0]]), np.array([0]))
    assert loss.item() == pytest.approx(math.log(1.0 + math.e), rel=1e-12)
    assert loss.item() == pytest.approx(1.3133, abs=1e-4)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LabelError):
        T.softmax_cross_entropy(t(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(LabelError):
        T.softmax_cross_entropy(t(np.zeros((2, 3))), np.array([-1, 0]))


def test_cross_entropy_backward_is_softmax_minus_onehot():
    logits = Tensor(Rng(1).normal((4, 3)), requires_grad=True)
    loss = T.softmax_cross_entropy(logits, np.array([0, 1, 2, 1]))
    loss.backward()
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    sm = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    sm[np.arange(4), [0, 1, 2, 1]] -= 1.0
    np.testing.assert_allclose(logits.grad, sm / 4.0, atol=1e-12)


# -- grad_check ----------------------------------------------------------------


def test_grad_check_sum_of_squares():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

    def f():
        return T.tsum(T.mul(x, x))

    err = grad_check(f, [x], eps=1e-6)
    x.grad = None
    f().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)  # closed form d/dx sum(x^2)
    assert err < 1e-8


def test_grad_check_linear_exact():
    w = Tensor(Rng(4).normal((3,)), requires_grad=True)
    c = Rng(5).normal((3,))

    def f():
        return T.tsum(T.mul(w, Tensor(c)))

    # linear in w: central differences are exact up to float rounding
    assert grad_check(f, [w], eps=1e-4) < 1e-8


def test_grad_check_requires_f64():
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigError):
        grad_check(lambda: T.tsum(x), [x])


# -- graph behaviour -------------------------------------------------------------


def test_gradient_accumulates_over_consumers():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.add(T.mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1 = 5
    y.backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_no_gradient_leaks():
    frozen = Tensor(Rng(6).normal((3, 3)), requires_grad=False)
    live = Tensor(Rng(7).normal((3, 3)), requires_grad=True)
    T.tsum(T.matmul(frozen, live)).backward()
    assert frozen.grad is None
    assert live.grad is not None


def test_backward_needs_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        T.mul(x, x).backward()


def test_shape_ops_roundtrip_gradients():
    x = Tensor(Rng(8).normal((2, 3, 4)), requires_grad=True)
    y = T.transpose(T.reshape(x, (6, 4)), (1, 0))
    T.tsum(y).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))


def test_select_and_concat_gradients():
    a = Tensor(Rng(9).normal((2, 3)), requires_grad=True)
    b = Tensor(Rng(10).normal((2, 3)), requires_grad=True)
    cat = T.concat([a, b], axis=0)
    T.tsum(T.select(cat, axis=0, index=3)).backward()
    np.testing.assert_array_equal(a.grad, np.zeros((2, 3)))
    expected = np.zeros((2, 3))
    expected[1] = 1.0
    np.testing.assert_array_equal(b.grad, expected)


def test_repeat0_backward_sums():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    T.tsum(T.repeat0(x, 5)).backward()
    np.testing.assert_array_equal(x.grad, [5.0, 5.0])


# -- randomized gradient properties ----------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 4), st.integers(0, 10_000))
@example(m=5, k=4, n=2, seed=319)  # at eps 1e-6: 3.5e-6, from a 9.6e-6 gradient entry
def test_matmul_grad_randomized(m, k, n, seed):
    rng = Rng(seed)
    a = Tensor(rng.normal((m, k)), requires_grad=True)
    b = Tensor(rng.normal((k, n)), requires_grad=True)

    def f():
        return T.tsum(T.matmul(a, b))

    # the loss is linear in each operand, so the central difference has no
    # truncation error and a larger step only shrinks its rounding error
    assert grad_check(f, [a, b], eps=1e-3) < 1e-6


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 10_000))
def test_nonlinear_op_grads_randomized(rows, d, seed):
    rng = Rng(seed)
    x = Tensor(rng.normal((rows, d)), requires_grad=True)
    g = Tensor(rng.normal((d,)), requires_grad=True)
    b = Tensor(rng.normal((d,)), requires_grad=True)

    def f():
        h = T.layer_norm(x, g, b)
        h = T.gelu(h)
        return T.tsum(T.mul(T.softmax(h), h))

    assert grad_check(f, [x, g, b], eps=1e-5) < 1e-4


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 10_000))
def test_cross_entropy_grad_randomized(batch, classes, seed):
    rng = Rng(seed)
    logits = Tensor(rng.normal((batch, classes)), requires_grad=True)
    labels = np.array([rng.below(classes) for _ in range(batch)])

    def f():
        return T.softmax_cross_entropy(logits, labels)

    assert grad_check(f, [logits], eps=1e-5) < 1e-6


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.integers(2, 5), st.integers(0, 10_000))
def test_linear_grad_randomized(rows, n, m, seed):
    rng = Rng(seed)
    x = Tensor(rng.normal((rows, n)), requires_grad=True)
    w = Tensor(rng.normal((m, n)), requires_grad=True)
    b = Tensor(rng.normal((m,)), requires_grad=True)

    def f():
        return T.tsum(T.gelu(T.linear(x, w, b)))

    assert grad_check(f, [x, w, b], eps=1e-5) < 1e-4


# -- fused ops -------------------------------------------------------------------
#
# Each fused op is checked against the chain of primitive ops it replaces,
# built here from the public primitives, and by finite differences.


def unfused_attention(q, k, v, heads):
    d = q.shape[-1]

    def split(x):
        b, n, _ = x.shape
        return T.transpose(T.reshape(x, (b, n, heads, d // heads)), (0, 2, 1, 3))

    scores = T.scale(1.0 / math.sqrt(d / heads), T.matmul(split(q), T.transpose(split(k), (0, 1, 3, 2))))
    ctx = T.matmul(T.softmax(scores), split(v))
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), q.shape)


def unfused_lora_linear(x, w, a, b, gamma):
    return T.add(T.linear(x, w), T.scale(gamma, T.linear(T.linear(x, a), b)))


def unfused_mlp_block(x, ln_g, ln_b, w1, b1, w2, b2):
    h = T.gelu(T.linear(T.layer_norm(x, ln_g, ln_b), w1, b1))
    return T.add(x, T.linear(h, w2, b2))


def fused_attention_block(x, ln_g, ln_b, wq, wk, wv, wo, aq, bq, av, bv, cls_only=False):
    # LoRA on the query and the value, plain key and output, two heads
    lora = ((aq, bq, 0.75), None, (av, bv, 0.75), None)
    return T.attention_block(x, ln_g, ln_b, (wq, wk, wv, wo), 2, lora, cls_only)


def chain_attention_block(x, ln_g, ln_b, wq, wk, wv, wo, aq, bq, av, bv, cls_only=False):
    h = T.layer_norm(x, ln_g, ln_b)
    k, v = T.linear(h, wk), T.lora_linear(h, wv, av, bv, 0.75)
    if cls_only:
        x, h = T.select(x, 1, slice(0, 1)), T.select(h, 1, slice(0, 1))
    ctx = T.attention(T.lora_linear(h, wq, aq, bq, 0.75), k, v, 2)
    return T.add(x, T.linear(ctx, wo))


def chain_embed(patches, w, b, cls_token, pos_embed):
    n = patches.shape[0]
    x = T.concat([T.repeat0(cls_token, n), T.linear(patches, w, b)], axis=1)
    return T.add(x, T.repeat0(pos_embed, n))


BLOCK_SHAPES = [(2, 3, 4), (4,), (4,)] + [(4, 4)] * 4 + [(2, 4), (4, 2)] * 2


def fused_cases():
    """name -> (fused op, unfused chain, tensor shapes, extra positional args)."""
    return {
        "attention": (T.attention, unfused_attention, [(2, 3, 4)] * 3, (2,)),
        "lora_linear": (T.lora_linear, unfused_lora_linear, [(2, 3, 4), (5, 4), (2, 4), (5, 2)], (0.75,)),
        "mlp_block": (T.mlp_block, unfused_mlp_block,
                      [(2, 3, 4), (4,), (4,), (8, 4), (8,), (4, 8), (4,)], ()),
        "attention_block": (fused_attention_block, chain_attention_block, BLOCK_SHAPES, (False,)),
        "attention_block_cls": (fused_attention_block, chain_attention_block, BLOCK_SHAPES, (True,)),
        "embed": (T.embed, chain_embed, [(2, 3, 5), (4, 5), (4,), (1, 4), (4, 4)], ()),
    }


def make_inputs(shapes, trainable, seed=0, dtype="f64"):
    rng = Rng(seed)
    return [Tensor(rng.normal(s, std=0.7), requires_grad=i in trainable, dtype=dtype)
            for i, s in enumerate(shapes)]


def weighted_sum(out, seed=99):
    # a random linear functional, so every output coordinate's gradient matters
    return T.tsum(T.mul(out, Tensor(Rng(seed).normal(out.shape), dtype=out.dtype)))


# which inputs require grad: all; a frozen weight with a live input (the LoRA
# case: only the input, or only the factors, train); the input frozen as in block 0
BLOCK_TRAINABLE = [set(range(11)), {0, 7, 8, 9, 10}, {7, 8, 9, 10}, {1, 2, 3, 4, 5, 6}, {4}]
TRAINABLE = {
    "attention": [{0, 1, 2}, {0, 2}, {1}],
    "lora_linear": [{0, 1, 2, 3}, {0, 2, 3}, {2, 3}, {0, 1}],
    "mlp_block": [{0, 1, 2, 3, 4, 5, 6}, {0}, {3, 4, 5, 6}, {1, 2}],
    "attention_block": BLOCK_TRAINABLE,
    "attention_block_cls": BLOCK_TRAINABLE,
    "embed": [{0, 1, 2, 3, 4}, {1, 2, 3, 4}, {0}, {3}],
}
FUSED_PARAMS = [(name, tuple(sorted(tr))) for name, trs in TRAINABLE.items() for tr in trs]
# the ops whose reference chain is made of the same ops as their forward and
# backward, so it must agree to the bit (the others' chains split their pieces)
CHAIN_EXACT = ("attention_block", "attention_block_cls", "embed")


@pytest.mark.parametrize("name,trainable", FUSED_PARAMS)
def test_fused_op_grad_check(name, trainable):
    fused, _, shapes, extra = fused_cases()[name]
    inputs = make_inputs(shapes, trainable)
    live = [inputs[i] for i in trainable]

    def f():
        return weighted_sum(fused(*inputs, *extra))

    assert grad_check(f, live, eps=1e-6) < 1e-6
    for i, x in enumerate(inputs):
        assert (x.grad is None) == (i not in trainable)  # frozen operands get no gradient


@pytest.mark.parametrize("name,trainable", FUSED_PARAMS)
def test_fused_op_matches_unfused_chain(name, trainable):
    fused, unfused, shapes, extra = fused_cases()[name]
    results = []
    for op in (fused, unfused):
        inputs = make_inputs(shapes, trainable, seed=3)
        out = op(*inputs, *extra)
        weighted_sum(out).backward()
        results.append([out.data] + [inputs[i].grad for i in trainable])
    for got, want in zip(*results):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fused_forward_is_bit_equal_to_unfused_chain():
    for name, (fused, unfused, shapes, extra) in fused_cases().items():
        inputs = make_inputs(shapes, trainable=(), seed=4)
        np.testing.assert_array_equal(fused(*inputs, *extra).data, unfused(*inputs, *extra).data)


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("name,trainable", [p for p in FUSED_PARAMS if p[0] in CHAIN_EXACT])
def test_fused_op_is_bit_equal_to_its_op_chain(name, trainable, precision):
    fused, chain, shapes, extra = fused_cases()[name]
    results = []
    for op in (fused, chain):
        inputs = make_inputs(shapes, trainable, seed=6, dtype=precision)
        out = op(*inputs, *extra)
        weighted_sum(out).backward()
        results.append([out.data] + [inputs[i].grad for i in trainable])
    for got, want in zip(*results):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # signed zeros too


@pytest.mark.parametrize("name,blown", [("attention", (0, 1)), ("lora_linear", (2, 3)),
                                         ("mlp_block", (3, 5)), ("attention_block", (3, 4)),
                                         ("attention_block_cls", (3, 4)), ("embed", (0, 1))])
def test_fused_op_names_itself_on_overflow(name, blown):
    # two huge factors of one product overflow inside the op, not in its inputs
    fused, _, shapes, extra = fused_cases()[name]
    inputs = make_inputs(shapes, trainable=())
    for i in blown:
        inputs[i].data[...] = 1e200
    with pytest.raises(NumericError, match=f"produced by {name.removesuffix('_cls')}$"):
        fused(*inputs, *extra)


def test_fused_op_shape_errors():
    x = t(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        T.attention(x, x, x, 3)  # 4 does not split into 3 heads
    with pytest.raises(DimensionError):
        T.attention(x, x, t(np.ones((2, 3, 2))), 2)
    with pytest.raises(DimensionError):
        T.attention(x, t(np.ones((3, 5, 4))), t(np.ones((3, 5, 4))), 2)  # batch differs
    with pytest.raises(DimensionError):
        T.attention(x, t(np.ones((2, 5, 4))), t(np.ones((2, 4, 4))), 2)  # k and v differ
    with pytest.raises(DimensionError):
        T.lora_linear(x, t(np.ones((5, 4))), t(np.ones((2, 4))), t(np.ones((4, 2))), 1.0)
    with pytest.raises(DimensionError):
        T.mlp_block(x, t(np.ones(4)), t(np.zeros(4)), t(np.ones((8, 4))), t(np.zeros(8)),
                    t(np.ones((4, 7))), t(np.zeros(4)))


@pytest.mark.parametrize("tq", [1, 2])
@pytest.mark.parametrize("trainable", [(0, 1, 2), (0, 2), (1,)])
def test_attention_with_fewer_queries_than_keys(tq, trainable):
    # as in the class-token-only last block: q is (B, Tq, d), k and v are (B, Tk, d)
    shapes = [(2, tq, 4), (2, 5, 4), (2, 5, 4)]
    inputs = make_inputs(shapes, trainable, seed=5)
    live = [inputs[i] for i in trainable]
    out = T.attention(*inputs, 2)
    assert out.shape == (2, tq, 4)
    assert grad_check(lambda: weighted_sum(T.attention(*inputs, 2)), live, eps=1e-6) < 1e-6
    assert [x.grad.shape for x in live] == [shapes[i] for i in trainable]
    # one query row may take another BLAS kernel than the unfused chain: equal to rounding
    want = unfused_attention(*inputs, 2).data
    assert np.abs(out.data - want).max() <= 1e-12 * np.abs(want).max()


def test_select_slice_keeps_the_axis():
    x = Tensor(Rng(11).normal((2, 3, 4)), requires_grad=True)
    row = T.select(x, axis=1, index=slice(0, 1))
    np.testing.assert_array_equal(row.data, x.data[:, :1])
    weighted_sum(row).backward()
    expected = np.zeros((2, 3, 4))
    expected[:, :1] = Rng(99).normal((2, 1, 4))
    np.testing.assert_array_equal(x.grad, expected)
