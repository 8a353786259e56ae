import math

import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.errors import ConfigError, DimensionError
from peftlab.head import LinearHead
from peftlab.lora import LoraConfig, inject
from peftlab.rng import Rng
from peftlab.tensor import Tensor, grad_check, op_trace
from peftlab.train import _fit
from peftlab.vit import (
    PRESETS,
    TARGETS,
    ViTConfig,
    ViTModel,
    attention_forward,
    attention_projection_count,
    block_forward,
    param_count,
    patchify,
    preset,
)

TINY = PRESETS["tiny"]


def small_model(seed=0, **kw):
    cfg = ViTConfig(**{**dict(image_size=16, patch_size=8, channels=1, dim=16, depth=1, heads=2), **kw})
    return ViTModel.init(cfg, seed=seed), cfg


# -- config -------------------------------------------------------------------


def test_config_divisibility_errors():
    with pytest.raises(ConfigError):
        ViTConfig(image_size=30, patch_size=8, channels=1, dim=32, depth=2, heads=2)
    with pytest.raises(ConfigError):
        ViTConfig(image_size=32, patch_size=8, channels=1, dim=30, depth=2, heads=4)


def test_presets():
    assert TINY.dim == 32 and TINY.depth == 2 and TINY.heads == 2 and TINY.patch_size == 8
    b16, l14 = PRESETS["B16-shape"], PRESETS["L14-shape"]
    assert (b16.dim, b16.depth, b16.heads) == (768, 12, 12)
    assert (l14.dim, l14.depth, l14.heads) == (1024, 24, 16)
    assert preset("tiny") is TINY
    assert preset("l14-SHAPE") is l14
    with pytest.raises(ConfigError):
        preset("giant")


# -- patchify -----------------------------------------------------------------


def test_patchify_counts():
    a = patchify(np.zeros((1, 32, 32)), 16)
    assert a.shape == (4, 256)
    b = patchify(np.zeros((3, 32, 32)), 8)
    assert b.shape == (16, 192)


def test_patchify_constant_image_identical_rows():
    rows = patchify(np.full((2, 32, 32), 0.7), 8)
    assert np.all(rows == rows[0])


def test_patchify_channel_major_layout():
    # encode (channel, y, x) into the pixel value and check the first patch
    c, s, p = 2, 16, 8
    img = np.zeros((c, s, s))
    for ch in range(c):
        for y in range(s):
            for x in range(s):
                img[ch, y, x] = ch * 10000 + y * 100 + x
    rows = patchify(img, p)
    expected_first = img[:, :p, :p].reshape(-1)  # channel-major, row-major per channel
    np.testing.assert_array_equal(rows[0], expected_first)
    # second patch is the next patch to the right
    expected_second = img[:, :p, p:2 * p].reshape(-1)
    np.testing.assert_array_equal(rows[1], expected_second)


def test_patchify_batched_matches_single():
    imgs = Rng(0).uniform((3, 1, 32, 32))
    batch = patchify(imgs, 8)
    for i in range(3):
        np.testing.assert_array_equal(batch[i], patchify(imgs[i], 8))


def test_patchify_errors():
    with pytest.raises(ConfigError):
        patchify(np.zeros((1, 30, 30)), 8)
    with pytest.raises(DimensionError):
        patchify(np.zeros((30, 30)), 8)


def test_patchify_tensor_gradient_roundtrip():
    x = Tensor(Rng(1).uniform((1, 16, 16)), requires_grad=True)
    T.tsum(patchify(x, 8)).backward()
    np.testing.assert_array_equal(x.grad, np.ones((1, 16, 16)))


# -- attention ----------------------------------------------------------------


def test_attention_single_token_oracle():
    model, cfg = small_model()
    blk = model.blocks[0]
    tok = Rng(2).normal((1, cfg.dim))
    out = attention_forward(blk, Tensor(tok), cfg.heads).data
    # independent: softmax over one token is [1], so ctx = v and out = Wo v + residual
    mu, var = tok.mean(), tok.var()
    normed = (tok - mu) / np.sqrt(var + 1e-5)
    v = normed @ blk.Wv.data.T
    expected = tok + (v @ blk.Wo.data.T)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_attention_zero_qk_is_mean_pooling():
    model, cfg = small_model(seed=3)
    blk = model.blocks[0]
    blk.Wq.data[:] = 0.0
    blk.Wk.data[:] = 0.0
    toks = Rng(4).normal((5, cfg.dim))
    out = attention_forward(blk, Tensor(toks), cfg.heads).data
    mu = toks.mean(axis=1, keepdims=True)
    normed = (toks - mu) / np.sqrt(toks.var(axis=1, keepdims=True) + 1e-5)
    v = normed @ blk.Wv.data.T  # uniform attention averages value rows per head;
    pooled = np.repeat(v.mean(axis=0, keepdims=True), 5, axis=0)  # same mean for every head slice
    expected = toks + pooled @ blk.Wo.data.T
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_attention_hand_oracle_2dim():
    # H=1, d=2, 3 tokens: scalar-by-scalar reimplementation
    model, cfg = small_model(seed=5, image_size=16, patch_size=8, dim=2, heads=1)
    blk = model.blocks[0]
    toks = Rng(6).normal((3, 2))
    got = attention_forward(blk, Tensor(toks), 1).data

    normed = np.zeros((3, 2))
    for i in range(3):
        mu = (toks[i, 0] + toks[i, 1]) / 2.0
        var = ((toks[i, 0] - mu) ** 2 + (toks[i, 1] - mu) ** 2) / 2.0
        for j in range(2):
            normed[i, j] = (toks[i, j] - mu) / np.sqrt(var + 1e-5)
    q = normed @ blk.Wq.data.T
    k = normed @ blk.Wk.data.T
    v = normed @ blk.Wv.data.T
    out = np.zeros((3, 2))
    for i in range(3):
        scores = [(q[i] * k[j]).sum() / np.sqrt(2.0) for j in range(3)]
        e = np.exp(scores - max(scores))
        w = e / e.sum()
        ctx = sum(w[j] * v[j] for j in range(3))
        out[i] = toks[i] + blk.Wo.data @ ctx
    np.testing.assert_allclose(got, out, atol=1e-10)


def test_attention_width_mismatch():
    model, cfg = small_model()
    with pytest.raises(DimensionError):
        attention_forward(model.blocks[0], Tensor(np.ones((3, cfg.dim + 1))), cfg.heads)


# -- fused block against the primitive chain -------------------------------------


def unfused_block(blk, x, heads, adapters):
    """The block as the chain of primitive ops that the fused path replaces."""
    b, n, d = x.shape

    def project(target, h):
        w = blk.proj_weight(target)
        if target not in adapters:
            return T.linear(h, w)
        a, bb, gamma = adapters[target]
        return T.add(T.linear(h, w), T.scale(gamma, T.linear(T.linear(h, a), bb)))

    def split(z):
        return T.transpose(T.reshape(z, (b, n, heads, d // heads)), (0, 2, 1, 3))

    h = T.layer_norm(x, blk.ln1_g, blk.ln1_b)
    q, k, v = (split(project(target, h)) for target in ("query", "key", "value"))
    scores = T.scale(1.0 / math.sqrt(d / heads), T.matmul(q, T.transpose(k, (0, 1, 3, 2))))
    ctx = T.reshape(T.transpose(T.matmul(T.softmax(scores), v), (0, 2, 1, 3)), (b, n, d))
    x = T.add(x, project("output", ctx))
    h = T.gelu(T.linear(T.layer_norm(x, blk.ln2_g, blk.ln2_b), blk.mlp_W1, blk.mlp_b1))
    return T.add(x, T.linear(h, blk.mlp_W2, blk.mlp_b2))


def chain_block(blk, x, heads, adapters, cls_only=False):
    """`block_forward` with its attention sub-block as the chain of ops that
    `T.attention_block` replaces: layer norm, plain or LoRA projections, the
    class-token selects, the attention core and the residual add."""

    def project(target, h):
        w = blk.proj_weight(target)
        factors = adapters.get(target)
        return T.linear(h, w) if factors is None else T.lora_linear(h, w, *factors)

    h = T.layer_norm(x, blk.ln1_g, blk.ln1_b)
    k, v = project("key", h), project("value", h)
    if cls_only:
        x, h = T.select(x, 1, slice(0, 1)), T.select(h, 1, slice(0, 1))
    x = T.add(x, project("output", T.attention(project("query", h), k, v, heads)))
    return T.mlp_block(x, blk.ln2_g, blk.ln2_b, blk.mlp_W1, blk.mlp_b1, blk.mlp_W2, blk.mlp_b2)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))  # signed zeros too


# (LoRA targets, backbone trainable, input requires grad): pretraining; block 0 of
# a LoRA run (frozen input); a later LoRA block with every projection adapted
BLOCK_CASES = [((), True, True), (("query", "value"), False, False),
               (("query", "key", "value", "output"), False, True)]


def block_setup(targets, backbone_trainable, input_grad, seed=0, precision="f64"):
    cfg = ViTConfig(image_size=16, patch_size=8, channels=1, dim=4, depth=1, heads=2, mlp_ratio=2)
    model = ViTModel.init(cfg, seed=seed, precision=precision)
    rng = Rng(seed + 1)
    for p in model.parameters().values():  # weights big enough that every path matters
        p.data[...] = rng.normal(p.shape, std=0.5)
    model.set_trainable(backbone_trainable)
    adapters = {t: (Tensor(rng.normal((2, 4)), requires_grad=True, dtype=precision),
                    Tensor(rng.normal((4, 2)), requires_grad=True, dtype=precision), 0.5) for t in targets}
    x = Tensor(rng.normal((2, 3, 4)), requires_grad=input_grad, dtype=precision)
    live = [p for p in model.blocks[0].named().values() if p.requires_grad]
    live += [f for a, b, _ in adapters.values() for f in (a, b)] + ([x] if input_grad else [])
    return model.blocks[0], x, adapters, live


def weighted_sum(out):
    return T.tsum(T.mul(out, Tensor(Rng(99).normal(out.shape), dtype=out.dtype)))


@pytest.mark.parametrize("targets,backbone_trainable,input_grad", BLOCK_CASES)
def test_block_matches_unfused_chain(targets, backbone_trainable, input_grad):
    results = []
    for forward in (block_forward, unfused_block):
        blk, x, adapters, live = block_setup(targets, backbone_trainable, input_grad)
        out = forward(blk, x, 2, adapters)
        weighted_sum(out).backward()
        results.append([out.data] + [p.grad for p in live])
    np.testing.assert_array_equal(results[0][0], results[1][0])  # the forward is bit-equal
    for got, want in zip(*results):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("cls_only", [False, True])
@pytest.mark.parametrize("targets,backbone_trainable,input_grad", BLOCK_CASES)
def test_block_is_bit_equal_to_op_chain(targets, backbone_trainable, input_grad, cls_only, precision):
    results = []
    for forward in (block_forward, chain_block):
        blk, x, adapters, live = block_setup(targets, backbone_trainable, input_grad, precision=precision)
        out = forward(blk, x, 2, adapters, cls_only=cls_only)
        weighted_sum(out).backward()
        results.append([out.data] + [p.grad for p in live])
    for got, want in zip(*results):
        assert_same_bits(got, want)


def test_class_token_block_keeps_the_chains_signed_zeros():
    # A zero LN1 gain makes the layer norm's input gradient +-0. The chain adds it
    # to the zeros of `select`'s backward, and 0 + -0 is +0.
    grads = []
    for forward in (block_forward, chain_block):
        blk, x, adapters, _ = block_setup(("query", "value"), False, True)
        blk.ln1_g.data[...] = 0.0
        weighted_sum(forward(blk, x, 2, adapters, cls_only=True)).backward()
        grads.append(x.grad)
    assert (grads[1][:, 1:] == 0).all()
    assert_same_bits(*grads)


def block_grad_check(targets, backbone_trainable, input_grad, cls_only):
    blk, x, adapters, live = block_setup(targets, backbone_trainable, input_grad, seed=7)

    def f():
        return weighted_sum(block_forward(blk, x, 2, adapters, cls_only=cls_only))

    assert grad_check(f, live, eps=1e-4) < 1e-6
    frozen = [p for p in blk.named().values() if not p.requires_grad] + ([] if input_grad else [x])
    assert all(p.grad is None for p in frozen)


@pytest.mark.parametrize("targets,backbone_trainable,input_grad", BLOCK_CASES)
def test_block_grad_check(targets, backbone_trainable, input_grad):
    block_grad_check(targets, backbone_trainable, input_grad, cls_only=False)


@pytest.mark.parametrize("targets,backbone_trainable,input_grad", BLOCK_CASES)
def test_class_token_block_grad_check(targets, backbone_trainable, input_grad):
    block_grad_check(targets, backbone_trainable, input_grad, cls_only=True)


# -- backbone forward -----------------------------------------------------------


def test_forward_deterministic_and_batch_consistent():
    model = ViTModel.init(TINY, seed=9)
    img = Rng(10).uniform((1, 32, 32))
    z1 = model.forward(img)
    z2 = model.forward(img)
    assert z1.shape == (TINY.dim,)
    np.testing.assert_array_equal(z1.data, z2.data)
    # identical images in one batch give identical rows
    zb = model.forward(np.stack([img, img]))
    np.testing.assert_array_equal(zb.data[0], zb.data[1])
    np.testing.assert_array_equal(zb.data[0], z1.data)


def model_forward(model, images, adapters, fused=True, cls_only=True):
    """`ViTModel.forward` from the fused ops, or from the chain of ops they
    replace (the embedding as linear, repeat0, concat, repeat0, add), with
    the last block on the class token only or on every token."""
    b, cfg = images.shape[0], model.config
    patches = Tensor(patchify(images.astype(model.dtype), cfg.patch_size))
    if fused:
        x = T.embed(patches, model.patch_W, model.patch_b, model.cls_token, model.pos_embed)
    else:
        x = T.concat([T.repeat0(model.cls_token, b), T.linear(patches, model.patch_W, model.patch_b)],
                     axis=1)
        x = T.add(x, T.repeat0(model.pos_embed, b))
    block = block_forward if fused else chain_block
    last = len(model.blocks) - 1
    for i, (blk, factors) in enumerate(zip(model.blocks, adapters)):
        x = block(blk, x, cfg.heads, factors, cls_only=cls_only and i == last)
    return T.select(T.layer_norm(x, model.final_g, model.final_b), axis=1, index=0)


# (LoRA targets, backbone trainable): frozen features, LoRA on q,v and on every
# projection, and pretraining
FORWARD_CASES = [((), False), (("query", "value"), False), (TARGETS, False), ((), True)]


def forward_gradients(forward, targets, backbone_trainable, precision="f64"):
    """[z] + every live gradient of a weighted sum of z, on the tiny preset."""
    model = ViTModel.init(TINY, seed=20, precision=precision)
    rng = Rng(21)
    # weights big enough that every path matters: near-uniform attention would leave
    # the last block's q/k gradients small next to their rounding
    for p in model.parameters().values():
        p.data[...] = rng.normal(p.shape, std=0.5)
    model.set_trainable(backbone_trainable)
    adapters = [{t: (Tensor(rng.normal((2, TINY.dim)), requires_grad=True, dtype=precision),
                     Tensor(rng.normal((TINY.dim, 2)), requires_grad=True, dtype=precision), 0.5)
                 for t in targets}
                for _ in model.blocks]
    live = [p for p in model.parameters().values() if p.requires_grad]
    live += [f for factors in adapters for a, b, _ in factors.values() for f in (a, b)]
    z = forward(model, Rng(22).uniform((3, 1, 32, 32)), adapters)
    if live:
        weighted_sum(z).backward()
    assert all(p.grad is not None for p in live)
    return [z.data] + [p.grad for p in live]


@pytest.mark.parametrize("targets,backbone_trainable", FORWARD_CASES)
def test_forward_matches_all_token_reference(targets, backbone_trainable):
    got = forward_gradients(ViTModel.forward, targets, backbone_trainable)
    want = forward_gradients(lambda *args: model_forward(*args, cls_only=False), targets, backbone_trainable)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("cls_only", [False, True])
@pytest.mark.parametrize("targets,backbone_trainable", FORWARD_CASES)
def test_forward_is_bit_equal_to_op_chain(targets, backbone_trainable, cls_only, precision):
    forwards = [lambda *args: model_forward(*args, fused=fused, cls_only=cls_only) for fused in (True, False)]
    if cls_only:
        forwards.append(ViTModel.forward)
    results = [forward_gradients(f, targets, backbone_trainable, precision) for f in forwards]
    for other in results[1:]:
        for got, want in zip(results[0], other):
            assert_same_bits(got, want)


@pytest.mark.parametrize("lora_targets", [None, TARGETS])
def test_training_is_bit_equal_to_op_chain(lora_targets):
    # 20 steps of the training loop, pretraining every weight or LoRA on q,k,v,o
    runs = []
    for fused in (True, False):
        model = ViTModel.init(TINY, seed=30)
        head = LinearHead(5, TINY.dim)
        adapters = [{} for _ in model.blocks]
        if lora_targets is None:
            backbone, trainable = model, list(model.parameters().values())
        else:
            backbone = inject(model, LoraConfig(rank=2, targets=lora_targets, init_seed=31))
            trainable = list(backbone.trainable_parameters().values())
            for (i, target), pair in backbone.pairs.items():
                adapters[i][target] = pair.factors()
        trainable += list(head.parameters().values())

        def forward(batch, fused=fused, backbone=backbone, model=model, adapters=adapters, head=head):
            z = backbone.forward(batch) if fused else model_forward(model, batch, adapters, fused=False)
            return head.forward(z)

        images, labels = Rng(32).uniform((40, 1, 32, 32)), np.arange(40) % 5
        curve = _fit(forward, trainable, images, labels, lr=1e-2, seed=33, steps=20, batch_size=8,
                     weight_decay=1e-2, schedule="cosine")
        runs.append([np.array(curve)] + [p.data.copy() for p in trainable])
    for got, want in zip(*runs):
        assert_same_bits(got, want)


def test_last_block_updates_the_class_token_only():
    model = ViTModel.init(TINY, seed=23)
    with op_trace() as ops:
        model.forward(Rng(24).uniform((3, 1, 32, 32)))
    full, cls = (3, TINY.num_tokens, TINY.dim), (3, 1, TINY.dim)
    for name in ("attention_block", "mlp_block"):
        assert [shape for op, shape in ops if op == name] == [full] * (TINY.depth - 1) + [cls]


def test_forward_shape_contract_small_variants():
    for d, heads in ((16, 2), (24, 4), (32, 2)):
        model, cfg = small_model(seed=d, dim=d, heads=heads)
        z = model.forward(Rng(d).uniform((2, 1, 16, 16)))
        assert z.shape == (2, d)


def test_forward_rejects_wrong_shape():
    model = ViTModel.init(TINY, seed=0)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((1, 3, 32, 32)))


def test_permutation_sanity():
    # with positional embeddings zeroed, permuting patch rows leaves z unchanged
    model = ViTModel.init(TINY, seed=11)
    model.pos_embed.data[:] = 0.0
    patches = patchify(Rng(12).uniform((1, 32, 32)), 8)
    z = model.forward_patches(Tensor(patches[None])).data
    perm = Rng(13).permutation(patches.shape[0])
    z_perm = model.forward_patches(Tensor(patches[perm][None])).data
    np.testing.assert_allclose(z, z_perm, atol=1e-10)


def test_frozen_flag_blocks_gradients():
    model, cfg = small_model(seed=14)
    model.set_trainable(False)
    z = model.forward(Rng(15).uniform((2, 1, 16, 16)))
    assert not z.requires_grad
    assert all(not p.requires_grad and p.grad is None for p in model.parameters().values())


# -- parameter accounting ---------------------------------------------------------


def test_param_count_single_projection():
    l14 = PRESETS["L14-shape"]
    per_projection = attention_projection_count(l14) // (l14.depth * 4)
    assert per_projection == 1024 * 1024 == 1_048_576


def test_param_count_l14_projections_closed_form():
    assert attention_projection_count(PRESETS["L14-shape"]) == 24 * 4 * 1024 * 1024 == 100_663_296


def test_param_count_two_oracle_agreement():
    # closed form vs independent shape walk over the instantiated model
    model = ViTModel.init(TINY, seed=0)
    walked = sum(p.data.size for p in model.parameters().values())
    assert param_count(TINY) == walked == param_count(model)
    model2, cfg2 = small_model(dim=24, heads=4, depth=3, mlp_ratio=2, channels=2)
    assert param_count(cfg2) == sum(p.data.size for p in model2.parameters().values())


def test_param_count_trainable_only():
    model = ViTModel.init(TINY, seed=0)
    assert param_count(model, trainable_only=True) == param_count(model)
    model.set_trainable(False)
    assert param_count(model, trainable_only=True) == 0


def test_projection_ratio_l14_vs_b16():
    ratio = attention_projection_count(PRESETS["L14-shape"]) / attention_projection_count(PRESETS["B16-shape"])
    assert ratio == pytest.approx(32.0 / 9.0)  # ~3.56x, the coarse "4x larger" claim
