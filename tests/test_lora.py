import numpy as np
import pytest

from peftlab import tensor as T
from peftlab.checkpoint import load_adapters, save_adapters
from peftlab.errors import ConfigError, StateError
from peftlab.head import LinearHead
from peftlab.lora import LoraConfig, LoraPair, inject, kaiming_init, parse_targets, trainable_param_count
from peftlab.rng import Rng
from peftlab.tensor import Tensor, op_trace
from peftlab.vit import PRESETS, ViTConfig, ViTModel

TINY = PRESETS["tiny"]


def tiny_model(seed=0, precision="f64"):
    return ViTModel.init(TINY, seed=seed, precision=precision)


# -- config and init ------------------------------------------------------------


def test_gamma_is_alpha_over_rank():
    assert LoraConfig(rank=4, alpha=8.0).gamma == 2.0
    assert LoraConfig(rank=2).gamma == 1.0  # default alpha = rank
    assert LoraConfig(rank=16, alpha=1.0).gamma == pytest.approx(1.0 / 16.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        LoraConfig(rank=0)
    with pytest.raises(ConfigError):
        LoraConfig(rank=2, alpha=-1.0)
    with pytest.raises(ConfigError):
        LoraConfig(rank=2, targets=())
    with pytest.raises(ConfigError):
        LoraConfig(rank=2, targets=("query", "gate"))
    with pytest.raises(ConfigError):
        LoraConfig(rank=64, targets=("query",)).validate_for(TINY)  # rank > dim=32


def test_parse_targets_shorthand():
    assert parse_targets("q,v") == ("query", "value")
    assert parse_targets("o,k,q,v") == ("query", "key", "value", "output")  # canonical order
    assert parse_targets(("VALUE", "q")) == ("query", "value")


def test_kaiming_determinism_support_and_variance():
    a = kaiming_init((100, 1000), 42)
    b = kaiming_init((100, 1000), 42)
    np.testing.assert_array_equal(a, b)
    bound = np.sqrt(6.0 / 1000)
    assert np.abs(a).max() <= bound
    # variance of U(-sqrt(6/n), sqrt(6/n)) is 2/n; 1e5 draws land within 5%
    assert a.var() == pytest.approx(2.0 / 1000, rel=0.05)
    assert not np.array_equal(a, kaiming_init((100, 1000), 43))


# -- injection --------------------------------------------------------------------


def test_inject_pair_counting():
    adapted = inject(tiny_model(), LoraConfig(rank=2, targets=("query", "value")))
    assert len(adapted.pairs) == TINY.depth * 2 == 4
    # depth-12 model, query+value: 24 pairs (the B16-shape depth at desk width)
    cfg12 = ViTConfig(image_size=16, patch_size=8, channels=1, dim=16, depth=12, heads=2)
    adapted12 = inject(ViTModel.init(cfg12, seed=1), LoraConfig(rank=2, targets=("query", "value")))
    assert len(adapted12.pairs) == 24


def test_inject_freezes_backbone_and_exposes_pairs():
    model = tiny_model()
    adapted = inject(model, LoraConfig(rank=2))
    assert all(not p.requires_grad for p in model.parameters().values())
    trainable = adapted.trainable_parameters()
    assert len(trainable) == 2 * len(adapted.pairs)
    assert all(p.requires_grad for p in trainable.values())


def test_inject_rank_too_large():
    with pytest.raises(ConfigError):
        inject(tiny_model(), LoraConfig(rank=33))


def test_zero_init_identity_both_precisions():
    for precision in ("f64", "f32"):
        for seed in (0, 1):
            model = tiny_model(seed=seed, precision=precision)
            images = Rng(seed).uniform((2, 1, 32, 32)).astype(model.dtype)
            base = model.forward(images).data.copy()
            adapted = inject(model, LoraConfig(rank=2, targets=("query", "key", "value", "output"), init_seed=seed))
            np.testing.assert_array_equal(adapted.forward(images).data, base)


def test_lora_init_contract():
    adapted = inject(tiny_model(), LoraConfig(rank=3, init_seed=9))
    for pair in adapted.pairs.values():
        assert np.all(pair.B.data == 0.0)
        bound = np.sqrt(6.0 / TINY.dim)
        assert np.abs(pair.A.data).max() <= bound
        assert pair.A.data.shape == (3, TINY.dim)
        assert pair.B.data.shape == (TINY.dim, 3)


# -- adapted forward ----------------------------------------------------------------


def _standalone_pair(m, n, r, alpha=None, seed=0):
    cfg = LoraConfig(rank=r, alpha=alpha, targets=("query",), init_seed=seed)
    host = Tensor(Rng(seed).normal((m, n)), requires_grad=False, name="host")
    a = Tensor(kaiming_init((r, n), seed), requires_grad=True)
    b = Tensor(np.zeros((m, r)), requires_grad=True)
    return LoraPair(host, a, b, cfg, "test.pair")


def test_adapted_forward_zero_b_equals_host():
    pair = _standalone_pair(4, 4, 2)
    x = Tensor(Rng(1).normal((5, 4)))
    np.testing.assert_array_equal(pair.adapted_forward(x).data, (x.data @ pair.host.data.T))


def test_adapted_forward_rank1_hand_oracle():
    # W = 0, r = 1, gamma = 1: output must be col * (row . x)
    pair = _standalone_pair(3, 4, 1)
    pair.host.data[:] = 0.0
    row = np.array([1.0, -2.0, 0.5, 3.0])
    col = np.array([2.0, 0.0, -1.0])
    pair.A.data[:] = row[None, :]
    pair.B.data[:] = col[:, None]
    x = Tensor(Rng(2).normal((6, 4)))
    got = pair.adapted_forward(x).data
    expected = np.outer(x.data @ row, col)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_delta_linear_in_gamma():
    # zero host isolates the delta term: doubling gamma doubles it bit-exactly
    base = _standalone_pair(4, 4, 2, alpha=2.0, seed=3)
    double = _standalone_pair(4, 4, 2, alpha=4.0, seed=3)
    rng = Rng(4)
    ab = rng.normal((4, 2))
    for pair in (base, double):
        pair.B.data[:] = ab
        pair.host.data[:] = 0.0
    x = Tensor(rng.normal((5, 4)))
    d1 = base.adapted_forward(x).data
    d2 = double.adapted_forward(x).data
    np.testing.assert_array_equal(d2, 2.0 * d1)


def test_gradients_flow_to_ab_only():
    model = tiny_model(seed=5)
    adapted = inject(model, LoraConfig(rank=2, init_seed=5))
    images = Rng(6).uniform((2, 1, 32, 32))
    out = adapted.forward(images)
    T.tsum(out).backward()
    for pair in adapted.pairs.values():
        assert pair.A.grad is not None
        assert pair.B.grad is not None
        assert pair.host.grad is None


# -- merge / unmerge ------------------------------------------------------------------


def _trained_like_pair(seed=7):
    pair = _standalone_pair(6, 6, 2, seed=seed)
    pair.B.data[:] = Rng(seed + 1).normal((6, 2), std=0.3)
    return pair


def test_merge_equivalence_random_probes():
    pair = _trained_like_pair()
    x = Tensor(Rng(8).normal((20, 6)))
    unmerged = pair.adapted_forward(x).data
    pair.merge()
    merged = x.data @ pair.host.data.T
    rel = np.abs(merged - unmerged).max() / np.abs(unmerged).max()
    assert rel < 1e-10


def test_merge_zero_b_keeps_host_bits():
    pair = _standalone_pair(4, 4, 2)
    before = pair.host.data.tobytes()
    pair.merge()
    assert pair.host.data.tobytes() == before


def test_merge_unmerge_involution():
    pair = _trained_like_pair(seed=9)
    w0 = pair.host.data.copy()
    x = Tensor(Rng(10).normal((8, 6)))
    out0 = pair.adapted_forward(x).data
    pair.merge()
    pair.unmerge()
    assert not pair.merged
    np.testing.assert_allclose(pair.host.data, w0, rtol=1e-12)
    np.testing.assert_allclose(pair.adapted_forward(x).data, out0, rtol=1e-10)


def test_merge_state_errors():
    pair = _trained_like_pair(seed=11)
    pair.merge()
    with pytest.raises(StateError):
        pair.merge()
    with pytest.raises(StateError):
        pair.adapted_forward(Tensor(np.ones((1, 6))))
    pair.unmerge()
    with pytest.raises(StateError):
        pair.unmerge()


def test_rank_bound_of_delta():
    pair = _trained_like_pair(seed=12)
    delta = pair.delta()
    sv = np.linalg.svd(delta, compute_uv=False)
    assert sv[2:].max() < 1e-9 * sv[0]


def test_merged_forward_has_no_lora_ops():
    model = tiny_model(seed=13)
    images = Rng(14).uniform((1, 1, 32, 32))
    with op_trace() as base_ops:
        model.forward(images)
    adapted = inject(model, LoraConfig(rank=2, init_seed=13))
    with op_trace() as unmerged_ops:
        adapted.forward(images)
    adapted.merge_all()
    with op_trace() as merged_ops:
        adapted.forward(images)
    assert merged_ops == base_ops          # inference-cost neutrality
    # unmerged, the pairs ride inside each block's attention_block node, so the
    # tape has the same nodes as the base; none is a separate LoRA op
    assert unmerged_ops == base_ops
    assert "lora_linear" not in [op for op, _ in base_ops]


def test_lora_training_step_op_sequence():
    # The embedding is one node and each block two; the last block's attention_block
    # takes the class-token rows inside. Nine ops in all, with the readout and loss.
    adapted = inject(tiny_model(seed=18), LoraConfig(rank=2, init_seed=18))
    head = LinearHead(5, TINY.dim)
    with op_trace() as ops:
        logits = head.forward(adapted.forward(Rng(19).uniform((4, 1, 32, 32))))
        T.softmax_cross_entropy(logits, np.arange(4))
    blocks = ["attention_block", "mlp_block"] * TINY.depth
    readout = ["layer_norm", "select", "linear", "softmax_cross_entropy"]
    assert [op for op, _ in ops] == ["embed"] + blocks + readout


# -- accounting -------------------------------------------------------------------------


def test_trainable_count_l14_paper_case():
    cfg = LoraConfig(rank=16, targets=("query", "key", "value", "output"))
    count = trainable_param_count(cfg, PRESETS["L14-shape"])
    assert count == 24 * 4 * 16 * 2048 == 3_145_728
    assert round(count / 1e6, 1) == 3.1
    with_head = trainable_param_count(cfg, PRESETS["L14-shape"], include_head=(25, 1024))
    assert with_head == 3_145_728 + 25 * 1024


def test_trainable_count_closed_form_cases():
    assert trainable_param_count(LoraConfig(rank=2), PRESETS["B16-shape"]) == 73_728
    assert trainable_param_count(LoraConfig(rank=2), TINY) == 512


def test_trainable_count_matches_enumeration():
    for targets in (("query",), ("query", "value"), ("query", "key", "value", "output")):
        for rank in (1, 2, 5):
            cfg = LoraConfig(rank=rank, targets=targets)
            adapted = inject(tiny_model(), cfg)
            enumerated = sum(p.data.size for p in adapted.trainable_parameters().values())
            assert enumerated == trainable_param_count(cfg, TINY)


# -- adapter checkpoints -------------------------------------------------------------------


def test_adapter_checkpoint_roundtrip(tmp_path):
    model = tiny_model(seed=15)
    adapted = inject(model, LoraConfig(rank=2, alpha=4.0, targets=("query", "output"), init_seed=15))
    for pair in adapted.pairs.values():
        pair.B.data[:] = Rng(16).normal(pair.B.data.shape, std=0.1)
    path = tmp_path / "adapters.peft"
    save_adapters(path, adapted)

    fresh = tiny_model(seed=15)
    loaded = load_adapters(path, fresh)
    assert loaded.cfg.rank == 2 and loaded.cfg.targets == ("query", "output")
    assert loaded.cfg.effective_alpha == 4.0
    for key, pair in adapted.pairs.items():
        np.testing.assert_array_equal(loaded.pairs[key].A.data, pair.A.data)
        np.testing.assert_array_equal(loaded.pairs[key].B.data, pair.B.data)
    images = Rng(17).uniform((2, 1, 32, 32))
    np.testing.assert_array_equal(loaded.forward(images).data, adapted.forward(images).data)


def test_adapter_checkpoint_dimension_guard(tmp_path):
    adapted = inject(tiny_model(), LoraConfig(rank=2))
    path = tmp_path / "adapters.peft"
    save_adapters(path, adapted)
    other_cfg = ViTConfig(image_size=16, patch_size=8, channels=1, dim=16, depth=2, heads=2)
    with pytest.raises(ConfigError):
        load_adapters(path, ViTModel.init(other_cfg, seed=0))
