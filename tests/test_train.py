import math
from dataclasses import replace

import numpy as np
import pytest

from peftlab.checkpoint import load_backbone, load_checkpoint
from peftlab.data import ManifestItem, DatasetManifest
from peftlab.errors import ConfigError, InsufficientDataError, NumericError, ParseError
from peftlab.lora import LoraConfig, trainable_param_count
from peftlab.rng import Rng
from peftlab.tensor import resolve_dtype
from peftlab.train import (
    ResultRow,
    SeedRun,
    TrainConfig,
    _fit,
    _fraction_subset,
    _lora_run,
    _probe_run,
    _selections,
    _steps_for,
    aggregate,
    append_results,
    build_run_manifest,
    format_mean_std,
    lr_sweep,
    pretrain_backbone,
    read_results,
    result_rows,
    run_experiment,
    run_fraction_scaling,
)
from peftlab.vit import PRESETS, ViTModel


def hundred_per_class_manifest(classes=4):
    items = []
    for c in range(classes):
        items += [ManifestItem(f"i{c}_{j}", c, "train") for j in range(100)]
    return DatasetManifest(name="m", classes=tuple(f"c{c}" for c in range(classes)),
                           items=items, norm_mean=(0.0,), norm_std=(1.0,))


# -- aggregate -----------------------------------------------------------------


def test_aggregate_zero_variance():
    agg = aggregate([0.95, 0.95, 0.95])
    assert (agg.mean, agg.std, agg.n) == (0.95, 0.0, 3)
    assert format_mean_std(agg, percent=True) == "95.00±0"


def test_aggregate_hand_sample_std():
    # sample std of {1,2,3}: sqrt(((1)^2 + 0 + 1^2)/2) = 1
    agg = aggregate([1.0, 2.0, 3.0])
    assert agg.mean == 2.0
    assert agg.std == pytest.approx(1.0)


def test_aggregate_single_flagged():
    agg = aggregate([0.5])
    assert agg.std == 0.0 and agg.n == 1
    assert "(n=1)" in format_mean_std(agg)


def test_aggregate_empty_errors():
    with pytest.raises(ConfigError):
        aggregate([])


def test_format_two_decimals():
    assert format_mean_std(aggregate([0.456, 0.466, 0.446]), percent=True) == "45.60±1.00"


# -- config defaults --------------------------------------------------------------


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.batch_size == 32
    assert len(cfg.seeds) == 3
    assert cfg.schedule == "cosine"
    assert cfg.precision == "f32"
    assert cfg.lr_grid == (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(mode="full_finetune")
    with pytest.raises(ConfigError):
        TrainConfig(mode="lora")  # missing LoraConfig
    with pytest.raises(ConfigError):
        TrainConfig(lr_grid=())
    with pytest.raises(ConfigError):
        TrainConfig(data_fraction=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


def test_steps_budget():
    cfg = TrainConfig()
    assert _steps_for(cfg, 1, 5) == 200      # max(200, 50k)
    assert _steps_for(cfg, 16, 80) == 800
    assert _steps_for(TrainConfig(max_steps=42), 16, 80) == 42
    assert _steps_for(cfg, None, 64) == 20 * 2  # epochs * ceil(n/batch)


# -- lr sweep ----------------------------------------------------------------------


def _stub_run(val: float):
    return SeedRun(seed=0, lr=0.0, val_top1=val, test_top1=val, trainable_params=1, wall_ms=0)


def test_lr_sweep_picks_best_val():
    scores = {1e-4: 0.5, 1e-3: 0.9, 1e-2: 0.7}
    cfg = TrainConfig(lr_grid=(1e-4, 1e-3, 1e-2), seeds=(0,))
    best, results = lr_sweep(lambda lr, seed: _stub_run(scores[lr]), cfg)
    assert best == 1e-3
    assert set(results) == set(scores)


def test_lr_sweep_single_and_duplicates():
    calls = []

    def run_fn(lr, seed):
        calls.append((lr, seed))
        return _stub_run(0.5)

    cfg = TrainConfig(lr_grid=(1e-3, 1e-3, 1e-3), seeds=(0, 1))
    best, _ = lr_sweep(run_fn, cfg)
    assert best == 1e-3
    assert len(calls) == 2  # deduplicated before running


def test_lr_sweep_tie_prefers_smaller():
    cfg = TrainConfig(lr_grid=(1e-2, 1e-4), seeds=(0,))
    best, _ = lr_sweep(lambda lr, seed: _stub_run(0.8), cfg)
    assert best == 1e-4


# -- fraction subsetting -------------------------------------------------------------


def test_fraction_five_percent_of_hundred():
    man = hundred_per_class_manifest()
    sel = _fraction_subset(man, 0.05, seed=0)
    labels = man.labels(sel)
    assert len(sel) == 4 * 5
    assert all((labels == c).sum() == 5 for c in range(4))


def test_fraction_nested_per_seed():
    man = hundred_per_class_manifest()
    for seed in (0, 1):
        s5 = set(_fraction_subset(man, 0.05, seed))
        s25 = set(_fraction_subset(man, 0.25, seed))
        s100 = set(_fraction_subset(man, 1.0, seed))
        assert s5 <= s25 <= s100


def test_fraction_one_is_full_train_split():
    man = hundred_per_class_manifest()
    assert _fraction_subset(man, 1.0, seed=3) == sorted(man.indices("train"))


def test_fraction_zero_items_errors():
    man = hundred_per_class_manifest()
    with pytest.raises(InsufficientDataError):
        _fraction_subset(man, 0.004, seed=0)


def test_fraction_deterministic():
    man = hundred_per_class_manifest()
    assert _fraction_subset(man, 0.3, seed=7) == _fraction_subset(man, 0.3, seed=7)
    assert _fraction_subset(man, 0.3, seed=7) != _fraction_subset(man, 0.3, seed=8)


# -- divergence reporting --------------------------------------------------------------


def test_fit_names_diverging_step():
    def forward(batch):
        raise NumericError("non-finite values produced by matmul")

    with pytest.raises(NumericError, match="step 0"):
        _fit(forward, [], np.zeros((4, 1)), np.zeros(4, dtype=np.int64), lr=1e-3, seed=0,
             steps=3, batch_size=32, weight_decay=1e-2, schedule="cosine")


def test_fit_on_an_empty_support_set_fails_fast():
    # _batch_indices would otherwise spin forever without yielding a batch
    with pytest.raises(InsufficientDataError):
        _fit(lambda batch: None, [], np.zeros((0, 1)), np.zeros(0, dtype=np.int64), lr=1e-3,
             seed=0, steps=3, batch_size=32, weight_decay=1e-2, schedule="cosine")


# -- integration: probe and lora training ------------------------------------------------


def quick_cfg(mode="linear_probe", **kw):
    base = dict(mode=mode, lr_grid=(1e-2,), seeds=(0,), max_steps=30)
    if mode == "lora":
        base["lora"] = LoraConfig(rank=2, targets=("query", "value"))
    base.update(kw)
    return TrainConfig(**base)


def test_step0_loss_is_ln_c_for_both_modes(fast_ckpt, fast_target):
    for mode in ("linear_probe", "lora"):
        cfg = quick_cfg(mode, max_steps=3, precision="f64")
        res = run_experiment(fast_ckpt, fast_target, cfg, k=2)
        assert res.runs[0].loss_curve[0] == pytest.approx(math.log(5), abs=1e-12)


def test_step0_loss_is_ln_c_for_both_modes_f32(fast_ckpt, fast_target):
    # a zero head gives uniform logits: ln 5 rounded to f32, within a few f32 ulp
    ulp = float(np.spacing(np.float32(math.log(5))))
    for mode in ("linear_probe", "lora"):
        res = run_experiment(fast_ckpt, fast_target, quick_cfg(mode, max_steps=3), k=2)
        assert res.runs[0].loss_curve[0] == pytest.approx(math.log(5), abs=4 * ulp)


def probe_head_bytes(fast_ckpt, fast_target, precision):
    support, val_idx, test_idx = _selections(fast_target, quick_cfg(), 2, seed=0)
    results = {}
    for cached in (True, False):
        cfg = quick_cfg(cache_features=cached, precision=precision)
        *_, head, _ = _probe_run(fast_ckpt, fast_target, support, val_idx, test_idx,
                                 cfg, lr=1e-2, seed=0, steps=30)
        assert head.W.data.dtype == resolve_dtype(precision)
        results[cached] = head.W.data.tobytes()
    return results


def test_probe_cached_equals_uncached_bitwise(fast_ckpt, fast_target):
    results = probe_head_bytes(fast_ckpt, fast_target, "f64")
    assert results[True] == results[False]


def test_probe_cached_equals_uncached_bitwise_f32(fast_ckpt, fast_target):
    results = probe_head_bytes(fast_ckpt, fast_target, "f32")
    assert results[True] == results[False]


def test_run_determinism_bitwise(fast_ckpt, fast_target):
    for precision in ("f64", "f32"):
        cfg = quick_cfg("lora", max_steps=20, precision=precision)
        a, b = (run_experiment(fast_ckpt, fast_target, cfg, k=2) for _ in range(2))
        assert a.chosen_lr == b.chosen_lr
        assert a.runs[0].loss_curve == b.runs[0].loss_curve
        assert a.runs[0].test_top1 == b.runs[0].test_top1


def test_lora_frozen_invariance_and_counts(fast_ckpt, fast_target):
    support, val_idx, test_idx = _selections(fast_target, quick_cfg("lora"), 2, seed=1)
    cfg = quick_cfg("lora", precision="f64")
    *_, head, adapted = _lora_run(fast_ckpt, fast_target, support, val_idx, test_idx,
                                  cfg, lr=1e-2, seed=1, steps=25)
    # counts: enumeration must equal closed form + head
    enumerated = sum(p.data.size for p in adapted.trainable_parameters().values())
    enumerated += sum(p.data.size for p in head.parameters().values())
    expected = trainable_param_count(
        cfg.lora, adapted.config, include_head=(fast_target.num_classes, adapted.config.dim)
    )
    assert enumerated == expected
    # non-adapted backbone parameters match the checkpoint bit for bit;
    # merged-then-unmerged hosts are restored within rounding only
    adapted.unmerge_all()
    tensors, _ = load_checkpoint(fast_ckpt)
    host_names = {f"block{i}.attn.W{t[0]}" for (i, t) in adapted.pairs}
    for name, p in adapted.base.parameters().items():
        if name in host_names:
            np.testing.assert_allclose(p.data, tensors[name], rtol=1e-12)
        else:
            np.testing.assert_array_equal(p.data, tensors[name])


def test_lora_frozen_invariance_f32(fast_ckpt, fast_target):
    support, val_idx, test_idx = _selections(fast_target, quick_cfg("lora"), 2, seed=1)
    *_, adapted = _lora_run(fast_ckpt, fast_target, support, val_idx, test_idx,
                            quick_cfg("lora"), lr=1e-2, seed=1, steps=25)
    # frozen weights equal the checkpoint cast to f32 bit for bit; a host
    # merged then unmerged is off by at most one rounding of h + delta and
    # one of (h + delta) - delta
    adapted.unmerge_all()
    tensors, _ = load_checkpoint(fast_ckpt)
    eps = np.finfo(np.float32).eps
    deltas = {f"block{i}.attn.W{t[0]}": pair.delta() for (i, t), pair in adapted.pairs.items()}
    for name, p in adapted.base.parameters().items():
        assert p.data.dtype == np.float32
        want = tensors[name].astype(np.float32)
        if name in deltas:
            bound = eps * (np.abs(want) + np.abs(deltas[name]))
            assert np.all(np.abs(p.data - want) <= bound), name
        else:
            np.testing.assert_array_equal(p.data, want)


def probe_run_model(fast_ckpt, fast_target, precision):
    support, val_idx, test_idx = _selections(fast_target, quick_cfg(), 1, seed=0)
    *_, model = _probe_run(fast_ckpt, fast_target, support, val_idx, test_idx,
                           quick_cfg(precision=precision), lr=1e-2, seed=0, steps=20)
    return model


def test_probe_frozen_invariance(fast_ckpt, fast_target):
    model = probe_run_model(fast_ckpt, fast_target, "f64")
    tensors, _ = load_checkpoint(fast_ckpt)
    for name, p in model.parameters().items():
        np.testing.assert_array_equal(p.data, tensors[name])


def test_probe_frozen_invariance_f32(fast_ckpt, fast_target):
    model = probe_run_model(fast_ckpt, fast_target, "f32")
    tensors, _ = load_checkpoint(fast_ckpt)
    for name, p in model.parameters().items():
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, tensors[name].astype(np.float32))


# Largest per-run test top-1 difference between f32 and f64, in test images,
# measured on the benchmark's lora-k4 cell over set-up seeds 0-39 (75 test
# images per run, lr grid {1e-3, 1e-2}); the probe differed in no run.
F32_MAX_FLIPS = 2


@pytest.mark.parametrize("mode", ["linear_probe", "lora"])
def test_f32_and_f64_cells_agree(fast_ckpt, fast_target, mode):
    # the measured budgets: lora-k4's 100 steps, the probe's default
    cfg = quick_cfg(mode, lr_grid=(1e-3, 1e-2), seeds=(0, 1, 2),
                    max_steps=100 if mode == "lora" else None)
    res = {p: run_experiment(fast_ckpt, fast_target, replace(cfg, precision=p), k=4)
           for p in ("f64", "f32")}
    assert res["f32"].chosen_lr == res["f64"].chosen_lr
    n_test = len(fast_target.indices("test"))
    for r32, r64 in zip(res["f32"].runs, res["f64"].runs):
        assert r32.seed == r64.seed
        assert round(abs(r32.test_top1 - r64.test_top1) * n_test) <= F32_MAX_FLIPS


def test_fewshot_val_is_disjoint_from_support(fast_target):
    cfg = quick_cfg()
    support, val_idx, _ = _selections(fast_target, cfg, 4, seed=0)
    assert not set(support) & set(val_idx)
    assert len(val_idx) == min(4, 4) * fast_target.num_classes
    cfg_full = quick_cfg(val_mode="full")
    _, val_full, _ = _selections(fast_target, cfg_full, 4, seed=0)
    assert sorted(val_full) == fast_target.indices("val")


def test_fraction_scaling_series(fast_ckpt, fast_target):
    cfg = quick_cfg("lora", max_steps=None, epochs=2)
    series = run_fraction_scaling(fast_ckpt, fast_target, (1.0, 0.2), cfg)
    assert [r.k_or_fraction for r in series] == ["0.2", "1"]
    assert all(len(r.runs) == 1 for r in series)


# -- pretraining ------------------------------------------------------------------------


def test_pretrain_zero_steps_equals_init(fast_source, tmp_path):
    path = tmp_path / "bb0.peft"
    pretrain_backbone(PRESETS["tiny"], fast_source, steps=0, seed=5, out_path=path)
    loaded = load_backbone(path)
    fresh = ViTModel.init(PRESETS["tiny"], seed=5)
    for name, p in fresh.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name].data, p.data)


def test_pretrain_rejects_zero_batch_size(fast_source, tmp_path):
    path = tmp_path / "bb.peft"
    for steps in (0, 2):
        with pytest.raises(ConfigError):
            pretrain_backbone(PRESETS["tiny"], fast_source, steps=steps, seed=0, out_path=path,
                              batch_size=0)
    assert not path.exists()


def test_pretrain_rerun_identical_bytes(fast_source, tmp_path):
    p1, p2 = tmp_path / "a.peft", tmp_path / "b.peft"
    pretrain_backbone(PRESETS["tiny"], fast_source, steps=8, seed=1, out_path=p1)
    pretrain_backbone(PRESETS["tiny"], fast_source, steps=8, seed=1, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- results CSV and manifest ----------------------------------------------------------


def sample_rows():
    return [
        ResultRow("lora", "target", "4", 1e-3, 0, 0.71, 672, 1200),
        ResultRow("lora", "target", "4", 1e-3, 1, 0.69, 672, 1100),
    ]


def test_append_results_idempotent(tmp_path):
    path = tmp_path / "results.csv"
    assert append_results(path, sample_rows()) == 2
    first = path.read_bytes()
    assert append_results(path, sample_rows()) == 0
    assert path.read_bytes() == first
    # a new seed extends the file
    extra = ResultRow("lora", "target", "4", 1e-3, 2, 0.73, 672, 1000)
    assert append_results(path, [extra]) == 1
    assert len(read_results(path)) == 3


def test_results_roundtrip(tmp_path):
    path = tmp_path / "results.csv"
    append_results(path, sample_rows())
    rows = read_results(path)
    assert rows[0].mode == "lora" and rows[0].lr == 1e-3 and rows[0].seed == 0
    assert rows[0].test_top1 == pytest.approx(0.71)


def test_results_parse_error_line_number(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("mode,dataset,k_or_fraction,lr,seed,test_top1,params_trainable,wall_ms\nbad,row\n")
    with pytest.raises(ParseError, match="line 2"):
        read_results(path)


def test_result_rows_from_run(fast_ckpt, fast_target):
    res = run_experiment(fast_ckpt, fast_target, quick_cfg(max_steps=5), k=1)
    rows = result_rows(res)
    assert len(rows) == 1
    assert rows[0].mode == "linear_probe" and rows[0].k_or_fraction == "1"


def test_run_manifest_is_canonical(fast_ckpt):
    cfg = quick_cfg("lora")
    text = build_run_manifest(cfg, fast_ckpt, extra={"dataset": "target", "k_or_fraction": "4"})
    lines = text.splitlines()
    assert lines == sorted(lines)
    keys = [ln.split("=")[0] for ln in lines]
    for needed in ("backbone_hash", "batch_size", "lora.rank", "mode", "seeds", "precision"):
        assert needed in keys
    assert text == build_run_manifest(cfg, fast_ckpt, extra={"dataset": "target", "k_or_fraction": "4"})
