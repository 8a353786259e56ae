"""Self-check suite behind the `verify` CLI command.

Runs the cross-module invariants end to end on freshly built throwaway
models: zero-init identity, merge equivalence, gradient checks, count
laws, and sampler determinism. Every check runs, even after one fails,
and yields one record; a check that raises yields a FAIL record naming
the exception.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint
from .data import DatasetManifest, ManifestItem, sample_episode
from .errors import PeftLabError
from .head import LinearHead
from .lora import LoraConfig, inject, trainable_param_count
from .optim import AdamW
from .rng import Rng
from .tensor import Tensor, grad_check
from .vit import PRESETS, TARGETS, ViTConfig, ViTModel


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _random_images(rng: Rng, n: int, cfg: ViTConfig, dtype) -> np.ndarray:
    return rng.uniform((n, cfg.channels, cfg.image_size, cfg.image_size)).astype(dtype)


def _small_configs() -> list[ViTConfig]:
    return [
        ViTConfig(image_size=16, patch_size=8, channels=1, dim=16, depth=1, heads=2),
        ViTConfig(image_size=32, patch_size=8, channels=1, dim=32, depth=2, heads=2),
        ViTConfig(image_size=24, patch_size=8, channels=2, dim=24, depth=2, heads=4, mlp_ratio=2),
    ]


def check_zero_init_identity(debug_nonzero_b: bool = False, triples: int = 6) -> CheckResult:
    rng = Rng(2024)
    configs = _small_configs()
    for i in range(triples):
        cfg = configs[i % len(configs)]
        for precision in ("f64", "f32"):
            model = ViTModel.init(cfg, seed=100 + i, precision=precision)
            images = _random_images(rng.derive(i, precision), 2, cfg, model.dtype)
            base = model.forward(images).data.copy()
            lcfg = LoraConfig(rank=1 + i % 3, targets=("query", "value"), init_seed=i)
            adapted = inject(model, lcfg, debug_nonzero_b=debug_nonzero_b)
            after = adapted.forward(images).data
            if not np.array_equal(base, after):
                return CheckResult(
                    "zero_init_identity", False,
                    f"triple {i} ({precision}): logits changed by injection",
                )
    return CheckResult("zero_init_identity", True, f"{triples} triples x 2 precisions")


def check_merge_equivalence(steps: int = 40, probes: int = 20) -> CheckResult:
    cfg = PRESETS["tiny"]
    model = ViTModel.init(cfg, seed=7, precision="f64")
    adapted = inject(model, LoraConfig(rank=2, targets=("query", "value"), init_seed=7))
    head = LinearHead(3, cfg.dim)
    rng = Rng(99)
    images = _random_images(rng, 16, cfg, np.float64)
    labels = np.array([i % 3 for i in range(16)])
    params = list(adapted.trainable_parameters().values()) + list(head.parameters().values())
    opt = AdamW(params, lr=1e-2, schedule="cosine", max_steps=steps)
    for _ in range(steps):
        opt.zero_grad()
        loss = T.softmax_cross_entropy(head.forward(adapted.forward(images)), labels)
        loss.backward()
        opt.step()
    probe_imgs = _random_images(rng, probes, cfg, np.float64)
    unmerged = head.forward(adapted.forward(probe_imgs)).data
    adapted.merge_all()
    merged = head.forward(adapted.forward(probe_imgs)).data
    rel = float(np.abs(merged - unmerged).max() / max(np.abs(unmerged).max(), 1e-12))
    adapted.unmerge_all()
    restored = head.forward(adapted.forward(probe_imgs)).data
    rel2 = float(np.abs(restored - unmerged).max() / max(np.abs(unmerged).max(), 1e-12))
    if rel > 1e-10:
        return CheckResult("merge_equivalence", False, f"merged vs unmerged rel {rel:.3e}")
    if rel2 > 1e-10:
        return CheckResult("merge_equivalence", False, f"unmerge restoration rel {rel2:.3e}")
    return CheckResult("merge_equivalence", True, f"rel {rel:.1e} after {steps} steps")


def check_gradients() -> CheckResult:
    rng = Rng(5)
    # op-level: linear map and matmul should be near-exact
    a = Tensor(rng.normal((3, 4)), requires_grad=True)
    b = Tensor(rng.normal((4, 2)), requires_grad=True)

    def f_mat():
        return T.tsum(T.matmul(a, b))

    # linear in each operand: no truncation error, so a large step only cuts rounding
    err = grad_check(f_mat, [a, b], eps=1e-3)
    if err > 1e-6:
        return CheckResult("grad_check", False, f"matmul rel err {err:.3e}")

    # small model + LoRA on every projection + head loss, sampled coordinates; two
    # blocks, so both the all-token and the class-token attention sub-block are checked
    cfg = ViTConfig(image_size=16, patch_size=8, channels=1, dim=16, depth=2, heads=2)
    model = ViTModel.init(cfg, seed=3)
    adapted = inject(model, LoraConfig(rank=2, targets=TARGETS, init_seed=3))
    head = LinearHead(3, cfg.dim)
    images = _random_images(rng, 4, cfg, np.float64)
    labels = np.array([0, 1, 2, 0])
    params = list(adapted.trainable_parameters().values()) + [head.W]

    def f_model():
        return T.softmax_cross_entropy(head.forward(adapted.forward(images)), labels)

    err2 = grad_check(f_model, params, eps=1e-5, max_coords_per_param=8, rng=Rng(11))
    if err2 > 1e-4:
        return CheckResult("grad_check", False, f"model rel err {err2:.3e}")
    return CheckResult("grad_check", True, f"matmul {err:.1e}, model {err2:.1e}")


def check_count_law() -> CheckResult:
    cases = [
        (PRESETS["L14-shape"], LoraConfig(rank=16, targets=("query", "key", "value", "output")), 3_145_728),
        (PRESETS["B16-shape"], LoraConfig(rank=2, targets=("query", "value")), 73_728),
        (PRESETS["tiny"], LoraConfig(rank=2, targets=("query", "value")), 512),
    ]
    for vit_cfg, lcfg, expected in cases:
        got = trainable_param_count(lcfg, vit_cfg)
        if got != expected:
            return CheckResult("count_law", False, f"{vit_cfg.dim}/{lcfg.rank}: formula {got} != {expected}")
    # formula vs independent enumeration on a trainable-size model
    cfg = PRESETS["tiny"]
    model = ViTModel.init(cfg, seed=1)
    lcfg = LoraConfig(rank=2, targets=("query", "value"))
    adapted = inject(model, lcfg)
    enumerated = sum(p.data.size for p in adapted.trainable_parameters().values())
    formula = trainable_param_count(lcfg, cfg)
    if enumerated != formula:
        return CheckResult("count_law", False, f"enumerated {enumerated} != formula {formula}")
    return CheckResult("count_law", True, "incl. L14-shape 3,145,728")


def _toy_manifest(per_class: int = 8, classes: int = 3) -> DatasetManifest:
    items = []
    for c in range(classes):
        for j in range(per_class):
            split = "train" if j < per_class - 2 else "test"
            items.append(ManifestItem(f"img_{c}_{j}.cyt", c, split))
    return DatasetManifest(
        name="toy", classes=tuple(f"c{c}" for c in range(classes)), items=items,
        norm_mean=(0.0,), norm_std=(1.0,),
    )


def check_sampler_determinism() -> CheckResult:
    man = _toy_manifest()
    for k in (1, 2, 4):
        e1 = sample_episode(man, k, seed=42)
        e2 = sample_episode(man, k, seed=42)
        if e1 != e2:
            return CheckResult("sampler_determinism", False, f"k={k}: re-draw differs")
        if e1.total != k * man.num_classes:
            return CheckResult("sampler_determinism", False, f"k={k}: {e1.total} items")
        if sample_episode(man, k, seed=43) == e1:
            return CheckResult("sampler_determinism", False, f"k={k}: seed 43 repeats seed 42")
    return CheckResult("sampler_determinism", True, "k in {1,2,4}")


def check_checkpoint(path) -> CheckResult:
    try:
        tensors, config = load_checkpoint(path)
    except PeftLabError as e:
        return CheckResult("checkpoint_integrity", False, str(e))
    return CheckResult("checkpoint_integrity", True, f"{len(tensors)} tensors, kind={config.get('kind')}")


def run_verify(backbone: str | None = None, debug_nonzero_b: bool = False) -> list[CheckResult]:
    checks = [
        ("zero_init_identity", lambda: check_zero_init_identity(debug_nonzero_b=debug_nonzero_b)),
        ("merge_equivalence", check_merge_equivalence),
        ("grad_check", check_gradients),
        ("count_law", check_count_law),
        ("sampler_determinism", check_sampler_determinism),
    ]
    if backbone is not None:
        checks.append(("checkpoint_integrity", lambda: check_checkpoint(backbone)))
    results = []
    for name, check in checks:
        try:
            results.append(check())
        except Exception as e:  # a check that crashes is a broken invariant, not a crash of verify
            where = traceback.extract_tb(e.__traceback__)[-1]
            results.append(CheckResult(
                name, False,
                f"raised {type(e).__name__}: {e} ({Path(where.filename).name}:{where.lineno})",
            ))
    return results
